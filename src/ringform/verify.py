"""Trace checkers: every structural guarantee of the algorithms, made testable.

Checkers are pure functions over a replayed run (the instance plus the
recorded per-round move sets).  Each returns an :class:`InvariantVerdict`
that names the first offending round and the witnesses on failure, so a
stored trace can be audited post-hoc without re-running the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from . import analysis
from .analysis import BLUE
from .core import Configuration, Instance, ProblemKind, validate
from .engine import (
    EngineError,
    Move,
    RoundTrace,
    RunResult,
    TraceData,
    TraceError,
    apply_moves,
    build_pairing,
    default_max_rounds,
    run_summary,
    step_round,
    stray_move,
    target_satisfied,
    uses_two_colour_steps,
    window_step_two_colour,
    wrap_block,
)


@dataclass(frozen=True)
class InvariantVerdict:
    name: str
    passed: bool
    round: int | None = None
    detail: str = ""

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        where = f" round {self.round}" if self.round is not None else ""
        tail = f": {self.detail}" if self.detail else ""
        return f"{status} {self.name}{where}{tail}"


@dataclass(frozen=True)
class ReplayedRun:
    """Configurations reconstructed by replaying a trace's move sets."""

    instance: Instance
    rounds: tuple[RoundTrace, ...]
    configs: tuple[Configuration, ...]  # configs[r] is the state after round r
    distances: tuple[int, ...] | None   # recorded distances, index 0 recomputed
    # The distance of every configuration, recomputed from the replayed
    # moves; None when the run has no distance potential.
    replayed_distances: tuple[int, ...] | None = None

    @property
    def final(self) -> Configuration:
        return self.configs[-1]


def replay(instance: Instance, rounds: Sequence[RoundTrace]) -> ReplayedRun:
    """Rebuild the configuration after every round from the recorded moves.

    For two-colour runs the distance of the initial configuration is
    computed from scratch, each later one from the moves of its round, and
    the final one from scratch again, so the cost stays O(moves) per round.
    """
    k = instance.k
    configs = [instance.initial]
    for rt in rounds:
        if not 1 <= rt.offset <= k:
            raise TraceError(f"round {rt.index}: offset {rt.offset} outside 1..{k}")
        try:
            configs.append(apply_moves(configs[-1], rt.moves))
        except EngineError as exc:
            raise TraceError(f"round {rt.index}: {exc}") from None
    distances: tuple[int, ...] | None = None
    replayed: tuple[int, ...] | None = None
    recorded = all(rt.distance is not None for rt in rounds)
    two_colour = uses_two_colour_steps(instance)
    if instance.spec.kind in (ProblemKind.P1, ProblemKind.P2) and (recorded or two_colour):
        row = instance.spec.row(BLUE)
        report = analysis.distance_report(instance.initial, row)
        if recorded:
            distances = (report.total,) + tuple(rt.distance for rt in rounds)  # type: ignore[misc]
    if two_colour:
        values = [report.total]
        for cfg, rt in zip(configs, rounds):
            values.append(values[-1] + analysis.distance_change(cfg, rt.moves,
                                                                report.rename_offset))
        final = analysis.distance(configs[-1], row, report.rename_offset, report.dest).total
        if final != values[-1]:
            raise EngineError("replayed distance disagrees with a recount of the final state")
        replayed = tuple(values)
    return ReplayedRun(
        instance=instance,
        rounds=tuple(rounds),
        configs=tuple(configs),
        distances=distances,
        replayed_distances=replayed,
    )


def replay_result(result: RunResult) -> ReplayedRun:
    return replay(result.instance, result.trace)


def replay_trace(data: TraceData) -> ReplayedRun:
    return replay(data.instance, data.rounds)


# --- individual checkers -------------------------------------------------------


def _blue_ids_clockwise(cfg: Configuration) -> tuple[int, ...]:
    return tuple(a.id for a in cfg.agents if a.colour == BLUE)


def _cyclically_equal(a: Sequence[int], b: Sequence[int]) -> bool:
    if len(a) != len(b):
        return False
    if not a:
        return True
    doubled = list(a) + list(a)
    target = list(b)
    return any(doubled[i:i + len(target)] == target for i in range(len(a)))


def check_order_preserving(run: ReplayedRun) -> InvariantVerdict:
    """The clockwise ordering of blue agents never changes between rounds."""
    name = "order_preserving"
    before = _blue_ids_clockwise(run.configs[0])
    for r, cfg in enumerate(run.configs[1:], start=1):
        after = _blue_ids_clockwise(cfg)
        if not _cyclically_equal(before, after):
            return InvariantVerdict(name, False, r,
                                    f"blue order {before} became {after}")
        before = after
    return InvariantVerdict(name, True)


def _lower_bound_extras(inst: Instance) -> int:
    if inst.spec.kind is ProblemKind.P2:
        return inst.initial.colour_totals()[0] - sum(inst.spec.row(BLUE))
    return 0


def check_suffix_property(run: ReplayedRun) -> InvariantVerdict:
    """In coordinates renamed from the initial state, every prefix of blocks
    carries a cumulative blue surplus of at most the extras count (0 for
    exact problems) and every suffix a cumulative surplus of at least 0,
    after every round."""
    name = "suffix_property"
    inst = run.instance
    row = inst.spec.row(BLUE)
    offset = analysis.rename_offset(analysis.surplus_profile(inst.initial, row))
    allowed = _lower_bound_extras(inst)
    for r, cfg in enumerate(run.configs):
        profile = analysis.surplus_profile(cfg, row)
        rotated = analysis.renamed_row(profile.y, offset)
        total = profile.total
        prefix = 0
        for j, value in enumerate(rotated, start=1):
            prefix += value
            if prefix > allowed:
                return InvariantVerdict(
                    name, False, r,
                    f"prefix of {j} renamed blocks has surplus {prefix} > {allowed}")
            suffix = total - prefix
            if j < len(rotated) and suffix < 0:
                return InvariantVerdict(
                    name, False, r,
                    f"suffix after {j} renamed blocks has surplus {suffix} < 0")
    return InvariantVerdict(name, True)


def check_no_wraparound(run: ReplayedRun) -> InvariantVerdict:
    """No agent is ever exchanged inside the window that pairs the renamed
    last block with the renamed first block."""
    name = "no_wraparound"
    inst = run.instance
    k = inst.k
    row = inst.spec.row(BLUE)
    origin = analysis.rename_offset(analysis.surplus_profile(inst.initial, row))
    forbidden = (wrap_block(origin - 1, k), origin)
    for r, rt in enumerate(run.rounds, start=1):
        pairing = build_pairing(k, rt.offset)
        if forbidden not in pairing.pairs:
            continue
        cfg = run.configs[r - 1]
        for m in rt.moves:
            src_b, dst_b = cfg.block_of(m.src), cfg.block_of(m.dst)
            if src_b != dst_b and {src_b, dst_b} == set(forbidden):
                return InvariantVerdict(
                    name, False, r,
                    f"agent {m.agent_id} crossed between blocks {forbidden[0]} and {forbidden[1]}")
    return InvariantVerdict(name, True)


def check_distance_monotone(
    run: ReplayedRun,
    *,
    require_nonnegative: bool = True,
    require_zero_quiescence: bool = True,
) -> InvariantVerdict:
    """The recorded distance never increases; for exact problems it also stays
    non-negative and, once zero, no agent moves again."""
    name = "distance_monotone"
    if run.distances is None:
        return InvariantVerdict(name, False, None, "trace carries no distance values")
    d = run.distances
    for r in range(1, len(d)):
        if d[r] > d[r - 1]:
            return InvariantVerdict(name, False, r, f"distance rose {d[r - 1]} -> {d[r]}")
    if require_nonnegative:
        for r, value in enumerate(d):
            if value < 0:
                return InvariantVerdict(name, False, r, f"distance {value} < 0")
    if require_zero_quiescence:
        for r, value in enumerate(d):
            if value == 0:
                for later in range(r, len(run.rounds)):
                    if run.rounds[later].moves:
                        return InvariantVerdict(
                            name, False, later + 1,
                            "agents moved after the distance reached 0")
                break
    return InvariantVerdict(name, True)


def check_distance_decrease(run: ReplayedRun, window: int) -> InvariantVerdict:
    """While positive, the distance drops by at least 1 within ``window`` rounds."""
    name = f"distance_decrease[{window}]"
    if run.distances is None:
        return InvariantVerdict(name, False, None, "trace carries no distance values")
    d = run.distances
    for r in range(len(d) - window):
        if d[r] > 0 and d[r + window] > d[r] - 1:
            return InvariantVerdict(
                name, False, r,
                f"distance {d[r]} did not drop within {window} rounds (still {d[r + window]})")
    return InvariantVerdict(name, True)


def _final_verdict(final: Configuration, inst: Instance, terminated: bool) -> InvariantVerdict:
    name = "final_condition"
    if not terminated:
        return InvariantVerdict(name, False, None, "run did not terminate")
    if not target_satisfied(final, inst):
        return InvariantVerdict(name, False, None,
                                f"final configuration {final.to_string()!r} misses the target")
    return InvariantVerdict(name, True)


def check_final(result: RunResult, inst: Instance) -> InvariantVerdict:
    """A terminated run must actually satisfy its target condition."""
    return _final_verdict(result.final, inst, result.terminated)


def check_final_config(run: ReplayedRun, terminated: bool) -> InvariantVerdict:
    return _final_verdict(run.final, run.instance, terminated)


def check_cooperativeness(run: ReplayedRun,
                          partition: analysis.BluePartition | None = None) -> InvariantVerdict:
    """From round 2c+2 on, every blue agent of class c either advances one
    block left each round or already sits in its destination block.

    Blue ranks are numbered in the renamed reading order of the initial
    configuration and must keep that order in every configuration; an
    unstable round is reported before any class failure, and otherwise the
    failure of the lowest class at its first failing round and rank.  The
    cost is O(moves) per round plus the ranks of the active classes that
    are not at their destination, each of which must move or fail.
    """
    name = "cooperativeness"
    inst = run.instance
    if inst.k % 2:
        return InvariantVerdict(name, False, None, "only meaningful for an even block count")
    if partition is None:
        partition = analysis.blue_partition(inst)
    potential = analysis.distance_report(inst.initial, inst.spec.row(BLUE))
    offset, dest = potential.rename_offset, potential.dest
    n_blue = len(dest)

    # Renamed position and renamed block of every blue rank (0-based here).
    n, p = inst.n, inst.p
    start = (offset - 1) * p
    agents = inst.initial.agents
    pos = [x for x in range(n) if agents[(start + x) % n].colour == BLUE]
    block = [x // p + 1 for x in pos]
    rank_of = {agents[(start + x) % n].id: i for i, x in enumerate(pos)}
    classes_of: dict[int, list[int]] = {}
    for class_index, ranks in enumerate(partition.classes, start=1):
        for rank in ranks:
            classes_of.setdefault(rank - 1, []).append(class_index)

    active: set[int] = set()                # classes switched on, below any failed one
    pending: set[tuple[int, int]] = set()   # (class, rank) of active ranks off destination
    failure = None                          # (class, round, rank, block before)
    for r, rt in enumerate(run.rounds, start=1):
        c = r // 2 - 1  # class c is checked from round 2c + 2 on
        if r % 2 == 0 and 1 <= c <= len(partition.classes) and failure is None:
            active.add(c)
            pending.update((c, rank - 1) for rank in partition.classes[c - 1]
                           if block[rank - 1] != dest[rank - 1])
        before: dict[int, int] = {}
        for m in rt.moves:
            i = rank_of.get(m.agent_id)
            if i is not None:
                x = (m.dst - start) % n
                pos[i] = x
                before[i] = block[i]
                block[i] = x // p + 1
        for i in before:
            if (i and pos[i - 1] >= pos[i]) or (i + 1 < n_blue and pos[i] >= pos[i + 1]):
                return InvariantVerdict(name, False, r, "blue ranks are not stable")
        stuck = [(c, r, i, before.get(i, block[i])) for c, i in pending
                 if block[i] != before.get(i, block[i]) - 1]
        if stuck:
            # Only a lower class can still displace this failure from the report.
            failure = min(stuck)
            active = {c for c in active if c < failure[0]}
            pending = {(c, i) for c, i in pending if c in active}
        for i in before:
            for c in classes_of.get(i, ()):
                if c in active:
                    if block[i] == dest[i]:
                        pending.discard((c, i))
                    else:
                        pending.add((c, i))
    if failure is not None:
        c, r, i, was = failure
        return InvariantVerdict(
            name, False, r,
            f"rank {i + 1} (class {c}) stayed in block {was}, destination {dest[i]}")
    return InvariantVerdict(name, True)


def check_summary(run: ReplayedRun, summary: Mapping[str, object]) -> InvariantVerdict:
    """A stored trace's summary, and the initial distance of its header,
    equal what the replay gives: ``rounds_used`` is the first configuration
    that meets the target (every round if none does), ``terminated`` says
    that one does and that at least k rounds without moves follow it,
    ``bound`` is the instance's round bound and ``bound_satisfied`` says
    that a terminated run stayed within it."""
    name = "summary"
    inst = run.instance
    reached = next((r for r, cfg in enumerate(run.configs) if target_satisfied(cfg, inst)),
                   None)
    rounds_used = len(run.rounds) if reached is None else reached
    tail = run.rounds[rounds_used:]
    terminated = reached is not None and len(tail) >= inst.k and not any(
        rt.moves for rt in tail)
    bound = analysis.theoretical_bound(inst)
    replayed = {
        "rounds_used": rounds_used,
        "terminated": terminated,
        "bound": bound,
        "bound_satisfied": terminated and rounds_used <= bound,
        "initial_distance": None if run.replayed_distances is None
        else run.replayed_distances[0],
    }
    for key, value in replayed.items():
        recorded = summary.get(key)
        if type(recorded) is not type(value) or recorded != value:
            return InvariantVerdict(
                name, False, None,
                f"recorded {key} {recorded} disagrees with the replay ({value})")
    return InvariantVerdict(name, True)


def check_safety(run: ReplayedRun) -> InvariantVerdict:
    """Rounds are numbered 1, 2, ... in order, moves stay inside their
    window, recorded counts and distances match the replayed
    configurations, and global colour totals never change."""
    name = "safety"
    totals = run.configs[0].colour_totals()
    p = run.instance.p
    for r, rt in enumerate(run.rounds, start=1):
        if rt.index != r:
            return InvariantVerdict(name, False, r, f"recorded round number {rt.index}")
        cfg_after = run.configs[r]
        stray = stray_move(build_pairing(run.instance.k, rt.offset), rt.moves, p)
        if stray is not None:
            return InvariantVerdict(name, False, r, f"move {stray} leaves its window")
        if cfg_after.all_counts() != rt.counts:
            return InvariantVerdict(name, False, r, "recorded counts disagree with the moves")
        replayed = None if run.replayed_distances is None else run.replayed_distances[r]
        if rt.distance != replayed:
            return InvariantVerdict(
                name, False, r,
                f"recorded distance {rt.distance} disagrees with the moves ({replayed})")
        if cfg_after.colour_totals() != totals:
            return InvariantVerdict(name, False, r, "colour totals changed")
    return InvariantVerdict(name, True)


def check_quiescence(run: ReplayedRun, rounds_used: int, terminated: bool) -> InvariantVerdict:
    """After the target condition holds, the trailing verification rounds
    (at least k of them) record no moves."""
    name = "quiescence"
    if not terminated:
        return InvariantVerdict(name, False, None, "run did not terminate")
    tail = run.rounds[rounds_used:]
    if len(tail) < run.instance.k:
        return InvariantVerdict(name, False, None,
                                f"only {len(tail)} verification rounds, expected {run.instance.k}")
    for r, rt in enumerate(tail, start=rounds_used + 1):
        if rt.moves:
            return InvariantVerdict(name, False, r,
                                    "agents moved after the target condition held")
    return InvariantVerdict(name, True)


# --- independent distance oracle ------------------------------------------------


def oracle_distance(cfg: Configuration, inst: Instance) -> int:
    """Distance computed the plodding way: scan for the best renaming, then walk
    every blue agent and find its destination by a fresh cumulative scan.
    Shares no code with the analysis module."""
    k, p = cfg.k, cfg.p
    row = [inst.spec.matrix[0][j] for j in range(k)]

    best_j, best_sum, running = 0, None, 0
    for j in range(k):
        blues_here = sum(
            1 for x in range(j * p, (j + 1) * p) if cfg.agents[x].colour == BLUE
        )
        running += blues_here - row[j]
        if best_sum is None or running > best_sum:
            best_sum, best_j = running, j
    start = (best_j + 1) % k  # 0-based original index of the renamed first block

    total = 0
    rank = 0
    for step in range(k):
        orig = (start + step) % k
        renamed_index = step + 1
        for x in range(orig * p, (orig + 1) * p):
            if cfg.agents[x].colour != BLUE:
                continue
            rank += 1
            covered = 0
            dest = k
            for ell in range(k):
                covered += row[(start + ell) % k]
                if covered >= rank:
                    dest = ell + 1
                    break
            total += renamed_index - dest
    return total


# --- sequential phase oracle ----------------------------------------------------


def sequential_phase_counts(inst: Instance) -> tuple[tuple[int, ...], ...]:
    """Final per-block colour counts after running one two-colour pass per
    constrained colour, in colour order, each pass freezing the colours
    already fixed.  Raises :class:`TraceError` if any pass fails to settle
    within ``default_max_rounds`` rounds."""
    if inst.spec.kind is not ProblemKind.P1:
        raise ValueError("the phase oracle applies to exact-count instances")
    cfg = inst.initial
    max_rounds = default_max_rounds(inst)
    for colour in range(1, inst.q):
        row = inst.spec.row(colour)
        cap, frozen = min(row), frozenset(range(1, colour))

        def step(state: Configuration, lb: int, rb: int) -> tuple[Move, ...]:
            return window_step_two_colour(state.block_view(lb), state.block_view(rb),
                                          row[lb - 1], cap, blue_colour=colour, frozen=frozen)

        idle: set[int] = set()
        rounds = 0
        while any(counts[colour - 1] != need for counts, need in zip(cfg.all_counts(), row)):
            if rounds >= max_rounds:
                raise TraceError(f"phase for colour {colour} did not settle")
            cfg, _ = step_round(cfg, rounds % inst.k + 1, step, idle)
            rounds += 1
    return cfg.all_counts()


# --- orchestration ----------------------------------------------------------------


def applicable_checks(inst: Instance) -> tuple[str, ...]:
    kind = inst.spec.kind
    if kind is ProblemKind.P1 and inst.q == 2:
        names = ["safety", "quiescence", "order_preserving", "suffix_property",
                 "no_wraparound", "distance_monotone", "distance_decrease", "final_condition"]
        if inst.k % 2 == 0:
            names.append("cooperativeness")
        return tuple(names)
    if kind is ProblemKind.P2:
        return ("safety", "quiescence", "order_preserving", "suffix_property",
                "no_wraparound", "distance_nonincreasing", "final_condition")
    return ("safety", "quiescence", "final_condition")


def run_checks(run: ReplayedRun, rounds_used: int, terminated: bool,
               names: Sequence[str] | None = None) -> list[InvariantVerdict]:
    """Run the named checkers (default: all applicable ones) over a replay."""
    inst = run.instance
    window = 2 if inst.k % 2 == 0 else 3
    table: dict[str, Callable[[], InvariantVerdict]] = {
        "safety": lambda: check_safety(run),
        "quiescence": lambda: check_quiescence(run, rounds_used, terminated),
        "order_preserving": lambda: check_order_preserving(run),
        "suffix_property": lambda: check_suffix_property(run),
        "no_wraparound": lambda: check_no_wraparound(run),
        "distance_monotone": lambda: check_distance_monotone(run),
        "distance_nonincreasing": lambda: check_distance_monotone(
            run, require_nonnegative=False, require_zero_quiescence=False),
        "distance_decrease": lambda: check_distance_decrease(run, window),
        "cooperativeness": lambda: check_cooperativeness(run),
        "final_condition": lambda: check_final_config(run, terminated),
    }
    if names is None:
        names = applicable_checks(inst)
    return [table[name]() for name in names]


def verify_result(result: RunResult) -> list[InvariantVerdict]:
    """Audit a run as ``verify_trace`` audits its stored trace."""
    summary = {**run_summary(result), "initial_distance": result.initial_distance}
    return verify_trace(TraceData(result.instance, result.trace, summary))


def verify_trace(data: TraceData) -> list[InvariantVerdict]:
    """Audit a stored trace: its instance must be one the engine runs, its
    moves must replay, and then every applicable checker and the summary
    check must pass."""
    report = validate(data.instance)
    if not report.valid:
        return [InvariantVerdict("instance", False, None,
                                 "; ".join(report.issues) or "colour totals miss the target")]
    try:
        run = replay_trace(data)
    except TraceError as exc:
        return [InvariantVerdict("replay", False, None, str(exc))]
    verdicts = run_checks(run, data.summary.get("rounds_used", len(data.rounds)),
                          data.summary.get("terminated", False))
    return verdicts + [check_summary(run, data.summary)]

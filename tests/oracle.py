"""The trace checkers as they were before the audit became one pass: each
walks a replayed run of its own, and ``replay`` keeps every configuration.
They are the oracle of the differential tests of ``ringform.verify``: on
the same trace, ``verify_trace`` here and there must give the same
verdicts, in the same order and with the same text.

The module also holds the sequential-phase oracle of the many-colour runs,
``sequential_phase_counts``, which runs one two-colour pass per colour
with the agent-level window step ``agent_step_two_colour``, as the step
was first written, and shares no step with the engine."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from ringform import analysis
from ringform.analysis import BLUE
from ringform.core import Agent, Configuration, Instance, ProblemKind, validate
from ringform.engine import (
    EngineError,
    Move,
    MoveSet,
    RoundTrace,
    RunResult,
    TraceData,
    TraceError,
    _new_move,
    apply_moves,
    build_pairing,
    default_max_rounds,
    target_satisfied,
    uses_two_colour_steps,
    wrap_block,
)
from ringform.verify import InvariantVerdict, applicable_checks


def blue_scan(cfg: Configuration, offset: int) -> tuple[tuple[int, int], ...]:
    """Blue agents in renamed reading order as (renamed block, agent id) pairs."""
    p = cfg.p
    start = (offset - 1) * p
    colours = cfg.colours[start:] + cfg.colours[:start]
    ids = cfg.ids[start:] + cfg.ids[:start]
    return tuple((x // p + 1, ids[x])
                 for x in compress(range(cfg.n), map(BLUE.__eq__, colours)))


def stray_move(moves: Iterable[Sequence[int]], offset: int, k: int, p: int) -> Move | None:
    """The first move that does not stay inside one window of the pairing at
    ``offset`` (k blocks of length ``p``), or None.

    Block b lies in window ``(b - offset) % k // 2``, counted in the order of
    ``build_pairing(k, offset).pairs``; for odd k, window ``k // 2`` is the
    block left unpaired, and for even k that window does not occur.
    """
    if type(moves) is not MoveSet:
        moves = MoveSet(moves)
    unpaired = k // 2
    for m in moves.triples():
        _, src, dst = m
        window = (src // p + 1 - offset) % k // 2
        if window == unpaired or window != (dst // p + 1 - offset) % k // 2:
            return _new_move(m)
    return None

def distance_change(cfg: Configuration, moves: MoveSet, offset: int) -> int:
    """Change of the distance potential when ``moves`` are applied to ``cfg``.

    The destinations sum to a constant (they depend only on the blue total
    and the requirement row), so the distance is the sum of the renamed
    blocks of all blue agents minus that constant.  Only a blue agent that
    changes block changes it, by the change of its renamed block.
    """
    k, p, colours = cfg.k, cfg.p, cfg.colours
    change = 0
    for _, src, dst in moves.triples():
        src_b, dst_b = src // p + 1, dst // p + 1
        if src_b != dst_b and colours[src] == BLUE:
            change += (dst_b - offset) % k - (src_b - offset) % k  # of the renamed blocks
    return change


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
            values.append(values[-1] + distance_change(cfg, rt.moves, report.rename_offset))
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


def _blue_positions(cfg: Configuration) -> list[int]:
    return list(compress(range(cfg.n), map(BLUE.__eq__, cfg.colours)))


def _blue_ids_clockwise(cfg: Configuration) -> tuple[int, ...]:
    return tuple(map(cfg.ids.__getitem__, _blue_positions(cfg)))


def check_order_preserving(run: ReplayedRun) -> InvariantVerdict:
    """The clockwise ordering of blue agents never changes between rounds.

    Blue ranks are numbered in the ring order of the initial configuration.
    They keep their cyclic order exactly while one rank i, and only one,
    sits after rank i + 1 (the last rank after the first, in the initial
    configuration).  The check follows that count of descents through the
    moves, looking only at the pairs next to a moved rank, so a round costs
    O(moves); a failure lists the blue agents of the two configurations.
    """
    name = "order_preserving"
    initial = run.configs[0]
    pos = _blue_positions(initial)
    n_blue = len(pos)
    rank_of = {initial.ids[x]: i for i, x in enumerate(pos)}

    def descents(ranks: set[int]) -> int:
        return sum(pos[i] > pos[(i + 1) % n_blue] for i in ranks)

    for r, rt in enumerate(run.rounds, start=1):
        moved = [(rank_of[agent_id], dst) for agent_id, _, dst in rt.moves.triples()
                 if agent_id in rank_of]
        if not moved:
            continue
        pairs = {i for rank, _ in moved for i in ((rank - 1) % n_blue, rank)}
        before = descents(pairs)
        for rank, dst in moved:
            pos[rank] = dst
        if descents(pairs) != before:
            return InvariantVerdict(
                name, False, r, f"blue order {_blue_ids_clockwise(run.configs[r - 1])} "
                                f"became {_blue_ids_clockwise(run.configs[r])}")
    return InvariantVerdict(name, True)


def _lower_bound_extras(inst: Instance) -> int:
    if inst.spec.kind is ProblemKind.P2:
        return inst.initial.colour_totals()[0] - sum(inst.spec.row(BLUE))
    return 0


def check_suffix_property(run: ReplayedRun) -> InvariantVerdict:
    """In coordinates renamed from the initial state, every prefix of blocks
    carries a cumulative blue surplus of at most the extras count (0 for
    exact problems) and every suffix a cumulative surplus of at least 0,
    after every round.

    The k renamed prefix sums are counted once.  A blue agent moving from
    renamed block a to b changes the sums of the prefixes ending in blocks
    a..b-1 (b..a-1 moving left): one sum for a neighbour, all but the last
    for the renamed wrap.  Only a changed sum can newly break a bound.
    """
    name = "suffix_property"
    inst = run.instance
    k, p = inst.k, inst.p
    surplus = analysis.surplus_profile(inst.initial, inst.spec.row(BLUE))
    offset = analysis.rename_offset(surplus)
    allowed = _lower_bound_extras(inst)
    total = sum(surplus)
    prefix = [0, *accumulate(analysis.renamed_row(surplus, offset))]  # prefix[j]: blocks 1..j

    def first_failure(r: int, blocks: Iterable[int]) -> InvariantVerdict | None:
        for j in sorted(blocks):
            if prefix[j] > allowed:
                return InvariantVerdict(
                    name, False, r,
                    f"prefix of {j} renamed blocks has surplus {prefix[j]} > {allowed}")
            if j < k and total - prefix[j] < 0:
                return InvariantVerdict(
                    name, False, r,
                    f"suffix after {j} renamed blocks has surplus {total - prefix[j]} < 0")
        return None

    failure = first_failure(0, range(1, k + 1))
    for r, (rt, cfg) in enumerate(zip(run.rounds, run.configs), start=1):
        if failure is not None:
            break
        colours = cfg.colours
        changed: set[int] = set()
        for _, src, dst in rt.moves.triples():
            src_b, dst_b = src // p, dst // p
            if src_b != dst_b and colours[src] == BLUE:
                a, b = (src_b + 1 - offset) % k, (dst_b + 1 - offset) % k  # renamed, 0-based
                low, high, step = (a, b, -1) if a < b else (b, a, 1)
                for j in range(low + 1, high + 1):
                    prefix[j] += step
                    changed.add(j)
        failure = first_failure(r, changed)
    return failure or InvariantVerdict(name, True)


def check_no_wraparound(run: ReplayedRun) -> InvariantVerdict:
    """No agent is ever exchanged inside the window that pairs the renamed
    last block with the renamed first block."""
    name = "no_wraparound"
    inst = run.instance
    k, p = inst.k, inst.p
    row = inst.spec.row(BLUE)
    origin = analysis.rename_offset(analysis.surplus_profile(inst.initial, row))
    last = wrap_block(origin - 1, k)
    forbidden = {last, origin}
    for r, rt in enumerate(run.rounds, start=1):
        # The round pairs (last, origin) when ``last`` is an even number of
        # blocks after the offset, and is not the block an odd k leaves unpaired.
        left = (last - rt.offset) % k
        if left % 2 or left == k - 1:
            continue
        for agent_id, src, dst in rt.moves.triples():
            src_b, dst_b = src // p + 1, dst // p + 1
            if src_b != dst_b and {src_b, dst_b} == forbidden:
                return InvariantVerdict(
                    name, False, r,
                    f"agent {agent_id} crossed between blocks {last} and {origin}")
    return InvariantVerdict(name, True)


def check_distance_monotone(
    run: ReplayedRun,
    *,
    require_nonnegative: bool = True,
    require_zero_quiescence: bool = True,
    name: str = "distance_monotone",
) -> InvariantVerdict:
    """The recorded distance never increases; for exact problems it also stays
    non-negative and, once zero, no agent moves again."""
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


def check_final_config(run: ReplayedRun, terminated: bool) -> InvariantVerdict:
    return _final_verdict(run.final, run.instance, terminated)


def check_cooperativeness(run: ReplayedRun,
                          partition: tuple[tuple[int, ...], ...] | None = None
                          ) -> InvariantVerdict:
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
    colours, ids = inst.initial.colours, inst.initial.ids
    pos = [x for x in range(n) if colours[(start + x) % n] == BLUE]
    block = [x // p + 1 for x in pos]
    rank_of = {ids[(start + x) % n]: i for i, x in enumerate(pos)}
    classes_of: dict[int, list[int]] = {}
    for class_index, ranks in enumerate(partition, start=1):
        for rank in ranks:
            classes_of.setdefault(rank - 1, []).append(class_index)

    active: set[int] = set()                # classes switched on, below any failed one
    pending: set[tuple[int, int]] = set()   # (class, rank) of active ranks off destination
    failure = None                          # (class, round, rank, block before)
    for r, rt in enumerate(run.rounds, start=1):
        c = r // 2 - 1  # class c is checked from round 2c + 2 on
        if r % 2 == 0 and 1 <= c <= len(partition) and failure is None:
            active.add(c)
            pending.update((c, rank - 1) for rank in partition[c - 1]
                           if block[rank - 1] != dest[rank - 1])
        before: dict[int, int] = {}
        for agent_id, _, dst in rt.moves.triples():
            i = rank_of.get(agent_id)
            if i is not None:
                x = (dst - start) % n
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
    """Rounds are numbered 1, 2, ... in order, round r runs at offset
    ``(r - 1) % k + 1``, moves stay inside their window, and recorded counts
    and distances match the replayed configurations.

    Replay applies only moves that permute positions and match the ids at
    their sources, so the colour totals cannot change and are not checked.
    """
    name = "safety"
    k, p = run.instance.k, run.instance.p
    for r, rt in enumerate(run.rounds, start=1):
        if rt.index != r:
            return InvariantVerdict(name, False, r, f"recorded round number {rt.index}")
        if rt.offset != wrap_block(r, k):
            return InvariantVerdict(name, False, r, f"recorded offset {rt.offset}, "
                                                    f"the schedule gives {wrap_block(r, k)}")
        stray = stray_move(rt.moves, rt.offset, k, p)
        if stray is not None:
            return InvariantVerdict(name, False, r, f"move {stray} leaves its window")
        if run.configs[r].all_counts() != rt.counts:
            return InvariantVerdict(name, False, r, "recorded counts disagree with the moves")
        replayed = None if run.replayed_distances is None else run.replayed_distances[r]
        if rt.distance != replayed:
            return InvariantVerdict(
                name, False, r,
                f"recorded distance {rt.distance} disagrees with the moves ({replayed})")
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
            run, require_nonnegative=False, require_zero_quiescence=False,
            name="distance_nonincreasing"),
        "distance_decrease": lambda: check_distance_decrease(run, window),
        "cooperativeness": lambda: check_cooperativeness(run),
        "final_condition": lambda: check_final_config(run, terminated),
    }
    if names is None:
        names = applicable_checks(inst)
    return [table[name]() for name in names]


def verify_trace(data: TraceData) -> list[InvariantVerdict]:
    """Audit a stored trace: its instance must be one the engine runs, its
    moves must replay, and then every applicable checker and the summary
    check must pass."""
    report = validate(data.instance)
    if not report.valid:
        return [InvariantVerdict("instance", False, None, "; ".join(report.issues))]
    try:
        run = replay_trace(data)
    except TraceError as exc:
        return [InvariantVerdict("replay", False, None, str(exc))]
    verdicts = run_checks(run, data.summary.get("rounds_used", len(data.rounds)),
                          data.summary.get("terminated", False))
    return verdicts + [check_summary(run, data.summary)]


# --- sequential phase oracle ---------------------------------------------------


class AgentView(NamedTuple):
    """A block as the agent-level steps read it: its per-slot (ring
    position, Agent) tuples and its colour counts (index 0 holds colour 1)."""

    index: int
    slots: tuple[tuple[int, Agent], ...]
    counts: tuple[int, ...]


def agent_view(cfg: Configuration, j: int) -> AgentView:
    start = (j - 1) * cfg.p
    return AgentView(j, tuple(enumerate(cfg.agents[start:start + cfg.p], start)),
                     cfg.all_counts()[j - 1])


def agent_step_two_colour(left: AgentView, right: AgentView, blue_required_left: int, cap: int,
                          *, blue_colour: int = 1, frozen: frozenset[int] = frozenset()
                          ) -> tuple[Move, ...]:
    """The two-colour window step as first written, over Agent tuples, with
    ``blue_colour`` playing blue and every colour in ``frozen`` kept at its
    exact positions."""
    left_mobile = [(pos, a) for pos, a in left.slots if a.colour not in frozen]
    blues_left = [a for _, a in left_mobile if a.colour == blue_colour]
    deficit = blue_required_left - len(blues_left)
    if deficit <= 0:
        return ()

    right_mobile = [(pos, a) for pos, a in right.slots if a.colour not in frozen]
    blues_right = [a for _, a in right_mobile if a.colour == blue_colour]
    reds_left = [a for _, a in left_mobile if a.colour != blue_colour]
    reds_right = [a for _, a in right_mobile if a.colour != blue_colour]
    t = min(cap, deficit, len(blues_right))
    if len(reds_left) < t:
        raise EngineError(
            f"window [{left.index}|{right.index}]: {len(reds_left)} movable reds but t={t}"
        )

    new_left = blues_left + reds_left
    new_right = blues_right + reds_right
    base = len(blues_left)
    for x in range(t):
        new_left[base + x], new_right[x] = new_right[x], new_left[base + x]

    old_pos = {a.id: pos for pos, a in left_mobile + right_mobile}
    moves = []
    for slots, layout in ((left_mobile, new_left), (right_mobile, new_right)):
        for (pos, _), agent in zip(slots, layout):
            if old_pos[agent.id] != pos:
                moves.append(Move(agent.id, old_pos[agent.id], pos))
    return tuple(moves)


def sequential_phase_counts(inst: Instance) -> tuple[tuple[int, ...], ...]:
    """Final per-block colour counts after one two-colour pass per
    constrained colour, in colour order.  The pass for colour c plays c as
    blue and freezes the colours below it; its round r steps every window
    of ``build_pairing(k, (r - 1) % k + 1)`` with ``agent_step_two_colour``
    and applies the moves at once, until every block holds its colour-c
    requirement.  Raises TraceError if a pass does not settle within
    ``default_max_rounds`` rounds."""
    if inst.spec.kind is not ProblemKind.P1:
        raise ValueError("the phase oracle applies to exact-count instances")
    cfg, k = inst.initial, inst.k
    max_rounds = default_max_rounds(inst)
    for colour in range(1, inst.q):
        row = inst.spec.row(colour)
        frozen = frozenset(range(1, colour))
        rounds = 0
        while any(counts[colour - 1] != need for counts, need in zip(cfg.all_counts(), row)):
            if rounds >= max_rounds:
                raise TraceError(f"phase for colour {colour} did not settle")
            pairing = build_pairing(k, rounds % k + 1)
            moves = [move for lb, rb in pairing.pairs
                     for move in agent_step_two_colour(agent_view(cfg, lb), agent_view(cfg, rb),
                                                       row[lb - 1], min(row),
                                                       blue_colour=colour, frozen=frozen)]
            cfg = apply_moves(cfg, moves, pairing)
            rounds += 1
    return cfg.all_counts()

"""Trace checkers: every structural guarantee of the algorithms, made testable.

An audit is one pass over a trace's rounds.  It replays each round's
recorded moves with ``engine.apply_moves`` and hands the round, with the
configurations before and after it, to every checker; no other
configuration is kept.  A checker keeps O(n + k) state (``quiescence``
also one byte a round) and stops looking at its first failure.  Its
:class:`InvariantVerdict`, which names the first offending round and the
witnesses on failure, is settled once the trace has ended and its summary
is known.  A stored trace is thus audited post hoc, without re-running
the engine and without holding its rounds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from . import analysis
from .analysis import BLUE
from .core import Configuration, Instance, ProblemKind, validate
from .engine import (
    EngineError,
    RoundTrace,
    RunResult,
    TraceData,
    TraceError,
    apply_moves,
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
    """A trace's rounds, which ``replay`` found to replay from its instance."""

    instance: Instance
    rounds: tuple[RoundTrace, ...]


_failure = attrgetter("failure")


class _Audit:
    """One pass over a trace's rounds: the configuration after the rounds
    fed so far, the distance replayed from their moves, and the checkers."""

    def __init__(self, inst: Instance, names: Iterable[str]):
        self.instance, self.k = inst, inst.k
        self.cfg = inst.initial
        self.rounds = 0
        self.distances_recorded = True  # every round so far records a distance
        # The distance of two-colour runs, followed through the moves.
        self.distance = self.potential.total if uses_two_colour_steps(inst) else None
        self.checkers = [_CHECKERS[name](self) for name in names]
        self.sort_live()
        # What the trace records, known at its end: see settle.
        self.rounds_used, self.terminated = 0, False
        self.summary: Mapping[str, object] = {}

    @cached_property
    def potential(self) -> analysis.DistanceReport:
        """The distance of the initial configuration, with its renaming and
        destinations."""
        inst = self.instance
        return analysis.distance_report(inst.initial, inst.spec.row(BLUE))

    def sort_live(self) -> None:
        """The checkers that have not failed, by the rounds they look at."""
        live = [c for c in self.checkers if c.failure is None]
        self.moving = [c for c in live if c.sees != "none"]
        self.every = [c for c in live if c.sees == "every"]

    def advance(self, rt: RoundTrace) -> None:
        """Replay round ``rt`` and hand it to every checker that has not
        failed and looks at it; raises TraceError if its offset lies outside
        1..k or ``apply_moves`` refuses its moves."""
        if not 1 <= rt.offset <= self.k:
            raise TraceError(f"round {rt.index}: offset {rt.offset} outside 1..{self.k}")
        before = after = self.cfg
        self.rounds += 1
        if rt.distance is None:
            self.distances_recorded = False
        checkers = self.every
        if rt.moves.flat:
            try:
                after = self.cfg = apply_moves(before, rt.moves)
            except EngineError as exc:
                raise TraceError(f"round {rt.index}: {exc}") from None
            if self.distance is not None:
                self.distance += analysis.distance_change(before, rt.moves,
                                                          self.potential.rename_offset)
            checkers = self.moving
        for checker in checkers:
            checker.round(self, rt, before, after)
        if any(map(_failure, checkers)):
            self.sort_live()

    def settle(self, rounds_used: int, terminated: bool,
               summary: Mapping[str, object] | None = None) -> list[InvariantVerdict]:
        """Every checker's verdict, given the ``rounds_used`` and
        ``terminated`` that the trace records and its summary.  The replayed
        distance is recounted from scratch first: a disagreement raises
        EngineError."""
        if self.distance is not None:
            p = self.potential
            final = analysis.distance(self.cfg, self.instance.spec.row(BLUE),
                                      p.rename_offset, p.dest).total
            if final != self.distance:
                raise EngineError("replayed distance disagrees with a recount of the final state")
        self.rounds_used, self.terminated = rounds_used, terminated
        self.summary = summary or {}
        return [checker.verdict(self) for checker in self.checkers]


# --- individual checkers -------------------------------------------------------


class _Checker:
    """Fed one round at a time until it fails; ``verdict`` settles once the
    trace has ended."""

    name = ""
    failure: InvariantVerdict | None = None
    # The rounds ``round`` looks at: "every" round, only the "moving" rounds
    # in which an agent moves, or "none".
    sees = "every"

    def __init__(self, audit: _Audit):
        """Set up from ``audit``'s instance, before its first round."""

    def fail(self, r: int | None, detail: str) -> None:
        self.failure = InvariantVerdict(self.name, False, r, detail)

    def round(self, audit: _Audit, rt: RoundTrace, before: Configuration,
              after: Configuration) -> None:
        """Check round ``audit.rounds``, which turned ``before`` into ``after``."""

    def verdict(self, audit: _Audit) -> InvariantVerdict:
        return self.failure or InvariantVerdict(self.name, True)


class _Safety(_Checker):
    """Rounds are numbered 1, 2, ... in order, round r runs at offset
    ``(r - 1) % k + 1``, moves stay inside their window, and recorded counts
    and distances match the replayed configurations.

    Replay applies only moves that permute positions and match the ids at
    their sources, so the colour totals cannot change and are not checked.
    """

    name = "safety"

    def round(self, audit, rt, before, after):
        r, k, p, replayed = audit.rounds, after.k, after.p, audit.distance
        schedule = (r - 1) % k + 1
        if rt.index != r:
            self.fail(r, f"recorded round number {rt.index}")
        elif rt.offset != schedule:
            self.fail(r, f"recorded offset {rt.offset}, the schedule gives {schedule}")
        elif rt.moves.flat and (stray := stray_move(rt.moves, rt.offset, k, p)) is not None:
            self.fail(r, f"move {stray} leaves its window")
        elif after.all_counts() != rt.counts:
            self.fail(r, "recorded counts disagree with the moves")
        elif rt.distance != replayed:
            self.fail(r, f"recorded distance {rt.distance} disagrees with the moves ({replayed})")


class _Quiescence(_Checker):
    """After the target condition holds, the trailing verification rounds
    (at least k of them) record no moves.

    The recorded ``rounds_used`` that starts the tail comes with the
    summary, at the end of the trace, so this checker keeps one byte per
    round: whether it moved an agent.
    """

    name = "quiescence"
    sees = "moving"

    def __init__(self, audit):
        super().__init__(audit)
        self.moved = bytearray()

    def round(self, audit, rt, before, after):
        self.moved.extend(bytes(audit.rounds - 1 - len(self.moved)))  # the quiet rounds
        self.moved.append(1)

    def verdict(self, audit):
        k = audit.k
        if not audit.terminated:
            return InvariantVerdict(self.name, False, None, "run did not terminate")
        self.moved.extend(bytes(audit.rounds - len(self.moved)))
        tail = self.moved[audit.rounds_used:]
        if len(tail) < k:
            return InvariantVerdict(self.name, False, None,
                                    f"only {len(tail)} verification rounds, expected {k}")
        first = tail.find(1)
        if first >= 0:
            return InvariantVerdict(self.name, False, audit.rounds_used + 1 + first,
                                    "agents moved after the target condition held")
        return InvariantVerdict(self.name, True)


class _OrderPreserving(_Checker):
    """The clockwise ordering of blue agents never changes between rounds.

    Blue ranks are numbered in the ring order of the initial configuration.
    They keep their cyclic order exactly while one rank i, and only one,
    sits after rank i + 1 (the last rank after the first, in the initial
    configuration).  The check follows that count of descents through the
    moves, looking only at the pairs next to a moved rank, so a round costs
    O(moves); a failure lists the blue agents in ring order before and after
    the round, sorted from the ranks' own positions.
    """

    name = "order_preserving"
    sees = "moving"

    def __init__(self, audit):
        super().__init__(audit)
        initial = audit.instance.initial
        self.pos = list(compress(range(initial.n), map(BLUE.__eq__, initial.colours)))
        self.ids = [initial.ids[x] for x in self.pos]  # the agent id of every rank
        self.rank_of = {agent_id: i for i, agent_id in enumerate(self.ids)}

    def clockwise(self) -> tuple[int, ...]:
        return tuple(self.ids[i] for i in sorted(range(len(self.pos)), key=self.pos.__getitem__))

    def round(self, audit, rt, before, after):
        pos, rank_of = self.pos, self.rank_of
        moved = [(rank_of[agent_id], src, dst) for agent_id, src, dst in rt.moves.triples()
                 if agent_id in rank_of]
        if not moved:
            return
        n_blue = len(pos)
        pairs = {i for rank, _, _ in moved for i in ((rank - 1) % n_blue, rank)}
        was = _descents(pos, pairs)
        for rank, _, dst in moved:
            pos[rank] = dst
        if _descents(pos, pairs) != was:
            became = self.clockwise()
            for rank, src, _ in moved:
                pos[rank] = src
            self.fail(audit.rounds, f"blue order {self.clockwise()} became {became}")


def _descents(pos: list[int], ranks: Iterable[int]) -> int:
    """How many of ``ranks`` sit after the next rank, cyclically."""
    n = len(pos)
    return sum(pos[i] > pos[(i + 1) % n] for i in ranks)


def _lower_bound_extras(inst: Instance) -> int:
    if inst.spec.kind is ProblemKind.P2:
        return inst.initial.colour_totals()[0] - sum(inst.spec.row(BLUE))
    return 0


class _SuffixProperty(_Checker):
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
    sees = "moving"

    def __init__(self, audit):
        super().__init__(audit)
        inst = audit.instance
        profile = analysis.surplus_profile(inst.initial, inst.spec.row(BLUE))
        self.offset = audit.potential.rename_offset
        self.allowed = _lower_bound_extras(inst)
        self.total = profile.total
        # prefix[j]: the surplus of renamed blocks 1..j
        self.prefix = [0, *accumulate(analysis.renamed_row(profile.y, self.offset))]
        self.check(0, range(1, inst.k + 1))

    def check(self, r: int, blocks: Iterable[int]) -> None:
        prefix, allowed, total, k = self.prefix, self.allowed, self.total, len(self.prefix) - 1
        for j in sorted(blocks):
            if prefix[j] > allowed:
                self.fail(r, f"prefix of {j} renamed blocks has surplus {prefix[j]} > {allowed}")
                return
            if j < k and total - prefix[j] < 0:
                self.fail(r, f"suffix after {j} renamed blocks has surplus "
                             f"{total - prefix[j]} < 0")
                return

    def round(self, audit, rt, before, after):
        k, p, offset, prefix = before.k, before.p, self.offset, self.prefix
        colours = before.colours
        changed: set[int] = set()
        for _, src, dst in rt.moves.triples():
            src_b, dst_b = src // p, dst // p
            if src_b != dst_b and colours[src] == BLUE:
                a, b = (src_b + 1 - offset) % k, (dst_b + 1 - offset) % k  # renamed, 0-based
                low, high, step = (a, b, -1) if a < b else (b, a, 1)
                for j in range(low + 1, high + 1):
                    prefix[j] += step
                    changed.add(j)
        if changed:
            self.check(audit.rounds, changed)


class _NoWraparound(_Checker):
    """No agent is ever exchanged inside the window that pairs the renamed
    last block with the renamed first block."""

    name = "no_wraparound"
    sees = "moving"

    def __init__(self, audit):
        super().__init__(audit)
        self.origin = audit.potential.rename_offset
        self.last = wrap_block(self.origin - 1, audit.k)

    def round(self, audit, rt, before, after):
        k, p, last, origin = after.k, after.p, self.last, self.origin
        # The round pairs (last, origin) when ``last`` is an even number of
        # blocks after the offset, and is not the block an odd k leaves unpaired.
        left = (last - rt.offset) % k
        if left % 2 or left == k - 1:
            return
        forbidden = {last, origin}
        for agent_id, src, dst in rt.moves.triples():
            src_b, dst_b = src // p + 1, dst // p + 1
            if src_b != dst_b and {src_b, dst_b} == forbidden:
                self.fail(audit.rounds,
                          f"agent {agent_id} crossed between blocks {last} and {origin}")
                return


class _DistanceChecker(_Checker):
    """A checker of the recorded distances, of which the replayed initial
    distance is the first.  Without a distance potential (exact patterns)
    or with a round that records none, its verdict says so."""

    def verdict(self, audit):
        if audit.instance.spec.kind is ProblemKind.P3 or not audit.distances_recorded:
            return InvariantVerdict(self.name, False, None, "trace carries no distance values")
        return super().verdict(audit)


class _DistanceMonotone(_DistanceChecker):
    """The recorded distance never increases; for exact problems it also
    stays non-negative and, once zero, no agent moves again.  A rise
    anywhere is reported before a negative distance, and a negative
    distance before a move at zero."""

    name = "distance_monotone"
    exact = True

    def __init__(self, audit):
        super().__init__(audit)
        self.negative: InvariantVerdict | None = None
        self.moved_at_zero: InvariantVerdict | None = None
        self.previous = audit.potential.total
        self.zero = self.previous == 0  # some distance so far was 0
        if self.previous < 0:
            self.negative = InvariantVerdict(self.name, False, 0, f"distance {self.previous} < 0")

    def round(self, audit, rt, before, after):
        r, d = audit.rounds, rt.distance
        if d is None:
            self.fail(None, "trace carries no distance values")
        elif d > self.previous:
            self.fail(r, f"distance rose {self.previous} -> {d}")
        else:
            self.previous = d
            if self.zero and rt.moves.flat and self.moved_at_zero is None:
                self.moved_at_zero = InvariantVerdict(self.name, False, r,
                                                      "agents moved after the distance reached 0")
            if d < 0 and self.negative is None:
                self.negative = InvariantVerdict(self.name, False, r, f"distance {d} < 0")
            self.zero = self.zero or d == 0

    def verdict(self, audit):
        verdict = super().verdict(audit)
        if verdict.passed and self.exact:
            return self.negative or self.moved_at_zero or verdict
        return verdict


class _DistanceNonincreasing(_DistanceMonotone):
    """The recorded distance never increases; the verdict is named
    ``distance_monotone`` too."""

    exact = False


class _DistanceDecrease(_DistanceChecker):
    """While positive, the distance drops by at least 1 within a window of
    2 rounds, 3 for odd k."""

    def __init__(self, audit):
        self.window = 2 if audit.k % 2 == 0 else 3
        self.name = f"distance_decrease[{self.window}]"
        super().__init__(audit)
        self.recent = deque([audit.potential.total], maxlen=self.window + 1)

    def round(self, audit, rt, before, after):
        d = rt.distance
        if d is None:
            self.fail(None, "trace carries no distance values")
            return
        self.recent.append(d)
        if len(self.recent) > self.window:
            old = self.recent[0]  # the distance ``window`` rounds ago
            if old > 0 and d > old - 1:
                self.fail(audit.rounds - self.window,
                          f"distance {old} did not drop within {self.window} rounds (still {d})")


class _FinalCondition(_Checker):
    """The run terminated, in a configuration that meets the target."""

    name = "final_condition"
    sees = "none"

    def verdict(self, audit):
        if not audit.terminated:
            return InvariantVerdict(self.name, False, None, "run did not terminate")
        if not target_satisfied(audit.cfg, audit.instance):
            return InvariantVerdict(self.name, False, None, f"final configuration "
                                    f"{audit.cfg.to_string()!r} misses the target")
        return InvariantVerdict(self.name, True)


class _Cooperativeness(_Checker):
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

    def __init__(self, audit):
        super().__init__(audit)
        inst = audit.instance
        if inst.k % 2:
            self.fail(None, "only meaningful for an even block count")
            return
        self.classes = analysis.blue_partition(inst).classes
        potential = audit.potential
        self.dest = potential.dest
        # Renamed position and renamed block of every blue rank (0-based here).
        n, p = inst.n, inst.p
        self.start = start = (potential.rename_offset - 1) * p
        colours, ids = inst.initial.colours, inst.initial.ids
        self.pos = [x for x in range(n) if colours[(start + x) % n] == BLUE]
        self.block = [x // p + 1 for x in self.pos]
        self.rank_of = {ids[(start + x) % n]: i for i, x in enumerate(self.pos)}
        self.classes_of: dict[int, list[int]] = {}
        for class_index, ranks in enumerate(self.classes, start=1):
            for rank in ranks:
                self.classes_of.setdefault(rank - 1, []).append(class_index)
        self.active: set[int] = set()               # classes switched on, below any failed one
        self.pending: set[tuple[int, int]] = set()  # (class, rank) of active ranks off destination
        self.stuck: tuple[int, int, int, int] | None = None  # (class, round, rank, block before)

    def round(self, audit, rt, before, after):
        r, n, p = audit.rounds, after.n, after.p
        pos, block, dest, start = self.pos, self.block, self.dest, self.start
        active, pending = self.active, self.pending
        c = r // 2 - 1  # class c is checked from round 2c + 2 on
        if r % 2 == 0 and 1 <= c <= len(self.classes) and self.stuck is None:
            active.add(c)
            pending.update((c, rank - 1) for rank in self.classes[c - 1]
                           if block[rank - 1] != dest[rank - 1])
        was: dict[int, int] = {}  # the block before the round of every rank that moved
        rank_of = self.rank_of
        for agent_id, _, dst in rt.moves.triples():
            i = rank_of.get(agent_id)
            if i is not None:
                x = (dst - start) % n
                pos[i] = x
                was[i] = block[i]
                block[i] = x // p + 1
        n_blue = len(pos)
        for i in was:
            if (i and pos[i - 1] >= pos[i]) or (i + 1 < n_blue and pos[i] >= pos[i + 1]):
                self.fail(r, "blue ranks are not stable")
                return
        stuck = [(c, r, i, was.get(i, block[i])) for c, i in pending
                 if block[i] != was.get(i, block[i]) - 1]
        if stuck:
            # Only a lower class can still displace this failure from the report.
            self.stuck = min(stuck)
            self.active = active = {c for c in active if c < self.stuck[0]}
            self.pending = pending = {(c, i) for c, i in pending if c in active}
        classes_of = self.classes_of
        for i in was:
            for c in classes_of.get(i, ()):
                if c in active:
                    if block[i] == dest[i]:
                        pending.discard((c, i))
                    else:
                        pending.add((c, i))

    def verdict(self, audit):
        if self.failure is None and self.stuck is not None:
            c, r, i, was = self.stuck
            return InvariantVerdict(self.name, False, r, f"rank {i + 1} (class {c}) stayed in "
                                    f"block {was}, destination {self.dest[i]}")
        return super().verdict(audit)


class _Summary(_Checker):
    """A stored trace's summary, and the initial distance of its header,
    equal what the replay gives: ``rounds_used`` is the first configuration
    that meets the target (every round if none does), ``terminated`` says
    that one does and that at least k rounds without moves follow it,
    ``bound`` is the instance's round bound and ``bound_satisfied`` says
    that a terminated run stayed within it."""

    name = "summary"
    sees = "moving"

    def __init__(self, audit):
        super().__init__(audit)
        self.reached = 0 if target_satisfied(audit.cfg, audit.instance) else None
        self.moved_after = False  # an agent moved after the target was reached

    def round(self, audit, rt, before, after):
        if self.reached is not None:
            self.moved_after = True
        elif target_satisfied(after, audit.instance):
            self.reached = audit.rounds

    def verdict(self, audit):
        inst, reached = audit.instance, self.reached
        rounds_used = audit.rounds if reached is None else reached
        terminated = (reached is not None and audit.rounds - rounds_used >= inst.k
                      and not self.moved_after)
        bound = analysis.theoretical_bound(inst)
        replayed = {
            "rounds_used": rounds_used,
            "terminated": terminated,
            "bound": bound,
            "bound_satisfied": terminated and rounds_used <= bound,
            "initial_distance": None if audit.distance is None else audit.potential.total,
        }
        for key, value in replayed.items():
            recorded = audit.summary.get(key)
            if type(recorded) is not type(value) or recorded != value:
                return InvariantVerdict(
                    self.name, False, None,
                    f"recorded {key} {recorded} disagrees with the replay ({value})")
        return InvariantVerdict(self.name, True)


_CHECKERS = {
    "safety": _Safety,
    "quiescence": _Quiescence,
    "order_preserving": _OrderPreserving,
    "suffix_property": _SuffixProperty,
    "no_wraparound": _NoWraparound,
    "distance_monotone": _DistanceMonotone,
    "distance_nonincreasing": _DistanceNonincreasing,
    "distance_decrease": _DistanceDecrease,
    "cooperativeness": _Cooperativeness,
    "final_condition": _FinalCondition,
    "summary": _Summary,
}


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

        def step(state: Configuration, lb: int, rb: int) -> tuple[tuple[int, int, int], ...]:
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


def replay(instance: Instance, rounds: Iterable[RoundTrace]) -> ReplayedRun:
    """Check that the recorded moves replay from ``instance``.

    A round whose offset lies outside 1..k or whose moves ``apply_moves``
    refuses raises TraceError naming the round.  For two-colour runs the
    distance is followed through the moves and recounted at the end; a
    disagreement raises EngineError.
    """
    rounds = tuple(rounds)
    audit = _Audit(instance, ())
    for rt in rounds:
        audit.advance(rt)
    audit.settle(0, False)
    return ReplayedRun(instance=instance, rounds=rounds)


def replay_result(result: RunResult) -> ReplayedRun:
    return replay(result.instance, result.trace)


def replay_trace(data: TraceData) -> ReplayedRun:
    return replay(data.instance, data.rounds)


def run_checks(run: ReplayedRun, rounds_used: int, terminated: bool,
               names: Sequence[str] | None = None) -> list[InvariantVerdict]:
    """The named checkers' verdicts (default: all applicable ones), from one
    pass over the replayed rounds, given the ``rounds_used`` and
    ``terminated`` that the run records."""
    audit = _Audit(run.instance, applicable_checks(run.instance) if names is None else names)
    for rt in run.rounds:
        audit.advance(rt)
    return audit.settle(rounds_used, terminated)


def verify_result(result: RunResult) -> list[InvariantVerdict]:
    """Audit a run as ``verify_trace`` audits its stored trace."""
    summary = {**run_summary(result), "initial_distance": result.initial_distance}
    return verify_trace(TraceData(result.instance, result.trace, summary))


def verify_trace(data: TraceData) -> list[InvariantVerdict]:
    """Audit a stored trace as ``verify_stream`` does."""
    return verify_stream(chain((data.instance,), data.rounds, (data.summary,)))


def verify_stream(trace: Iterable[Instance | RoundTrace | Mapping[str, object]]
                  ) -> list[InvariantVerdict]:
    """Audit a trace given as its instance, its rounds and its summary, in
    the order that ``engine.iter_trace`` yields them, in one pass that keeps
    no round it has checked.

    The instance must be one the engine runs and the moves must replay;
    then every applicable checker and the summary check give a verdict.
    The trace is read to its end even after an instance or replay failure,
    so that a malformed record anywhere in it raises as ``read_trace``
    would.
    """
    items = iter(trace)
    inst = next(items)
    report = validate(inst)
    failure = None if report.valid else InvariantVerdict(
        "instance", False, None, "; ".join(report.issues) or "colour totals miss the target")
    audit = None if failure else _Audit(inst, (*applicable_checks(inst), "summary"))
    summary: Mapping[str, object] = {}
    for item in items:
        if not isinstance(item, RoundTrace):
            summary = item
        elif failure is None:
            try:
                audit.advance(item)
            except TraceError as exc:
                failure = InvariantVerdict("replay", False, None, str(exc))
    if failure is not None:
        return [failure]
    return audit.settle(summary.get("rounds_used", audit.rounds),
                        summary.get("terminated", False), summary)

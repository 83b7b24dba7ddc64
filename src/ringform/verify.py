"""Trace checkers: every structural guarantee of the algorithms, made testable.

An audit is one pass over a trace's rounds.  It replays each round's
recorded moves in the one walk that ``engine.apply_moves`` makes, which
also finds a move out of its window, and checks the round against the
state that the named verdicts share; no other configuration is kept.  A verdict checked round by round
stops at its first failure; every verdict, an :class:`InvariantVerdict`
that names the first offending round and the witnesses on failure, is
settled once the trace has ended and its summary is known.  A stored
trace is thus audited post hoc, without re-running the engine and without
holding its rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress
from operator import sub
from typing import Collection, Iterable, Mapping, Sequence

from . import analysis
from .analysis import BLUE
from .core import Configuration, Instance, ProblemKind, validate
from .engine import (
    EngineError,
    RunResult,
    _apply,
    check_counts,
    target_satisfied,
    trace_items,
    uses_two_colour_steps,
    wrap_block,
)
from .trace import Move, MoveSet, RoundTrace, TraceData, TraceError


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


class _Audit:
    """One pass over a trace's rounds, keeping only what the named verdicts read.

    Every audit keeps the configuration after the rounds fed so far, one
    byte a round saying whether it moved an agent, and the distance that
    two-colour runs replay from the blue count row of each configuration.
    The verdicts checked round by round (``safety``, ``order_preserving``,
    ``suffix_property``, ``no_wraparound``, ``cooperativeness``) keep their
    first failure and are not checked again; the others are settled at the
    end of the trace.  The replay (``engine._apply``) walks a moving
    round's moves once and also yields its first move out of its window
    and the blocks that its crossings entered or left; one more walk finds
    the blue ranks that move, while a verdict follows them.
    """

    def __init__(self, inst: Instance, names: Iterable[str]):
        self.instance, self.names = inst, tuple(names)
        self.k, self.p = k, p = inst.k, inst.p
        self.cfg = inst.initial
        self.rounds = 0
        self.moved = bytearray()  # per round: 1 if it moved an agent
        self.live = live = set(self.names)  # the named verdicts that have not failed
        self.failures: dict[str, InvariantVerdict] = {}
        # The first round after which the target holds, for ``summary``.
        self.reached = 0 if "summary" in live and target_satisfied(self.cfg, inst) else None
        # Every round's recorded distance, for the distance verdicts.
        self.recorded: list[int | None] | None = (
            [] if live & {"distance_monotone", "distance_nonincreasing", "distance_decrease"}
            else None)
        if "cooperativeness" in live and k % 2:
            self.fail("cooperativeness", None, "only meaningful for an even block count")
        self.distance = self.potential.total if uses_two_colour_steps(inst) else None
        self.rank_of: dict[int, int] = {}  # of the blue agents, when a verdict follows them
        if self.distance is None and not live & {"order_preserving", "suffix_property",
                                                 "no_wraparound", "cooperativeness"}:
            return
        self.origin = self.potential.rename_offset  # the block renamed block 1
        self.start = (self.origin - 1) * p  # the position renamed position 0
        self.dest = self.potential.dest
        self.dest_total = sum(self.dest)
        if live & {"order_preserving", "cooperativeness"}:
            # One blue-rank table: ranks in renamed reading order, each with
            # its renamed position.
            n, initial = inst.n, inst.initial
            colours = initial.colours[self.start:] + initial.colours[:self.start]
            ids = initial.ids[self.start:] + initial.ids[:self.start]
            self.pos = list(compress(range(n), map(BLUE.__eq__, colours)))
            self.rank_of = {ids[x]: i for i, x in enumerate(self.pos)}
        if "suffix_property" in live:
            self.need = analysis.renamed_row(inst.spec.row(BLUE), self.origin)
            self.surplus = inst.initial.colour_totals()[BLUE - 1] - sum(self.need)
            # The extras count of a lower-bound instance, 0 for exact ones.
            self.allowed = self.surplus if inst.spec.kind is ProblemKind.P2 else 0
            self.check_prefixes(0, self.potential.blues)
        if "cooperativeness" in live:
            self.classes = analysis.blue_partition(inst)
            self.block = [x // p + 1 for x in self.pos]  # renamed, 1-based
            self.classes_of: dict[int, list[int]] = {}
            for class_index, ranks in enumerate(self.classes, start=1):
                for rank in ranks:
                    self.classes_of.setdefault(rank - 1, []).append(class_index)
            self.active: set[int] = set()  # classes switched on, below any stuck one
            self.pending: set[tuple[int, int]] = set()  # (class, rank) of active ranks off dest
            # (class, round, rank, block before) of the failure to report
            self.stuck: tuple[int, int, int, int] | None = None

    @cached_property
    def potential(self) -> analysis.DistanceReport:
        """The distance of the initial configuration, with its renaming and
        destinations."""
        inst = self.instance
        return analysis.distance_report(inst.initial, inst.spec.row(BLUE))

    def fail(self, name: str, r: int | None, detail: str) -> None:
        self.failures[name] = InvariantVerdict(name, False, r, detail)
        self.live.discard(name)

    def advance(self, rt: RoundTrace) -> None:
        """Replay round ``rt`` and check it; raises TraceError if its offset
        lies outside 1..k or ``apply_moves`` refuses its moves."""
        inst, k, live = self.instance, self.k, self.live
        if not 1 <= rt.offset <= k:
            raise TraceError(f"round {rt.index}: offset {rt.offset} outside 1..{k}")
        before = after = self.cfg
        self.rounds = r = self.rounds + 1
        moves = rt.moves
        self.moved.append(bool(moves.flat))
        was: dict[int, int] = {}  # the renamed block before the round of every moved rank
        stray = None
        if moves.flat:
            try:
                after, stray, crossed = _apply(before, moves, rt.offset)
            except EngineError as exc:
                raise TraceError(f"round {rt.index}: {exc}") from None
            self.cfg = after
            if self.distance is not None or "suffix_property" in live:
                blues = analysis.renamed_blues(after, self.origin)
                if self.distance is not None:
                    self.distance = analysis.distance_total(blues, len(self.dest), self.dest_total)
                if "suffix_property" in live:
                    self.check_prefixes(r, blues)
            if "no_wraparound" in live:
                self.check_wrap(r, rt.offset, moves, crossed)
            if rank_of := self.rank_of:
                # The blue ranks that move, as (rank, renamed position after).
                start, n = self.start, inst.n
                movers = [(rank_of[agent_id], (dst - start) % n)
                          for agent_id, _, dst in moves.triples() if agent_id in rank_of]
                if movers:
                    was = self.move_ranks(r, movers, before, after)
            if self.reached is None and "summary" in live and target_satisfied(after, inst):
                self.reached = r
        if "safety" in live:
            self.check_safety(r, rt, after, stray)
        if self.recorded is not None:
            self.recorded.append(rt.distance)
        if "cooperativeness" in live:
            self.check_cooperation(r, was)

    def check_safety(self, r: int, rt: RoundTrace, after: Configuration,
                     stray: Move | None) -> None:
        """Rounds are numbered 1, 2, ... in order, round r runs at offset
        ``(r - 1) % k + 1``, moves stay inside their window (``stray`` is
        the replay's first move that does not), and recorded counts and
        distances match the replayed configurations.  Replay applies only
        moves that permute positions and match the ids at their sources, so
        the colour totals cannot change and are not checked."""
        schedule = (r - 1) % self.k + 1
        if rt.index != r:
            self.fail("safety", r, f"recorded round number {rt.index}")
        elif rt.offset != schedule:
            self.fail("safety", r, f"recorded offset {rt.offset}, the schedule gives {schedule}")
        elif stray is not None:
            self.fail("safety", r, f"move {stray} leaves its window")
        elif after.all_counts() != rt.counts:
            self.fail("safety", r, "recorded counts disagree with the moves")
        elif rt.distance != self.distance:
            self.fail("safety", r, f"recorded distance {rt.distance} disagrees with the moves "
                                   f"({self.distance})")

    def check_prefixes(self, r: int, blues: Sequence[int]) -> None:
        """``suffix_property``: in coordinates renamed from the initial state,
        every prefix of blocks carries a cumulative blue surplus of at most
        the extras count and every suffix one of at least 0, given the blue
        count of every renamed block."""
        allowed, total, k = self.allowed, self.surplus, self.k
        prefix = list(accumulate(map(sub, blues, self.need)))
        if max(prefix) <= min(allowed, total):
            return
        for j, surplus in enumerate(prefix, start=1):
            if surplus > allowed:
                self.fail("suffix_property", r,
                          f"prefix of {j} renamed blocks has surplus {surplus} > {allowed}")
                return
            if j < k and total - surplus < 0:
                self.fail("suffix_property", r,
                          f"suffix after {j} renamed blocks has surplus {total - surplus} < 0")
                return

    def check_wrap(self, r: int, offset: int, moves: MoveSet, crossed: Collection[int]) -> None:
        """``no_wraparound``: no agent is ever exchanged inside the window that
        pairs the renamed last block with the renamed first block.  Such a
        crossing puts both in ``crossed``, and only then are the moves read."""
        k, origin = self.k, self.origin
        last = wrap_block(origin - 1, k)
        # The round pairs (last, origin) when ``last`` is an even number of
        # blocks after the offset, and is not the block an odd k leaves unpaired.
        left = (last - offset) % k
        if left % 2 or left == k - 1 or last - 1 not in crossed or origin - 1 not in crossed:
            return
        forbidden, p = {last, origin}, self.p
        for agent_id, src, dst in moves.triples():
            if {src // p + 1, dst // p + 1} == forbidden:
                self.fail("no_wraparound", r,
                          f"agent {agent_id} crossed between blocks {last} and {origin}")
                return

    def move_ranks(self, r: int, movers: list[tuple[int, int]], before: Configuration,
                   after: Configuration) -> dict[int, int]:
        """Move the blue ranks and check ``order_preserving``: the clockwise
        order of blue agents never changes.  Ranks keep their cyclic order
        exactly while one rank i, and only one, sits after rank i + 1 (the
        last after the first), so the check recounts those descents only
        next to a moved rank.  Returns the renamed block before the round
        of every moved rank, when ``cooperativeness`` follows the blocks."""
        pos = self.pos
        order = "order_preserving" in self.live
        if order:
            n_blue = len(pos)
            pairs = [(i, (i + 1) % n_blue) for i in {j for rank, _ in movers
                                                      for j in ((rank - 1) % n_blue, rank)}]
            descents = sum(pos[i] > pos[j] for i, j in pairs)
        for rank, x in movers:
            pos[rank] = x
        if order and sum(pos[i] > pos[j] for i, j in pairs) != descents:
            self.fail("order_preserving", r,
                      f"blue order {_clockwise(before)} became {_clockwise(after)}")
        if "cooperativeness" not in self.live:
            return {}
        block, p = self.block, self.p
        was = {}
        for rank, x in movers:
            was[rank] = block[rank]
            block[rank] = x // p + 1
        return was

    def check_cooperation(self, r: int, was: dict[int, int]) -> None:
        """``cooperativeness``: from round 2c+2 on, every blue agent of class c
        either advances one block left each round or already sits in its
        destination block.  Blue ranks must keep their renamed reading order
        in every configuration; an unstable round is reported before any
        class failure, and otherwise the failure of the lowest class at its
        first failing round and rank.  Only active ranks off their
        destination are looked at, each of which must move or fail."""
        pos, block, dest = self.pos, self.block, self.dest
        active, pending = self.active, self.pending
        c = r // 2 - 1  # class c is checked from round 2c + 2 on, from its blocks before it
        if r % 2 == 0 and 1 <= c <= len(self.classes) and self.stuck is None:
            active.add(c)
            pending.update((c, rank - 1) for rank in self.classes[c - 1]
                           if was.get(rank - 1, block[rank - 1]) != dest[rank - 1])
        n_blue = len(pos)
        for i in was:
            if (i and pos[i - 1] >= pos[i]) or (i + 1 < n_blue and pos[i] >= pos[i + 1]):
                self.fail("cooperativeness", r, "blue ranks are not stable")
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

    def settle(self, rounds_used: int, terminated: bool,
               summary: Mapping[str, object] | None = None) -> list[InvariantVerdict]:
        """The named verdicts, given the ``rounds_used`` and ``terminated``
        that the trace records and its summary.  The block counts kept
        across the replay, from which the distance follows, are recounted
        from the colours first: a disagreement raises EngineError."""
        check_counts(self.cfg, "replay")
        return [self.failures.get(name) or self.verdict(name, rounds_used, terminated,
                                                        summary or {})
                for name in self.names]

    def verdict(self, name: str, rounds_used: int, terminated: bool,
                summary: Mapping[str, object]) -> InvariantVerdict:
        """The verdict ``name`` at the end of the trace, if it has not failed
        in a round."""
        inst, k, moved = self.instance, self.k, self.moved
        if name in ("safety", "order_preserving", "suffix_property", "no_wraparound"):
            return InvariantVerdict(name, True)
        if name == "cooperativeness":
            if self.stuck is not None:
                c, r, i, was = self.stuck
                return InvariantVerdict(name, False, r, f"rank {i + 1} (class {c}) stayed in "
                                        f"block {was}, destination {self.dest[i]}")
            return InvariantVerdict(name, True)
        if name in ("quiescence", "final_condition") and not terminated:
            return InvariantVerdict(name, False, None, "run did not terminate")
        if name == "quiescence":
            # After the target condition holds, the trailing verification
            # rounds (at least k of them) record no moves.
            tail = moved[rounds_used:]
            if len(tail) < k:
                return InvariantVerdict(name, False, None,
                                        f"only {len(tail)} verification rounds, expected {k}")
            first = tail.find(1)
            if first >= 0:
                return InvariantVerdict(name, False, rounds_used + 1 + first,
                                        "agents moved after the target condition held")
            return InvariantVerdict(name, True)
        if name == "final_condition":
            # The run terminated, in a configuration that meets the target.
            if not target_satisfied(self.cfg, inst):
                return InvariantVerdict(name, False, None, f"final configuration "
                                        f"{self.cfg.to_string()!r} misses the target")
            return InvariantVerdict(name, True)
        if name == "summary":
            return self.summary_verdict(summary)
        if name in ("distance_monotone", "distance_nonincreasing", "distance_decrease"):
            return self.distance_verdict(name)
        raise ValueError(f"unknown check {name!r}")

    def summary_verdict(self, summary: Mapping[str, object]) -> InvariantVerdict:
        """A stored trace's summary, and the initial distance of its header,
        equal what the replay gives: ``rounds_used`` is the first
        configuration that meets the target (every round if none does),
        ``terminated`` says that one does and that at least k rounds without
        moves follow it, ``bound`` is the instance's round bound and
        ``bound_satisfied`` says that a terminated run stayed within it."""
        inst, reached, rounds = self.instance, self.reached, self.rounds
        rounds_used = rounds if reached is None else reached
        terminated = (reached is not None and rounds - rounds_used >= inst.k
                      and self.moved.find(1, rounds_used) < 0)
        bound = analysis.theoretical_bound(inst)
        replayed = {
            "rounds_used": rounds_used,
            "terminated": terminated,
            "bound": bound,
            "bound_satisfied": terminated and rounds_used <= bound,
            "initial_distance": None if self.distance is None else self.potential.total,
        }
        for key, value in replayed.items():
            recorded = summary.get(key)
            if type(recorded) is not type(value) or recorded != value:
                return InvariantVerdict("summary", False, None,
                                        f"recorded {key} {recorded} disagrees with the replay "
                                        f"({value})")
        return InvariantVerdict("summary", True)

    def distance_verdict(self, name: str) -> InvariantVerdict:
        """A verdict on the recorded distances, of which the replayed initial
        distance is the first.  ``distance_nonincreasing``: they never rise.
        ``distance_monotone`` also wants them non-negative and no move once
        one is 0; a rise is reported before a negative distance, and that
        before a move at zero.  ``distance_decrease``: while positive, the
        distance drops by at least 1 within 2 rounds, 3 for odd k."""
        window = 2 if self.k % 2 == 0 else 3
        decrease = name == "distance_decrease"
        if decrease:
            name = f"distance_decrease[{window}]"
        if self.instance.spec.kind is ProblemKind.P3 or None in self.recorded:
            return InvariantVerdict(name, False, None, "trace carries no distance values")
        d = [self.potential.total, *self.recorded]
        if decrease:
            r = next((r for r in range(len(d) - window) if d[r] > 0 and d[r + window] > d[r] - 1),
                     None)
            if r is not None:
                return InvariantVerdict(name, False, r, f"distance {d[r]} did not drop within "
                                        f"{window} rounds (still {d[r + window]})")
            return InvariantVerdict(name, True)
        r = next((r for r in range(1, len(d)) if d[r] > d[r - 1]), None)
        if r is not None:
            return InvariantVerdict(name, False, r, f"distance rose {d[r - 1]} -> {d[r]}")
        if name == "distance_monotone":
            r = next((r for r, x in enumerate(d) if x < 0), None)
            if r is not None:
                return InvariantVerdict(name, False, r, f"distance {d[r]} < 0")
            if 0 in d and (first := self.moved.find(1, d.index(0))) >= 0:
                return InvariantVerdict(name, False, first + 1,
                                        "agents moved after the distance reached 0")
        return InvariantVerdict(name, True)


def _clockwise(cfg: Configuration) -> tuple[int, ...]:
    """The ids of the blue agents of ``cfg`` in ring order."""
    return tuple(compress(cfg.ids, map(BLUE.__eq__, cfg.colours)))


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


def replay_trace(data: TraceData) -> TraceData:
    """``data``, once its recorded moves are found to replay from its instance.

    A round whose offset lies outside 1..k or whose moves ``apply_moves``
    refuses raises TraceError naming the round.  The block counts kept
    across the rounds, from which a two-colour run's distance follows, are
    recounted from the colours at the end; a disagreement raises
    EngineError.
    """
    run_checks(data, 0, False, ())
    return data


def run_checks(data: TraceData, rounds_used: int, terminated: bool,
               names: Sequence[str] | None = None) -> list[InvariantVerdict]:
    """The named verdicts (default: all applicable ones), in the order of
    ``names``, from one pass over the rounds of ``data``, given the
    ``rounds_used`` and ``terminated`` that the run records."""
    audit = _Audit(data.instance, applicable_checks(data.instance) if names is None else names)
    for rt in data.rounds:
        audit.advance(rt)
    return audit.settle(rounds_used, terminated)


def verify_result(result: RunResult) -> list[InvariantVerdict]:
    """Audit a run as ``verify_trace`` audits its stored trace."""
    return verify_stream(trace_items(result))


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

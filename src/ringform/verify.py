"""Trace checkers: every structural guarantee of the algorithms, made testable.

An audit is one pass over a trace's rounds.  It replays each round's
recorded moves in the one walk that ``engine.apply_moves`` makes, which
also finds a move out of its window, and checks the round against the
state that the named verdicts share; no other configuration is kept.
``applicable_checks`` is the one rule for which verdicts an instance
gets.  A verdict checked round by round stops at its first failure;
every verdict, an :class:`InvariantVerdict` that names the first
offending round and the witnesses on failure, is settled once the trace
has ended and its summary is known.  A stored trace is thus audited post
hoc, without re-running the engine and without holding its rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, compress
from operator import sub
from typing import Collection, Iterable, Mapping, Sequence

from . import analysis
from .analysis import BLUE
from .core import Configuration, Instance, ProblemKind, validate
from .engine import (
    EngineError,
    Ledger,
    RunResult,
    _apply,
    initial_potential,
    target_satisfied,
    trace_items,
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

    A named verdict that is not ``summary`` or in ``applicable_checks``
    fails at once, at round None.  Every audit feeds the replayed rounds to
    an ``engine.Ledger``, as the run does, which keeps the configuration,
    which rounds moved an agent, when the target first held and, for a
    two-colour run, the potential (renaming, destinations, renamed blue row
    and distance) that the rank verdicts read.  The verdicts checked round
    by round (``safety``, ``order_preserving``, ``suffix_property``,
    ``no_wraparound``, ``cooperativeness``) keep their first failure; the
    others are settled at the end of the trace.  The replay
    (``engine._apply``) walks a moving round's moves once, and finds its
    first move out of its window and the blocks its crossings touched;
    ``move_ranks`` walks its blue movers, while a verdict follows them.
    """

    def __init__(self, inst: Instance, names: Iterable[str]):
        self.instance, self.names = inst, tuple(names)
        self.k, self.p = inst.k, inst.p
        self.ledger = Ledger(inst, initial_potential(inst))
        self.live = live = set(self.names)  # the named verdicts that have not failed
        self.failures: dict[str, InvariantVerdict] = {}
        for name in live - {*applicable_checks(inst), "summary"}:
            self.fail(name, None, "does not apply to this instance")
        # Every round's recorded distance, for the distance verdicts.
        self.recorded: list[int | None] | None = (
            [] if live & {"distance_monotone", "distance_nonincreasing", "distance_decrease"}
            else None)
        if (potential := self.ledger.potential) is None:  # no rank verdict applies
            return
        self.origin = potential.rename_offset  # the block renamed block 1
        self.start = (self.origin - 1) * self.p  # the position renamed position 0
        self.dest = potential.dest
        if live & {"order_preserving", "cooperativeness"}:
            # The rank 1..N of every blue agent in renamed reading order, and the
            # renamed position of every rank, with a rank 0 before the first and N + 1 after.
            n, initial = inst.n, inst.initial
            colours = initial.colours[self.start:] + initial.colours[:self.start]
            ids = initial.ids[self.start:] + initial.ids[:self.start]
            blue = list(compress(range(n), map(BLUE.__eq__, colours)))
            self.rank_of = {ids[x]: i for i, x in enumerate(blue, 1)}
            self.pos = [-1, *blue, n]
            self.renamed = [*range(n - self.start, n), *range(n - self.start)]  # by position
            self.linear = True  # every rank has sat before the next one so far
        if "suffix_property" in live:
            self.need = analysis.renamed_row(inst.spec.row(BLUE), self.origin)
            surplus = inst.initial.colour_totals()[BLUE - 1] - sum(self.need)
            # The extras count of a lower-bound instance, 0 for exact ones, and
            # never above the whole ring's surplus, the prefix of all k blocks.
            self.bound = surplus if inst.spec.kind is ProblemKind.P2 else min(0, surplus)
            self.check_prefixes(0, potential.blues)
        if "cooperativeness" in live:
            self.classes = analysis.blue_partition(inst)
            # The lowest class of every rank, which switches the rank on.
            self.low = {i: c for c, ranks in reversed([*enumerate(self.classes, 1)]) for i in ranks}
            self.top = 0  # classes 1..top are switched on, all below any stuck one
            self.pending: set[int] = set()  # ranks of switched-on classes off their destination
            # (class, round, rank, block before) of the failure to report
            self.stuck: tuple[int, int, int, int] | None = None

    def fail(self, name: str, r: int | None, detail: str) -> None:
        self.failures[name] = InvariantVerdict(name, False, r, detail)
        self.live.discard(name)

    def advance(self, rt: RoundTrace) -> None:
        """Replay round ``rt`` and check it; raises TraceError if its offset
        lies outside 1..k or ``apply_moves`` refuses its moves."""
        k, live, ledger = self.k, self.live, self.ledger
        if not 1 <= rt.offset <= k:
            raise TraceError(f"round {rt.index}: offset {rt.offset} outside 1..{k}")
        before = after = ledger.cfg
        r = len(ledger.moved) + 1
        moves = rt.moves
        was: dict[int, int] = {}  # the renamed position before the round of every moved rank
        stray = None
        if moves.flat:
            try:
                after, stray, crossed = _apply(before, moves, rt.offset)
            except EngineError as exc:
                raise TraceError(f"round {rt.index}: {exc}") from None
            ledger.advance(after, True)
            if "suffix_property" in live:
                self.check_prefixes(r, ledger.blues)
            if "no_wraparound" in live:
                self.check_wrap(r, rt.offset, moves, crossed)
            if "order_preserving" in live or "cooperativeness" in live:
                was = self.move_ranks(r, moves, before, after)
        else:
            ledger.advance(after, False)
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
        elif rt.distance != self.ledger.distance:
            self.fail("safety", r, f"recorded distance {rt.distance} disagrees with the moves "
                                   f"({self.ledger.distance})")

    def check_prefixes(self, r: int, blues: Sequence[int]) -> None:
        """``suffix_property``: in coordinates renamed from the initial state,
        every prefix of blocks carries a cumulative blue surplus of at most
        the extras count, given the blue count of every renamed block.  The
        whole ring carries the extras count, so every suffix then carries a
        surplus of at least 0: a suffix deficit is a prefix excess."""
        bound = self.bound
        prefix = list(accumulate(map(sub, blues, self.need)))
        if max(prefix) > bound:
            j = next(j for j, surplus in enumerate(prefix, start=1) if surplus > bound)
            self.fail("suffix_property", r,
                      f"prefix of {j} renamed blocks has surplus {prefix[j - 1]} > {bound}")

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

    def move_ranks(self, r: int, moves: MoveSet, before: Configuration,
                   after: Configuration) -> dict[int, int]:
        """Move the blue ranks of ``moves``, walking the blue movers only, and
        return the renamed position before the round of each.  While every
        rank sits before the next, as ``cooperativeness`` wants, the cyclic
        order that ``order_preserving`` wants holds too; it is checked apart
        only once a moved rank has broken the linear order."""
        rank_of, pos, renamed = self.rank_of, self.pos, self.renamed
        was = {}
        for agent_id, _, dst in compress(moves.triples(),
                                         map(rank_of.__contains__, moves.flat[0::3])):
            rank = rank_of[agent_id]
            was[rank] = pos[rank]
            pos[rank] = renamed[dst]
        if self.linear:
            for i in was:
                if not pos[i - 1] < pos[i] < pos[i + 1]:
                    self.linear = False
                    if "cooperativeness" in self.live:
                        self.fail("cooperativeness", r, "blue ranks are not stable")
                    break
        if not self.linear and "order_preserving" in self.live:
            # The ranks keep their cyclic order exactly while one rank i, and
            # only one, sits after rank i + 1 (the last after the first), so
            # the descents are recounted next to the moved ranks only.
            n_blue = len(rank_of)
            pairs = [(i, i % n_blue + 1)
                     for i in {j for rank in was for j in ((rank - 2) % n_blue + 1, rank)}]
            old = was.get
            if (sum(old(i, pos[i]) > old(j, pos[j]) for i, j in pairs)
                    != sum(pos[i] > pos[j] for i, j in pairs)):
                self.fail("order_preserving", r,
                          f"blue order {_clockwise(before)} became {_clockwise(after)}")
        return was

    def check_cooperation(self, r: int, was: dict[int, int]) -> None:
        """``cooperativeness``: from round 2c+2 on, every blue agent of class c
        either advances one block left each round or already sits in its
        destination block.  An unstable round (``move_ranks``, which gives
        ``was``) is reported before any class failure, and otherwise the
        failure of the lowest class at its first failing round and rank.
        Only the pending ranks are looked at: each must move or fail."""
        pos, p, dest, low, pending = self.pos, self.p, self.dest, self.low, self.pending
        c = r // 2 - 1  # class c is checked from round 2c + 2 on, from its blocks before it
        if r % 2 == 0 and 1 <= c <= len(self.classes) and self.stuck is None:
            self.top = c
            pending.update(i for i in self.classes[c - 1]
                           if was.get(i, pos[i]) // p + 1 != dest[i - 1])
        stuck = [i for i in pending if i not in was or pos[i] // p + 1 != was[i] // p]
        if stuck:
            # Only a lower class can still displace this failure from the report.
            c, i = min((low[i], i) for i in stuck)
            self.stuck = (c, r, i, was.get(i, pos[i]) // p + 1)
            self.top = c - 1
            self.pending = pending = {i for i in pending if low[i] < c}
        top = self.top
        for i in was:
            if low[i] <= top:
                (pending.discard if pos[i] // p + 1 == dest[i - 1] else pending.add)(i)

    def settle(self, rounds_used: int, terminated: bool,
               summary: Mapping[str, object] | None = None) -> list[InvariantVerdict]:
        """The named verdicts, given the ``rounds_used`` and ``terminated``
        that the trace records and its summary.  The ledger's summary of the
        replay, which the ``summary`` verdict compares with the recorded
        one, first recounts the block counts kept across the replay, from
        which the distance follows: a disagreement raises EngineError."""
        replayed = self.ledger.summary("replay")
        return [self.failures.get(name) or self.verdict(name, rounds_used, terminated,
                                                        summary or {}, replayed)
                for name in self.names]

    def verdict(self, name: str, rounds_used: int, terminated: bool,
                summary: Mapping[str, object], replayed: dict) -> InvariantVerdict:
        """The verdict ``name`` at the end of the trace, if it has not failed
        in a round, given the ledger's summary of the replay."""
        k, moved, final = self.k, self.ledger.moved, self.ledger.cfg
        if name == "cooperativeness" and self.stuck is not None:
            c, r, i, was = self.stuck
            return InvariantVerdict(name, False, r, f"rank {i} (class {c}) stayed in "
                                    f"block {was}, destination {self.dest[i - 1]}")
        if name in ("safety", "order_preserving", "suffix_property", "no_wraparound",
                    "cooperativeness"):
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
            if not target_satisfied(final, self.instance):
                return InvariantVerdict(name, False, None, f"final configuration "
                                        f"{final.to_string()!r} misses the target")
            return InvariantVerdict(name, True)
        if name == "summary":
            # A stored trace's summary, and the initial distance of its header,
            # equal the ledger's summary of the replay.
            for key, value in replayed.items():
                recorded = summary.get(key)
                if key != "final" and (type(recorded) is not type(value) or recorded != value):
                    return InvariantVerdict(name, False, None, f"recorded {key} {recorded} "
                                            f"disagrees with the replay ({value})")
            return InvariantVerdict(name, True)
        return self.distance_verdict(name)  # the only applicable verdicts left

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
        if None in self.recorded:
            return InvariantVerdict(name, False, None, "trace carries no distance values")
        d = [self.ledger.potential.total, *self.recorded]
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
            if 0 in d and (first := self.ledger.moved.find(1, d.index(0))) >= 0:
                return InvariantVerdict(name, False, first + 1,
                                        "agents moved after the distance reached 0")
        return InvariantVerdict(name, True)


def _clockwise(cfg: Configuration) -> tuple[int, ...]:
    """The ids of the blue agents of ``cfg`` in ring order."""
    return tuple(compress(cfg.ids, map(BLUE.__eq__, cfg.colours)))


# --- orchestration ----------------------------------------------------------------


def applicable_checks(inst: Instance) -> tuple[str, ...]:
    if analysis.exact_two_colour(inst):
        names = ["safety", "quiescence", "order_preserving", "suffix_property",
                 "no_wraparound", "distance_monotone", "distance_decrease", "final_condition"]
        if inst.k % 2 == 0:
            names.append("cooperativeness")
        return tuple(names)
    if inst.spec.kind is ProblemKind.P2:
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
    ``rounds_used`` and ``terminated`` that the run records.  A name that
    ``applicable_checks`` does not list fails, at round None."""
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
    would.  An empty trace raises TraceError, as ``iter_trace`` does for a
    file without a header, and so does one that does not start with an Instance.
    """
    items = iter(trace)
    if not isinstance(inst := next(items, None), Instance):
        raise TraceError("trace has no header record" if inst is None else "trace has no header "
                         f"instance: its first item is of type {type(inst).__name__}")
    report = validate(inst)
    failure = None if report.valid else InvariantVerdict(
        "instance", False, None, "; ".join(report.issues))
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
    return audit.settle(summary.get("rounds_used", len(audit.ledger.moved)),
                        summary.get("terminated", False), summary)

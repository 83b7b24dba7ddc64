"""Synchronous round-based execution of the window-swap algorithms.

Each round partitions the ring into windows of two adjacent blocks
starting at a cyclically shifting offset and applies a window step to
every window in parallel, in one call of a round step that loops over the
round's windows:

- the two-colour step packs blue agents ahead of red ones in both blocks
  of a deficient window and trades the leftmost surplus reds of the left
  block for the leftmost blues of the right block, at most the smallest
  per-block blue requirement of them;
- the many-colour step repairs the lowest-indexed colour whose count is
  wrong in the window, trading colour-i agents from the right block for
  higher-coloured agents from the left block, and once all constrained
  colours are locally correct rearranges blocks into their target
  patterns when the problem asks for exact patterns.

All moves of a round are net position changes made in one synchronous step
that also builds the next configuration; ``apply_moves`` refuses bad moves.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, compress, filterfalse
from typing import IO, Callable, Collection, Iterable, Iterator, Sequence

from . import analysis
from .analysis import BLUE, default_max_rounds
from .core import (
    BlockView,
    Configuration,
    Instance,
    ProblemKind,
    RequirementSpec,
    validate,
)
# The round records and the trace writer and reader, which live in
# ``trace``, are engine names too: the engine's callers reach them here.
from .trace import (  # noqa: F401
    ROUND_CHECKS,
    SUMMARY_FIELDS,
    TRACE_FORMAT,
    Move,
    MoveSet,
    RoundTrace,
    TraceData,
    TraceError,
    _new_move,
    iter_trace,
    iter_written,
    read_trace,
)


class EngineError(RuntimeError):
    """Internal consistency violation; indicates a bug, not bad input."""


class InvalidInstanceError(ValueError):
    """The instance fails semantic validation and cannot be run; ``issues``
    are the reasons, as ``validate`` words them."""

    def __init__(self, *issues: str):
        super().__init__("; ".join(issues))
        self.issues = issues


@dataclass(frozen=True)
class WindowPairing:
    """Disjoint (left, right) block pairs of one round; odd k leaves one block idle."""

    offset: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RunResult:
    terminated: bool
    rounds_used: int
    bound: int
    trace: tuple[RoundTrace, ...]
    final: Configuration
    instance: Instance
    initial_distance: int | None


def wrap_block(b: int, k: int) -> int:
    return (b - 1) % k + 1


def _left_blocks(k: int, offset: int) -> Iterator[int]:
    """The left blocks of the k // 2 windows of the pairing at ``offset``:
    offset, offset + 2, ... up to block k, then those past it, wrapped round
    to block 1 on.  The right block of left block lb is ``lb % k + 1``."""
    if not 1 <= offset <= k:
        raise ValueError(f"offset {offset} out of range 1..{k}")
    stop = offset + k // 2 * 2
    head = range(offset, min(stop, k + 1), 2)
    return chain(head, range(offset + 2 * len(head) - k, stop - k, 2))


def build_pairing(k: int, offset: int) -> WindowPairing:
    """Pair blocks (offset, offset+1), (offset+2, offset+3), ... around the ring."""
    return WindowPairing(offset, tuple((lb, lb % k + 1) for lb in _left_blocks(k, offset)))


def uses_two_colour_steps(inst: Instance) -> bool:
    """Exact two-colour targets and lower-bound targets run the two-colour step;
    everything else (three or more colours, or exact patterns) runs the
    many-colour step."""
    return inst.spec.kind is ProblemKind.P2 or analysis.exact_two_colour(inst)


def orient_roles(inst: Instance) -> tuple[Instance, bool]:
    """Swap the two colour roles of an exact two-colour instance when that
    lowers the round-count bound; any other instance is returned as it is.

    The bound tracks the colour with the smaller total-to-minimum-requirement
    ratio; if colour 2 has the strictly smaller ratio the returned instance
    has colours 1 and 2 exchanged in both the configuration and the
    requirement matrix (compared cross-multiplied, so a zero minimum on one
    side never forces a swap toward it).
    """
    if not analysis.exact_two_colour(inst):
        return inst, False
    totals = inst.initial.colour_totals()
    star1 = min(inst.spec.row(1))
    star2 = min(inst.spec.row(2))
    if star1 == 0 and star2 == 0:
        raise ValueError("cannot orient: both colours have a zero minimum requirement")
    if totals[0] * star2 <= totals[1] * star1:
        return inst, False
    cfg = inst.initial
    swapped = cfg.colours.translate(bytes.maketrans(b"\x01\x02", b"\x02\x01"))
    swapped_cfg = Configuration._flat(swapped, cfg.ids, cfg.k, cfg.p, cfg.q)
    swapped_spec = RequirementSpec.exact((inst.spec.row(2), inst.spec.row(1)), inst.p)
    return Instance(spec=swapped_spec, initial=swapped_cfg, provenance=inst.provenance), True


# A round step: the flat (agent id, from, to, agent id, ...) moves of the
# windows whose left blocks (each window's right block is ``lb % k + 1``) it is
# given, in their order, in a configuration read once for them all, and the
# configuration they make; each window that moves nothing goes to its third
# argument (``idle.add`` in a run; the window wrappers pass ``bool``).
Step = Callable[[Configuration, Iterable[int], Callable[[int], object]], tuple[list, Configuration]]


# The most window slots (2p a plan) that a step function's plan cache
# covers, so that its memory does not grow with p.
_PLAN_SLOTS = 1 << 15
_BLUE_BYTE = bytes([BLUE])


def _two_colour_plan(cap: int, q: int, window: bytes, deficit: int) -> tuple:
    """The (from slot, to slot) pairs of the two-colour step of a window of
    colours ``window`` whose left block is ``deficit`` blues short (slots
    p..2p-1 are the right block), then each block's colours and count row
    of ``q`` colours after it."""
    p = len(window) // 2
    blues_left, reds_left, blues_right, reds_right = [], [], [], []
    for x in range(p):
        (blues_left if window[x] == BLUE else reds_left).append(x)
    for x in range(p, 2 * p):
        (blues_right if window[x] == BLUE else reds_right).append(x)
    t = min(cap, deficit, len(blues_right))
    if len(reds_left) < t:
        raise EngineError(f"{len(reds_left)} movable reds but t={t}")

    # Blues packed before reds, with the t leftmost reds of the left block
    # traded for the t leftmost blues of the right: each slot's source slot.
    sources = (blues_left + blues_right[:t] + reds_left[t:]
               + reds_left[:t] + blues_right[t:] + reds_right)
    # Each block's colours after it: its blues, then the colours of its reds in order.
    red_left, red_right = window[:p].replace(_BLUE_BYTE, b""), window[p:].replace(_BLUE_BYTE, b"")
    left = _BLUE_BYTE * (len(blues_left) + t) + red_left[t:]
    right = red_left[:t] + _BLUE_BYTE * (len(blues_right) - t) + red_right
    return (tuple([(src, dst) for dst, src in enumerate(sources) if src != dst]), left, right,
            tuple(map(left.count, range(1, q + 1))), tuple(map(right.count, range(1, q + 1))))


def _two_colour_round(need: Sequence[int], plan: Callable, cfg: Configuration,
                      left_blocks: Iterable[int], quiet: Callable[[int], object]
                      ) -> tuple[list[int], Configuration]:
    """The two-colour step of the windows whose left blocks are
    ``left_blocks``, block lb needing ``need[lb - 1]`` blue agents; see
    ``window_step_two_colour``.  A deficient window moves the slots of
    ``plan(colours, deficit)`` (a ``_two_colour_plan``) through its ring
    positions, into the next configuration with the plan's colours and count
    rows; an EngineError of the plan is raised again naming the window."""
    p, k, colours, ids, positions = cfg.p, cfg.k, cfg.colours, cfg.ids, cfg._positions
    counts, rows = cfg._block_counts, cfg._rows
    new_colours, new_ids, new_counts = bytearray(colours), ids[:], list(counts)
    moves: list[int] = []
    for lb in left_blocks:
        deficit = need[lb - 1] - counts[lb - 1][BLUE - 1]
        if deficit <= 0:
            quiet(lb)
            continue
        start, right_start = (lb - 1) * p, lb % k * p
        try:
            slots, left, right, left_row, right_row = plan(
                colours[start:start + p] + colours[right_start:right_start + p], deficit)
        except EngineError as error:
            raise EngineError(f"window [{lb}|{lb % k + 1}]: {error}") from None
        if not slots:
            quiet(lb)
            continue
        at = positions[start:start + p] + positions[right_start:right_start + p]
        for src, dst in slots:
            x, y = at[src], at[dst]
            new_ids[y] = agent = ids[x]
            moves += agent, x, y
        new_colours[start:start + p], new_colours[right_start:right_start + p] = left, right
        new_counts[lb - 1] = rows.setdefault(left_row, left_row)
        new_counts[lb % k] = rows.setdefault(right_row, right_row)
    return moves, (cfg._successor(bytes(new_colours), new_ids, tuple(new_counts)) if moves else cfg)


def _rearrange_to_pattern(cfg: Configuration, b: int, spec: RequirementSpec,
                          new_colours: bytearray, new_ids: array) -> list[int]:
    """Flat (agent id, from, to) moves that permute block ``b`` into its
    target pattern, order-preserving per colour, written into ``new_*``."""
    p = cfg.p
    start = (b - 1) * p
    block = cfg.colours[start:start + p]
    target = spec.target_colours[start:start + p]
    if block == target:
        return []
    slots = cfg._positions[start:start + p]
    queues = {colour: compress(slots, map(colour.__eq__, block)) for colour in set(block)}
    ids = cfg.ids
    moves: list[int] = []
    for pos, colour in zip(slots, target):
        src = next(queues.get(colour, iter(())), None)
        if src is None:
            raise EngineError(f"block {b} cannot form "
                              f"{spec.patterns[b - 1]!r}: colour counts disagree")
        if src != pos:
            new_ids[pos] = ids[src]
            moves += ids[src], src, pos
    new_colours[start:start + p] = target  # its colour counts stay the same
    return moves


def _q_colour_round(spec: RequirementSpec, cfg: Configuration, left_blocks: Iterable[int],
                    quiet: Callable[[int], object]) -> tuple[list[int], Configuration]:
    """The many-colour step of the windows whose left blocks are
    ``left_blocks``, and the configuration it makes; see ``window_step_q_colour``."""
    p, k, colours, ids, counts = cfg.p, cfg.k, cfg.colours, cfg.ids, cfg._block_counts
    columns, q, rows = spec.columns, spec.q, cfg._rows
    new_colours, new_ids, new_counts = bytearray(colours), ids[:], list(counts)
    moves: list[int] = []
    for lb in left_blocks:
        rb = lb % k + 1
        have_left, have_right = counts[lb - 1], counts[rb - 1]
        need_left, need_right = columns[lb - 1], columns[rb - 1]
        i = 1
        while i < q and have_left[i - 1] == need_left[i - 1] and have_right[i - 1] == need_right[i - 1]:
            i += 1
        if i < q:
            t = min(need_left[i - 1] - have_left[i - 1], have_right[i - 1])
            if t <= 0:
                quiet(lb)
                continue
            # The t leftmost agents above colour i in the left block trade places
            # with the t leftmost colour-i agents of the right block: t agents of
            # colour i enter the left block, and one of each traded colour leaves.
            left, right = list(have_left), list(have_right)
            left[i - 1] += t
            right[i - 1] -= t
            left_start, right_start = (lb - 1) * p, (rb - 1) * p
            rpos, right_stop = right_start - 1, right_start + p
            for lpos in range(left_start, left_start + p):
                if (c := colours[lpos]) > i:
                    rpos = colours.find(i, rpos + 1, right_stop)
                    moves += ids[rpos], rpos, lpos, ids[lpos], lpos, rpos
                    new_ids[lpos], new_ids[rpos] = ids[rpos], ids[lpos]
                    new_colours[lpos], new_colours[rpos] = i, c
                    left[c - 1] -= 1
                    right[c - 1] += 1
                    t -= 1
                    if not t:
                        break
            else:
                raise EngineError(f"window [{lb}|{rb}]: not enough agents above colour {i}")
            # Rows from lists: CPython makes a tuple of a map oversized, then
            # shrinks it, so it never reuses a freed tuple of the row's size.
            left, right = tuple(left), tuple(right)
            new_counts[lb - 1] = rows.setdefault(left, left)
            new_counts[rb - 1] = rows.setdefault(right, right)
        elif spec.kind is ProblemKind.P3 and (
                window := _rearrange_to_pattern(cfg, lb, spec, new_colours, new_ids)
                + _rearrange_to_pattern(cfg, rb, spec, new_colours, new_ids)):
            moves += window
        else:
            quiet(lb)
    return moves, (cfg._successor(bytes(new_colours), new_ids, tuple(new_counts)) if moves else cfg)


def two_colour_step(need: Sequence[int], p: int, q: int) -> Step:
    """The two-colour window step of a run with blocks of length ``p`` and q
    colours, block b needing ``need[b - 1]`` blue agents, capped at ``min(need)``
    a window, with its own LRU cache of at most ``_PLAN_SLOTS // (2 * p)`` plans."""
    cache = lru_cache(maxsize=_PLAN_SLOTS // (2 * p))
    return partial(_two_colour_round, need, cache(partial(_two_colour_plan, min(need), q)))


def _window_of(left: BlockView, right: BlockView) -> Configuration:
    """The configuration of two block views; ``right`` must follow ``left`` in it."""
    cfg = left.cfg
    if right.cfg is not cfg or right.index != left.index % cfg.k + 1:
        raise ValueError(f"block {right.index} does not follow block {left.index}")
    return cfg


def _triples(flat: Sequence[int]) -> tuple[tuple[int, int, int], ...]:
    it = iter(flat)
    return tuple(zip(it, it, it))


def window_step_two_colour(left: BlockView, right: BlockView, blue_required_left: int,
                           cap: int) -> tuple[tuple[int, int, int], ...]:
    """Net (agent id, from, to) moves of one two-colour window.

    Nothing happens unless the left block is short of blue agents (colour
    1).  On a deficit, both blocks pack their blue agents before the red
    ones (every other colour, order-preserving), then the t leftmost reds
    of the left block trade positions with the t leftmost blues of the
    right block, where t = min(cap, deficit, blues available on the right).
    ``right`` must be the block after ``left`` of the same configuration,
    whose window is stepped as ``run`` steps it.
    """
    return _triples(_two_colour_round({left.index - 1: blue_required_left},
                                      partial(_two_colour_plan, cap, left.cfg.q),
                                      _window_of(left, right), (left.index,), bool)[0])


def window_step_q_colour(left: BlockView, right: BlockView,
                         spec: RequirementSpec) -> tuple[tuple[int, int, int], ...]:
    """Net (agent id, from, to) moves of one many-colour window.

    Scan colours upward while colour i is correct in both blocks.  At the
    first wrong colour, if the left block is short of it, trade
    t = min(deficit, available on the right) leftmost colour-i agents of
    the right block for the t leftmost higher-coloured agents of the left
    block.  If every constrained colour is correct in both blocks,
    exact-pattern problems rearrange each block into its target pattern.
    ``right`` must be the block after ``left`` of the same configuration,
    whose window is stepped as ``run`` steps it.
    """
    return _triples(_q_colour_round(spec, _window_of(left, right), (left.index,), bool)[0])


def _sources(cfg: Configuration, moves: MoveSet) -> array:
    """The sources of a round's moves in ``cfg``; EngineError unless the
    moves permute positions of the ring, naming a bad move when one leaves it."""
    srcs = moves.flat[1::3]
    src_set, dst_set = set(srcs), set(moves.flat[2::3])
    if len(dst_set) != len(srcs):
        raise EngineError("collision: two agents target the same position")
    if len(src_set) != len(srcs):
        raise EngineError("two moves leave the same position")
    if src_set != dst_set:
        raise EngineError("moves do not permute positions: some node would empty")
    # The positions are a permutation, so bounds on the sources bound the
    # destinations too; the loop names the first bad move.
    if min(srcs) < 0 or max(srcs) >= cfg.n:
        for m in moves:
            if not 0 <= m.src < cfg.n or not 0 <= m.dst < cfg.n:
                raise EngineError(f"move {m} outside the ring")
            if cfg.ids[m.src] != m.agent_id:
                raise EngineError(f"move {m} does not match the agent at its source")
    return srcs


def _apply(cfg: Configuration, moves: MoveSet, offset: int
           ) -> tuple[Configuration, Move | None, Collection[int]]:
    """Apply a round's net moves in one walk that also finds the first move
    out of its window of the pairing at ``offset``: the next configuration,
    that move or None, and the 0-based blocks that a move across a block
    boundary entered or left.  A collision, a move outside the ring or an
    id other than the one at the move's source raises EngineError naming
    the first bad move.  Block b lies in window ``(b - offset) % k // 2``
    of ``build_pairing(k, offset).pairs``; for odd k, window ``k // 2`` is
    the block left unpaired.
    """
    if not moves:
        return cfg, None, ()
    _sources(cfg, moves)
    k, p, old_colours, old_ids = cfg.k, cfg.p, cfg.colours, cfg.ids
    shift = 1 - offset
    unpaired = (offset - 2) % k if k % 2 else -1  # the 0-based block of window k // 2
    stray = None
    colours, ids = bytearray(old_colours), old_ids[:]
    counts = list(cfg.all_counts())
    changed: dict[int, list[int]] = {}
    for agent_id, src, dst in moves.triples():
        if old_ids[src] != agent_id:
            raise EngineError(f"move {_new_move((agent_id, src, dst))} "
                              "does not match the agent at its source")
        colour = colours[dst] = old_colours[src]
        ids[dst] = agent_id
        src_b, dst_b = src // p, dst // p
        if src_b != dst_b:
            if (src_b + shift) % k // 2 != (dst_b + shift) % k // 2 and stray is None:
                stray = _new_move((agent_id, src, dst))
            if src_b not in changed:
                changed[src_b] = list(counts[src_b])
            if dst_b not in changed:
                changed[dst_b] = list(counts[dst_b])
            changed[src_b][colour - 1] -= 1
            changed[dst_b][colour - 1] += 1
        elif src_b == unpaired and stray is None:
            stray = _new_move((agent_id, src, dst))
    rows = cfg._rows
    for b, row in changed.items():
        row = tuple(row)
        counts[b] = rows.setdefault(row, row)
    return cfg._successor(bytes(colours), ids, tuple(counts)), stray, changed


def apply_moves(cfg: Configuration, moves: Iterable[Sequence[int]],
                pairing: WindowPairing | int | None = None) -> Configuration:
    """Apply a round's net moves (a MoveSet, or any iterable of triples),
    refusing collisions, moves outside the ring, ids that do not match the
    agent at the source and, given the round's pairing or its offset,
    out-of-window moves; ``_apply`` checks them all in its one walk.

    The per-block counts of the result follow from ``cfg``'s counts and the
    moves that cross a block boundary; every block that no agent enters or
    leaves keeps ``cfg``'s row object, and every other row is the tuple of
    ``cfg``'s row table with its value, as in the configurations that the
    round steps of a run build.
    """
    offset = pairing if pairing is None or type(pairing) is int else pairing.offset
    # Without a pairing no window test is asked for: the one made at offset 1 is dropped.
    new_cfg, stray, _ = _apply(cfg, MoveSet(moves), 1 if offset is None else offset)
    if stray is not None and offset is not None:
        raise EngineError(f"move {stray} leaves its window")
    return new_cfg


def _window_step(inst: Instance) -> Step:
    """The window step of ``inst``."""
    spec = inst.spec
    if uses_two_colour_steps(inst):
        return two_colour_step(spec.row(1), inst.p, inst.q)
    return partial(_q_colour_round, spec)


def step_round(cfg: Configuration, offset: int, step: Step,
               idle: set[int]) -> tuple[Configuration, MoveSet]:
    """One synchronous round: ``step`` every window of the pairing at
    ``offset`` whose left block is not in ``idle``, in the order of
    ``build_pairing(k, offset).pairs``, in one call of the round step, which
    builds the next configuration, and return it with the moves, once
    ``_sources`` finds that they permute positions of the ring.

    A window step depends only on its two blocks, so a window that moves
    nothing joins ``idle`` and leaves it when a move touches one of its
    blocks; sharing ``idle`` between the rounds of one step function gives
    the rounds a fresh empty set would give.  The idle windows are passed
    over in C: a round costs interpreted steps for its moves and the
    windows it steps only, and one step call.
    """
    k = cfg.k
    flat, new_cfg = step(cfg, filterfalse(idle.__contains__, _left_blocks(k, offset)), idle.add)
    moves = MoveSet(array("i", flat))
    if flat:
        p = cfg.p
        # The moves permute positions, so their sources lie in every block they touch.
        touched = {src // p for src in _sources(cfg, moves)}
        # The windows whose left block is 1-based block b + 1, and those whose right block it is.
        idle.difference_update([b + 1 for b in touched], [b or k for b in touched])
    return new_cfg, moves


def target_satisfied(cfg: Configuration, inst: Instance) -> bool:
    spec = inst.spec
    if spec.kind is ProblemKind.P2:
        return all(row[0] >= need for row, need in zip(cfg.all_counts(), spec.row(1)))
    if spec.kind is ProblemKind.P3:
        return cfg.colours == spec.target_colours
    return cfg.all_counts() == spec.columns


def initial_potential(inst: Instance) -> analysis.DistanceReport | None:
    """The distance of ``inst``'s initial configuration, with its renaming
    and destinations, for an instance whose run tracks a distance (one that
    ``uses_two_colour_steps``); None for the others."""
    if not uses_two_colour_steps(inst):
        return None
    return analysis.distance_report(inst.initial, inst.spec.row(1))


class Ledger:
    """The bookkeeping of a run, fed one round at a time, that ``iter_rounds``
    keeps as it runs and the audit as it replays.

    It keeps the configuration after the rounds entered so far, one byte a
    round saying whether it moved an agent, the first round after which the
    target holds (0 if the initial configuration meets it, None until one
    does) and, given the instance's ``initial_potential``, the blue count
    of every renamed block and the distance that follows from them.  The
    distance is computed from the blue count row after each round that
    moves an agent, against a destination total taken once.
    """

    def __init__(self, inst: Instance, potential: analysis.DistanceReport | None):
        self.instance, self.potential = inst, potential
        self.cfg = inst.initial
        self.moved = bytearray()
        self.reached = 0 if target_satisfied(inst.initial, inst) else None
        self.blues = self.distance = None
        if potential is not None:
            self.blues, self.distance = potential.blues, potential.total
            self.n_blue, self.dest_total = len(potential.dest), sum(potential.dest)

    def advance(self, cfg: Configuration, moved: bool) -> None:
        """Enter the next round, which left ``cfg`` and moved an agent or not."""
        self.moved.append(moved)
        if not moved:
            return
        self.cfg = cfg
        if self.potential is not None:
            self.blues = analysis.renamed_blues(cfg, self.potential.rename_offset)
            self.distance = analysis.distance_total(self.blues, self.n_blue, self.dest_total)
        if self.reached is None and target_satisfied(cfg, self.instance):
            self.reached = len(self.moved)

    def summary(self, kept_by: str) -> dict:
        """The summary of the rounds entered, as ``iter_rounds`` yields it:
        ``rounds_used`` is the first round after which the target holds
        (every round if none is), ``terminated`` says that one is and that at
        least k rounds without moves follow it, and ``bound_satisfied`` says
        that a terminated run stayed within the instance's round bound.  The
        block counts kept from round to round are first recounted from the
        colours; a disagreement raises EngineError that names ``kept_by``."""
        inst, cfg, reached, rounds = self.instance, self.cfg, self.reached, len(self.moved)
        recount = Configuration._flat(cfg.colours, cfg.ids, cfg.k, cfg.p, cfg.q)
        if recount.all_counts() != cfg.all_counts():
            raise EngineError(f"block counts kept across the {kept_by} disagree with a recount")
        rounds_used = rounds if reached is None else reached
        terminated = (reached is not None and rounds - reached >= inst.k
                      and self.moved.find(1, reached) < 0)
        return _summary(terminated, rounds_used, analysis.theoretical_bound(inst),
                        None if self.potential is None else self.potential.total, cfg)


def iter_rounds(inst: Instance, max_rounds: int | None = None, *,
                potential: analysis.DistanceReport | None
                ) -> Iterator[Instance | RoundTrace | dict]:
    """Run ``inst`` and yield what ``iter_trace`` yields for the run's
    trace: the instance, each round as a RoundTrace as soon as it has run,
    then the summary, ``SUMMARY_FIELDS`` with the ``initial_distance`` and,
    as ``"final"``, the final configuration.  It keeps no round it has
    yielded.

    Round r runs at offset ``(r - 1) % k + 1``.  Once the target condition
    first holds (after ``rounds_used`` rounds), k further verification
    rounds are executed; the run counts as terminated only if they all
    produce empty move sets.  Exhausting ``max_rounds`` (default
    ``4*n*k + 16``) yields ``terminated=False``.

    The rounds are those that ``step_round`` gives with a fresh idle set
    each round, which steps every window, at a cost that follows the moves
    rather than the ring size: the run keeps one idle set across its
    rounds.  A ``Ledger`` keeps the run's state, the distance of each round
    and the summary, which it gives once the block counts kept from round
    to round have been recounted from the colours; a disagreement raises
    EngineError.  An invalid instance raises InvalidInstanceError with
    ``validate``'s issues, and a negative ``max_rounds`` ValueError, before
    anything is yielded.  ``potential`` is ``initial_potential(inst)``,
    which the caller computes (``ringform run --trace`` also writes its
    total into the trace header).
    """
    report = validate(inst)
    if not report.valid:
        raise InvalidInstanceError(*report.issues)
    if max_rounds is None:
        max_rounds = default_max_rounds(inst)
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")

    k = inst.k
    step = _window_step(inst)
    idle: set[int] = set()
    ledger = Ledger(inst, potential)
    yield inst
    r = 0
    # Up to max_rounds rounds until the target holds, then k verification rounds.
    while r < (max_rounds if ledger.reached is None else ledger.reached + k):
        r += 1
        offset = (r - 1) % k + 1
        cfg, moves = step_round(ledger.cfg, offset, step, idle)
        ledger.advance(cfg, bool(moves))
        yield RoundTrace(index=r, offset=offset, moves=moves, counts=cfg.all_counts(),
                         distance=ledger.distance, checks=ROUND_CHECKS)
    yield ledger.summary("run")


def _summary(terminated: bool, rounds_used: int, bound: int, initial_distance: int | None,
             final: Configuration) -> dict:
    """The summary that ``iter_rounds`` yields last."""
    return {"rounds_used": rounds_used, "terminated": terminated, "bound": bound,
            "bound_satisfied": terminated and rounds_used <= bound,
            "initial_distance": initial_distance, "final": final}


def run(inst: Instance, max_rounds: int | None = None) -> RunResult:
    """The run of ``iter_rounds``, with every round kept."""
    instance, *rounds, summary = iter_rounds(inst, max_rounds,
                                             potential=initial_potential(inst))
    return RunResult(
        terminated=summary["terminated"],
        rounds_used=summary["rounds_used"],
        bound=summary["bound"],
        trace=tuple(rounds),
        final=summary["final"],
        instance=instance,
        initial_distance=summary["initial_distance"],
    )


def trace_items(result: RunResult) -> Iterator[Instance | RoundTrace | dict]:
    """``result`` as the items that ``iter_rounds`` yielded for it."""
    summary = _summary(result.terminated, result.rounds_used, result.bound,
                       result.initial_distance, result.final)
    return chain((result.instance,), result.trace, (summary,))


def write_trace(result: RunResult, fp: IO[str], *, reversed_roles: bool = False) -> None:
    """Write ``result`` as JSON lines, one record at a time, through ``iter_written``."""
    deque(iter_written(trace_items(result), fp, result.initial_distance,
                       reversed_roles=reversed_roles), maxlen=0)

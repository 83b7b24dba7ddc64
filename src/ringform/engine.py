"""Synchronous round-based execution of the window-swap algorithms.

Each round partitions the ring into windows of two adjacent blocks
starting at a cyclically shifting offset and applies a window step to
every window in parallel:

- the two-colour step packs blue agents ahead of red ones in both blocks
  of a deficient window and trades the leftmost surplus reds of the left
  block for the leftmost blues of the right block, at most the smallest
  per-block blue requirement of them;
- the many-colour step repairs the lowest-indexed colour whose count is
  wrong in the window, trading colour-i agents from the right block for
  higher-coloured agents from the left block, and once all constrained
  colours are locally correct rearranges blocks into their target
  patterns when the problem asks for exact patterns.

All moves of a round are net position changes applied in one synchronous
step; the engine refuses to apply colliding or out-of-window move sets.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, filterfalse
from types import SimpleNamespace
from typing import IO, Callable, Collection, Iterable, Iterator, Sequence

from . import analysis
from .analysis import BLUE
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
    """The instance fails semantic validation and cannot be run."""


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


def build_pairing(k: int, offset: int) -> WindowPairing:
    """Pair blocks (offset, offset+1), (offset+2, offset+3), ... around the ring."""
    if not 1 <= offset <= k:
        raise ValueError(f"offset {offset} out of range 1..{k}")
    ring = [*range(offset, k + 1), *range(1, offset)]  # the blocks from ``offset`` on
    return WindowPairing(offset=offset, pairs=tuple(zip(ring[::2], ring[1::2])))


def uses_two_colour_steps(inst: Instance) -> bool:
    """Exact two-colour targets and lower-bound targets run the two-colour step;
    everything else (three or more colours, or exact patterns) runs the
    many-colour step."""
    kind = inst.spec.kind
    return kind is ProblemKind.P2 or (kind is ProblemKind.P1 and inst.q == 2)


def default_max_rounds(inst: Instance) -> int:
    return 4 * inst.n * inst.k + 16


def orient_roles(inst: Instance) -> tuple[Instance, bool]:
    """Swap the two colour roles when that lowers the round-count bound.

    The bound tracks the colour with the smaller total-to-minimum-requirement
    ratio; if colour 2 has the strictly smaller ratio the returned instance
    has colours 1 and 2 exchanged in both the configuration and the
    requirement matrix (compared cross-multiplied, so a zero minimum on one
    side never forces a swap toward it).
    """
    if inst.q != 2 or inst.spec.kind is not ProblemKind.P1:
        raise ValueError("role orientation applies to exact two-colour instances")
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


# A window step: the flat (agent id, from, to, agent id, ...) moves of the
# window whose left block is ``lb`` (its right block is ``lb % k + 1``) in a
# configuration, empty when the window moves nothing.
Step = Callable[[Configuration, int], Sequence[int]]


# The most window slots (2p a key) that a step function's memo covers, so
# that its memory does not grow with p; past it, new windows are not kept.
_PLAN_SLOTS = 1 << 15


def _two_colour_sources(colours: Sequence[int], left: Sequence[int], right: Sequence[int],
                        deficit: int, cap: int, lb: int, k: int) -> list[int]:
    """The two-colour step of a window whose left block ``lb`` is ``deficit``
    blues short and whose slots, indices into ``colours``, are ``left`` then
    ``right``: the slot whose agent each of those slots receives, in order."""
    blues_left, reds_left, blues_right, reds_right = [], [], [], []
    for x in left:
        (blues_left if colours[x] == BLUE else reds_left).append(x)
    for x in right:
        (blues_right if colours[x] == BLUE else reds_right).append(x)
    t = min(cap, deficit, len(blues_right))
    if len(reds_left) < t:
        raise EngineError(f"window [{lb}|{lb % k + 1}]: {len(reds_left)} movable reds but t={t}")

    # Blues packed before reds, with the t leftmost reds of the left block
    # traded for the t leftmost blues of the right block.
    return (blues_left + blues_right[:t] + reds_left[t:]
            + reds_left[:t] + blues_right[t:] + reds_right)


def _two_colour_plan(window: bytes, deficit: int, cap: int, lb: int,
                     k: int) -> tuple[tuple[int, int], ...]:
    """The (from slot, to slot) pairs of the two-colour step of a window of
    colours ``window``; slots 0..p-1 are the left block and p..2p-1 the right."""
    p = len(window) // 2
    sources = _two_colour_sources(window, range(p), range(p, 2 * p), deficit, cap, lb, k)
    return tuple((src, dst) for dst, src in enumerate(sources) if src != dst)


def _two_colour_moves(need: Sequence[int], cap: int, plans: dict, cfg: Configuration,
                      lb: int) -> Sequence[int]:
    """The two-colour step of the window whose left block is ``lb``, which
    needs ``need[lb - 1]`` blue agents; see ``window_step_two_colour``.  The
    memo ``plans`` keys a window by its colours and deficit.  A key's first
    step steps the window directly and maps the key to None; its second
    builds and stores the key's plan, which later steps emit."""
    deficit = need[lb - 1] - cfg._block_counts[lb - 1][BLUE - 1]
    if deficit <= 0:
        return ()
    p, k, colours, ids, positions = cfg.p, cfg.k, cfg.colours, cfg.ids, cfg._positions
    start, right_start = (lb - 1) * p, lb % k * p
    left, right = positions[start:start + p], positions[right_start:right_start + p]
    key = colours[start:start + p] + colours[right_start:right_start + p], deficit
    plan = plans.get(key)
    at = left + right
    moves: list[int] = []
    if plan is None:
        if key not in plans:
            for dst, src in zip(at, _two_colour_sources(colours, left, right, deficit, cap, lb, k)):
                if src != dst:
                    moves += ids[src], src, dst
            if (len(plans) + 1) * 2 * p <= _PLAN_SLOTS:
                plans[key] = None
            return moves
        plans[key] = plan = _two_colour_plan(*key, cap, lb, k)
    for src, dst in plan:
        x = at[src]
        moves += ids[x], x, at[dst]
    return moves


def _rearrange_to_pattern(cfg: Configuration, b: int, spec: RequirementSpec) -> list[int]:
    """Flat (agent id, from, to) moves that permute block ``b`` into its
    target pattern, order-preserving per colour."""
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
            moves += ids[src], src, pos
    return moves


def _q_colour_moves(spec: RequirementSpec, cfg: Configuration, lb: int) -> Sequence[int]:
    """The many-colour step of the window whose left block is ``lb``; see
    ``window_step_q_colour``."""
    rb = lb % cfg.k + 1
    have_left, have_right = cfg._block_counts[lb - 1], cfg._block_counts[rb - 1]
    need_left, need_right = spec.columns[lb - 1], spec.columns[rb - 1]
    q = spec.q
    i = 1
    while i < q and have_left[i - 1] == need_left[i - 1] and have_right[i - 1] == need_right[i - 1]:
        i += 1

    if i < q:
        deficit = need_left[i - 1] - have_left[i - 1]
        if deficit <= 0:
            return ()
        t = min(deficit, have_right[i - 1])
        if t <= 0:
            return ()
        # The t leftmost agents above colour i in the left block trade places
        # with the t leftmost colour-i agents of the right block.
        p, colours, ids = cfg.p, cfg.colours, cfg.ids
        left_start, right_start = (lb - 1) * p, (rb - 1) * p
        moves: list[int] = []
        rpos, right_stop = right_start - 1, right_start + p
        for lpos in range(left_start, left_start + p):
            if colours[lpos] > i:
                rpos = colours.find(i, rpos + 1, right_stop)
                moves += ids[rpos], rpos, lpos, ids[lpos], lpos, rpos
                t -= 1
                if not t:
                    return moves
        raise EngineError(f"window [{lb}|{rb}]: not enough agents above colour {i}")

    if spec.kind is not ProblemKind.P3:
        return ()
    return _rearrange_to_pattern(cfg, lb, spec) + _rearrange_to_pattern(cfg, rb, spec)


def two_colour_step(need: Sequence[int], cap: int) -> Step:
    """The two-colour window step as a Step, for a run whose block b needs
    ``need[b - 1]`` blue agents, with its own memo of window plans."""
    return partial(_two_colour_moves, need, cap, {})


def _view_state(left: BlockView, right: BlockView) -> SimpleNamespace:
    """A stand-in, made from two views of adjacent blocks, for the
    Configuration a window step reads: its k, p, arrays and the count rows
    of the two blocks."""
    p = left.stop - left.start
    k = len(left.colours) // p
    if right.index != left.index % k + 1:
        raise ValueError(f"block {right.index} does not follow block {left.index}")
    return SimpleNamespace(k=k, p=p, colours=left.colours, ids=left.ids, _positions=left.positions,
                           _block_counts={left.index - 1: left.counts,
                                          right.index - 1: right.counts})


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
    ``right`` must be the block after ``left``; ``run`` steps the same
    window through ``two_colour_step``, without views.
    """
    return _triples(_two_colour_moves({left.index - 1: blue_required_left}, cap, {},
                                      _view_state(left, right), left.index))


def window_step_q_colour(left: BlockView, right: BlockView,
                         spec: RequirementSpec) -> tuple[tuple[int, int, int], ...]:
    """Net (agent id, from, to) moves of one many-colour window.

    Scan colours upward while colour i is correct in both blocks.  At the
    first wrong colour, if the left block is short of it, trade
    t = min(deficit, available on the right) leftmost colour-i agents of
    the right block for the t leftmost higher-coloured agents of the left
    block.  If every constrained colour is correct in both blocks,
    exact-pattern problems rearrange each block into its target pattern.
    ``right`` must be the block after ``left``.
    """
    return _triples(_q_colour_moves(spec, _view_state(left, right), left.index))


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
    flat = moves.flat
    if not flat:
        return cfg, None, ()
    srcs = flat[1::3]
    src_set, dst_set = set(srcs), set(flat[2::3])
    if len(dst_set) != len(srcs):
        raise EngineError("collision: two agents target the same position")
    if len(src_set) != len(srcs):
        raise EngineError("two moves leave the same position")
    if src_set != dst_set:
        raise EngineError("moves do not permute positions: some node would empty")
    n, k, p, old_colours, old_ids = cfg.n, cfg.k, cfg.p, cfg.colours, cfg.ids
    # The positions are a permutation, so bounds on the sources bound the
    # destinations too; the loop names the first bad move.
    if min(srcs) < 0 or max(srcs) >= n:
        for m in moves:
            if not 0 <= m.src < n or not 0 <= m.dst < n:
                raise EngineError(f"move {m} outside the ring")
            if old_ids[m.src] != m.agent_id:
                raise EngineError(f"move {m} does not match the agent at its source")
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
    ``cfg``'s row table with its value, so a run makes one row object per
    distinct row value, however many rounds it has.
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
        row = spec.row(1)
        return two_colour_step(row, min(row))
    return partial(_q_colour_moves, spec)


def step_round(cfg: Configuration, offset: int, step: Step,
               idle: set[int]) -> tuple[Configuration, MoveSet]:
    """One synchronous round: ``step`` every window of the pairing at
    ``offset`` whose left block is not in ``idle``, in the order of
    ``build_pairing(k, offset).pairs``, apply all the moves at once and
    return the next configuration with the moves.

    A window step depends only on its two blocks, so a window that moves
    nothing joins ``idle`` and leaves it when a move touches one of its
    blocks; sharing ``idle`` between the rounds of one step function gives
    the rounds a fresh empty set would give.  The idle windows are passed
    over in C: a round costs interpreted steps for its moves and the
    windows it steps only.
    """
    k = cfg.k
    if not 1 <= offset <= k:
        raise ValueError(f"offset {offset} out of range 1..{k}")
    # The left blocks offset, offset + 2, ... of the k // 2 windows, those
    # up to block k and then those past it, wrapped round to block 1 on.
    stop = offset + k // 2 * 2
    head = range(offset, min(stop, k + 1), 2)
    lefts = chain(head, range(offset + 2 * len(head) - k, stop - k, 2))
    flat = array("i")
    for lb in filterfalse(idle.__contains__, lefts):
        window = step(cfg, lb)
        if window:
            flat.extend(window)
        else:
            idle.add(lb)
    moves = MoveSet(flat)
    new_cfg = apply_moves(cfg, moves, offset)
    if flat:
        p = cfg.p
        # The moves permute positions, so their sources lie in every block they touch.
        touched = {src // p for src in flat[1::3]}
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


def check_counts(cfg: Configuration, kept_by: str) -> None:
    """Raise EngineError unless the block counts that ``cfg`` carries, kept
    from round to round by ``apply_moves``, equal a recount of its colours."""
    recount = Configuration._flat(cfg.colours, cfg.ids, cfg.k, cfg.p, cfg.q)
    if recount.all_counts() != cfg.all_counts():
        raise EngineError(f"block counts kept across the {kept_by} disagree with a recount")


def initial_potential(inst: Instance) -> analysis.DistanceReport | None:
    """The distance of ``inst``'s initial configuration, with its renaming
    and destinations, for an instance whose run tracks a distance (one that
    ``uses_two_colour_steps``); None for the others."""
    if not uses_two_colour_steps(inst):
        return None
    return analysis.distance_report(inst.initial, inst.spec.row(1))


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
    rounds, and the distance potential is computed from the blue count row
    after each round that moves an agent, against a destination total
    taken once.  The block counts kept from round to
    round are recounted from the colours at the end; a disagreement raises
    EngineError.  An invalid instance raises InvalidInstanceError, and a
    negative ``max_rounds`` ValueError, before anything is yielded.
    ``potential`` is ``initial_potential(inst)``, which the caller computes
    (``ringform run --trace`` also writes its total into the trace header).
    """
    report = validate(inst)
    if not report.valid:
        raise InvalidInstanceError(
            "; ".join(report.issues)
            or "global colour totals do not meet the target condition"
        )
    if max_rounds is None:
        max_rounds = default_max_rounds(inst)
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")

    k = inst.k
    distance = initial_distance = None if potential is None else potential.total
    if potential is not None:
        origin, dest = potential.rename_offset, potential.dest
        n_blue, dest_total = len(dest), sum(dest)
    step = _window_step(inst)
    idle: set[int] = set()

    def advance(cfg: Configuration, r: int) -> tuple[Configuration, RoundTrace]:
        nonlocal distance
        offset = (r - 1) % k + 1
        new_cfg, moves = step_round(cfg, offset, step, idle)
        if potential is not None and moves:
            distance = analysis.distance_total(analysis.renamed_blues(new_cfg, origin),
                                               n_blue, dest_total)
        return new_cfg, RoundTrace(index=r, offset=offset, moves=moves,
                                   counts=new_cfg.all_counts(), distance=distance,
                                   checks=ROUND_CHECKS)

    yield inst
    cfg, rounds_used = inst.initial, 0
    while rounds_used < max_rounds and not target_satisfied(cfg, inst):
        rounds_used += 1
        cfg, rt = advance(cfg, rounds_used)
        yield rt
    terminated = target_satisfied(cfg, inst)
    if terminated:
        for r in range(rounds_used + 1, rounds_used + k + 1):
            cfg, rt = advance(cfg, r)
            terminated = terminated and not rt.moves
            yield rt

    check_counts(cfg, "run")
    yield _summary(terminated, rounds_used, analysis.theoretical_bound(inst), initial_distance, cfg)


def _summary(terminated: bool, rounds_used: int, bound: int, initial_distance: int | None,
             final: Configuration) -> dict:
    """The summary that ``iter_rounds`` yields last."""
    return {"terminated": terminated, "rounds_used": rounds_used, "bound": bound,
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

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

import json
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count, filterfalse
from operator import ne
from types import SimpleNamespace
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import analysis
from .core import (
    BlockView,
    Configuration,
    Instance,
    ProblemKind,
    RequirementSpec,
    parse_instance,
    serialize_instance,
    validate,
)

TRACE_FORMAT = "ringform-trace-v3"
# Older formats read_trace reads: they nest each move and count row in a list;
# a v1 round record lists all k count rows and the checks.
TRACE_FORMAT_V2, TRACE_FORMAT_V1 = "ringform-trace-v2", "ringform-trace-v1"


class EngineError(RuntimeError):
    """Internal consistency violation; indicates a bug, not bad input."""


class InvalidInstanceError(ValueError):
    """The instance fails semantic validation and cannot be run."""


class TraceError(ValueError):
    """A malformed trace file, or recorded moves that cannot be replayed
    from the trace's instance; names the file line when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Move(NamedTuple):
    """One agent's net move in a round: a named tuple, so
    ``Move(7, 2, 5) == (7, 2, 5)``."""

    agent_id: int
    src: int
    dst: int


# A Move of an (agent id, from, to) triple, without Move's keyword handling.
_new_move = partial(tuple.__new__, Move)


class MoveSet(Sequence[Move]):
    """The moves of one round as one ``array('i')`` of flat (agent id, from,
    to) triples, made from an iterable of triples or from such an array: 12
    bytes a move, where a stored Move would be an object that every garbage
    collection visits (CPython never untracks a tuple subclass).  Iterating
    yields Moves; the hot paths read the plain tuples of ``triples()`` or
    the columns ``flat[0::3]`` (ids), ``flat[1::3]`` (from) and ``flat[2::3]``
    (to).  It equals a tuple or list of the same moves."""

    __slots__ = ("flat",)

    def __new__(cls, moves: Iterable[Sequence[int]] | array = ()) -> "MoveSet":
        if type(moves) is cls:
            return moves  # type: ignore[return-value]
        if type(moves) is not array:
            moves = moves if isinstance(moves, (list, tuple)) else list(moves)
            if not set(map(len, moves)) <= {3}:
                raise ValueError("a move is an (agent id, from, to) triple")
            moves = array("i", chain.from_iterable(moves))
        self = object.__new__(cls)
        self.flat = moves
        return self

    def triples(self) -> Iterator[tuple[int, int, int]]:
        it = iter(self.flat)
        return zip(it, it, it)

    def __iter__(self) -> Iterator[Move]:
        return map(_new_move, self.triples())

    def __len__(self) -> int:
        return len(self.flat) // 3

    def __getitem__(self, i):  # type: ignore[override]
        return tuple(self)[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MoveSet):
            return self.flat == other.flat
        return isinstance(other, (tuple, list)) and tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return f"MoveSet({list(self)!r})"


@dataclass(frozen=True)
class WindowPairing:
    """Disjoint (left, right) block pairs of one round; odd k leaves one block idle."""

    offset: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RoundTrace:
    """One round: ``moves`` is a MoveSet, made from any iterable of triples."""

    index: int
    offset: int
    moves: MoveSet
    counts: tuple[tuple[int, ...], ...]
    distance: int | None
    checks: tuple[tuple[str, bool], ...]

    def __post_init__(self) -> None:
        if type(self.moves) is not MoveSet:
            object.__setattr__(self, "moves", MoveSet(self.moves))


@dataclass(frozen=True)
class RunResult:
    terminated: bool
    rounds_used: int
    bound: int
    trace: tuple[RoundTrace, ...]
    final: Configuration
    instance: Instance
    initial_distance: int | None


# What every round record carries: apply_moves raises before any of them fails.
ROUND_CHECKS = (("collision_free", True), ("within_window", True), ("colours_conserved", True))


def wrap_block(b: int, k: int) -> int:
    return (b - 1) % k + 1


def build_pairing(k: int, offset: int) -> WindowPairing:
    """Pair blocks (offset, offset+1), (offset+2, offset+3), ... around the ring."""
    if not 1 <= offset <= k:
        raise ValueError(f"offset {offset} out of range 1..{k}")
    ring = [*range(offset, k + 1), *range(1, offset)]  # the blocks from ``offset`` on
    return WindowPairing(offset=offset, pairs=tuple(zip(ring[::2], ring[1::2])))


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
    swapped_cfg = cfg._successor(swapped, cfg.ids, tuple((b, a) for a, b in cfg.all_counts()))
    swapped_spec = RequirementSpec.exact((inst.spec.row(2), inst.spec.row(1)), inst.p)
    return Instance(spec=swapped_spec, initial=swapped_cfg, provenance=inst.provenance), True


# A window step: the flat (agent id, from, to, agent id, ...) moves of the
# window whose left block is ``lb`` (its right block is ``lb % k + 1``) in a
# configuration, empty when the window moves nothing.
Step = Callable[[Configuration, int], Sequence[int]]


def _two_colour_moves(need: Sequence[int], cap: int, blue_colour: int, frozen: frozenset[int],
                      cfg: Configuration, lb: int) -> Sequence[int]:
    """The two-colour step of the window whose left block is ``lb``, which
    needs ``need[lb - 1]`` agents of colour ``blue_colour``; see
    ``window_step_two_colour``."""
    deficit = need[lb - 1] - cfg._block_counts[lb - 1][blue_colour - 1]
    if deficit <= 0:
        return ()
    p, colours, ids, positions = cfg.p, cfg.colours, cfg.ids, cfg._positions
    left_start, right_start = (lb - 1) * p, lb % cfg.k * p
    left_slots = positions[left_start:left_start + p]
    right_slots = positions[right_start:right_start + p]
    if frozen:
        left_slots = [x for x in left_slots if colours[x] not in frozen]
        right_slots = [x for x in right_slots if colours[x] not in frozen]
    blues_left, reds_left, blues_right, reds_right = [], [], [], []
    for x in left_slots:
        (blues_left if colours[x] == blue_colour else reds_left).append(x)
    for x in right_slots:
        (blues_right if colours[x] == blue_colour else reds_right).append(x)
    t = min(cap, deficit, len(blues_right))
    if len(reds_left) < t:
        raise EngineError(f"window [{lb}|{lb % cfg.k + 1}]: "
                          f"{len(reds_left)} movable reds but t={t}")

    # Where the agent of each mobile slot comes from, left block then right
    # block: blues packed before reds, with the t leftmost reds of the left
    # block traded for the t leftmost blues of the right block.
    sources = (blues_left + blues_right[:t] + reds_left[t:]
               + reds_left[:t] + blues_right[t:] + reds_right)
    moves: list[int] = []
    for dst, src in zip(chain(left_slots, right_slots), sources):
        if src != dst:
            moves += ids[src], src, dst
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


def two_colour_step(need: Sequence[int], cap: int, *, blue_colour: int = 1,
                    frozen: frozenset[int] = frozenset()) -> Step:
    """The two-colour window step as a Step, for a run whose block b needs
    ``need[b - 1]`` agents of colour ``blue_colour``."""
    return partial(_two_colour_moves, need, cap, blue_colour, frozen)


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


def window_step_two_colour(
    left: BlockView,
    right: BlockView,
    blue_required_left: int,
    cap: int,
    *,
    blue_colour: int = 1,
    frozen: frozenset[int] = frozenset(),
) -> tuple[tuple[int, int, int], ...]:
    """Net (agent id, from, to) moves of one two-colour window.

    Nothing happens unless the left block is short of blue agents.  On a
    deficit, both blocks pack their mobile blue agents before the red ones
    (order-preserving), then the t leftmost reds of the left block trade
    positions with the t leftmost blues of the right block, where
    t = min(cap, deficit, blues available on the right).  Agents whose
    colour is in ``frozen`` keep their exact positions.  ``right`` must be
    the block after ``left``; ``run`` steps the same window through
    ``two_colour_step``, without views.
    """
    return _triples(_two_colour_moves({left.index - 1: blue_required_left}, cap, blue_colour,
                                      frozen, _view_state(left, right), left.index))


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


def apply_moves(cfg: Configuration, moves: Iterable[Sequence[int]],
                pairing: WindowPairing | int | None = None) -> Configuration:
    """Apply a round's net moves (a MoveSet, or any iterable of triples),
    refusing collisions and, given the round's pairing or its offset,
    out-of-window moves.

    The per-block counts of the result follow from ``cfg``'s counts and the
    moves that cross a block boundary; every block that no agent enters or
    leaves keeps ``cfg``'s row object.
    """
    if type(moves) is not MoveSet:
        moves = MoveSet(moves)
    flat = moves.flat
    if not flat:
        return cfg
    srcs = flat[1::3]
    src_set, dst_set = set(srcs), set(flat[2::3])
    if len(dst_set) != len(srcs):
        raise EngineError("collision: two agents target the same position")
    if len(src_set) != len(srcs):
        raise EngineError("two moves leave the same position")
    if src_set != dst_set:
        raise EngineError("moves do not permute positions: some node would empty")
    n, old_colours, old_ids = cfg.n, cfg.colours, cfg.ids
    # The positions are a permutation, so bounds on the sources bound the
    # destinations too; the loop names the first bad move.
    if (min(srcs) < 0 or max(srcs) >= n
            or array("i", map(old_ids.__getitem__, srcs)) != flat[0::3]):
        for m in moves:
            if not 0 <= m.src < n or not 0 <= m.dst < n:
                raise EngineError(f"move {m} outside the ring")
            if old_ids[m.src] != m.agent_id:
                raise EngineError(f"move {m} does not match the agent at its source")
    p = cfg.p
    if pairing is not None:
        offset = pairing if type(pairing) is int else pairing.offset
        stray = stray_move(moves, offset, cfg.k, p)
        if stray is not None:
            raise EngineError(f"move {stray} leaves its window")
    colours, ids = bytearray(old_colours), old_ids[:]
    counts = list(cfg.all_counts())
    changed: dict[int, list[int]] = {}
    for agent_id, src, dst in moves.triples():
        colour = colours[dst] = old_colours[src]
        ids[dst] = agent_id
        src_b, dst_b = src // p, dst // p
        if src_b != dst_b:
            if src_b not in changed:
                changed[src_b] = list(counts[src_b])
            if dst_b not in changed:
                changed[dst_b] = list(counts[dst_b])
            changed[src_b][colour - 1] -= 1
            changed[dst_b][colour - 1] += 1
    for b, row in changed.items():
        counts[b] = tuple(row)
    return cfg._successor(bytes(colours), ids, tuple(counts))


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
        idle.difference_update([b + 1 for b in touched], [wrap_block(b, k) for b in touched])
    return new_cfg, moves


def execute_round(cfg: Configuration, inst: Instance, offset: int, *,
                  index: int = 0) -> tuple[Configuration, RoundTrace]:
    """Apply the window step to every window of the round's pairing in
    parallel: ``step_round`` with a fresh idle set, the reference for the
    rounds of ``run``."""
    new_cfg, moves = step_round(cfg, offset, _window_step(inst), set())
    return new_cfg, RoundTrace(index=index, offset=offset, moves=moves,
                               counts=new_cfg.all_counts(), distance=None, checks=ROUND_CHECKS)


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


def run(inst: Instance, max_rounds: int | None = None) -> RunResult:
    """Drive rounds until the target holds, then observe quiescence.

    Round r runs at offset ``(r - 1) % k + 1``.  Once the target condition
    first holds (after ``rounds_used`` rounds), k further verification
    rounds are executed; the run counts as terminated only if they all
    produce empty move sets.  Exhausting ``max_rounds`` (default
    ``4*n*k + 16``) yields ``terminated=False``.

    The rounds are those of a chain of ``execute_round`` calls, at a cost
    that follows the moves rather than the ring size: ``step_round`` keeps
    one idle set across the run, and the distance potential is computed
    from the blue count row after each round that moves an agent.  The
    block counts kept from round to round are recounted from the colours
    at the end; a disagreement raises EngineError.
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
    two_colour = uses_two_colour_steps(inst)
    distance = initial_distance = None
    if two_colour:
        row = inst.spec.row(1)
        potential = analysis.distance_report(inst.initial, row)
        distance = initial_distance = potential.total

    step = _window_step(inst)
    idle: set[int] = set()
    rounds: list[RoundTrace] = []

    def advance(cfg: Configuration) -> Configuration:
        nonlocal distance
        offset = len(rounds) % k + 1
        new_cfg, moves = step_round(cfg, offset, step, idle)
        if two_colour and moves:
            distance = analysis.distance(new_cfg, row, potential.rename_offset,
                                         potential.dest).total
        rounds.append(RoundTrace(index=len(rounds) + 1, offset=offset, moves=moves,
                                 counts=new_cfg.all_counts(), distance=distance,
                                 checks=ROUND_CHECKS))
        return new_cfg

    cfg = inst.initial
    while len(rounds) < max_rounds and not target_satisfied(cfg, inst):
        cfg = advance(cfg)
    rounds_used = len(rounds)
    terminated = target_satisfied(cfg, inst)
    if terminated:
        for _ in range(k):
            cfg = advance(cfg)
        terminated = not any(rt.moves for rt in rounds[rounds_used:])

    check_counts(cfg, "run")
    return RunResult(
        terminated=terminated,
        rounds_used=rounds_used,
        bound=analysis.theoretical_bound(inst),
        trace=tuple(rounds),
        final=cfg,
        instance=inst,
        initial_distance=initial_distance,
    )


# --- trace serialization (JSON lines) -----------------------------------------


@dataclass(frozen=True)
class TraceData:
    """A deserialized trace file: the instance as run, its rounds, the summary."""

    instance: Instance
    rounds: tuple[RoundTrace, ...]
    summary: dict


def run_summary(result: RunResult) -> dict:
    """The summary fields of a run, as its trace and ``ringform run`` report them."""
    return {
        "terminated": result.terminated,
        "rounds_used": result.rounds_used,
        "bound": result.bound,
        "bound_satisfied": result.terminated and result.rounds_used <= result.bound,
    }


def trace_records(result: RunResult, *, reversed_roles: bool = False) -> Iterator[dict]:
    """The records of ``result``'s trace, made one at a time.  A v3 round
    record's ``moves`` is the flat (agent id, from, to) list, and its
    ``counts`` the flat ``[block, count of colour 1, ..., count of colour
    q, block, ...]`` list of every block whose row differs from the
    configuration the round started from."""
    yield {
        "type": "header",
        "format": TRACE_FORMAT,
        "instance": serialize_instance(result.instance),
        "reversed": reversed_roles,
        "initial_distance": result.initial_distance,
    }
    before = result.instance.initial.all_counts()
    for rt in result.trace:
        changed = compress(count(1), map(ne, before, rt.counts))
        yield {"type": "round", "round": rt.index, "offset": rt.offset,
               "moves": rt.moves.flat.tolist(),
               "counts": [x for b in changed for x in (b, *rt.counts[b - 1])],
               "distance": rt.distance}
        before = rt.counts
    yield {"type": "summary", **run_summary(result)}


def write_trace(result: RunResult, fp: IO[str], *, reversed_roles: bool = False) -> None:
    """Write ``result`` as JSON lines, encoding one record at a time."""
    for record in trace_records(result, reversed_roles=reversed_roles):
        fp.write(json.dumps(record) + "\n")


def _is_int(value: object) -> bool:
    return type(value) is int


def _patched_counts(before: tuple[tuple[int, ...], ...], flat: list[int], q: int,
                    line: int) -> tuple[tuple[int, ...], ...]:
    """``before`` with every ``block, count of colour 1, ..., count of colour
    q`` row of a round record's flat ``counts`` put in its block's place;
    the rows of the other blocks stay the same objects."""
    if not set(map(type, flat)) <= {int} or len(flat) % (q + 1):
        raise TraceError(f"'counts' rows must be [block, count of colour 1, ..., count of "
                         f"colour {q}] integers", line)
    if not flat:
        return before
    blocks = flat[::q + 1]
    k = len(before)
    if min(blocks) < 1 or max(blocks) > k:
        raise TraceError(f"'counts' names a block outside 1..{k}", line)
    if len(set(blocks)) != len(blocks):
        raise TraceError("'counts' names a block twice", line)
    after = list(before)
    for i in range(0, len(flat), q + 1):
        after[flat[i] - 1] = tuple(flat[i + 1:i + q + 1])
    return tuple(after)


def _round_from_record(record: dict, line: int, before: tuple[tuple[int, ...], ...],
                       q: int, fmt: str) -> RoundTrace:
    """A round record as a RoundTrace; TraceError names ``line`` on any
    malformed field.  A v3 record lists its moves and count rows flat, a v1
    or v2 record each in a list of its own.  The rows of a v2 or v3 record
    patch ``before``, the counts of the previous round; a v1 record lists
    the q counts of every block, without block numbers."""
    for key in ("round", "offset"):
        if not _is_int(record.get(key)):
            raise TraceError(f"round record needs an integer {key!r}", line)
    moves, counts = record.get("moves"), record.get("counts")
    distance, checks = record.get("distance"), record.get("checks")
    nested = fmt != TRACE_FORMAT
    # Set-of-types tests run the per-element work in C; bool is not int here.
    if nested:  # a v1/v2 record lists each move as an [agent id, from, to] list
        triples = (type(moves) is list and set(map(type, moves)) <= {list}
                   and set(map(len, moves)) <= {3})
        moves = list(chain.from_iterable(moves)) if triples else None
    if type(moves) is not list or not set(map(type, moves)) <= {int} or len(moves) % 3:
        raise TraceError("'moves' must be a list of agent id, from, to integer triples", line)
    try:
        flat = array("i", moves)
    except OverflowError:
        raise TraceError("'moves' must be integers that fit a C int", line) from None
    if type(counts) is not list or (nested and not set(map(type, counts)) <= {list}):
        raise TraceError("'counts' must be a list of per-block rows", line)
    if fmt == TRACE_FORMAT_V1:
        if (len(counts) != len(before) or not set(map(len, counts)) <= {q}
                or not set(map(type, chain.from_iterable(counts))) <= {int}):
            raise TraceError(f"'counts' must list {len(before)} rows of {q} integers", line)
        counts = tuple(map(tuple, counts))
    else:
        if nested:
            if not set(map(len, counts)) <= {q + 1}:
                raise TraceError(f"'counts' rows must be [block, count of colour 1, ..., "
                                 f"count of colour {q}] integers", line)
            counts = list(chain.from_iterable(counts))
        counts = _patched_counts(before, counts, q, line)
    if distance is not None and not _is_int(distance):
        raise TraceError("'distance' must be an integer or null", line)
    if checks is not None and not isinstance(checks, dict):
        raise TraceError("'checks' must be an object", line)
    return RoundTrace(
        index=record["round"],
        offset=record["offset"],
        moves=MoveSet(flat),
        counts=counts,
        distance=distance,
        checks=ROUND_CHECKS if checks is None
        else tuple((name, bool(v)) for name, v in checks.items()),
    )


def iter_trace(fp: IO[str] | IO[bytes] | Iterable[str | bytes]
               ) -> Iterator[Instance | RoundTrace | dict]:
    """Parse a JSON-lines trace, given as text lines or as raw byte lines,
    one line at a time: yield the instance of the header record, then every
    round record as a RoundTrace, then the summary.

    Reads ``ringform-trace-v3``, whose round records list their moves and
    the count rows that changed as flat integer lists, ``ringform-trace-v2``,
    which nests each move and row in a list, and ``ringform-trace-v1``,
    whose round records list all the rows.  The summary is the summary
    record, or ``{}`` without one, with the header's ``initial_distance``
    and ``reversed`` where it has none of its own; it comes last wherever
    its record stands in the file.  A byte line that is not UTF-8, a line
    that is not a JSON object, a record of unknown type, a header without
    an instance document or of another format, a malformed round or
    summary record, a second header or summary, a round record before the
    header and a missing header all raise :class:`TraceError`, with the
    file line when there is one, once the reader reaches that line; a
    malformed embedded instance raises :class:`InstanceFormatError`.
    """
    header: dict | None = None
    summary: dict | None = None
    counts: tuple[tuple[int, ...], ...] = ()  # of the last round
    formats = (TRACE_FORMAT, TRACE_FORMAT_V2, TRACE_FORMAT_V1)
    for no, line in enumerate(fp, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise TraceError(
                    f"not UTF-8 text: {exc.reason} at byte {exc.start} of the line", no) from None
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"not a JSON record: {exc.msg}", no) from None
        except RecursionError:
            raise TraceError("not a JSON record: nested too deeply", no) from None
        if not isinstance(record, dict):
            raise TraceError("record is not a JSON object", no)
        rtype = record.get("type")
        if rtype == "header":
            if header is not None:
                raise TraceError("a second header record", no)
            if not isinstance(record.get("instance"), str):
                raise TraceError("header record needs an instance document", no)
            if record.get("format") not in formats:
                raise TraceError(f"header format {record.get('format')!r} is not one of "
                                 f"{', '.join(map(repr, formats))}", no)
            header = record
            instance = parse_instance(record["instance"])
            counts = instance.initial.all_counts()
            yield instance
        elif rtype == "round":
            if header is None:
                raise TraceError("round record before the header record", no)
            rt = _round_from_record(record, no, counts, instance.q, header["format"])
            counts = rt.counts
            yield rt
        elif rtype == "summary":
            if summary is not None:
                raise TraceError("a second summary record", no)
            if "rounds_used" in record and not (_is_int(record["rounds_used"])
                                                and record["rounds_used"] >= 0):
                raise TraceError("summary 'rounds_used' must be a non-negative integer", no)
            if "terminated" in record and not isinstance(record["terminated"], bool):
                raise TraceError("summary 'terminated' must be true or false", no)
            summary = record
        else:
            raise TraceError(f"unknown record type {rtype!r}", no)
    if header is None:
        raise TraceError("trace has no header record")
    summary = summary or {}
    summary.setdefault("initial_distance", header.get("initial_distance"))
    summary.setdefault("reversed", header.get("reversed", False))
    yield summary


def read_trace(fp: IO[str] | IO[bytes] | Iterable[str | bytes]) -> TraceData:
    """The whole of a trace that ``iter_trace`` reads, with its errors."""
    instance, *rounds, summary = iter_trace(fp)
    return TraceData(instance=instance, rounds=tuple(rounds), summary=summary)

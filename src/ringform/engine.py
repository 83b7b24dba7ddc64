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

All moves of a round are net displacements applied in one synchronous
step; the engine refuses to apply colliding or out-of-window move sets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, starmap
from typing import IO, Callable, Iterable, NamedTuple, Sequence

from . import analysis
from .core import (
    Agent,
    BlockView,
    Configuration,
    Instance,
    ProblemKind,
    RequirementSpec,
    colour_of_symbol,
    parse_instance,
    serialize_instance,
    validate,
)

TRACE_FORMAT = "ringform-trace-v1"


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
    """One agent's net displacement in a round: a named tuple, so
    ``Move(7, 2, 5) == (7, 2, 5)`` and a trace record stores it as is."""

    agent_id: int
    src: int
    dst: int


@dataclass(frozen=True)
class WindowPairing:
    """Disjoint (left, right) block pairs of one round; odd k leaves one block idle."""

    offset: int
    pairs: tuple[tuple[int, int], ...]
    unpaired: int | None


@dataclass(frozen=True)
class RoundTrace:
    index: int
    offset: int
    moves: tuple[Move, ...]
    counts: tuple[tuple[int, ...], ...]
    distance: int | None
    checks: tuple[tuple[str, bool], ...]


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
    pairs = tuple((b % k + 1, (b + 1) % k + 1) for b in range(offset - 1, offset + k - 2, 2))
    unpaired = wrap_block(offset - 1, k) if k % 2 else None
    return WindowPairing(offset=offset, pairs=pairs, unpaired=unpaired)


def stray_move(pairing: WindowPairing, moves: Iterable[Move], p: int) -> Move | None:
    """The first move that does not stay inside one window of ``pairing``
    (blocks of length ``p``), or None."""
    window_of: dict[int, int] = {}
    for wid, (lb, rb) in enumerate(pairing.pairs):
        window_of[lb] = window_of[rb] = wid
    for m in moves:
        src_w = window_of.get(m.src // p + 1)
        if src_w is None or src_w != window_of.get(m.dst // p + 1):
            return m
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
    swapped_cfg = inst.initial.with_agents(
        tuple(Agent(a.id, 3 - a.colour) for a in inst.initial.agents)
    )
    swapped_spec = RequirementSpec.exact((inst.spec.row(2), inst.spec.row(1)), inst.p)
    return Instance(spec=swapped_spec, initial=swapped_cfg, provenance=inst.provenance), True


def window_step_two_colour(
    left: BlockView,
    right: BlockView,
    blue_required_left: int,
    cap: int,
    *,
    blue_colour: int = 1,
    frozen: frozenset[int] = frozenset(),
) -> tuple[Move, ...]:
    """Net moves of one two-colour window.

    Nothing happens unless the left block is short of blue agents.  On a
    deficit, both blocks pack their mobile blue agents before the red ones
    (order-preserving), then the t leftmost reds of the left block trade
    positions with the t leftmost blues of the right block, where
    t = min(cap, deficit, blues available on the right).  Agents whose
    colour is in ``frozen`` keep their exact positions.
    """

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


def _rearrange_to_pattern(view: BlockView, pattern: str, q: int) -> list[Move]:
    """Permute a block into its target pattern, order-preserving per colour."""
    queues: dict[int, list[tuple[int, Agent]]] = {}
    for pos, agent in view.slots:
        queues.setdefault(agent.colour, []).append((pos, agent))
    moves = []
    for (pos, _), symbol in zip(view.slots, pattern):
        colour = colour_of_symbol(symbol, q)
        queue = queues.get(colour)
        if not queue:
            raise EngineError(
                f"block {view.index} cannot form {pattern!r}: colour counts disagree"
            )
        src, agent = queue.pop(0)
        if src != pos:
            moves.append(Move(agent.id, src, pos))
    return moves


def window_step_q_colour(left: BlockView, right: BlockView,
                         spec: RequirementSpec) -> tuple[Move, ...]:
    """Net moves of one many-colour window.

    Scan colours upward while colour i is correct in both blocks.  At the
    first wrong colour, if the left block is short of it, trade
    t = min(deficit, available on the right) leftmost colour-i agents of
    the right block for the t leftmost higher-coloured agents of the left
    block.  If every constrained colour is correct in both blocks,
    exact-pattern problems rearrange each block into its target pattern.
    """
    q = spec.q

    def colour_count(view: BlockView, colour: int) -> int:
        return sum(1 for _, a in view.slots if a.colour == colour)

    i = 1
    while i < q and (
        colour_count(left, i) == spec.required(i, left.index)
        and colour_count(right, i) == spec.required(i, right.index)
    ):
        i += 1

    if i < q:
        deficit = spec.required(i, left.index) - colour_count(left, i)
        if deficit <= 0:
            return ()
        t = min(deficit, colour_count(right, i))
        if t <= 0:
            return ()
        incoming = [(pos, a) for pos, a in right.slots if a.colour == i][:t]
        outgoing = [(pos, a) for pos, a in left.slots if a.colour > i][:t]
        if len(outgoing) < t:
            raise EngineError(
                f"window [{left.index}|{right.index}]: not enough agents above colour {i}"
            )
        moves = []
        for (rpos, ragent), (lpos, lagent) in zip(incoming, outgoing):
            moves.append(Move(ragent.id, rpos, lpos))
            moves.append(Move(lagent.id, lpos, rpos))
        return tuple(moves)

    if spec.kind is not ProblemKind.P3:
        return ()
    patterns = spec.patterns or ()
    moves = _rearrange_to_pattern(left, patterns[left.index - 1], q)
    moves += _rearrange_to_pattern(right, patterns[right.index - 1], q)
    return tuple(moves)


def apply_moves(cfg: Configuration, moves: Sequence[Move],
                pairing: WindowPairing | None = None) -> Configuration:
    """Apply a round's net moves, refusing collisions and out-of-window moves.

    The per-block counts of the result follow from ``cfg``'s counts and the
    moves that cross a block boundary; every block that no agent enters or
    leaves keeps ``cfg``'s row object.
    """
    if not moves:
        return cfg
    srcs = {m.src for m in moves}
    dsts = {m.dst for m in moves}
    if len(dsts) != len(moves):
        raise EngineError("collision: two agents target the same position")
    if len(srcs) != len(moves):
        raise EngineError("two moves leave the same position")
    if srcs != dsts:
        raise EngineError("moves do not permute positions: some node would empty")
    old = cfg.agents
    n = cfg.n
    for m in moves:
        if not 0 <= m.src < n or not 0 <= m.dst < n:
            raise EngineError(f"move {m} outside the ring")
        if old[m.src].id != m.agent_id:
            raise EngineError(f"move {m} does not match the agent at its source")
    p = cfg.p
    if pairing is not None:
        stray = stray_move(pairing, moves, p)
        if stray is not None:
            raise EngineError(f"move {stray} leaves its window")
    agents = list(old)
    counts = list(cfg.all_counts())
    changed: dict[int, list[int]] = {}
    for m in moves:
        agent = old[m.src]
        agents[m.dst] = agent
        src_b, dst_b = m.src // p, m.dst // p
        if src_b != dst_b:
            for b, step in ((src_b, -1), (dst_b, 1)):
                if b not in changed:
                    changed[b] = list(counts[b])
                changed[b][agent.colour - 1] += step
    for b, row in changed.items():
        counts[b] = tuple(row)
    return cfg._successor(tuple(agents), tuple(counts))


Step = Callable[[Configuration, int, int], tuple[Move, ...]]


def _window_step(inst: Instance) -> Step:
    """The window step of ``inst`` as a function of (configuration, left
    block, right block)."""
    spec = inst.spec
    if uses_two_colour_steps(inst):
        row = spec.row(1)
        cap = min(row)
        return lambda cfg, lb, rb: window_step_two_colour(
            cfg.block_view(lb), cfg.block_view(rb), row[lb - 1], cap)
    return lambda cfg, lb, rb: window_step_q_colour(
        cfg.block_view(lb), cfg.block_view(rb), spec)


def step_round(cfg: Configuration, offset: int, step: Step,
               idle: set[int]) -> tuple[Configuration, tuple[Move, ...]]:
    """One synchronous round: ``step`` every window of the pairing at
    ``offset`` whose left block is not in ``idle``, apply all the moves at
    once and return the next configuration with the moves.

    A window step depends only on its two blocks, so a window that moves
    nothing joins ``idle`` and leaves it when a move touches one of its
    blocks; sharing ``idle`` between the rounds of one step function gives
    the rounds a fresh empty set would give.
    """
    pairing = build_pairing(cfg.k, offset)
    moves: list[Move] = []
    for lb, rb in pairing.pairs:
        if lb not in idle:
            window = step(cfg, lb, rb)
            if window:
                moves.extend(window)
            else:
                idle.add(lb)
    new_cfg = apply_moves(cfg, moves, pairing)
    if new_cfg.colour_totals() != cfg.colour_totals():
        raise EngineError("colour totals changed across a round")
    p, k = cfg.p, cfg.k
    for b in {m.src // p for m in moves} | {m.dst // p for m in moves}:
        idle.discard(b + 1)  # the window whose left block is 1-based block b + 1
        idle.discard(wrap_block(b, k))  # and the one whose right block it is
    return new_cfg, tuple(moves)


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
    counts = cfg.all_counts()
    if spec.kind is ProblemKind.P2:
        return all(row[0] >= need for row, need in zip(counts, spec.row(1)))
    if counts != tuple(zip(*spec.matrix)):
        return False
    # A block that matches its pattern has its counts, so the string
    # comparison only runs once every count is right.
    return spec.kind is not ProblemKind.P3 or cfg.to_string() == "".join(spec.patterns or ())


def run(inst: Instance, max_rounds: int | None = None) -> RunResult:
    """Drive rounds until the target holds, then observe quiescence.

    Round r runs at offset ``(r - 1) % k + 1``.  Once the target condition
    first holds (after ``rounds_used`` rounds), k further verification
    rounds are executed; the run counts as terminated only if they all
    produce empty move sets.  Exhausting ``max_rounds`` (default
    ``4*n*k + 16``) yields ``terminated=False``.

    The rounds are those of a chain of ``execute_round`` calls, at a cost
    that follows the moves rather than the ring size: ``step_round`` keeps
    one idle set across the run, and the distance potential is updated
    from the blue agents that change block.
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
        if two_colour:
            distance += analysis.distance_change(cfg, moves, potential.rename_offset)
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

    recount = Configuration(cfg.agents, cfg.k, cfg.p, cfg.q)
    if recount.all_counts() != cfg.all_counts():
        raise EngineError("block counts kept across the run disagree with a recount")
    if two_colour and analysis.distance(recount, row, potential.rename_offset,
                                        potential.dest).total != distance:
        raise EngineError("distance kept across the run disagrees with a recount")

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


def round_record(rt: RoundTrace) -> dict:
    return {
        "type": "round",
        "round": rt.index,
        "offset": rt.offset,
        "moves": rt.moves,    # json writes tuples, named ones too, as lists
        "counts": rt.counts,
        "distance": rt.distance,
        "checks": dict(rt.checks),
    }


def run_summary(result: RunResult) -> dict:
    """The summary fields of a run, as its trace and ``ringform run`` report them."""
    return {
        "terminated": result.terminated,
        "rounds_used": result.rounds_used,
        "bound": result.bound,
        "bound_satisfied": result.terminated and result.rounds_used <= result.bound,
    }


def trace_records(result: RunResult, *, reversed_roles: bool = False) -> list[dict]:
    records: list[dict] = [{
        "type": "header",
        "format": TRACE_FORMAT,
        "instance": serialize_instance(result.instance),
        "reversed": reversed_roles,
        "initial_distance": result.initial_distance,
    }]
    records.extend(round_record(rt) for rt in result.trace)
    records.append({"type": "summary", **run_summary(result)})
    return records


def write_trace(result: RunResult, fp: IO[str], *, reversed_roles: bool = False) -> None:
    for record in trace_records(result, reversed_roles=reversed_roles):
        fp.write(json.dumps(record) + "\n")


def _is_int(value: object) -> bool:
    return type(value) is int


def _round_from_record(record: dict, line: int) -> RoundTrace:
    """A round record as a RoundTrace; TraceError names ``line`` on any malformed field."""
    for key in ("round", "offset"):
        if not _is_int(record.get(key)):
            raise TraceError(f"round record needs an integer {key!r}", line)
    moves, counts = record.get("moves"), record.get("counts")
    distance, checks = record.get("distance"), record.get("checks", {})
    # Set-of-types tests run the per-element work in C; bool is not int here.
    if (type(moves) is not list or not set(map(type, moves)) <= {list}
            or not set(map(len, moves)) <= {3}
            or not set(map(type, chain.from_iterable(moves))) <= {int}):
        raise TraceError("'moves' must be a list of [agent id, from, to] integer triples", line)
    if type(counts) is not list or not set(map(type, counts)) <= {list}:
        raise TraceError("'counts' must be a list of per-block rows", line)
    if distance is not None and not _is_int(distance):
        raise TraceError("'distance' must be an integer or null", line)
    if not isinstance(checks, dict):
        raise TraceError("'checks' must be an object", line)
    return RoundTrace(
        index=record["round"],
        offset=record["offset"],
        moves=tuple(starmap(Move, moves)),
        counts=tuple(map(tuple, counts)),
        distance=distance,
        checks=tuple((name, bool(v)) for name, v in checks.items()),
    )


def read_trace(fp: IO[str] | IO[bytes] | Iterable[str | bytes]) -> TraceData:
    """Parse a JSON-lines trace, given as text lines or as raw byte lines.

    A byte line that is not UTF-8, a line that is not a JSON object, a
    record of unknown type, a header without an instance document or of
    another format, a malformed round or summary record, a second header
    or summary and a missing header all raise :class:`TraceError` with the
    file line when there is one; a malformed embedded instance raises
    :class:`InstanceFormatError`.
    """
    instance: Instance | None = None
    rounds: list[RoundTrace] = []
    summary: dict | None = None
    header: dict | None = None
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
            if record.get("format") != TRACE_FORMAT:
                raise TraceError(f"header format {record.get('format')!r} is not "
                                 f"{TRACE_FORMAT!r}", no)
            header = record
            instance = parse_instance(record["instance"])
        elif rtype == "round":
            rounds.append(_round_from_record(record, no))
        elif rtype == "summary":
            if summary is not None:
                raise TraceError("a second summary record", no)
            if "rounds_used" in record and not _is_int(record["rounds_used"]):
                raise TraceError("summary 'rounds_used' must be an integer", no)
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
    return TraceData(instance=instance, rounds=tuple(rounds), summary=summary)

"""The flat ring state against the Agent-tuple code it replaced.

``agent_step_two_colour`` and ``agent_step_q_colour`` are the window steps
as first written, over per-slot ``(ring position, Agent)`` tuples.  The
engine's steps read a block view of the flat colour bytes and id array;
each pair must give the same moves in the same order.  The other tests
show that a run and its audit build no Agent and keep no Move, that an
audit keeps a bounded number of configurations alive, and that the window
arithmetic of ``stray_move`` and the ``no_wraparound`` checker agrees with
``build_pairing``.
"""

import contextlib
import gc
import io
import random
import weakref
from typing import NamedTuple

from ringform import engine, verify
from ringform.cli import EXIT_OK, main
from ringform.core import Agent, Configuration, ProblemKind, colour_symbols
from ringform.engine import EngineError, Move, RoundTrace
from ringform.generators import (
    gen_adversarial_half,
    gen_homogeneous,
    gen_p2_random,
    gen_p3_random,
    gen_random,
)

from helpers import counts, make_p1, verdict_of


class AgentView(NamedTuple):
    """A block as the Agent-tuple steps read it."""

    index: int
    slots: tuple[tuple[int, Agent], ...]
    counts: tuple[int, ...]


def agent_view(cfg, j):
    start = (j - 1) * cfg.p
    return AgentView(j, tuple(enumerate(cfg.agents[start:start + cfg.p], start)), counts(cfg, j))


def agent_step_two_colour(left, right, blue_required_left, cap, *, blue_colour=1,
                          frozen=frozenset()):
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


def _agent_rearrange_to_pattern(view, pattern, q):
    queues = {}
    for pos, agent in view.slots:
        queues.setdefault(agent.colour, []).append((pos, agent))
    moves = []
    for (pos, _), symbol in zip(view.slots, pattern):
        colour = colour_symbols(q).index(symbol) + 1
        queue = queues.get(colour)
        if not queue:
            raise EngineError(
                f"block {view.index} cannot form {pattern!r}: colour counts disagree"
            )
        src, agent = queue.pop(0)
        if src != pos:
            moves.append(Move(agent.id, src, pos))
    return moves


def agent_step_q_colour(left, right, spec):
    q = spec.q
    i = 1
    while i < q and (
        left.counts[i - 1] == spec.required(i, left.index)
        and right.counts[i - 1] == spec.required(i, right.index)
    ):
        i += 1

    if i < q:
        deficit = spec.required(i, left.index) - left.counts[i - 1]
        if deficit <= 0:
            return ()
        t = min(deficit, right.counts[i - 1])
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
    moves = _agent_rearrange_to_pattern(left, patterns[left.index - 1], q)
    moves += _agent_rearrange_to_pattern(right, patterns[right.index - 1], q)
    return tuple(moves)


def outcome(step, *args, **kwargs):
    """The moves of a step, or the message of the EngineError it raised."""
    try:
        return step(*args, **kwargs)
    except EngineError as exc:
        return str(exc)


def states(inst):
    """Every configuration of the instance's run, with its round's offset."""
    result = engine.run(inst)
    cfg = inst.initial
    for rt in result.trace:
        yield cfg, rt.offset
        cfg = engine.apply_moves(cfg, rt.moves)


def test_window_steps_match_the_agent_tuple_steps():
    rng = random.Random(6)
    insts = ([gen_random(k, p, 2, s) for k in (2, 3, 6, 8) for p in (2, 3, 5) for s in range(4)]
             + [gen_adversarial_half(16, 4), gen_homogeneous(6, 4, 2, 1)]
             + [gen_p2_random(k, p, 2, s) for k in (4, 5) for p in (3, 4) for s in range(4)]
             + [gen_p3_random(k, p, q, s) for k, p, q in ((4, 3, 2), (5, 4, 3), (3, 6, 4))
                for s in range(6)]
             + [gen_random(k, q + 2, q, s) for k in (4, 5) for q in (3, 4, 5) for s in range(6)])
    compared = {"two_colour": 0, "q_colour": 0, "frozen": 0}
    for inst in insts:
        spec = inst.spec
        for cfg, offset in states(inst):
            for lb, rb in engine.build_pairing(inst.k, offset).pairs:
                views = cfg.block_view(lb), cfg.block_view(rb)
                old = agent_view(cfg, lb), agent_view(cfg, rb)
                if engine.uses_two_colour_steps(inst):
                    row = spec.row(1)
                    args = row[lb - 1], min(row)
                    assert outcome(engine.window_step_two_colour, *views, *args) \
                        == outcome(agent_step_two_colour, *old, *args), (inst, cfg, lb)
                    compared["two_colour"] += 1
                else:
                    assert outcome(engine.window_step_q_colour, *views, spec) \
                        == outcome(agent_step_q_colour, *old, spec), (inst, cfg, lb)
                    compared["q_colour"] += 1
                # The two-colour step of every colour, with the phase oracle's
                # frozen colours and with random ones.
                for blue in range(1, inst.q):
                    row = spec.row(blue)
                    for frozen in (frozenset(range(1, blue)),
                                   frozenset(c for c in range(1, inst.q + 1)
                                             if rng.random() < 0.3)):
                        kwargs = {"blue_colour": blue, "frozen": frozen}
                        args = row[lb - 1], min(row)
                        assert outcome(engine.window_step_two_colour, *views, *args, **kwargs) \
                            == outcome(agent_step_two_colour, *old, *args, **kwargs), \
                            (inst, cfg, lb, kwargs)
                        compared["frozen"] += 1
    assert min(compared.values()) >= 1000, compared


def test_run_and_audit_build_no_agent(monkeypatch):
    inst, _ = engine.orient_roles(gen_adversarial_half(16, 4))
    built = []
    init = Agent.__init__
    monkeypatch.setattr(Agent, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    Configuration.from_string("BRRB", 2, 2, 2).agents
    assert len(built) == 4  # the patch sees every Agent
    built.clear()
    result = engine.run(inst)
    buffer = io.StringIO()
    engine.write_trace(result, buffer)
    verdicts = verify.verify_trace(engine.read_trace(io.StringIO(buffer.getvalue())))
    assert result.terminated and all(v.passed for v in verdicts)
    assert built == []


def _live_moves() -> int:
    """The number of Move objects the collector can see."""
    gc.collect()
    return sum(type(o) is Move for o in gc.get_objects())


def test_run_and_audit_keep_no_move_objects():
    inst, _ = engine.orient_roles(gen_adversarial_half(16, 4))
    before = _live_moves()
    result = engine.run(inst)
    buffer = io.StringIO()
    engine.write_trace(result, buffer)
    data = engine.read_trace(io.StringIO(buffer.getvalue()))
    replayed = verify.replay_trace(data)
    verdicts = verify.verify_trace(data)
    assert result.terminated and all(v.passed for v in verdicts)
    assert replayed.rounds == data.rounds == result.trace
    assert _live_moves() == before
    kept = tuple(result.trace[-result.instance.k - 1].moves)  # the count sees every Move
    assert kept and _live_moves() == before + len(kept)


def test_audit_keeps_two_configurations_alive_whatever_the_round_count(monkeypatch, tmp_path):
    # Every configuration but one built from Agent objects is made by
    # Configuration._flat; the patch follows each while it is alive.
    inst, _ = engine.orient_roles(gen_adversarial_half(16, 4))
    result = engine.run(inst)
    path = tmp_path / "trace.jsonl"
    with open(path, "w", encoding="utf-8") as fp:
        engine.write_trace(result, fp)
    alive: weakref.WeakSet = weakref.WeakSet()
    peak = []
    flat = Configuration._flat.__func__

    def followed(cls, *args):
        cfg = flat(cls, *args)
        alive.add(cfg)
        peak.append(len(alive))
        return cfg

    monkeypatch.setattr(Configuration, "_flat", classmethod(followed))
    with open(path, encoding="utf-8") as fp:
        verdicts = verify.verify_trace(engine.read_trace(fp))
    assert all(v.passed for v in verdicts)
    moving = sum(bool(rt.moves) for rt in result.trace)
    assert len(peak) > moving > 20  # one configuration a moving round, made by apply_moves
    # The instance's initial configuration, and the ones before and after a round.
    assert max(peak) <= 3
    peak.clear()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["verify", "--trace", str(path)]) == EXIT_OK
    assert "FAIL" not in out.getvalue()
    assert len(peak) > moving and max(peak) <= 3


def test_window_arithmetic_matches_build_pairing():
    for k in range(2, 13):
        # p = 1 and every agent blue: the renamed first block is block 2.
        inst = make_p1("B" * k, k, 1, [[1] * k, [0] * k])
        origin = 2
        for offset in range(1, k + 1):
            pairs = engine.build_pairing(k, offset).pairs
            window = {b: w for w, pair in enumerate(pairs) for b in pair}
            for src in range(1, k + 1):
                for dst in range(1, k + 1):
                    inside = src in window and window.get(src) == window.get(dst)
                    move = Move(0, src - 1, dst - 1)
                    assert (engine.stray_move([move], offset, k, 1) is None) == inside, \
                        (k, offset, src, dst)
            # One exchange across the boundary between renamed blocks k and 1.
            last = (origin - 2) % k + 1
            swap = (Move(last - 1, last - 1, origin - 1), Move(origin - 1, origin - 1, last - 1))
            after = engine.apply_moves(inst.initial, swap)
            run = verify.replay(inst, [RoundTrace(index=1, offset=offset, moves=swap,
                                                  counts=after.all_counts(), distance=None,
                                                  checks=())])
            assert verdict_of(run, "no_wraparound").passed == ((last, origin) not in pairs), \
                (k, offset)


def test_agents_are_built_from_the_flat_state():
    cfg = gen_random(4, 3, 3, 2).initial
    assert cfg.agents == tuple(Agent(i, colour_symbols(3).index(ch) + 1)
                               for i, ch in enumerate(cfg.to_string()))
    assert Configuration(cfg.agents, cfg.k, cfg.p, cfg.q) == cfg
    assert hash(Configuration(cfg.agents, cfg.k, cfg.p, cfg.q)) == hash(cfg)

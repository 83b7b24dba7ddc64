"""The flat ring state against the Agent-tuple code it replaced.

``oracle.agent_step_two_colour`` and ``agent_step_q_colour`` are the window
steps as first written, over per-slot ``(ring position, Agent)`` tuples.  The
engine's steps read the flat colour bytes and id array, here through the
block-view wrappers ``window_step_*``; each pair must give the same moves
in the same order.  The other tests
show that a run and its audit build no Agent and keep no Move, that an
audit keeps a bounded number of configurations alive and ``ringform run
--trace --verify`` a bounded number of rounds, that a run, a trace read
back and its audit make one count row object per row value, that the
window arithmetic of ``oracle.stray_move`` and the ``no_wraparound``
checker agrees with ``build_pairing``, that ``apply_moves`` refuses
exactly the moves that ``oracle.stray_move`` finds out of their window,
and that a run and its audit walk each moving round's moves as often as
they should.
"""

import contextlib
import gc
import io
import sys
import weakref

import pytest

from ringform import engine, verify
from ringform.cli import EXIT_OK, main
from ringform.core import Agent, Configuration, ProblemKind, colour_symbols, serialize_instance
from ringform.engine import EngineError, Move, RoundTrace
from ringform.generators import (
    gen_adversarial_half,
    gen_homogeneous,
    gen_p2_random,
    gen_p3_random,
    gen_random,
)

import oracle
from helpers import make_p1, replay, step_window, verdict_of


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
    insts = ([gen_random(k, p, 2, s) for k in (2, 3, 6, 8) for p in (2, 3, 5) for s in range(4)]
             + [gen_adversarial_half(16, 4), gen_homogeneous(6, 4, 2, 1)]
             + [gen_p2_random(k, p, 2, s) for k in (4, 5) for p in (3, 4) for s in range(4)]
             # Large blocks, whose windows rarely repeat in a run.
             + [gen(k, p, 2, s) for gen in (gen_random, gen_p2_random) for k in (5, 8)
                for p in (16, 32) for s in range(2)]
             + [gen_homogeneous(5, 32, 12, 3)]
             + [gen_p3_random(k, p, q, s) for k, p, q in ((4, 3, 2), (5, 4, 3), (3, 6, 4))
                for s in range(6)]
             + [gen_random(k, q + 2, q, s) for k in (4, 5) for q in (3, 4, 5) for s in range(6)])
    compared = {"two_colour": 0, "q_colour": 0}
    for inst in insts:
        spec = inst.spec
        run_step = engine._window_step(inst)  # what run steps, on the configuration itself
        for cfg, offset in states(inst):
            for lb, rb in engine.build_pairing(inst.k, offset).pairs:
                views = cfg.block_view(lb), cfg.block_view(rb)
                old = oracle.agent_view(cfg, lb), oracle.agent_view(cfg, rb)
                if engine.uses_two_colour_steps(inst):
                    row = spec.row(1)
                    args = row[lb - 1], min(row)
                    moves = outcome(engine.window_step_two_colour, *views, *args)
                    assert moves == outcome(oracle.agent_step_two_colour, *old, *args), (inst, cfg, lb)
                    compared["two_colour"] += 1
                else:
                    moves = outcome(engine.window_step_q_colour, *views, spec)
                    assert moves == outcome(agent_step_q_colour, *old, spec), (inst, cfg, lb)
                    compared["q_colour"] += 1
                # step_window also checks the configuration the step returns with its moves.
                assert step_window(run_step, cfg, lb) == [x for move in moves for x in move]
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


def _rows(counts_seq):
    """Every count row of a sequence of count-row tuples."""
    return [row for counts in counts_seq for row in counts]


def _one_object_per_value(rows) -> bool:
    return len({id(row) for row in rows}) == len(set(rows))


def _audited_counts(monkeypatch, data):
    """The count rows of every configuration the audit of ``data`` replays."""
    replayed = []
    apply = verify._apply

    def recorded(cfg, moves, offset):
        after, stray, crossed = apply(cfg, moves, offset)
        replayed.append(after.all_counts())
        return after, stray, crossed

    monkeypatch.setattr(verify, "_apply", recorded)
    assert all(v.passed for v in verify.verify_trace(data))
    monkeypatch.setattr(verify, "_apply", apply)
    return replayed


def _check_reader_and_audit(monkeypatch, data):
    """The rows that ``data`` was read into, and those its audit replays,
    are one object per value, and the audit's rows are the reader's."""
    initial = data.instance.initial.all_counts()
    read = [initial, *(rt.counts for rt in data.rounds)]
    assert _one_object_per_value(_rows(read))
    replayed = _audited_counts(monkeypatch, data)
    moving = [rt.counts for rt in data.rounds if rt.moves]
    assert len(replayed) == len(moving) > 0
    assert all(a is b for ours, theirs in zip(replayed, moving) for a, b in zip(ours, theirs))
    assert _one_object_per_value(_rows([initial, *replayed]))


def test_run_reader_and_audit_make_one_row_object_per_row_value(monkeypatch):
    insts = [engine.orient_roles(gen_adversarial_half(16, 4))[0],
             *(gen_random(8, 8, 4, s) for s in range(3))]
    for inst in insts:
        result = engine.run(inst)
        rows = _rows([inst.initial.all_counts(), *(rt.counts for rt in result.trace)])
        assert result.terminated and _one_object_per_value(rows), inst.provenance
        if inst.q == 2:  # a block of p agents has one of p + 1 two-colour rows
            assert len(set(rows)) <= inst.p + 1 < sum(bool(rt.moves) for rt in result.trace)
        buffer = io.StringIO()
        engine.write_trace(result, buffer)
        _check_reader_and_audit(monkeypatch, engine.read_trace(io.StringIO(buffer.getvalue())))


def test_run_trace_verify_keeps_two_rounds_alive_whatever_the_round_count(monkeypatch,
                                                                          tmp_path):
    inst = gen_adversarial_half(16, 4)
    instance_path, trace_path = tmp_path / "inst.txt", tmp_path / "trace.jsonl"
    instance_path.write_text(serialize_instance(inst))
    # Keyed by id: equal rounds hash alike, and each object counts.
    alive: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
    peak = []
    post_init = RoundTrace.__post_init__

    def followed(self, checks=None):
        post_init(self, checks)
        alive[id(self)] = self
        peak.append(len(alive))

    monkeypatch.setattr(RoundTrace, "__post_init__", followed)
    argv = ["run", "--instance", str(instance_path), "--trace", str(trace_path), "--verify"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == EXIT_OK
    assert "FAIL" not in out.getvalue()
    assert len(peak) > 2 * inst.k  # one RoundTrace a round
    # The round being written and audited, and the one before it.
    assert max(peak) <= 2


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
                    assert (oracle.stray_move([move], offset, k, 1) is None) == inside, \
                        (k, offset, src, dst)
            # One exchange across the boundary between renamed blocks k and 1.
            last = (origin - 2) % k + 1
            swap = (Move(last - 1, last - 1, origin - 1), Move(origin - 1, origin - 1, last - 1))
            after = engine.apply_moves(inst.initial, swap)
            run = replay(inst, [RoundTrace(index=1, offset=offset, moves=swap,
                                                  counts=after.all_counts(), distance=None)])
            assert verdict_of(run, "no_wraparound").passed == ((last, origin) not in pairs), \
                (k, offset)


def test_apply_moves_refuses_exactly_the_moves_out_of_their_window():
    # Every (src, dst) pair of positions, as a swap of the two agents, or as
    # one move that stays put when src == dst; at p = 2 that includes swaps
    # inside one block, the unpaired block of an odd k among them.
    for k in range(2, 8):
        for p in (1, 2):
            n = k * p
            inst = make_p1("BR" * (n // 2) + "B" * (n % 2), k, p,
                           [[p - p // 2] * k, [p // 2] * k])
            cfg = inst.initial
            for offset in range(1, k + 1):
                for src in range(n):
                    for dst in range(n):
                        moves = [Move(src, src, dst)] + ([Move(dst, dst, src)] if dst != src
                                                         else [])
                        stray = oracle.stray_move(moves, offset, k, p)
                        where = (k, p, offset, src, dst)
                        if stray is None:
                            after = engine.apply_moves(cfg, moves, offset)
                            assert after.ids[dst] == src and after.ids[src] == dst, where
                        else:
                            with pytest.raises(EngineError) as caught:
                                engine.apply_moves(cfg, moves, offset)
                            assert str(caught.value) == f"move {stray} leaves its window", where
                        # The audit's replay names the same move and applies it all the same.
                        _, found, _ = engine._apply(cfg, engine.MoveSet(moves), offset)
                        assert found == stray, where


def test_a_run_and_its_audit_walk_each_moving_round_once_or_twice(monkeypatch):
    walks = []  # one entry a call of MoveSet.triples
    triples = engine.MoveSet.triples
    monkeypatch.setattr(engine.MoveSet, "triples", lambda moves: walks.append(1) or triples(moves))
    for inst in [*(gen_random(8, 8, 4, s) for s in range(3)),
                 engine.orient_roles(gen_adversarial_half(16, 4))[0]]:
        walks.clear()
        result = engine.run(inst)
        moving = sum(bool(rt.moves) for rt in result.trace)
        assert result.terminated and moving > 10, inst.provenance
        # The round steps build each next configuration as they make the moves.
        assert len(walks) == 0, inst.provenance
        walks.clear()
        assert all(v.passed for v in verify.verify_result(result))
        if inst.q == 2:
            # The replay, and perhaps the blue ranks that move: once or twice.
            assert moving <= len(walks) <= 2 * moving, inst.provenance
        else:
            assert len(walks) == moving, inst.provenance


def test_an_audit_of_a_stored_trace_walks_each_moving_round_at_most_twice(monkeypatch):
    # Not counting ``check_wrap``, which reads a round's moves only when one of
    # them may cross between the renamed last and first blocks.
    walks = []
    triples = engine.MoveSet.triples

    def counted(moves):
        if sys._getframe(1).f_code.co_name != "check_wrap":
            walks.append(1)
        return triples(moves)

    monkeypatch.setattr(engine.MoveSet, "triples", counted)
    for inst in [*(gen_random(8, 8, 4, s) for s in range(3)),
                 *(engine.orient_roles(gen_random(8, 4, 2, s))[0] for s in range(3)),
                 engine.orient_roles(gen_adversarial_half(16, 4))[0]]:
        buffer = io.StringIO()
        engine.write_trace(engine.run(inst), buffer)
        data = engine.read_trace(io.StringIO(buffer.getvalue()))
        moving = sum(bool(rt.moves) for rt in data.rounds)
        walks.clear()
        verdicts = verify.verify_trace(data)
        assert moving and all(v.passed for v in verdicts), inst.provenance
        if inst.q == 2:
            # The replay, then one walk of the blue movers for both rank verdicts.
            assert "cooperativeness" in verify.applicable_checks(inst)
            assert len(walks) <= 2 * moving, inst.provenance
        else:
            assert len(walks) == moving, inst.provenance


def test_agents_are_built_from_the_flat_state():
    cfg = gen_random(4, 3, 3, 2).initial
    assert cfg.agents == tuple(Agent(i, colour_symbols(3).index(ch) + 1)
                               for i, ch in enumerate(cfg.to_string()))
    assert Configuration(cfg.agents, cfg.k, cfg.p, cfg.q) == cfg
    assert hash(Configuration(cfg.agents, cfg.k, cfg.p, cfg.q)) == hash(cfg)

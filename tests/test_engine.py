"""Window steps, round execution, full runs, and engine safety guards."""

import binascii
import contextlib
import dataclasses
import io
import json
import random
from array import array
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringform import core, engine, verify
from ringform.cli import EXIT_VERIFICATION_FAILED, main
from ringform.core import MAX_COLOURS, Configuration, Instance, ProblemKind
from ringform.engine import (
    EngineError,
    InvalidInstanceError,
    Move,
    TraceError,
    apply_moves,
    build_pairing,
    orient_roles,
    read_trace,
    run,
    step_round,
    target_satisfied,
    window_step_q_colour,
    window_step_two_colour,
    write_trace,
)
from ringform.generators import (
    gen_adversarial_half,
    gen_homogeneous,
    gen_p2_random,
    gen_p3_random,
    gen_random,
)

import oracle
from helpers import (
    block_string,
    check_successor,
    counts,
    fresh_round,
    make_p1,
    make_p2,
    make_p3,
    packed,
    replayed_configs,
    step_window,
    unpacked,
    unpaired,
    with_row_table,
    written_records,
)


def two_blocks(left: str, right: str, q: int = 2) -> tuple:
    p = len(left)
    cfg = Configuration.from_string(left + right, 2, p, q)
    return cfg, cfg.block_view(1), cfg.block_view(2)


def blocks_after(cfg, moves):
    after = apply_moves(cfg, moves)
    return tuple(block_string(after, j) for j in range(1, cfg.k + 1))


# --- pairing -------------------------------------------------------------------


def test_pairing_even():
    pairing = build_pairing(4, 1)
    assert pairing.pairs == ((1, 2), (3, 4))
    assert unpaired(pairing, 4) is None
    assert build_pairing(4, 2).pairs == ((2, 3), (4, 1))
    assert build_pairing(2, 2).pairs == ((2, 1),)


def test_pairing_odd_leaves_predecessor_idle():
    pairing = build_pairing(3, 1)
    assert pairing.pairs == ((1, 2),)
    assert unpaired(pairing, 3) == 3
    pairing = build_pairing(5, 4)
    assert pairing.pairs == ((4, 5), (1, 2))
    assert unpaired(pairing, 5) == 3


def test_pairing_rejects_bad_offset():
    with pytest.raises(ValueError):
        build_pairing(4, 0)
    with pytest.raises(ValueError):
        build_pairing(4, 5)


def test_pairing_covers_each_block_once():
    for k in range(2, 10):
        for offset in range(1, k + 1):
            pairing = build_pairing(k, offset)
            seen = [b for pair in pairing.pairs for b in pair]
            assert len(seen) == len(set(seen)) == k - k % 2
            if k % 2:
                assert unpaired(pairing, k) == engine.wrap_block(offset - 1, k)


def test_step_round_steps_the_non_idle_windows_of_the_pairing_in_order():
    def record(state, left_blocks, quiet):
        for lb in left_blocks:
            stepped.append((state, lb))
            quiet(lb)
        return [], state

    rng = random.Random(9)
    for k in range(2, 10):
        cfg = Configuration.from_string("BR" * k, k, 2, 2)
        for offset in range(1, k + 1):
            pairs = build_pairing(k, offset).pairs
            assert all(rb == lb % k + 1 for lb, rb in pairs)  # the right block a step reads
            for _ in range(6):
                idle = {b for b in range(1, k + 1) if rng.random() < 0.4}
                after_idle, stepped = set(idle), []
                after, moves = step_round(cfg, offset, record, after_idle)
                assert stepped == [(cfg, lb) for lb, _ in pairs if lb not in idle], (k, offset)
                # A window that moves nothing joins the idle set.
                assert after_idle == idle | {lb for lb, _ in pairs}
                assert after is cfg and not moves
                assert after == apply_moves(cfg, moves, offset)
        for offset in (0, k + 1):
            with pytest.raises(ValueError, match="offset"):
                step_round(cfg, offset, lambda state, left_blocks, quiet: ([], state), set())


def test_run_steps_windows_without_views_or_pairings(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the round built a block view or a pairing")

    monkeypatch.setattr(Configuration, "block_view", refuse)
    monkeypatch.setattr(engine, "build_pairing", refuse)
    for inst in (gen_adversarial_half(16, 2),  # two-colour step
                 gen_p2_random(6, 4, 2, 1),  # two-colour step, lower bounds
                 gen_random(6, 5, 3, 1),  # many-colour step
                 gen_p3_random(5, 4, 3, 2)):  # many-colour step and pattern rearrangement
        result = run(inst)
        assert result.terminated and any(rt.moves for rt in result.trace), inst.provenance


# --- role orientation ----------------------------------------------------------


def test_orient_roles_symmetric_unchanged():
    inst = make_p1("BRBR", 2, 2, [[1, 1], [1, 1]])
    oriented, reversed_roles = orient_roles(inst)
    assert oriented == inst and not reversed_roles


def test_orient_roles_reverses_heavier_ratio():
    # blue ratio 3/1 beats red ratio 5/2, so the roles flip
    inst = make_p1("BBBRRRRR", 2, 4, [[1, 2], [3, 2]])
    oriented, reversed_roles = orient_roles(inst)
    assert reversed_roles
    assert oriented.initial.to_string() == "RRRBBBBB"
    assert oriented.spec.matrix == ((3, 2), (1, 2))
    assert validate_ok(oriented)


def validate_ok(inst):
    from ringform.core import validate
    return validate(inst).valid


def test_orient_roles_homogeneous_unchanged():
    inst = gen_homogeneous(4, 3, 1, seed=5)
    oriented, reversed_roles = orient_roles(inst)
    assert oriented == inst and not reversed_roles


def test_orient_roles_never_swaps_toward_zero_minimum():
    # colour 2 is not demanded anywhere, so roles must stay put
    inst = make_p1("BBBR", 2, 2, [[2, 1], [0, 1]])
    oriented, reversed_roles = orient_roles(inst)
    assert not reversed_roles


def test_orient_roles_leaves_other_kinds_as_they_are():
    for inst in (make_p2("BBBR", 2, 2, [[1, 1], [0, 0]]), gen_random(2, 3, 3, seed=0),
                 make_p3("RBRB", 2, 2, ["RB", "BR"])):
        oriented, reversed_roles = orient_roles(inst)
        assert oriented is inst and not reversed_roles


def test_orient_roles_refuses_zero_minimums_in_both_colours():
    inst = make_p1("BBRR", 2, 2, [[2, 0], [0, 2]])
    with pytest.raises(ValueError) as info:
        orient_roles(inst)
    assert str(info.value) == "cannot orient: both colours have a zero minimum requirement"


# --- two-colour window step ------------------------------------------------------


def test_window_swaps_leftmost_pair():
    cfg, left, right = two_blocks("RR", "BB")
    moves = window_step_two_colour(left, right, 1, 1)
    assert blocks_after(cfg, moves) == ("BR", "RB")


def test_window_idle_without_deficit():
    cfg, left, right = two_blocks("BR", "RB")
    assert window_step_two_colour(left, right, 1, 1) == ()


def test_window_idle_without_blues_on_right():
    cfg, left, right = two_blocks("RRR", "RRR")
    assert window_step_two_colour(left, right, 2, 2) == ()


def test_window_caps_transfer():
    cfg, left, right = two_blocks("RRRR", "BBBB")
    moves = window_step_two_colour(left, right, 3, 2)
    assert blocks_after(cfg, moves) == ("BBRR", "RRBB")


def test_window_packs_blues_even_when_no_swap_possible():
    cfg, left, right = two_blocks("RB", "RR")
    moves = window_step_two_colour(left, right, 2, 2)
    assert blocks_after(cfg, moves) == ("BR", "RR")


def test_window_places_incoming_blues_after_resident_blues():
    cfg, left, right = two_blocks("RBRB", "BBRR")
    moves = window_step_two_colour(left, right, 3, 3)
    after = apply_moves(cfg, moves)
    assert (block_string(after, 1), block_string(after, 2)) == ("BBBR", "RBRR")
    # resident blues keep the lead, the incoming blue follows, red order intact
    assert [a.id for a in after.agents if a.colour == 1] == [1, 3, 4, 5]


def test_window_steps_take_adjacent_views_only():
    cfg = Configuration.from_string("RRBBRRBB", 4, 2, 2)
    assert window_step_two_colour(cfg.block_view(4), cfg.block_view(1), 1, 1) == ()
    for left, right in ((1, 3), (2, 1)):
        views = cfg.block_view(left), cfg.block_view(right)
        with pytest.raises(ValueError, match=f"block {right} does not follow block {left}"):
            window_step_two_colour(*views, 1, 1)
        with pytest.raises(ValueError, match="does not follow"):
            window_step_q_colour(*views, make_p1("RRBBRRBB", 4, 2, [[1] * 4, [1] * 4]).spec)
    # Views of blocks 1 and 2 of two configurations make no window, although
    # window 1|2 of ``one`` moves two agents.
    one, other = (Configuration.from_string(s, 2, 2, 2) for s in ("RRBB", "BBRR"))
    spec = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]]).spec
    assert window_step_q_colour(one.block_view(1), one.block_view(2), spec) == \
        ((2, 2, 0), (0, 0, 2))
    views = one.block_view(1), other.block_view(2)
    with pytest.raises(ValueError, match="block 2 does not follow block 1"):
        window_step_two_colour(*views, 1, 1)
    with pytest.raises(ValueError, match="block 2 does not follow block 1"):
        window_step_q_colour(*views, spec)


# --- many-colour window step -----------------------------------------------------


def q3_spec(kind=ProblemKind.P1):
    from ringform.core import RequirementSpec
    return RequirementSpec(kind=kind, q=3, k=2, p=3,
                           matrix=((1, 1), (1, 1), (1, 1)))


def test_q_window_no_swap_without_left_deficit():
    cfg = Configuration.from_string("133222", 2, 3, 3)
    moves = window_step_q_colour(cfg.block_view(1), cfg.block_view(2), q3_spec())
    assert moves == ()


def test_q_window_repairs_first_wrong_colour():
    cfg = Configuration.from_string("233212", 2, 3, 3)
    moves = window_step_q_colour(cfg.block_view(1), cfg.block_view(2), q3_spec())
    after = apply_moves(cfg, moves)
    assert block_string(after, 1) == "133"
    assert block_string(after, 2) == "222"


def test_q_window_rearranges_into_patterns():
    inst = make_p3("RBRB", 2, 2, ["BR", "RB"])
    cfg = inst.initial
    moves = window_step_q_colour(cfg.block_view(1), cfg.block_view(2), inst.spec)
    after = apply_moves(cfg, moves)
    assert after.to_string() == "BRRB"
    # a block already matching its pattern stays untouched
    assert all(src // 2 == 0 and dst // 2 == 0 for _, src, dst in moves)


def test_q_window_skips_rearrangement_for_count_problems():
    cfg = Configuration.from_string("RBBR", 2, 2, 2)
    from ringform.core import RequirementSpec
    spec = RequirementSpec.exact([[1, 1], [1, 1]], 2)
    assert window_step_q_colour(cfg.block_view(1), cfg.block_view(2), spec) == ()


# --- rounds ----------------------------------------------------------------------


def test_fresh_round_example():
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    cfg, trace = fresh_round(inst.initial, inst, 1, index=1)
    assert cfg.to_string() == "BRRB"
    assert trace.offset == 1
    assert trace.counts == ((1, 1), (1, 1))
    assert len(trace.moves) == 2


def test_fresh_round_quiescent_when_satisfied():
    inst = make_p1("BRRB", 2, 2, [[1, 1], [1, 1]])
    for offset in (1, 2):
        _, trace = fresh_round(inst.initial, inst, offset)
        assert trace.moves == ()


def _recoloured_outside(cfg, lb, rng):
    """``cfg`` with a random colour for every agent outside the window whose
    left block is ``lb``, and the window's ring positions."""
    k, p = cfg.k, cfg.p
    start, right_start = (lb - 1) * p, lb % k * p
    window = {*range(start, start + p), *range(right_start, right_start + p)}
    colours = bytes(c if x in window else rng.randint(1, cfg.q) for x, c in enumerate(cfg.colours))
    # It shares the row table of ``cfg``'s run, whose step interns its plans' rows there.
    return with_row_table(Configuration._flat(colours, cfg.ids, k, p, cfg.q), cfg._rows), window


def test_a_window_moves_what_its_two_blocks_alone_decide():
    # The agents of a window see only its two blocks, so its moves must not
    # change when every agent outside them is recoloured: neither the run's
    # step nor the moves that a round makes inside the window.
    rng = random.Random(17)
    ks = (3, 4, 5, 7)
    families = {
        "P1 q=2": [orient_roles(gen_random(k, 4, 2, s))[0] for k in ks for s in range(5)],
        "P2": [gen_p2_random(k, 4, 2, s, extras=s % 3) for k in ks for s in range(5)],
        "P1 q>=3": [gen_random(k, q + 2, q, s) for k in ks for q in (3, 4) for s in range(2)],
        "P3": [gen_p3_random(k, 4, q, s) for k in ks for q in (2, 3) for s in range(2)],
    }
    moving = dict.fromkeys(families, 0)
    for family, insts in families.items():
        for inst in insts:
            step = engine._window_step(inst)
            result = run(inst)
            for cfg, rt in zip(replayed_configs(inst, result.trace), result.trace):
                for lb, _ in build_pairing(inst.k, rt.offset).pairs:
                    other, window = _recoloured_outside(cfg, lb, rng)
                    # step_window also checks the configuration the step returns.
                    moves = step_window(step, cfg, lb)
                    assert step_window(step, other, lb) == moves, (inst.provenance, rt.index, lb)
                    inside = []
                    for state in (cfg, other):
                        after, stepped = step_round(state, rt.offset, engine._window_step(inst),
                                                    set())
                        check_successor(state, stepped.flat, after, rt.offset)
                        inside.append([m for m in stepped.triples() if m[1] in window])
                    assert inside[0] == inside[1], (inst.provenance, rt.index, lb)
                    assert [x for m in inside[0] for x in m] == moves
                    moving[family] += bool(moves)
    assert min(moving.values()) >= 50, moving


def test_run_single_swap_instance():
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    result = run(inst)
    assert result.terminated
    assert result.rounds_used == 1
    assert result.final.to_string() == "BRRB"
    assert len(result.trace) == result.rounds_used + inst.k
    assert result.initial_distance == 1
    assert [rt.distance for rt in result.trace] == [0, 0, 0]


def test_run_satisfied_start_uses_zero_rounds():
    inst = make_p1("BRRB", 2, 2, [[1, 1], [1, 1]])
    result = run(inst)
    assert result.terminated and result.rounds_used == 0
    assert all(rt.moves == () for rt in result.trace)


def test_run_adversarial_bounds():
    inst = gen_adversarial_half(8, 2)
    result = run(inst)
    assert result.terminated
    assert 8 // 8 <= result.rounds_used <= 3 * 8 + 4


def test_run_through_the_ring_seam():
    # the only deficient window here is the one spanning the ring origin
    inst = make_p1("BBRR", 2, 2, [[1, 1], [1, 1]])
    result = run(inst)
    assert result.rounds_used == 2
    assert result.trace[0].moves == ()
    seam_moves = {(m.src, m.dst) for m in result.trace[1].moves}
    assert seam_moves == {(0, 2), (2, 0)}
    assert all(v.passed for v in verify.verify_result(result))


def test_run_is_deterministic():
    inst = gen_random(6, 4, 2, seed=11)
    assert run(inst) == run(inst)


def test_run_max_rounds_exhaustion():
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    result = run(inst, max_rounds=0)
    assert not result.terminated and result.rounds_used == 0


def test_run_rejects_invalid_instance():
    with pytest.raises(InvalidInstanceError):
        run(make_p1("BRRR", 2, 2, [[1, 1], [1, 1]]))


def test_iter_rounds_yields_the_items_of_the_run_and_of_its_trace():
    for inst in (orient_roles(gen_adversarial_half(8, 2))[0], gen_p2_random(5, 4, 2, 1),
                 gen_p3_random(4, 3, 3, 0)):
        for max_rounds in (None, 3):
            result = run(inst, max_rounds)
            items = list(engine.iter_rounds(inst, max_rounds,
                                            potential=engine.initial_potential(inst)))
            assert items[0] is inst and tuple(items[1:-1]) == result.trace
            summary = items[-1]
            assert summary.pop("final") == result.final
            buffer = io.StringIO()
            write_trace(result, buffer)
            stored = list(engine.iter_trace(io.StringIO(buffer.getvalue())))
            assert tuple(stored[1:-1]) == result.trace
            assert {"type": "summary", **summary, "reversed": False} == stored[-1]
    invalid = make_p1("BRRR", 2, 2, [[1, 1], [1, 1]])
    with pytest.raises(InvalidInstanceError):  # before any item
        next(engine.iter_rounds(invalid, potential=engine.initial_potential(invalid)))
    adversarial = gen_adversarial_half(8, 2)
    with pytest.raises(ValueError, match="non-negative"):
        next(engine.iter_rounds(adversarial, -1, potential=engine.initial_potential(adversarial)))


def test_a_run_and_its_audit_build_one_distance_report_each(monkeypatch):
    # The per-round distance comes from the blue count row and a destination
    # total taken once: ``analysis.distance`` builds a report with it.
    inst = orient_roles(gen_adversarial_half(16, 4))[0]
    reports = []
    distance = engine.analysis.distance
    monkeypatch.setattr(engine.analysis, "distance",
                        lambda *args: reports.append(args) or distance(*args))
    result = run(inst)
    assert len(reports) == 1 and sum(bool(rt.moves) for rt in result.trace) > 20
    reports.clear()
    assert all(v.passed for v in verify.verify_result(result))
    assert len(reports) == 1


def test_run_p2_lower_bounds_hold():
    inst = make_p2("RRRBBB", 3, 2, [[1, 1, 1], [0, 0, 0]])
    result = run(inst)
    assert result.terminated
    assert all(counts(result.final, j)[0] >= 1 for j in (1, 2, 3))


def test_run_p3_reaches_exact_patterns():
    inst = gen_p3_random(3, 3, 3, seed=2)
    result = run(inst)
    assert result.terminated
    assert result.final.to_string() == "".join(inst.spec.patterns)


def count_windows(monkeypatch, name: str, windows: list, rounds: list | None = None) -> None:
    """Patch the round step ``engine.<name>`` to append each left block it
    steps to ``windows`` and, given ``rounds``, each call's configuration to
    ``rounds``."""
    step = getattr(engine, name)

    def counted(*args):
        *bound, cfg, left_blocks, quiet = args
        if rounds is not None:
            rounds.append(cfg)
        return step(*bound, cfg, (windows.append(lb) or lb for lb in left_blocks), quiet)

    monkeypatch.setattr(engine, name, counted)


def test_run_does_not_restep_idle_windows(monkeypatch):
    inst = gen_adversarial_half(32, 2)
    calls = []
    count_windows(monkeypatch, "_two_colour_round", calls)
    result = run(inst)
    assert result.terminated
    # every window of every round would be len(trace) * k/2 steps
    assert 0 < len(calls) < len(result.trace) * inst.k // 2 // 2


@pytest.mark.parametrize("inst, name, windows", [
    (gen_adversarial_half(32, 2), "_two_colour_round", 335),
    (gen_random(16, 6, 3, 1), "_q_colour_round", 111),
])
def test_a_run_steps_each_round_in_one_call(inst, name, windows, monkeypatch):
    # One round step call per executed round, and as many windows stepped
    # as when every window was a call of its own (the pinned counts).
    stepped, rounds = [], []
    count_windows(monkeypatch, name, stepped, rounds)
    result = run(inst)
    assert result.terminated
    assert rounds == replayed_configs(inst, result.trace)[:-1]
    assert len(stepped) == windows


def _plan_corpus():
    """Two-colour instances for the plan cache: p in 1..8, 16 and 32, odd and
    even k (so the unpaired block and the wrap window), P1 oriented as
    ``ringform run`` orients it, and P2."""
    for p in range(1, 9):
        for k in (3, 4, 5, 8, 15, 16):
            yield orient_roles(gen_random(k, p, 2, p + k))[0]
            yield gen_p2_random(k, p, 2, p + k)
            if p > 1:
                yield orient_roles(gen_homogeneous(k, p, p // 2, p + k))[0]
            if p % 2 == 0 and k % 2 == 0:
                yield orient_roles(gen_adversarial_half(k, p))[0]
    # Large blocks, whose windows rarely repeat: most keys are seen once.
    for p, k in ((16, 5), (16, 8), (32, 3), (32, 4)):
        yield orient_roles(gen_random(k, p, 2, p + k))[0]
        yield gen_p2_random(k, p, 2, p + k)
    yield orient_roles(gen_homogeneous(5, 32, 12, 37))[0]


def test_a_round_step_steps_each_window_as_if_alone():
    # One call for a round's windows gives the moves of one call per window,
    # concatenated in pairing order, and reports the same windows quiet: no
    # state of one window leaks into the next.  Both steps keep a plan
    # cache, fed the same windows in the same order.
    insts = [*_plan_corpus(),
             *(gen_random(k, q + 2, q, s) for k in (3, 4, 5, 8) for q in (3, 4) for s in range(3)),
             *(gen_p3_random(k, p, q, s) for k, p, q in ((4, 3, 2), (5, 4, 3), (3, 6, 4), (8, 3, 3))
               for s in range(3))]
    crowded = 0  # rounds with two or more windows that move
    for inst in insts:
        round_step, window_step = engine._window_step(inst), engine._window_step(inst)
        result = run(inst)
        for cfg, rt in zip(replayed_configs(inst, result.trace), result.trace):
            left_blocks = [lb for lb, _ in build_pairing(inst.k, rt.offset).pairs]
            quiet, alone_quiet, alone = [], [], []
            moves, after = round_step(cfg, iter(left_blocks), quiet.append)
            check_successor(cfg, moves, after, rt.offset)
            for lb in left_blocks:
                window, window_after = window_step(cfg, (lb,), alone_quiet.append)
                check_successor(cfg, window, window_after, rt.offset)
                alone += window
            assert moves == alone and quiet == alone_quiet, (inst.provenance, rt.index)
            crowded += len(left_blocks) - len(quiet) >= 2
    assert crowded >= 500, crowded


def test_the_plan_cache_gives_the_moves_of_plans_never_stored(monkeypatch):
    built, steps = [], []
    plan = engine._two_colour_plan
    monkeypatch.setattr(engine, "_two_colour_plan", lambda *args: built.append(args) or plan(*args))
    make_step = engine.two_colour_step
    monkeypatch.setattr(engine, "two_colour_step",
                        lambda *args, **kw: steps.append(make_step(*args, **kw)) or steps[-1])
    # The plans built for the runs with the cache, and the runs without it
    # (when every plan is built for its step and dropped).
    cached_builds = 0
    for inst in _plan_corpus():
        built.clear()
        cached_moves = [rt.moves for rt in run(inst).trace]
        cached_builds += len(built)
        with monkeypatch.context() as m:
            m.setattr(engine, "_PLAN_SLOTS", 0)
            assert [rt.moves for rt in run(inst).trace] == cached_moves, inst.provenance
        # The cache, the step function's last bound argument, stays empty.
        assert steps[-1].args[-1].cache_info().currsize == 0, inst.provenance
    # The runs step windows from plans.
    assert cached_builds > 0


@pytest.mark.parametrize("p", [4, 8])
def test_the_plan_cache_covers_at_most_its_window_slots(p, monkeypatch):
    # The cache is bounded by the window slots its plans cover, so a run with
    # larger blocks keeps fewer windows.
    inst = orient_roles(gen_random(16, p, 2, 1))[0]
    steps = []
    make_step = engine.two_colour_step
    monkeypatch.setattr(engine, "two_colour_step",
                        lambda *args, **kw: steps.append(make_step(*args, **kw)) or steps[-1])
    expected = run(inst)
    monkeypatch.setattr(engine, "_PLAN_SLOTS", 64)
    assert run(inst) == expected
    # The cache, each step function's last bound argument.
    unbounded, bounded = (step.args[-1].cache_info() for step in steps)
    assert bounded.maxsize == 64 // (2 * p) and 0 < bounded.currsize <= bounded.maxsize
    assert unbounded.currsize > bounded.maxsize


def test_the_plan_cache_keeps_no_window_whose_step_raises():
    # Block 1 is all blue and one short of a requirement above p, which no
    # valid instance has: its step has no red to trade.
    cfg = Configuration.from_string("BBBBBR", 2, 3, 2)
    step = engine.two_colour_step([4, 1], 3, 2, cfg._rows)
    for _ in range(2):
        with pytest.raises(EngineError, match=r"window \[1\|2\]: 0 movable reds but t=1"):
            step_window(step, cfg, 1)
    assert step.args[-1].cache_info().currsize == 0
    # In a round, the healthy window [3|4] before it is cached on its first
    # round and hit on its second; the raising window stays out.
    cfg = Configuration.from_string("BBBBBRRRRBBB", 4, 3, 2)
    step = engine.two_colour_step([4, 1, 1, 1], 3, 2, cfg._rows)
    cache = step.args[-1]
    for hits in (0, 1):
        with pytest.raises(EngineError, match=r"window \[1\|2\]: 0 movable reds but t=1"):
            step(cfg, (3, 1), set().add)
        assert (cache.cache_info().hits, cache.cache_info().currsize) == (hits, 1)
    # Its plan: the moved slots, the window's colours after it, then each
    # block's count row after it, the tuple of the run's row table.
    plan = cache(bytes([2, 2, 2, 1, 1, 1]), 1)
    assert plan == (((3, 0), (0, 3)), bytes([1, 2, 2, 2, 1, 1]), (1, 2), (2, 1))
    assert all(row is cfg._rows[row] for row in plan[2:])
    assert cache.cache_info().hits == 2
    # Stepped alone, the window gives the configuration apply_moves makes of its moves.
    assert step_window(step, cfg, 3) == [9, 9, 6, 6, 6, 9]


def test_the_plan_cache_builds_each_window_plan_once(monkeypatch):
    # Counts, not time: a cache that is never hit builds a plan on every
    # deficient step.
    inst = orient_roles(gen_adversarial_half(64, 4))[0]
    steps, built = [], []
    plan = engine._two_colour_plan
    count_windows(monkeypatch, "_two_colour_round", steps)
    monkeypatch.setattr(engine, "_two_colour_plan",
                        lambda *args: built.append(args[3:]) or plan(*args))
    assert run(inst).terminated
    assert len(built) == len(set(built))  # each (window, deficit) once
    assert len(steps) > 100 * len(built)


class CountingRows(dict):
    """A row table that counts its ``setdefault`` calls."""

    calls = 0

    def setdefault(self, key, default=None):
        self.calls += 1
        return super().setdefault(key, default)


def test_a_cached_plan_interns_no_row_again(monkeypatch):
    # Counts, not time: the initial configuration puts its k rows through
    # the run's row table and each plan its two rows, once, when it is
    # built; a window served from the cache calls the table no more.
    inst = orient_roles(gen_adversarial_half(64, 4))[0]
    rows = CountingRows()
    inst = Instance(spec=inst.spec, initial=with_row_table(inst.initial, rows))
    built, steps = [], []
    plan = engine._two_colour_plan
    count_windows(monkeypatch, "_two_colour_round", steps)
    monkeypatch.setattr(engine, "_two_colour_plan", lambda *args: built.append(args) or plan(*args))
    result = run(inst)
    assert result.terminated
    assert all(args[2] is rows for args in built)
    assert len(steps) > 100 * len(built)
    assert inst.k <= rows.calls <= inst.k + 2 * len(built)
    # Every row of every round is the table's own object.
    assert all(row is rows[row] for rt in result.trace for row in rt.counts)


def test_a_full_plan_cache_still_takes_in_a_repeating_window(monkeypatch):
    # One-off windows fill the cache; a window stepped twice after them is
    # built on its first step and served from the cache on its second.
    monkeypatch.setattr(engine, "_PLAN_SLOTS", 12)  # two plans of 2p = 6 slots
    rows = {}  # the row table that the configurations of one run share
    step = engine.two_colour_step([2, 1], 3, 2, rows)
    cache = step.args[-1]
    for colours in ("RRBBBR", "RBRBBR", "BRRBBR"):
        assert step_window(step, with_row_table(Configuration.from_string(colours, 2, 3, 2), rows), 1)
    assert cache.cache_info().currsize == cache.cache_info().maxsize == 2
    cfg = with_row_table(Configuration.from_string("RRRBBB", 2, 3, 2), rows)
    first = step_window(step, cfg, 1)
    assert first and step_window(step, cfg, 1) == first
    assert (cache.cache_info().hits, cache.cache_info().misses) == (1, 4)


def test_apply_moves_shares_unchanged_count_rows():
    cfg = Configuration.from_string("RRBBRRBB", 4, 2, 2)
    after = apply_moves(cfg, (Move(2, 2, 1), Move(1, 1, 2)))  # blocks 1 and 2 trade
    assert after.all_counts() == Configuration(after.agents, 4, 2, 2).all_counts()
    assert [a is b for a, b in zip(after.all_counts(), cfg.all_counts())] \
        == [False, False, True, True]
    within = apply_moves(after, (Move(2, 1, 0), Move(0, 0, 1)))  # inside block 1
    assert within.all_counts() is not after.all_counts()
    assert all(a is b for a, b in zip(within.all_counts(), after.all_counts()))


def test_run_recounts_the_final_state(monkeypatch):
    inst = gen_adversarial_half(8, 2)
    successor = core.Configuration._successor
    monkeypatch.setattr(core.Configuration, "_successor",
                        lambda self, colours, ids, counts: successor(self, colours, ids,
                                                                     self.all_counts()))
    with pytest.raises(EngineError, match="block counts kept across the run disagree"):
        run(inst, max_rounds=5)


# --- safety guards ---------------------------------------------------------------


def test_apply_moves_rejects_collisions():
    cfg = Configuration.from_string("RRBB", 2, 2, 2)
    with pytest.raises(EngineError, match="collision"):
        apply_moves(cfg, (Move(0, 0, 2), Move(1, 1, 2)))
    with pytest.raises(EngineError, match="permute"):
        apply_moves(cfg, (Move(0, 0, 2),))
    with pytest.raises(EngineError, match="two moves leave the same position"):
        apply_moves(cfg, (Move(0, 0, 1), Move(0, 0, 2)))
    with pytest.raises(EngineError, match="source"):
        apply_moves(cfg, (Move(9, 0, 2), Move(2, 2, 0)))


def test_apply_moves_rejects_out_of_window_moves():
    cfg = Configuration.from_string("RRBBRR", 3, 2, 2)
    pairing = build_pairing(3, 1)  # pairs (1,2); block 3 idle
    with pytest.raises(EngineError, match="window"):
        apply_moves(cfg, (Move(0, 0, 4), Move(4, 4, 0)), pairing)


def test_moves_stay_local_and_colours_conserved():
    for seed in range(4):
        inst = gen_random(5, 3, 2, seed)
        result = run(inst)
        configs = replayed_configs(inst, result.trace)
        totals = inst.initial.colour_totals()
        for r, rt in enumerate(result.trace, start=1):
            for m in rt.moves:
                src_b, dst_b = m.src // inst.p + 1, m.dst // inst.p + 1
                pairing = build_pairing(inst.k, rt.offset)
                assert any({src_b, dst_b} <= {lb, rb} for lb, rb in pairing.pairs)
            assert configs[r].colour_totals() == totals


def test_quiescence_after_target():
    inst = gen_random(6, 3, 2, seed=4)
    result = run(inst)
    assert result.terminated
    tail = result.trace[result.rounds_used:]
    assert len(tail) == inst.k
    assert all(rt.moves == () for rt in tail)
    assert target_satisfied(result.final, inst)


# --- many-colour scheduling properties --------------------------------------------


def exit_colour(cfg, spec, lb, rb):
    i = 1
    while i < spec.q and (
        counts(cfg, lb)[i - 1] == spec.required(i, lb)
        and counts(cfg, rb)[i - 1] == spec.required(i, rb)
    ):
        i += 1
    return i


def test_settled_colours_never_change_blocks():
    for seed in range(5):
        inst = gen_random(4, 5, 4, seed)
        result = run(inst)
        configs = replayed_configs(inst, result.trace)
        for r, rt in enumerate(result.trace, start=1):
            cfg = configs[r - 1]
            pairing = build_pairing(inst.k, rt.offset)
            window_of = {}
            for pair in pairing.pairs:
                window_of[pair[0]] = pair
                window_of[pair[1]] = pair
            for m in rt.moves:
                src_b, dst_b = m.src // inst.p + 1, m.dst // inst.p + 1
                assert src_b != dst_b  # count repairs always cross blocks
                left, right = window_of[src_b]
                scan_stop = exit_colour(cfg, inst.spec, left, right)
                colour = cfg.agents[m.src].colour
                if src_b == right:
                    assert colour == scan_stop  # only the colour under repair moves left
                else:
                    assert colour > scan_stop  # only higher colours are displaced right


def test_interleaved_counts_match_sequential_phases():
    for q in (3, 4):
        for seed in range(4):
            inst = gen_random(4, q + 1, q, seed)
            result = run(inst)
            assert result.terminated
            assert oracle.sequential_phase_counts(inst) == result.final.all_counts()


# --- trace serialization -----------------------------------------------------------


def test_trace_roundtrip():
    inst = gen_random(4, 3, 2, seed=7)
    result = run(inst)
    buffer = io.StringIO()
    write_trace(result, buffer, reversed_roles=False)
    data = read_trace(io.StringIO(buffer.getvalue()))
    assert data.instance == inst
    assert data.rounds == result.trace
    assert data.summary["terminated"] == result.terminated
    assert data.summary["rounds_used"] == result.rounds_used
    assert data.summary["bound"] == result.bound
    assert data.summary["reversed"] is False


@pytest.mark.parametrize("inst, tracks_distance", [
    (gen_random(4, 3, 2, seed=7), True),          # P1, q = 2
    (gen_p2_random(5, 3, 2, 1, extras=2), True),  # P2
    (gen_random(4, 4, 3, 1), False),              # P1, q = 3
    (gen_p3_random(3, 4, 3, 4), False),           # P3
])
def test_iter_written_writes_each_record_before_it_passes_the_item_on(inst, tracks_distance):
    result = run(inst)
    potential = engine.initial_potential(inst)
    buffer = io.StringIO()
    items = engine.iter_written(engine.iter_rounds(inst, potential=potential), buffer,
                                None if potential is None else potential.total)
    assert next(items) is inst
    header = json.loads(buffer.getvalue())
    assert header["type"] == "header" and header["reversed"] is False
    if tracks_distance:
        assert type(header["initial_distance"]) is int
        assert header["initial_distance"] == result.initial_distance
    else:
        assert header["initial_distance"] is None and result.initial_distance is None
    for r, item in enumerate(items, start=1):
        lines = buffer.getvalue().splitlines()
        if isinstance(item, engine.RoundTrace):
            assert item.index == r
            assert [json.loads(line)["type"] for line in lines] == ["header"] + ["round"] * r
        else:
            assert r == len(result.trace) + 1 and json.loads(lines[-1])["type"] == "summary"
    written = io.StringIO()
    write_trace(result, written)
    assert buffer.getvalue() == written.getvalue()


def test_v4_round_records_pack_the_moves_and_only_the_changed_rows():
    result = run(gen_adversarial_half(8, 2))
    records = written_records(result)
    assert records[0]["format"] == "ringform-trace-v4"
    rounds = [r for r in records if r["type"] == "round"]
    assert all("checks" not in r for r in rounds)
    assert any(r["moves"] == r["counts"] == "" for r in rounds)  # a quiet round
    before, patched = result.instance.initial.all_counts(), []
    for record, rt in zip(rounds, result.trace):
        assert record["moves"] == packed(x for move in rt.moves for x in move)
        changed = {b for b in range(1, 9) if rt.counts[b - 1] != before[b - 1]}
        assert record["counts"] == packed(x for b in sorted(changed)
                                          for x in (b, *rt.counts[b - 1]))
        patched.append(changed)
        before = rt.counts
    data = read_trace(json.dumps(r) for r in records)
    assert data.rounds == result.trace
    # A key the format does not know, such as the "checks" of older formats, is ignored.
    assert read_trace(json.dumps({**r, "checks": []}) for r in records).rounds == result.trace
    before = data.instance.initial.all_counts()
    for changed, rt in zip(patched, data.rounds, strict=True):
        assert all((row is old) == (b not in changed)
                   for b, (row, old) in enumerate(zip(rt.counts, before), start=1))
        before = rt.counts


# Integers that an ``array('i')`` holds, both signs.
c_ints = st.integers(-(2 ** 31 - 1), 2 ** 31 - 1)


@st.composite
def traced_rounds(draw) -> tuple[core.Instance, list[engine.RoundTrace]]:
    """An instance and rounds of random moves, offsets and distances.  A
    round's counts are the round before's object, an equal copy of it, or
    rows that each stay as before, are an equal copy, or are drawn from a
    small pool (the initial rows and a few random ones, as the objects
    themselves or as copies), so that row values repeat across blocks and
    rounds in objects that differ."""
    q = draw(st.integers(2, MAX_COLOURS))
    inst = gen_random(draw(st.integers(2, 4)), q - 1, q)
    before, rounds = inst.initial.all_counts(), []
    pool = [*before, *draw(st.lists(st.tuples(*[st.integers(0, 2 ** 31 - 1)] * q),
                                    min_size=1, max_size=3))]
    rows = st.sampled_from(pool) | st.sampled_from(pool).map(lambda row: tuple(list(row)))
    for index in range(1, draw(st.integers(1, 3)) + 1):
        counts = draw(st.just(before) | st.just(tuple(list(before))) | st.tuples(
            *[st.just(row) | st.just(tuple(list(row))) | rows for row in before]))
        rounds.append(engine.RoundTrace(
            index=index, offset=draw(c_ints),
            moves=draw(st.lists(st.tuples(c_ints, c_ints, c_ints), max_size=4)),
            counts=counts, distance=draw(st.none() | st.just(0) | c_ints)))
        before = counts
    return inst, rounds


@settings(max_examples=150, deadline=None)
@given(traced_rounds())
def test_a_round_line_is_the_json_of_its_record_and_reads_back(case):
    inst, rounds = case
    summary = {"terminated": False, "rounds_used": len(rounds), "bound": None,
               "bound_satisfied": None}
    buffer = io.StringIO()
    assert list(engine.iter_written([inst, *rounds, summary], buffer, None)) == [
        inst, *rounds, summary]
    lines = buffer.getvalue().splitlines()
    before = inst.initial.all_counts()
    for rt, line in zip(rounds, lines[1:-1], strict=True):
        changed = [x for b, (old, row) in enumerate(zip(before, rt.counts), start=1)
                   if old != row for x in (b, *row)]
        assert line == json.dumps({"type": "round", "round": rt.index, "offset": rt.offset,
                                   "moves": packed(x for move in rt.moves for x in move),
                                   "counts": packed(changed), "distance": rt.distance})
        before = rt.counts
    _, *read, _ = engine.iter_trace(lines)
    assert read == rounds


def _round(index: int, counts: tuple) -> engine.RoundTrace:
    return engine.RoundTrace(index=index, offset=0, moves=(), counts=counts, distance=None)


def test_the_writer_checks_each_distinct_count_row_once_and_skips_a_kept_counts_object():
    log = []

    class Row(tuple):
        """A count row that logs each time its length is taken (as checking
        it does), it is iterated (as packing it does) or it is compared
        with ``!=``."""

        def __len__(self):
            log.append(("check", self))
            return tuple.__len__(self)

        def __iter__(self):
            log.append(("iterate", self))
            return tuple.__iter__(self)

        def __ne__(self, other):
            log.append(("compare", self))
            return tuple.__ne__(self, other)

    inst, values = gen_random(8, 3, 2, seed=0), [(1, 2), (2, 1)]
    rounds = [_round(1, tuple(Row(values[b % 2]) for b in range(8))),
              _round(2, tuple(Row(values[(b + 1) % 2]) for b in range(8)))]
    rounds.append(_round(3, rounds[1].counts))
    buffer = io.StringIO()
    items = engine.iter_written([inst, *rounds], buffer, None)
    assert [next(items) for _ in range(3)] == [inst, *rounds[:2]]
    lines = buffer.getvalue().splitlines()
    assert unpacked(json.loads(lines[2])["counts"])[::3] == list(range(1, 9))  # all changed
    assert Counter(row for event, row in log if event == "check") == Counter(values)
    log.clear()
    assert next(items) is rounds[2]
    assert log == []
    lines = buffer.getvalue().splitlines()
    assert json.loads(lines[3])["counts"] == ""
    _, *read, _ = engine.iter_trace(lines)
    assert read == rounds


# C ints that a trace's moves may hold: zero, both signs and both extremes.
EDGE_INTS = (0, 1, 5, -1, -5, 2 ** 31 - 1, -(2 ** 31 - 1), -2 ** 31)


def test_the_writer_packs_moves_that_reuse_integers_as_their_json():
    inst = gen_random(4, 3, 2, seed=0)
    counts = inst.initial.all_counts()
    # Each round reuses the integers of the one before, as ids and as positions.
    rounds = [engine.RoundTrace(index=r, offset=1, counts=counts, distance=None,
                                moves=[(EDGE_INTS[(r + j) % 8], EDGE_INTS[(r * j) % 8],
                                        EDGE_INTS[j % 8]) for j in range(4 + 3 * r)])
              for r in range(1, 5)]
    buffer = io.StringIO()
    deque(engine.iter_written([inst, *rounds], buffer, None), maxlen=0)
    lines = buffer.getvalue().splitlines()
    for rt, line in zip(rounds, lines[1:], strict=True):
        assert line == json.dumps({"type": "round", "round": rt.index, "offset": 1,
                                   "moves": packed(x for move in rt.moves for x in move),
                                   "counts": "", "distance": None})
    _, *read, _ = engine.iter_trace(lines)
    assert read == rounds


def test_moves_hash_as_the_tuple_they_equal_so_rounds_and_runs_hash():
    result = run(orient_roles(gen_adversarial_half(4, 2))[0])
    for rt in result.trace:
        assert hash(rt.moves) == hash(tuple(rt.moves)) == hash(engine.MoveSet(rt.moves.flat[:]))
        assert hash(rt) == hash(dataclasses.replace(rt, moves=tuple(rt.moves)))
    assert hash(engine.MoveSet()) == hash(())
    assert hash(result) == hash(dataclasses.replace(result))
    data = read_trace(io.StringIO("\n".join(map(json.dumps, written_records(result)))))
    assert data.rounds == result.trace and set(data.rounds) == set(result.trace)


@pytest.mark.parametrize("moves", [[(1, 2)], [(1, 2, 3), (4, 5, 6, 7)], ((1, 2, 3), ()),
                                   iter([(1, 2, 3, 4)])])
def test_a_move_set_refuses_a_move_that_is_not_a_triple(moves):
    with pytest.raises(ValueError) as info:
        engine.MoveSet(moves)
    assert str(info.value) == "a move is an (agent id, from, to) triple"


def test_a_move_set_indexes_and_slices_as_its_tuple_without_walking_its_moves(monkeypatch):
    for moves in ((), [(1, 2, 3)], [(i, -i, EDGE_INTS[i % 8]) for i in range(10)]):
        ms, expected = engine.MoveSet(moves), tuple(map(Move._make, moves))
        n = len(expected)
        for s in (slice(None), slice(2, None), slice(None, -2), slice(1, 8, 3),
                  slice(None, None, -1), slice(-3, -1), slice(20, 30)):
            assert ms[s] == expected[s] and type(ms[s]) is tuple
        with monkeypatch.context() as patch:
            patch.setattr(engine.MoveSet, "__iter__", None)  # an index reads its own cells
            for i in range(-n, n):
                assert ms[i] == expected[i] and type(ms[i]) is Move
            for i in (n, -n - 1, n + 7):
                with pytest.raises(IndexError):
                    ms[i]
            assert list(reversed(ms)) == list(reversed(expected))
            assert all(ms.index(move) == expected.index(move) for move in expected)
        with pytest.raises(TypeError):
            ms["0"]


def test_a_two_colour_step_refuses_a_configuration_with_another_row_table():
    inst = orient_roles(gen_adversarial_half(8, 4))[0]
    cfg = inst.initial
    copy = Configuration._flat(cfg.colours, cfg.ids, cfg.k, cfg.p, cfg.q)
    step = engine._window_step(inst)
    with pytest.raises(ValueError, match="row table"):
        step(copy, [2, 4, 6, 8], bool)
    moves, after = step(cfg, [2, 4, 6, 8], bool)
    assert len(moves) == 12 and all(row is cfg._rows[row] for row in after.all_counts())
    moves, after = step(with_row_table(copy, cfg._rows), [2, 4, 6, 8], bool)
    assert len(moves) == 12 and all(row is cfg._rows[row] for row in after.all_counts())
    # The window wrapper steps a configuration with the row table it has.
    need = inst.spec.row(1)
    moves, _ = step(cfg, [4], bool)
    assert moves and window_step_two_colour(copy.block_view(4), copy.block_view(5), need[3],
                                            min(need)) == tuple(zip(*[iter(moves)] * 3))


@pytest.mark.parametrize("k", [3, 5])
def test_the_writer_refuses_a_round_without_one_count_row_per_block(k):
    inst = gen_random(4, 3, 2, seed=0)
    counts = (inst.initial.all_counts() * 2)[:k]
    buffer = io.StringIO()
    items = engine.iter_written([inst, _round(1, counts)], buffer, None)
    next(items)
    with pytest.raises(ValueError, match=f"^round 1: {k} rows for 4 blocks$"):
        next(items)
    assert len(buffer.getvalue().splitlines()) == 1


@pytest.mark.parametrize("row", [(3,), (1, 1, 1)])
def test_the_writer_refuses_a_changed_count_row_without_one_count_per_colour(row):
    inst = gen_random(4, 3, 2, seed=0)
    counts = inst.initial.all_counts()
    buffer = io.StringIO()
    items = engine.iter_written([inst, _round(1, (counts[0], row, *counts[2:]))], buffer, None)
    next(items)
    with pytest.raises(ValueError, match=f"^round 1: block 2 has {len(row)} counts for 2 colours$"):
        next(items)
    assert len(buffer.getvalue().splitlines()) == 1


@pytest.mark.parametrize("row", [(2 ** 31, 0), (1, -2 ** 31 - 1), (1.0, 2), (1, "2")])
def test_the_writer_refuses_a_changed_count_row_that_is_not_int32s(row):
    inst = gen_random(4, 3, 2, seed=0)
    counts = inst.initial.all_counts()
    buffer = io.StringIO()
    items = engine.iter_written([inst, _round(1, (counts[0], row, *counts[2:]))], buffer, None)
    next(items)
    with pytest.raises(ValueError, match=r"^round 1: block 2 has counts \("):
        next(items)
    assert len(buffer.getvalue().splitlines()) == 1


def test_the_writer_refuses_moves_that_are_not_an_int_array():
    inst = gen_random(4, 3, 2, seed=0)
    bad = dataclasses.replace(_round(1, inst.initial.all_counts()),
                              moves=engine.MoveSet(array("q", [1, 2, 3])))
    buffer = io.StringIO()
    items = engine.iter_written([inst, bad], buffer, None)
    next(items)
    with pytest.raises(ValueError, match=r"^round 1: moves must be an array\('i'\)$"):
        next(items)
    assert len(buffer.getvalue().splitlines()) == 1


def test_the_writer_refuses_a_round_before_the_header():
    inst = gen_random(4, 3, 2, seed=0)
    buffer = io.StringIO()
    with pytest.raises(ValueError, match="^round 1 comes before the header$"):
        next(engine.iter_written([_round(1, inst.initial.all_counts()), inst], buffer, None))
    assert buffer.getvalue() == ""


@pytest.mark.parametrize("field", ["index", "offset", "distance"])
@pytest.mark.parametrize("value", [True, False, 1.0, "1"])
def test_the_writer_refuses_a_round_field_that_is_not_an_int(field, value):
    inst = gen_random(4, 3, 2, seed=0)
    bad = dataclasses.replace(_round(1, inst.initial.all_counts()), **{field: value})
    buffer = io.StringIO()
    items = engine.iter_written([inst, bad], buffer, None)
    next(items)
    with pytest.raises(ValueError, match="round, offset and distance must be ints"):
        next(items)
    assert len(buffer.getvalue().splitlines()) == 1


def test_a_count_row_with_a_bool_never_makes_a_line_unreadable():
    """Each changed row of each round of the k=4 half-and-half trace, with a
    ``True`` in place of its first 1: a row of that value not yet written is
    refused before its line, and one already written is written as ints."""
    inst = gen_adversarial_half(4, 2)
    items = list(engine.trace_items(run(inst)))
    refused = 0
    for i in range(1, len(items) - 1):
        counts = items[i].counts
        for b, row in enumerate(counts):
            if 1 not in row:
                continue
            j = row.index(1)
            bad_counts = (*counts[:b], (*row[:j], True, *row[j + 1:]), *counts[b + 1:])
            bad = [*items[:i], dataclasses.replace(items[i], counts=bad_counts), *items[i + 1:]]
            buffer = io.StringIO()
            try:
                deque(engine.iter_written(bad, buffer, None), maxlen=0)
            except ValueError as exc:
                assert "has counts (" in str(exc) and "True" in str(exc)
                refused += 1
            assert "True" not in buffer.getvalue()
            deque(engine.iter_trace(buffer.getvalue().splitlines()), maxlen=0)  # each line reads
    assert refused


def _honest_trace_lines() -> list[str]:
    return [json.dumps(r) for r in written_records(run(gen_random(4, 3, 2, seed=7)))]


def test_honest_trace_lines_verify():
    verdicts = verify.verify_trace(read_trace(_honest_trace_lines()))
    assert verdicts and all(v.passed for v in verdicts)


@pytest.mark.parametrize("fmt", ["ringform-trace-v1", "ringform-trace-v2", "ringform-trace-v3"])
def test_read_trace_refuses_an_older_format_at_its_header(fmt):
    # The rest of the file is an honest v4 run; the reader stops at line 1.
    lines = _honest_trace_lines()
    reader = engine.iter_trace([json.dumps({**json.loads(lines[0]), "format": fmt})]
                               + lines[1:])
    with pytest.raises(TraceError) as info:
        next(reader)
    assert info.value.line == 1
    assert str(info.value) == f"line 1: header format {fmt!r} is not 'ringform-trace-v4'"


MOVES = r"'moves' must be base64 of little-endian int32 \(agent id, from, to\) triples"
COUNTS = r"'counts' must be base64 of little-endian int32 \(block, count of colour 1"


def _inserted(text: str, at: int, char: str) -> str:
    return text[:at] + char + text[at:]


# Round 2 of the honest trace (k = 4, q = 2): moves [7, 6, 4, 4, 4, 6], counts [2, 2, 1, 3, 2, 1].
@pytest.mark.parametrize("mangle, message", [
    (lambda r: '{"type": "round", "round": 1', "not a JSON record"),
    (lambda r: "[1, 2, 3]", "not a JSON object"),
    (lambda r: {**r, "type": "tick"}, "unknown record type 'tick'"),
    (lambda r: {k: v for k, v in r.items() if k != "offset"}, "integer 'offset'"),
    (lambda r: {**r, "round": "1"}, "integer 'round'"),
    (lambda r: {**r, "round": True}, "integer 'round'"),
    (lambda r: {k: v for k, v in r.items() if k != "round"}, "integer 'round'"),
    (lambda r: {**r, "offset": 1.5}, "integer 'offset'"),
    (lambda r: {**r, "offset": None}, "integer 'offset'"),
    (lambda r: {**r, "distance": "3"}, "'distance' must be"),
    (lambda r: {**r, "distance": True}, "'distance' must be"),
    (lambda r: {**r, "distance": 3.0}, "'distance' must be"),
    (lambda r: {**r, "distance": [3]}, "'distance' must be"),
    # A decoded length that is not whole moves: one int short or over, or two ints.
    (lambda r: {**r, "moves": packed(unpacked(r["moves"])[:-1])}, MOVES),
    (lambda r: {**r, "moves": packed([*unpacked(r["moves"]), 0])}, MOVES),
    (lambda r: {**r, "moves": packed([0, 1])}, MOVES),
    # A field that is not a string, the v3 integer lists among them.
    (lambda r: {**r, "moves": [7, 6, 4, 4, 4, 6]}, MOVES),
    (lambda r: {**r, "moves": [[0, 0, 1]]}, MOVES),
    (lambda r: {**r, "moves": []}, MOVES),
    (lambda r: {**r, "moves": True}, MOVES),
    (lambda r: {**r, "moves": False}, MOVES),
    (lambda r: {**r, "moves": 1.0}, MOVES),
    (lambda r: {**r, "moves": 5}, MOVES),
    (lambda r: {**r, "moves": None}, MOVES),
    (lambda r: {**r, "moves": {"0": [0, 1]}}, MOVES),
    (lambda r: {**r, "note": "true", "moves": False}, MOVES),
    (lambda r: {k: v for k, v in r.items() if k != "moves"}, MOVES),
    # Text that is not base64, or not canonical base64, of whole moves.
    (lambda r: {**r, "moves": "0 0 1"}, MOVES),
    (lambda r: {**r, "moves": _inserted(r["moves"], 4, "*")}, MOVES),
    (lambda r: {**r, "moves": _inserted(r["moves"], 4, "-")}, MOVES),
    (lambda r: {**r, "moves": _inserted(r["moves"], 4, "_")}, MOVES),
    (lambda r: {**r, "moves": _inserted(r["moves"], 8, " ")}, MOVES),
    (lambda r: {**r, "moves": _inserted(r["moves"], 8, "\n")}, MOVES),
    (lambda r: {**r, "moves": r["moves"] + " "}, MOVES),
    (lambda r: {**r, "moves": "\t" + r["moves"]}, MOVES),
    (lambda r: {**r, "moves": r["moves"] + "="}, MOVES),
    (lambda r: {**r, "moves": r["moves"] + "=="}, MOVES),
    (lambda r: {**r, "moves": _inserted(r["moves"], 4, "=")}, MOVES),
    (lambda r: {**r, "moves": r["moves"][:-2]}, MOVES),
    (lambda r: {**r, "moves": "CAAAAA"}, MOVES),
    (lambda r: {**r, "moves": "CAAAAB=="}, MOVES),
    (lambda r: {**r, "moves": _inserted(r["moves"], 8, "\u00e9")}, MOVES),
    (lambda r: {**r, "moves": _inserted(r["moves"], 8, "\u00a0")}, MOVES),
    (lambda r: {**r, "moves": r["moves"].replace("A", "\uff21", 1)}, MOVES),
    (lambda r: {**r, "counts": packed([2, 1])}, COUNTS),
    (lambda r: {**r, "counts": packed([2, 1, 2, 3])}, COUNTS),
    (lambda r: {**r, "counts": packed([2])}, COUNTS),
    (lambda r: {**r, "counts": packed([2, 1, 2, 2])}, COUNTS),
    (lambda r: {**r, "counts": packed(unpacked(r["counts"])[:-1])}, COUNTS),
    (lambda r: {**r, "counts": packed([*unpacked(r["counts"]), 0])}, COUNTS),
    (lambda r: {**r, "counts": [2, 2, 1, 3, 2, 1]}, COUNTS),
    (lambda r: {**r, "counts": [[2, 1, 2]]}, COUNTS),
    (lambda r: {**r, "counts": []}, COUNTS),
    (lambda r: {**r, "counts": 5}, COUNTS),
    (lambda r: {**r, "counts": True}, COUNTS),
    (lambda r: {**r, "counts": 1.5}, COUNTS),
    (lambda r: {**r, "counts": None}, COUNTS),
    (lambda r: {**r, "counts": {"2": [1, 2]}}, COUNTS),
    (lambda r: {k: v for k, v in r.items() if k != "counts"}, COUNTS),
    (lambda r: {**r, "counts": "2 1 2"}, COUNTS),
    (lambda r: {**r, "counts": _inserted(r["counts"], 4, "*")}, COUNTS),
    (lambda r: {**r, "counts": _inserted(r["counts"], 8, " ")}, COUNTS),
    (lambda r: {**r, "counts": r["counts"] + "="}, COUNTS),
    (lambda r: {**r, "counts": r["counts"][:-4]}, COUNTS),
    (lambda r: {**r, "counts": "AgAAAA"}, COUNTS),
    (lambda r: {**r, "counts": _inserted(r["counts"], 8, "\u00e9")}, COUNTS),
    (lambda r: {**r, "counts": packed([5, 1, 2])}, "'counts' names a block outside 1..4"),
    (lambda r: {**r, "counts": packed([0, 1, 2])}, "'counts' names a block outside 1..4"),
    (lambda r: {**r, "counts": packed([-1, 1, 2])}, "'counts' names a block outside 1..4"),
    (lambda r: {**r, "counts": packed([2, 1, 2, 5, 1, 2])}, "'counts' names a block outside 1..4"),
    (lambda r: {**r, "counts": packed([2 ** 31 - 1, 1, 2])}, "'counts' names a block outside 1..4"),
    (lambda r: {**r, "counts": packed([-2 ** 31, 1, 2])}, "'counts' names a block outside 1..4"),
    (lambda r: {**r, "counts": packed([2, 1, 2, 2, 2, 1])}, "'counts' names a block twice"),
    (lambda r: {**r, "counts": packed([2, 1, 2, 3, 2, 1, 2, 2, 1])},
     "'counts' names a block twice"),
    # Python converts an integer literal of at most 4300 digits by default.
    (lambda r: json.dumps({**r, "offset": 0}).replace('"offset": 0',
                                                      '"offset": ' + "7" * 5001),
     "not a JSON record: an integer literal of more than"),
    # A line cut off where a value should follow or inside a packed field, or with a bad token.
    (lambda r: '{"type": "round", "round": 1, "offset": ', "not a JSON record: Expecting value"),
    (lambda r: json.dumps(r)[:json.dumps(r).index('"counts"') - 20],
     "not a JSON record: Unterminated string"),
    (lambda r: '{"type": "round", "moves": [0, x]}', "not a JSON record: Expecting value"),
    (lambda r: json.dumps({**r, "distance": None}).replace("null", "nu"),
     "not a JSON record: Expecting value"),
])
def test_read_trace_names_the_line_of_a_malformed_round(mangle, message, tmp_path):
    honest = _honest_trace_lines()
    mangled = mangle(json.loads(honest[2]))
    mangled = mangled if isinstance(mangled, str) else json.dumps(mangled)
    # The bad record in place of round 2, and after every record of the trace:
    # ``ringform verify`` meets the last only once it has audited every round.
    for lines in (honest[:2] + [mangled] + honest[3:], honest + [mangled]):
        with pytest.raises(TraceError, match=message) as info:
            read_trace(lines)
        line = lines.index(mangled) + 1
        assert info.value.line == line and str(info.value).startswith(f"line {line}: ")
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with contextlib.redirect_stderr(io.StringIO()) as err, \
                contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["verify", "--trace", str(path)]) == EXIT_VERIFICATION_FAILED
        assert err.getvalue().startswith(f"invalid trace: line {line}: ")
        assert out.getvalue() == ""


def test_read_trace_reads_a_round_whose_ignored_key_says_true_or_false():
    # Only the integer lists of a round are type-checked, not its whole line.
    honest = _honest_trace_lines()
    expected = read_trace(honest)
    for note in ("true", "false", True, False, [0, True]):
        records = [json.loads(line) for line in honest]
        lines = [json.dumps({**r, "note": note} if r["type"] == "round" else r) for r in records]
        assert read_trace(lines) == expected, note


B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _loose_last(text: str) -> str:
    """``text`` with the low bit of its last character before the padding
    flipped: a bit that no byte uses once the text is padded."""
    data = text.rstrip("=")
    return data[:-1] + B64[B64.index(data[-1]) ^ 1] + text[len(data):]


# Mangled packed text that a lenient base64 decoder takes for the honest bytes.
LENIENT = {
    "space": lambda text: _inserted(text, 8, " "),
    "newline": lambda text: _inserted(text, 8, "\n"),
    "trailing newline": lambda text: text + "\n",
    "outside the alphabet": lambda text: _inserted(text, 4, "*"),
    "url-safe character": lambda text: _inserted(text, 4, "_"),
    "extra padding": lambda text: text + "=",
    "padding inside": lambda text: _inserted(text, 4, "="),
}


def _q3_trace_lines() -> list[str]:
    """A q = 3 trace, whose count rows of 16 bytes end in padding."""
    return [json.dumps(r) for r in written_records(run(gen_random(4, 3, 3, seed=1)))]


@pytest.mark.parametrize("field, how", [
    *[(field, how) for field in ("moves", "counts") for how in sorted(LENIENT)],
    ("counts", "non-canonical last character")])  # whole moves are 12 bytes, never padded
def test_read_trace_refuses_packed_text_that_is_not_canonical_base64(field, how):
    lines = _q3_trace_lines()
    assert read_trace(lines).rounds
    record = json.loads(lines[1])  # round 1: 2 moves and 2 changed rows
    text = record[field]
    assert text.endswith("=") == (field == "counts")
    mangled = LENIENT.get(how, _loose_last)(text)
    assert mangled != text and binascii.a2b_base64(mangled) == binascii.a2b_base64(text)
    with pytest.raises(TraceError, match=MOVES if field == "moves" else COUNTS) as info:
        read_trace([lines[0], json.dumps({**record, field: mangled}), *lines[2:]])
    assert info.value.line == 2


def test_read_trace_refuses_padding_that_is_missing():
    lines = _q3_trace_lines()
    record = json.loads(lines[1])  # its counts end in one "="
    # The padding left out, or a data character in its place.
    for stripped in (record["counts"].rstrip("="), record["counts"][:-1] + "A"):
        with pytest.raises(TraceError, match=COUNTS) as info:
            read_trace([lines[0], json.dumps({**record, "counts": stripped}), *lines[2:]])
        assert info.value.line == 2


def test_read_trace_keeps_a_negative_count_for_the_audit_to_refuse():
    honest = _honest_trace_lines()
    record = json.loads(honest[2])
    record["counts"] = packed([2, -1, 0])
    data = read_trace(honest[:2] + [json.dumps(record)] + honest[3:])
    assert data.rounds[1].counts[1] == (-1, 0)
    safety = verify.verify_trace(data)[0]
    assert (safety.name, safety.passed, safety.round) == ("safety", False, 2)
    assert safety.detail == "recorded counts disagree with the moves"


def test_read_trace_rejects_malformed_header_and_summary():
    lines = _honest_trace_lines()
    with pytest.raises(TraceError, match="round record before the header record") as info:
        read_trace(lines[1:])
    assert info.value.line == 1
    for headless in (lines[-1:], []):  # a file that ends with no header names no line
        with pytest.raises(TraceError, match="no header") as info:
            read_trace(headless)
        assert info.value.line is None
    with pytest.raises(TraceError, match="instance document"):
        read_trace(['{"type": "header"}'] + lines[1:])
    summary = json.loads(lines[-1])
    n = len(lines)
    for field, value in (("rounds_used", "4"), ("rounds_used", -8), ("terminated", 1)):
        with pytest.raises(TraceError, match=field) as info:
            read_trace(lines[:-1] + [json.dumps({**summary, field: value})])
        assert info.value.line == n
    with pytest.raises(TraceError, match="second header") as info:
        read_trace(lines[:1] + lines)
    assert info.value.line == 2
    with pytest.raises(TraceError, match="second summary") as info:
        read_trace(lines + lines[-1:])
    assert info.value.line == n + 1
    header = json.loads(lines[0])
    for fmt in ("ringform-trace-v5", None):
        with pytest.raises(TraceError, match="header format") as info:
            read_trace([json.dumps({**header, "format": fmt})] + lines[1:])
        assert info.value.line == 1
    del header["format"]
    with pytest.raises(TraceError, match="header format None"):
        read_trace([json.dumps(header)] + lines[1:])

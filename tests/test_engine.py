"""Window steps, round execution, full runs, and engine safety guards."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ringform import analysis, core, engine, verify
from ringform.cli import EXIT_VERIFICATION_FAILED, main
from ringform.core import Configuration, ProblemKind
from ringform.engine import (
    EngineError,
    InvalidInstanceError,
    Move,
    TraceError,
    apply_moves,
    build_pairing,
    execute_round,
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
    gen_p3_random,
    gen_random,
)

from helpers import (
    block_string,
    counts,
    make_p1,
    make_p2,
    make_p3,
    replayed_configs,
    unpaired,
    v1_records,
    v2_records,
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


def test_orient_roles_rejects_other_kinds():
    with pytest.raises(ValueError):
        orient_roles(make_p2("BBBR", 2, 2, [[1, 1], [0, 0]]))
    with pytest.raises(ValueError):
        orient_roles(gen_random(2, 3, 3, seed=0))


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


def test_window_respects_frozen_colours():
    cfg = Configuration.from_string("123223", 2, 3, 3)
    left, right = cfg.block_view(1), cfg.block_view(2)
    # colour 2 plays blue for this pass, colour 1 is frozen in place
    moves = window_step_two_colour(left, right, 2, 1, blue_colour=2, frozen=frozenset({1}))
    after = apply_moves(cfg, moves)
    assert block_string(after, 1) == "122"  # frozen '1' pinned at its node
    assert block_string(after, 2) == "323"
    assert after.agents[0].id == 0


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


def test_execute_round_example():
    inst = make_p1("RRBB", 2, 2, [[1, 1], [1, 1]])
    cfg, trace = execute_round(inst.initial, inst, 1, index=1)
    assert cfg.to_string() == "BRRB"
    assert trace.offset == 1
    assert trace.counts == ((1, 1), (1, 1))
    assert len(trace.moves) == 2


def test_execute_round_quiescent_when_satisfied():
    inst = make_p1("BRRB", 2, 2, [[1, 1], [1, 1]])
    for offset in (1, 2):
        _, trace = execute_round(inst.initial, inst, offset)
        assert trace.moves == ()


def test_shared_idle_set_gives_the_rounds_of_fresh_sets_for_the_phase_step():
    # The phase oracle's step (colour c as blue, lower colours frozen): one
    # idle set kept across each phase must give, round for round, what a
    # fresh set, which steps every window, gives.
    calls = {"shared": 0, "fresh": 0}
    rounds = 0
    for q in (3, 4, 5):
        for k in (2, 3, 4, 5, 6, 8):
            for seed in range(3):
                inst = gen_random(k, q + 1, q, seed)
                cfg = inst.initial
                for colour in range(1, q):
                    row = inst.spec.row(colour)
                    frozen = frozenset(range(1, colour))

                    def counted(chain):
                        def step(state, lb, rb):
                            calls[chain] += 1
                            return window_step_two_colour(
                                state.block_view(lb), state.block_view(rb), row[lb - 1],
                                min(row), blue_colour=colour, frozen=frozen)
                        return step

                    shared_step, fresh_step = counted("shared"), counted("fresh")
                    idle: set[int] = set()
                    r = 0
                    while [c[colour - 1] for c in cfg.all_counts()] != list(row):
                        assert r < engine.default_max_rounds(inst), (inst.provenance, colour)
                        offset = r % k + 1
                        shared = step_round(cfg, offset, shared_step, idle)
                        assert shared == step_round(cfg, offset, fresh_step, set()), \
                            (inst.provenance, colour, r + 1)
                        cfg = shared[0]
                        r += 1
                    rounds += r
                assert cfg.all_counts() == verify.sequential_phase_counts(inst), inst.provenance
    assert rounds > 500
    assert calls["shared"] < calls["fresh"]  # the shared set left windows unstepped


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


def test_run_does_not_restep_idle_windows(monkeypatch):
    inst = gen_adversarial_half(32, 2)
    calls = []
    step = engine.window_step_two_colour
    monkeypatch.setattr(engine, "window_step_two_colour",
                        lambda *args, **kw: calls.append(args[0].index) or step(*args, **kw))
    result = run(inst)
    assert result.terminated
    # every window of every round would be len(trace) * k/2 steps
    assert 0 < len(calls) < len(result.trace) * inst.k // 2 // 2


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
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "distance_change", lambda cfg, moves, offset: 0)
        with pytest.raises(EngineError, match="distance"):
            run(inst)
    with monkeypatch.context() as patch:
        successor = core.Configuration._successor
        patch.setattr(core.Configuration, "_successor",
                      lambda self, colours, ids, counts: successor(self, colours, ids,
                                                                   self.all_counts()))
        with pytest.raises(EngineError, match="block counts"):
            run(inst, max_rounds=5)


# --- safety guards ---------------------------------------------------------------


def test_apply_moves_rejects_collisions():
    cfg = Configuration.from_string("RRBB", 2, 2, 2)
    with pytest.raises(EngineError, match="collision"):
        apply_moves(cfg, (Move(0, 0, 2), Move(1, 1, 2)))
    with pytest.raises(EngineError, match="permute"):
        apply_moves(cfg, (Move(0, 0, 2),))
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
            assert verify.sequential_phase_counts(inst) == result.final.all_counts()


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


def test_v3_round_records_are_flat_and_carry_only_the_changed_rows():
    result = run(gen_adversarial_half(8, 2))
    records = list(engine.trace_records(result))
    assert records[0]["format"] == "ringform-trace-v3"
    rounds = [r for r in records if r["type"] == "round"]
    assert all("checks" not in r for r in rounds)
    before = result.instance.initial.all_counts()
    for record, rt in zip(rounds, result.trace):
        assert record["moves"] == [x for move in rt.moves for x in move]
        changed = {b for b in range(1, 9) if rt.counts[b - 1] != before[b - 1]}
        assert record["counts"] == [x for b in sorted(changed) for x in (b, *rt.counts[b - 1])]
        before = rt.counts
    data = read_trace(json.dumps(r) for r in records)
    assert data.rounds == result.trace
    assert all(rt.checks == engine.ROUND_CHECKS for rt in data.rounds)
    before = data.instance.initial.all_counts()
    for record, rt in zip(rounds, data.rounds):
        patched = set(record["counts"][::3])  # q = 2: a row is block, colour 1, colour 2
        assert all((row is old) == (b not in patched)
                   for b, (row, old) in enumerate(zip(rt.counts, before), start=1))
        before = rt.counts


def _assert_reads_as_the_run(version: str) -> None:
    path = Path(__file__).parent / "data" / f"adversarial-half-k8-p2.{version}.jsonl"
    with open(path, encoding="utf-8") as fp:
        data = read_trace(fp)
    assert f'"format": "ringform-trace-{version}"' in path.read_text().splitlines()[0]
    result = run(gen_adversarial_half(8, 2))
    assert data.instance == result.instance
    assert data.rounds == result.trace
    assert verify.verify_trace(data) == verify.verify_result(result)


def test_read_trace_reads_a_v1_trace():
    # Written by ``ringform run`` in the v1 format: every round lists all
    # k count rows and the constant checks.
    _assert_reads_as_the_run("v1")


def test_read_trace_reads_a_v2_trace():
    # Written by ``ringform run`` in the v2 format: every round lists the
    # changed count rows, and each move and row is a list of its own.
    _assert_reads_as_the_run("v2")


def _honest_trace_lines(version: str = "v3") -> list[str]:
    records = list(engine.trace_records(run(gen_random(4, 3, 2, seed=7))))
    rewrite = {"v1": v1_records, "v2": v2_records, "v3": list}[version]
    return [json.dumps(r) for r in rewrite(records)]


def test_honest_trace_lines_verify_in_every_format():
    for version in ("v1", "v2", "v3"):
        verdicts = verify.verify_trace(read_trace(_honest_trace_lines(version)))
        assert all(v.passed for v in verdicts), version


@pytest.mark.parametrize("version, mangle, message", [
    ("v3", lambda r: '{"type": "round", "round": 1', "not a JSON record"),
    ("v3", lambda r: "[1, 2, 3]", "not a JSON object"),
    ("v3", lambda r: {**r, "type": "tick"}, "unknown record type 'tick'"),
    ("v3", lambda r: {k: v for k, v in r.items() if k != "offset"}, "integer 'offset'"),
    ("v3", lambda r: {**r, "round": "1"}, "integer 'round'"),
    ("v2", lambda r: {**r, "moves": [[0, 1]]}, "'moves' must be"),
    ("v2", lambda r: {**r, "moves": [[0, 1, "2"]]}, "'moves' must be"),
    ("v2", lambda r: {**r, "moves": 5}, "'moves' must be"),
    ("v2", lambda r: {**r, "counts": [1, 2]}, "'counts' must be"),
    ("v2", lambda r: {**r, "counts": [[0, 1, 2]]}, "'counts' names a block outside 1..4"),
    ("v2", lambda r: {**r, "counts": [[5, 1, 2]]}, "'counts' names a block outside 1..4"),
    ("v2", lambda r: {**r, "counts": [[2, 1, 2], [2, 2, 1]]}, "'counts' names a block twice"),
    ("v2", lambda r: {**r, "counts": [[2, 1]]}, "'counts' rows must be"),
    ("v2", lambda r: {**r, "counts": [[2, 1, 2, 0]]}, "'counts' rows must be"),
    ("v2", lambda r: {**r, "counts": [[]]}, "'counts' rows must be"),
    ("v2", lambda r: {**r, "counts": [[2, 1.0, 2]]}, "'counts' rows must be"),
    ("v2", lambda r: {**r, "counts": [[2, "1", 2]]}, "'counts' rows must be"),
    ("v2", lambda r: {**r, "counts": [[2, True, 2]]}, "'counts' rows must be"),
    ("v2", lambda r: {**r, "counts": [[True, 1, 2]]}, "'counts' rows must be"),
    ("v1", lambda r: {**r, "counts": r["counts"][:-1]}, "'counts' must list 4 rows of 2 integers"),
    ("v1", lambda r: {**r, "counts": [*r["counts"], [1, 2]]}, "'counts' must list 4 rows"),
    ("v1", lambda r: {**r, "counts": [["x", 1.5, 7], *r["counts"][1:]]}, "'counts' must list"),
    ("v1", lambda r: {**r, "counts": [[1, 2, 0], *r["counts"][1:]]}, "'counts' must list"),
    ("v1", lambda r: {**r, "counts": [[1], *r["counts"][1:]]}, "'counts' must list"),
    ("v1", lambda r: {**r, "counts": [[True, 2], *r["counts"][1:]]}, "'counts' must list"),
    ("v1", lambda r: {**r, "counts": [[1.0, 2], *r["counts"][1:]]}, "'counts' must list"),
    ("v1", lambda r: {**r, "counts": [[1, "2"], *r["counts"][1:]]}, "'counts' must list"),
    ("v1", lambda r: {**r, "counts": [5, *r["counts"][1:]]}, "'counts' must be a list of"),
    ("v1", lambda r: {**r, "moves": [[0, 1]]}, "'moves' must be"),
    ("v3", lambda r: {**r, "distance": "3"}, "'distance' must be"),
    ("v3", lambda r: {**r, "checks": []}, "'checks' must be"),
    ("v3", lambda r: {**r, "moves": r["moves"][:-1]}, "'moves' must be a list of agent id"),
    ("v3", lambda r: {**r, "moves": [*r["moves"], 0]}, "'moves' must be a list of agent id"),
    ("v3", lambda r: {**r, "moves": [True, 0, 1]}, "'moves' must be a list of agent id"),
    ("v3", lambda r: {**r, "moves": [0, 0, 1.0]}, "'moves' must be a list of agent id"),
    ("v3", lambda r: {**r, "moves": [0, "0", 1]}, "'moves' must be a list of agent id"),
    ("v3", lambda r: {**r, "moves": [[0, 0, 1]]}, "'moves' must be a list of agent id"),
    ("v3", lambda r: {**r, "moves": 5}, "'moves' must be a list of agent id"),
    ("v3", lambda r: {**r, "moves": [0, 0, 2 ** 31]}, "'moves' must be integers that fit"),
    ("v3", lambda r: {**r, "moves": [-2 ** 31 - 1, 0, 1]}, "'moves' must be integers that fit"),
    ("v3", lambda r: {**r, "moves": [0, 0, 10 ** 30]}, "'moves' must be integers that fit"),
    ("v3", lambda r: {**r, "counts": [2, 1]}, "'counts' rows must be"),
    ("v3", lambda r: {**r, "counts": [2, 1, 2, 3]}, "'counts' rows must be"),
    ("v3", lambda r: {**r, "counts": [2, 1, True]}, "'counts' rows must be"),
    ("v3", lambda r: {**r, "counts": [[2, 1, 2]]}, "'counts' rows must be"),
    ("v3", lambda r: {**r, "counts": 5}, "'counts' must be"),
    ("v3", lambda r: {**r, "counts": [5, 1, 2]}, "'counts' names a block outside 1..4"),
    ("v3", lambda r: {**r, "counts": [2, 1, 2, 2, 2, 1]}, "'counts' names a block twice"),
])
def test_read_trace_names_the_line_of_a_malformed_round(version, mangle, message, tmp_path):
    honest = _honest_trace_lines(version)
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


def test_read_trace_rejects_malformed_header_and_summary():
    lines = _honest_trace_lines()
    with pytest.raises(TraceError, match="no header") as info:
        read_trace(lines[1:])
    assert info.value.line is None
    with pytest.raises(TraceError, match="instance document"):
        read_trace(['{"type": "header"}'] + lines[1:])
    summary = json.loads(lines[-1])
    for field, value in (("rounds_used", "4"), ("terminated", 1)):
        with pytest.raises(TraceError, match=field):
            read_trace(lines[:-1] + [json.dumps({**summary, field: value})])
    n = len(lines)
    with pytest.raises(TraceError, match="second header") as info:
        read_trace(lines[:1] + lines)
    assert info.value.line == 2
    with pytest.raises(TraceError, match="second summary") as info:
        read_trace(lines + lines[-1:])
    assert info.value.line == n + 1
    header = json.loads(lines[0])
    for fmt in ("ringform-trace-v4", None):
        with pytest.raises(TraceError, match="header format") as info:
            read_trace([json.dumps({**header, "format": fmt})] + lines[1:])
        assert info.value.line == 1
    del header["format"]
    with pytest.raises(TraceError, match="header format None"):
        read_trace([json.dumps(header)] + lines[1:])

"""A run's round step builds the next configuration in the loop that makes
the round's moves, and ``step_round`` does not apply the moves again.

Every round of the runs below, and every round stepped on random
configurations at p = 1 and 2, must give the configuration that
``apply_moves`` makes of its moves: the same colours, ids and count rows,
each row the same object of the row table.  A two-colour plan must permute
its window's slots, and its colours and count rows must be those that its
slots give.  What the run no longer checks move by move is left to the
checks it keeps (``step_round``'s permutation and ring tests, and the
recount in ``Ledger.summary``) and to the audit, which still applies every
move through ``engine._apply``.
"""

import ast
import contextlib
import io
import random
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringform import engine, verify
from ringform.cli import EXIT_OK, main
from ringform.core import Configuration, Instance, RequirementSpec, serialize_instance
from ringform.engine import EngineError, build_pairing, orient_roles, run, step_round
from ringform.generators import gen_adversarial_half, gen_p2_random, gen_p3_random, gen_random

import oracle
from helpers import check_successor
from test_one_round_driver import PACKAGE, names_in

ODD_AND_EVEN_K = (2, 3, 5, 8)
FAMILIES = {
    "P1 q=2": [orient_roles(gen_random(k, p, 2, s))[0]
               for k in ODD_AND_EVEN_K for p in (1, 2, 4, 7) for s in range(2)],
    # At p = 1 a P2 block has no position to spare for extra blues.
    "P2 q=2": [gen_p2_random(k, p, 2, s, extras=s % 3 if p > 1 else None)
               for k in ODD_AND_EVEN_K for p in (1, 2, 4, 7) for s in range(2)],
    # P2 with q >= 3 trades reds of different colours in the two-colour step.
    "P2 q>=3": [gen_p2_random(k, p, q, s, extras=s % 3)
                for k in ODD_AND_EVEN_K for p in (2, 4, 7) for q in (3, 4) for s in range(2)],
    "P1 q>=3": [gen_random(k, q + 2, q, s) for k in ODD_AND_EVEN_K for q in (3, 4)
                for s in range(3)],
    "P3": [gen_p3_random(k, p, q, s) for k in ODD_AND_EVEN_K for q in (2, 3) for p in (q, q + 2)
           for s in range(2)],
}


def recorded_rounds(monkeypatch) -> list:
    """Patch the run's window step to keep each round's configuration, flat
    moves and the configuration the step built; returns the list it fills."""
    rounds = []
    window_step = engine._window_step

    def recording(inst):
        step = window_step(inst)

        def stepped(cfg, left_blocks, quiet):
            moves, after = step(cfg, left_blocks, quiet)
            rounds.append((cfg, moves, after))
            return moves, after
        return stepped

    monkeypatch.setattr(engine, "_window_step", recording)
    return rounds


def test_each_round_of_a_run_builds_what_apply_moves_makes(monkeypatch):
    rounds = recorded_rounds(monkeypatch)
    moving = dict.fromkeys(FAMILIES, 0)
    for family, insts in FAMILIES.items():
        for inst in insts:
            rounds.clear()
            result = run(inst)
            assert result.terminated, inst.provenance
            assert len(rounds) == len(result.trace), inst.provenance
            for (cfg, moves, after), rt in zip(rounds, result.trace):
                assert moves == list(rt.moves.flat), (inst.provenance, rt.index)
                check_successor(cfg, moves, after, rt.offset)
                moving[family] += bool(moves)
    assert min(moving.values()) >= 40, moving


def _wrapping_corpus():
    """Two-colour instances, P1 oriented as ``ringform run`` orients it and
    P2, at even and odd k; k = 2, whose runs are short, with more seeds."""
    for k in (2, 3, 4, 5, 8):
        for p in (1, 2, 3, 4, 7):
            for s in range(20 if k == 2 else 3):
                yield "P1", orient_roles(gen_random(k, p, 2, s))[0]
                yield "P2", gen_p2_random(k, p, 2, s, extras=s % 3 if p > 1 else None)


def test_each_round_in_which_the_wrapping_window_moves_builds_what_apply_moves_makes(monkeypatch):
    # Window [k|1] is the one window that a two-colour round reads and
    # writes in two parts, around the end of the ring.  Every round in which
    # it moves must build what apply_moves makes of the round's moves, and
    # its moves must be those of the agent-level step as first written.
    rounds = recorded_rounds(monkeypatch)
    wrapping = Counter()
    for family, inst in _wrapping_corpus():
        k, p, need = inst.k, inst.p, inst.spec.row(1)
        window = {*range((k - 1) * p, k * p), *range(p)}
        rounds.clear()
        result = run(inst)
        assert result.terminated, inst.provenance
        for (cfg, moves, after), rt in zip(rounds, result.trace):
            inside = [tuple(m) for m in rt.moves.triples() if m[1] in window]
            if (k, 1) not in build_pairing(k, rt.offset).pairs or not inside:
                continue
            check_successor(cfg, moves, after, rt.offset)
            expected = oracle.agent_step_two_colour(oracle.agent_view(cfg, k),
                                                    oracle.agent_view(cfg, 1), need[k - 1], min(need))
            assert inside == [tuple(m) for m in expected], (inst.provenance, rt.index)
            wrapping[family] += 1
            wrapping["k = 2" if k == 2 else ("k even", "k odd")[k % 2]] += 1
    assert len(wrapping) == 5 and min(wrapping.values()) >= 20, wrapping


@pytest.mark.parametrize("p", [1, 2])
def test_each_round_on_random_configurations_builds_what_apply_moves_makes(p):
    # Configurations no valid instance starts from, so that windows of one
    # agent a block move as well; a window whose step raises is skipped.
    rng = random.Random(p)
    compared = 0
    for _ in range(600):
        k, q = rng.choice((2, 3, 4, 5, 7)), rng.choice((2, 3))
        cfg = Configuration._flat(bytes(rng.randint(1, q) for _ in range(k * p)),
                                  array("i", range(k * p)), k, p, q)
        need = [[rng.randint(0, p) for _ in range(k)] for _ in range(q)]
        specs = [RequirementSpec.exact(need, p), RequirementSpec.lower_bound(need, p)]
        for spec in specs:
            inst = Instance(spec=spec, initial=cfg)
            step = engine._window_step(inst)
            for offset in range(1, k + 1):
                with contextlib.suppress(EngineError):
                    after, moves = step_round(cfg, offset, step, set())
                    check_successor(cfg, moves.flat, after, offset)
                    compared += bool(moves)
    assert compared >= 300, compared


@st.composite
def windows(draw):
    """A two-colour window plan's arguments: a cap, q, the window's colours
    and the left block's blue deficit."""
    p, q = draw(st.integers(1, 9)), draw(st.integers(2, 4))
    window = bytes(draw(st.lists(st.integers(1, q), min_size=2 * p, max_size=2 * p)))
    return draw(st.integers(0, p)), q, window, draw(st.integers(1, p))


@settings(max_examples=300, deadline=None)
@given(windows())
def test_a_plan_permutes_its_slots_into_its_colours_and_rows(args):
    cap, q, window, deficit = args
    p = len(window) // 2
    table = {}
    try:
        slots, after, left_row, right_row = engine._two_colour_plan(cap, q, table, window, deficit)
    except EngineError:
        return
    sources = list(range(2 * p))
    for src, dst in slots:
        assert src != dst
        sources[dst] = src
    assert sorted(sources) == list(range(2 * p))
    assert after == bytes(window[src] for src in sources)
    # Both rows are the tuples of the row table the plan was given.
    assert left_row is table[left_row] and right_row is table[right_row]
    # Each row is the block's row before the step, changed by the agents that cross.
    rows = [[window[b * p:(b + 1) * p].count(c) for c in range(1, q + 1)] for b in (0, 1)]
    for src, dst in slots:
        if src // p != dst // p:
            rows[src // p][window[src] - 1] -= 1
            rows[dst // p][window[src] - 1] += 1
    assert [left_row, right_row] == [tuple(row) for row in rows]


@pytest.mark.parametrize("spoil", ["colours", "row"])
def test_a_run_whose_plans_lie_fails_its_recount(spoil, monkeypatch):
    # A plan whose colours or count row are wrong leaves count rows that do
    # not match the colours; the run's end-of-run recount must see it.  (The
    # wrong row keeps the blue count, which the distance would refuse first.)
    plan = engine._two_colour_plan

    def spoilt(*args):
        slots, after, left_row, right_row = plan(*args)
        if spoil == "colours":  # the left block's colours all zero
            return slots, bytes(len(after) // 2) + after[len(after) // 2:], left_row, right_row
        return slots, after, (*left_row[:-1], left_row[-1] + 1), right_row

    monkeypatch.setattr(engine, "_two_colour_plan", spoilt)
    inst = orient_roles(gen_adversarial_half(8, 2))[0]
    with pytest.raises(EngineError, match="block counts kept across the run disagree"):
        run(inst, max_rounds=2)  # the second round moves


def test_step_round_refuses_moves_that_do_not_permute_the_ring():
    cfg = Configuration.from_string("RRBB", 2, 2, 2)
    for flat, message in (([0, 0, 2, 1, 1, 2], "collision"),
                          ([0, 0, 2, 0, 0, 3], "two moves leave the same position"),
                          ([0, 0, 2], "permute"),
                          ([0, 0, 4, 4, 4, 0], "outside the ring")):
        with pytest.raises(EngineError, match=message):
            step_round(cfg, 1, lambda state, left_blocks, quiet: (flat, state), set())


def functions_naming(path, names: set[str]) -> set[str]:
    """The functions of the module at ``path`` whose bodies name one of ``names``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and names & names_in(ast.Module(body=node.body, type_ignores=[]))}


def test_a_run_applies_no_moves_and_its_audit_applies_them_all(monkeypatch, tmp_path):
    # In the engine only apply_moves reaches _apply; the audit replays with it.
    assert functions_naming(PACKAGE / "engine.py", {"_apply", "apply_moves"}) == {"apply_moves"}
    assert "_apply" in names_in(ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8")))

    def refuse(*args):
        raise AssertionError("the run applied its moves again")

    applied = []
    audit_apply = verify._apply
    monkeypatch.setattr(engine, "_apply", refuse)
    monkeypatch.setattr(verify, "_apply", lambda *args: applied.append(1) or audit_apply(*args))
    for insts in FAMILIES.values():
        for inst in insts[::5]:
            result = run(inst)
            buffer = io.StringIO()
            engine.write_trace(result, buffer)
            applied.clear()
            verdicts = verify.verify_trace(engine.read_trace(io.StringIO(buffer.getvalue())))
            assert all(v.passed for v in verdicts), inst.provenance
            assert len(applied) == sum(bool(rt.moves) for rt in result.trace), inst.provenance
    # ``ringform run --verify`` audits the run it made, through _apply.
    inst = orient_roles(gen_adversarial_half(16, 4))[0]
    path = tmp_path / "instance.txt"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    applied.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--instance", str(path), "--verify"]) == EXIT_OK
    assert len(applied) == sum(bool(rt.moves) for rt in run(inst).trace) > 0

"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line on success; pytest's own pass/fail report
mirrors the same verdicts.  Corpora are built once per session and shared
between the round-bound criteria, the per-round invariant sweep, and the
safety sweep.
"""

import math

import pytest

from ringform import analysis, verify
from ringform.core import Configuration
from ringform.engine import orient_roles, run, uses_two_colour_steps
from ringform.generators import (
    gen_adversarial_half,
    gen_homogeneous,
    gen_p2_random,
    gen_p3_random,
    gen_random,
)

import faults
import oracle
from helpers import (
    counts,
    fresh_round,
    oracle_distance,
    replay_result,
    replayed_configs,
    verdict_of,
)


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def proven_bound(inst) -> int:
    n_blue = inst.initial.colour_totals()[0]
    star = min(inst.spec.row(1))
    return math.ceil(2 * n_blue / star) + inst.k + 4


@pytest.fixture(scope="module")
def even_random_runs():
    runs = []
    for k in (2, 4, 6, 8, 10, 12, 14, 16):
        for p in (2, 3, 4, 5, 6, 7, 8):
            for seed in range(9):
                oriented, _ = orient_roles(gen_random(k, p, 2, seed))
                runs.append((oriented, run(oriented)))
    return runs


@pytest.fixture(scope="module")
def homogeneous_runs():
    runs = []
    for k in (4, 8, 16, 32):
        for p in (2, 4, 5):
            for m in sorted({1, p // 2, p - 1}):
                for seed in range(2):
                    inst = gen_homogeneous(k, p, m, seed)
                    runs.append((inst, run(inst)))
    return runs


@pytest.fixture(scope="module")
def adversarial_runs():
    return [
        (inst, run(inst))
        for k in (8, 16, 32)
        for p in (2, 4)
        for inst in [gen_adversarial_half(k, p)]
    ]


@pytest.fixture(scope="module")
def odd_random_runs():
    runs = []
    for k in (3, 5, 7, 9):
        for p in (2, 3, 4):
            for seed in range(3):
                oriented, _ = orient_roles(gen_random(k, p, 2, seed))
                runs.append((oriented, run(oriented)))
    return runs


@pytest.fixture(scope="module")
def qcolour_runs():
    runs = []
    for q in (3, 4, 5):
        for k in range(2, 11):
            for p in (q, q + 2):
                for seed in range(4):
                    inst = gen_random(k, p, q, seed)
                    runs.append((inst, run(inst)))
    return runs


@pytest.fixture(scope="module")
def p3_runs():
    runs = []
    for q in (2, 3):
        for k in (2, 3, 4, 5, 6):
            for seed in range(10):
                inst = gen_p3_random(k, q + 1, q, seed)
                runs.append((inst, run(inst)))
    return runs


@pytest.fixture(scope="module")
def p2_runs():
    runs = []
    for k in (2, 3, 4, 5, 6, 8):
        for p in (2, 3, 4):
            for seed in range(3):
                for extras in range(0, p + 1):
                    inst = gen_p2_random(k, p, 2, seed, extras=extras)
                    runs.append((inst, run(inst)))
    return runs


def assert_incremental_state_matches_scratch(inst, result) -> int:
    """Check what ``run`` keeps incrementally against a recomputation.

    A chain of ``fresh_round`` calls, which steps every window, must give
    the same rounds; every configuration's cached counts must equal a
    recount; every recorded distance must equal ``analysis.distance`` of
    the configuration from scratch.  Returns the configurations compared.
    """
    two_colour = uses_two_colour_steps(inst)
    if two_colour:
        row = inst.spec.row(1)
        initial = analysis.distance_report(inst.initial, row)
        assert result.initial_distance == initial.total, inst.provenance
    cfg = inst.initial
    offset = 1
    for rt in result.trace:
        cfg, stepped = fresh_round(cfg, inst, offset, index=rt.index)
        assert (stepped.offset, stepped.moves, stepped.counts) \
            == (rt.offset, rt.moves, rt.counts), (inst.provenance, rt.index)
        recount = Configuration(cfg.agents, cfg.k, cfg.p, cfg.q)
        assert cfg.all_counts() == recount.all_counts(), (inst.provenance, rt.index)
        expected = (analysis.distance(recount, row, initial.rename_offset, initial.dest).total
                    if two_colour else None)
        assert rt.distance == expected, (inst.provenance, rt.index)
        offset = offset % inst.k + 1
    assert cfg == result.final, inst.provenance
    return len(result.trace) + 1


def test_c01_two_colour_upper_bound(even_random_runs):
    assert len(even_random_runs) >= 500
    for inst, result in even_random_runs:
        bound = proven_bound(inst)
        assert analysis.theoretical_bound(inst) == bound
        assert result.terminated, inst.provenance
        assert result.rounds_used <= bound, (inst.provenance, result.rounds_used, bound)
    report("C1", f"{len(even_random_runs)} oriented even-k runs within ceil(2N/n*)+k+4")


def test_c02_homogeneous_bound(homogeneous_runs):
    for inst, result in homogeneous_runs:
        assert result.terminated, inst.provenance
        assert result.rounds_used <= 3 * inst.k + 4, (inst.provenance, result.rounds_used)
    report("C2", f"{len(homogeneous_runs)} homogeneous runs within 3k+4")


def test_c03_adversarial_lower_bound(adversarial_runs):
    for inst, result in adversarial_runs:
        assert result.terminated, inst.provenance
        assert result.rounds_used >= inst.k // 8, (inst.provenance, result.rounds_used)
    report("C3", f"{len(adversarial_runs)} half-and-half runs need at least k/8 rounds")


def test_c04_per_round_invariants(even_random_runs, homogeneous_runs,
                                  adversarial_runs, odd_random_runs,
                                  p2_runs, qcolour_runs, p3_runs):
    even_checks = ("order_preserving", "suffix_property", "no_wraparound",
                   "distance_monotone", "distance_decrease", "cooperativeness",
                   "final_condition")
    odd_checks = ("order_preserving", "suffix_property", "no_wraparound",
                  "distance_monotone", "distance_decrease", "final_condition")
    violations = 0
    checked = 0
    for inst, result in even_random_runs + homogeneous_runs + adversarial_runs:
        replayed = replay_result(result)
        for verdict in verify.run_checks(replayed, result.rounds_used,
                                         result.terminated, even_checks):
            checked += 1
            assert verdict.passed, (inst.provenance, str(verdict))
            violations += 0 if verdict.passed else 1
    for inst, result in odd_random_runs:
        replayed = replay_result(result)
        for verdict in verify.run_checks(replayed, result.rounds_used,
                                         result.terminated, odd_checks):
            checked += 1
            assert verdict.passed, (inst.provenance, str(verdict))
            violations += 0 if verdict.passed else 1
    assert violations == 0
    configurations = sum(
        assert_incremental_state_matches_scratch(inst, result)
        for inst, result in (even_random_runs + homogeneous_runs + adversarial_runs
                             + odd_random_runs + p2_runs + qcolour_runs + p3_runs))
    report("C4", f"{checked} checker verdicts over every run, zero violations "
                 "(distance drops within 2 rounds for even k, 3 for odd); "
                 f"{configurations} configurations with incremental counts, distances "
                 "and idle-window skipping equal to a recomputation")


def test_c05_distance_oracle_equivalence():
    compared = 0
    instances = [gen_random(k, p, 2, seed)
                 for k in (2, 3, 4, 6, 8, 12) for p in (2, 4, 6) for seed in range(5)]
    instances += [gen_p2_random(k, p, 2, seed, extras=extras)
                  for k in (2, 3, 4, 6) for p in (2, 3) for seed in range(2)
                  for extras in (0, 1, p)]
    for inst in instances:
        result = run(inst)
        assert_incremental_state_matches_scratch(inst, result)
        row = inst.spec.row(1)
        for cfg in replayed_configs(inst, result.trace):
            assert (analysis.distance_report(cfg, row).total
                    == oracle_distance(cfg, inst))
            assert cfg.all_counts() == Configuration(cfg.agents, cfg.k, cfg.p,
                                                     cfg.q).all_counts()
            compared += 1
        # safety passes only where every recorded count and distance is the replayed one
        safety = verdict_of(replay_result(result), "safety")
        assert safety.passed, (inst.provenance, str(safety))
    assert compared >= 1000
    report("C5", f"analysis distance equals the independent oracle on {compared} "
                 "reachable configurations, P1 and P2; replayed counts and distances "
                 "equal a recount")


def test_c06_many_colour_termination(qcolour_runs):
    assert len(qcolour_runs) >= 200
    for inst, result in qcolour_runs:
        cap = 4 * inst.n * inst.k + 16
        assert result.terminated, inst.provenance
        assert result.rounds_used <= cap, (inst.provenance, result.rounds_used)
        expected = tuple(inst.spec.column(j) for j in range(1, inst.k + 1))
        assert result.final.all_counts() == expected, inst.provenance
        assert oracle.sequential_phase_counts(inst) == expected, inst.provenance
    report("C6", f"{len(qcolour_runs)} runs with 3..5 colours settle within 4nk+16 "
                 "and match the sequential-phase oracle")


def test_c07_exact_patterns(p3_runs):
    assert len(p3_runs) >= 100
    for inst, result in p3_runs:
        assert result.terminated, inst.provenance
        target = "".join(inst.spec.patterns)
        assert result.final.to_string() == target, inst.provenance
    report("C7", f"{len(p3_runs)} pattern runs end in the exact target string")


def test_c08_lower_bound_problem(p2_runs):
    assert len(p2_runs) >= 200
    for inst, result in p2_runs:
        cap = 4 * inst.n * inst.k + 16
        assert result.terminated and result.rounds_used <= cap, inst.provenance
        for j in range(1, inst.k + 1):
            assert counts(result.final, j)[0] >= inst.spec.required(1, j), inst.provenance
        replayed = replay_result(result)
        suffix = verdict_of(replayed, "suffix_property")
        assert suffix.passed, (inst.provenance, str(suffix))
    report("C8", f"{len(p2_runs)} lower-bound runs keep every block stocked and "
                 "hold the extras-shifted prefix/suffix property each round")


def test_c09_safety_everywhere(even_random_runs, homogeneous_runs, adversarial_runs,
                               odd_random_runs, qcolour_runs, p3_runs, p2_runs):
    corpora = (even_random_runs + homogeneous_runs + adversarial_runs
               + odd_random_runs + qcolour_runs + p3_runs + p2_runs)
    for inst, result in corpora:
        replayed = replay_result(result)
        safety, quiet = verify.run_checks(replayed, result.rounds_used, result.terminated,
                                          ["safety", "quiescence"])
        assert safety.passed, (inst.provenance, str(safety))
        assert quiet.passed, (inst.provenance, str(quiet))
    report("C9", f"{len(corpora)} runs: no collisions, no out-of-window moves, "
                 "colour conservation, and k quiet verification rounds")


def test_c10_checker_mutation_suite():
    verdicts = faults.fault_verdicts()
    for name, verdict in verdicts.items():
        assert not verdict.passed, f"checker {name} accepted its corrupted trace"
    report("C10", f"all {len(verdicts)} checkers reject their injected-fault traces")

"""Round counts of exact two-colour runs: the split family, whose count has a
closed form, and every instance of the smallest rings.

The split family has an even block count k, all N = kp/2 blue agents packed
into blocks 1..k/2, a blue requirement of n* in those blocks and of p - n*
in the others.  Its run takes exactly 2N/n* - k/2 - 1 rounds: close to the
proven bound ceil(2N/n*) + k + 4, and far above the abstract's
N/n* + k + 4 once p/n* is large.
"""

from itertools import combinations, product

import pytest

from ringform.analysis import theoretical_bound
from ringform.core import Configuration, Instance, RequirementSpec
from ringform.engine import orient_roles, run
from ringform.verify import verify_result


def split_instance(k: int, p: int, star: int) -> Instance:
    half = k // 2
    spec = RequirementSpec.exact([[star] * half + [p - star] * half,
                                  [p - star] * half + [star] * half], p)
    return Instance(spec=spec, initial=Configuration.from_string(
        "B" * (half * p) + "R" * (half * p), k, p, 2))


SPLIT_GRID = [(k, p, star) for k in (2, 4, 6, 8, 16) for p in (2, 4, 8, 16)
              for star in (1, 2, 4) if star < p]


@pytest.mark.parametrize("k, p, star", SPLIT_GRID)
def test_the_split_family_runs_its_closed_form_round_count(k, p, star):
    inst = split_instance(k, p, star)
    oriented, reversed_roles = orient_roles(inst)
    assert oriented is inst and not reversed_roles
    result = run(inst)
    n_blue = k * p // 2
    assert result.terminated
    assert result.rounds_used == 2 * n_blue // star - k // 2 - 1
    assert result.rounds_used <= theoretical_bound(inst)
    if k <= 8:
        assert all(verdict.passed for verdict in verify_result(result)), verify_result(result)


def test_the_split_family_exceeds_the_abstract_bound_within_the_proven_one():
    # The example of the README: N = 256 blue agents, n* = 1.
    inst = split_instance(8, 64, 1)
    assert run(inst).rounds_used == 507
    assert 256 // 1 + 8 + 4 == 268 < 507 <= theoretical_bound(inst) == 524


def exact_two_colour_instances(k: int, p: int):
    """Every exact two-colour instance of k blocks of length p: every blue
    requirement row in 1..p-1, with every colouring that meets its total."""
    for row in product(range(1, p), repeat=k):
        spec = RequirementSpec.exact([row, [p - v for v in row]], p)
        for blues in combinations(range(k * p), sum(row)):
            text = ["R"] * (k * p)
            for x in blues:
                text[x] = "B"
            yield Instance(spec=spec, initial=Configuration.from_string("".join(text), k, p, 2))


SMALL_RINGS = [(k, 2) for k in range(2, 8)] + [(2, 3), (3, 3)]


def test_every_small_exact_two_colour_instance_terminates_within_its_bound():
    audited = seen = 0
    for k, p in SMALL_RINGS:
        for inst in exact_two_colour_instances(k, p):
            oriented, _ = orient_roles(inst)
            result = run(oriented)
            assert result.terminated, inst
            if k % 2 == 0:
                assert result.rounds_used <= theoretical_bound(oriented), inst
            if seen % 50 == 0:
                assert all(verdict.passed for verdict in verify_result(result)), inst
                audited += 1
            seen += 1
    assert (seen, audited) == (5698, 114)

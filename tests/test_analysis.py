"""Surpluses, renaming, destinations, distance, partition, and bounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringform.analysis import (
    blue_partition,
    bound_is_proven,
    destinations,
    distance,
    distance_report,
    rename_offset,
    renamed_row,
    surplus_profile,
    theoretical_bound,
)
from ringform.core import Configuration
from ringform.generators import gen_p2_random, gen_p3_random, gen_random

from helpers import make_p1, make_p2


def cfg_of(text, k, p):
    return Configuration.from_string(text, k, p, 2)


def cumulative_surplus(surplus: tuple[int, ...], start: int, length: int) -> int:
    """Sum of ``length`` consecutive surpluses beginning at block ``start`` (wrapping)."""
    k = len(surplus)
    if not 1 <= start <= k:
        raise ValueError(f"start block {start} out of range 1..{k}")
    if not 1 <= length <= k:
        raise ValueError(f"length {length} out of range 1..{k}")
    return sum(surplus[(start - 1 + j) % k] for j in range(length))


def max_cumulative(surplus: tuple[int, ...], start: int) -> int:
    """Largest cumulative surplus over all window lengths from ``start``."""
    return max(cumulative_surplus(surplus, start, length)
               for length in range(1, len(surplus) + 1))


def test_surplus_examples():
    assert surplus_profile(cfg_of("BBRR", 2, 2), (1, 1)) == (1, -1)
    assert surplus_profile(cfg_of("BRRB", 2, 2), (1, 1)) == (0, 0)
    assert surplus_profile(cfg_of("BBBR", 2, 2), (1, 1)) == (1, 0)


def test_cumulative_examples():
    two = (1, -1)
    assert cumulative_surplus(two, 1, 2) == 0
    assert cumulative_surplus(two, 2, 1) == -1
    four = (2, -1, 1, -2)
    assert cumulative_surplus(four, 3, 3) == 1  # wraps past the last block


def test_cumulative_range_errors():
    surplus = (1, -1)
    with pytest.raises(ValueError):
        cumulative_surplus(surplus, 0, 1)
    with pytest.raises(ValueError):
        cumulative_surplus(surplus, 1, 3)


def test_rename_offset_examples():
    assert rename_offset((1, -1)) == 2
    assert max_cumulative((1, -1), 2) == 0
    assert rename_offset((0, 0)) == 2
    assert rename_offset((-1, 1)) == 1
    assert max_cumulative((-1, 1), 1) == 0


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=2, max_size=9))
def test_rename_offset_pins_max_cumulative_at_total(values):
    # any profile with a non-negative total admits a start block from which
    # no cumulative surplus exceeds the whole-ring total
    total = sum(values)
    if total < 0:
        values[0] -= total
        total = 0
    surplus = tuple(values)
    offset = rename_offset(surplus)
    assert max_cumulative(surplus, offset) == total
    assert cumulative_surplus(surplus, offset, len(surplus)) == total


def test_destination_examples():
    assert destinations(2, (1, 1)) == (1, 2)
    assert destinations(3, (2, 1)) == (1, 1, 2)
    assert destinations(4, (1, 1, 1, 1)) == (1, 2, 3, 4)


def test_destinations_monotone_and_extras():
    dest = destinations(6, (2, 1, 1))  # two agents beyond the total land last
    assert dest == (1, 1, 2, 3, 3, 3)
    assert all(a <= b for a, b in zip(dest, dest[1:]))


def test_distance_examples():
    report = distance(cfg_of("RRBB", 2, 2), (1, 1), 1, destinations(2, (1, 1)))
    assert report.blues == (0, 2)
    assert report.total == 1
    assert distance_report(cfg_of("BRRB", 2, 2), (1, 1)).total == 0
    big = distance_report(cfg_of("RRRRBBBB", 4, 2), (1, 1, 1, 1))
    assert big.total == 4
    assert big.blues == (0, 0, 2, 2)
    with pytest.raises(ValueError, match="2 blue agents but 1 destinations"):
        distance(cfg_of("RRBB", 2, 2), (1, 1), 1, (2,))


def test_prefix_nonpositive_suffix_nonnegative_on_renamed_start():
    for seed in range(30):
        inst = gen_random(5, 3, 2, seed)
        row = inst.spec.row(1)
        surplus = surplus_profile(inst.initial, row)
        offset = rename_offset(surplus)
        rotated = renamed_row(surplus, offset)
        prefix = 0
        for j, value in enumerate(rotated, start=1):
            prefix += value
            assert prefix <= 0
            if j < len(rotated):
                assert sum(surplus) - prefix >= 0


def test_prefix_bounded_by_extras_for_lower_bound_instances():
    for seed in range(30):
        inst = gen_p2_random(4, 3, 2, seed)
        row = inst.spec.row(1)
        surplus = surplus_profile(inst.initial, row)
        offset = rename_offset(surplus)
        rotated = renamed_row(surplus, offset)
        prefix = 0
        for j, value in enumerate(rotated, start=1):
            prefix += value
            assert prefix <= sum(surplus)
            if j < len(rotated):
                assert sum(surplus) - prefix >= 0


def test_blue_partition_examples():
    inst = make_p1("BBRRBBRR", 4, 2, [[2, 2, 0, 0], [0, 0, 2, 2]])
    # min requirement 0 is rejected
    with pytest.raises(ValueError):
        blue_partition(inst)
    inst = make_p1("BBRRBBRR", 2, 4, [[2, 2], [2, 2]])
    assert blue_partition(inst) == ((1, 2), (3, 4))
    inst = make_p1("BBBRBBRR", 2, 4, [[2, 3], [2, 1]])
    assert blue_partition(inst) == ((1, 2), (3, 4), (5,))  # five blues, class size two
    inst = make_p1("BBBRRR", 2, 3, [[3, 0], [0, 3]])
    with pytest.raises(ValueError):
        blue_partition(inst)  # zero minimum again
    inst = make_p1("BBBRRRBBBRRR", 2, 6, [[3, 3], [3, 3]])
    assert blue_partition(inst) == ((1, 2, 3), (4, 5, 6))


def test_theoretical_bound_examples():
    inst = make_p1("BRRB", 2, 2, [[1, 1], [1, 1]])
    assert theoretical_bound(inst) == 10  # 2*2/1 rounded + 2 + 4
    assert bound_is_proven(inst)
    homogeneous = make_p1("BR" * 8, 8, 2, [[1] * 8, [1] * 8])
    assert theoretical_bound(homogeneous) == 3 * 8 + 4
    wide = make_p1("BBBR" * 4, 4, 4, [[3, 3, 3, 3], [1, 1, 1, 1]])
    assert theoretical_bound(wide) == 8 + 4 + 4


def test_theoretical_bound_odd_k_is_flagged_heuristic():
    inst = make_p1("BRBRBR", 3, 2, [[1, 1, 1], [1, 1, 1]])
    assert theoretical_bound(inst) == 3 * (-(-2 * 3 // 1) + 3 + 4)
    assert not bound_is_proven(inst)


def test_theoretical_bound_other_kinds_use_safety_cap():
    p2 = make_p2("BBBR", 2, 2, [[1, 1], [0, 0]])
    assert theoretical_bound(p2) == 4 * 4 * 2 + 16
    assert not bound_is_proven(p2)
    p3 = gen_p3_random(3, 3, 2, seed=0)
    assert theoretical_bound(p3) == 4 * p3.n * p3.k + 16
    q3 = gen_random(4, 3, 3, seed=0)
    assert theoretical_bound(q3) == 4 * q3.n * q3.k + 16


def test_distance_rejects_mismatched_destinations():
    with pytest.raises(ValueError):
        distance(cfg_of("RRBB", 2, 2), (1, 1), 1, (1,))

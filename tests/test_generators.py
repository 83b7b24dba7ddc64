"""Generated instances are valid, seed-deterministic, and match the described shapes."""

import pytest

from ringform.core import ProblemKind, serialize_instance, validate
from ringform.generators import (
    GeneratorError,
    GENERATORS,
    gen_adversarial_half,
    gen_homogeneous,
    gen_p2_random,
    gen_p3_random,
    gen_random,
    generate,
)


def test_random_instances_are_valid():
    for seed in range(10):
        for q in (2, 3, 4):
            inst = gen_random(4, 5, q, seed)
            assert validate(inst).valid, (seed, q)


def test_random_is_seed_deterministic():
    a = serialize_instance(gen_random(4, 3, 2, seed=7))
    b = serialize_instance(gen_random(4, 3, 2, seed=7))
    assert a == b
    assert a != serialize_instance(gen_random(4, 3, 2, seed=8))


def test_random_rejects_infeasible_width():
    with pytest.raises(GeneratorError, match="colours"):
        gen_random(2, 1, 3, seed=0)


def test_random_demands_every_colour_below_q():
    inst = gen_random(5, 4, 4, seed=1)
    for i in range(1, 4):
        assert all(v >= 1 for v in inst.spec.row(i))


def test_adversarial_construction():
    inst = gen_adversarial_half(4, 2)
    assert inst.initial.to_string() == "RRRRBBBB"
    assert inst.spec.matrix == ((1, 1, 1, 1), (1, 1, 1, 1))
    big = gen_adversarial_half(8, 4)
    assert big.initial.to_string() == "R" * 16 + "B" * 16
    assert big.spec.row(1) == (2,) * 8
    assert validate(big).valid


def test_adversarial_rejects_odd_sizes():
    with pytest.raises(GeneratorError):
        gen_adversarial_half(3, 2)
    with pytest.raises(GeneratorError):
        gen_adversarial_half(4, 3)


def test_homogeneous_shapes():
    inst = gen_homogeneous(2, 2, 1, seed=0)
    assert inst.spec.matrix == ((1, 1), (1, 1))
    assert inst.initial.colour_totals() == (2, 2)
    wide = gen_homogeneous(6, 4, 2, seed=0)
    assert wide.initial.colour_totals()[0] == 12
    assert validate(wide).valid


def test_homogeneous_rejects_degenerate_m():
    with pytest.raises(GeneratorError):
        gen_homogeneous(2, 2, 2, seed=0)  # no red requirement anywhere
    with pytest.raises(GeneratorError):
        gen_homogeneous(2, 2, 0, seed=0)


def test_p2_extras_are_honoured():
    for extras in range(0, 4):
        inst = gen_p2_random(3, 3, 2, seed=5, extras=extras)
        report = validate(inst)
        assert report.valid
        assert report.extras == extras
    higher_q = gen_p2_random(3, 3, 4, seed=5, extras=2)
    assert validate(higher_q).valid
    assert all(v == 0 for i in (2, 3, 4) for v in higher_q.spec.row(i))


def test_p2_rejects_impossible_extras():
    with pytest.raises(GeneratorError):
        gen_p2_random(2, 2, 2, seed=0, extras=50)


def test_p3_patterns_cover_all_colours():
    for seed in range(6):
        inst = gen_p3_random(4, 4, 3, seed)
        assert validate(inst).valid
        assert inst.spec.kind is ProblemKind.P3
        for pat in inst.spec.patterns:
            assert {"1", "2", "3"} <= set(pat)


def test_p3_rejects_narrow_blocks():
    with pytest.raises(GeneratorError):
        gen_p3_random(3, 2, 3, seed=0)


def test_generate_dispatch_and_provenance():
    inst = generate("homogeneous", k=4, p=3, seed=2, m=1)
    assert inst == gen_homogeneous(4, 3, 1, seed=2)
    assert inst.provenance and "homogeneous" in inst.provenance
    with pytest.raises(GeneratorError):
        generate("mystery", k=2, p=2)
    with pytest.raises(GeneratorError):
        generate("homogeneous", k=2, p=2)  # m missing
    for kind in ("random", "p2_random", "p3_random"):  # more colours than symbols
        with pytest.raises(GeneratorError, match="at most 35 colours supported, got q=36"):
            generate(kind, k=4, p=40, q=36)


def test_generate_refuses_a_parameter_the_kind_does_not_take():
    with pytest.raises(GeneratorError, match="homogeneous generator got an unexpected "
                                             "keyword argument 'q'"):
        generate("homogeneous", k=4, p=4, m=2, q=5)
    with pytest.raises(GeneratorError, match="adversarial_half generator .* 'seed'"):
        generate("adversarial_half", k=4, p=2, seed=1)
    with pytest.raises(GeneratorError, match="random generator missing a required "
                                             "argument: 'p'"):
        generate("random", k=4)


def test_generate_takes_every_kind_of_the_table_with_its_defaults():
    assert list(GENERATORS) == ["random", "p2_random", "p3_random", "homogeneous",
                                "adversarial_half"]
    assert generate("random", k=5, p=4) == gen_random(5, 4)
    assert generate("p2_random", k=5, p=4, q=3, extras=1) == gen_p2_random(5, 4, 3, extras=1)
    assert generate("p3_random", k=3, p=4, seed=6) == gen_p3_random(3, 4, seed=6)
    assert generate("adversarial_half", k=4, p=2) == gen_adversarial_half(4, 2)

"""Document parsing, serialization round-trips, validity reports, counting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringform.core import (
    Configuration,
    InstanceFormatError,
    ProblemKind,
    parse_instance,
    serialize_instance,
    validate,
)
from ringform.generators import gen_homogeneous, gen_p2_random, gen_p3_random, gen_random

from helpers import counts, make_p1, make_p2, make_p3

P1_DOC = """\
kind: P1
k: 2
p: 2
q: 2
config: BBRR
requirements:
  1 1
  1 1
"""

P3_DOC = """\
kind: P3
k: 2
p: 2
q: 2
config: RRBB
patterns:
  BR
  RB
"""


def test_parse_basic_p1():
    inst = parse_instance(P1_DOC)
    assert inst.spec.kind is ProblemKind.P1
    assert (inst.k, inst.p, inst.q, inst.n) == (2, 2, 2, 4)
    assert inst.initial.to_string() == "BBRR"
    assert inst.spec.matrix == ((1, 1), (1, 1))


def test_parse_rejects_config_length_mismatch():
    doc = P1_DOC.replace("config: BBRR", "config: BBRRB")
    with pytest.raises(InstanceFormatError, match=r"k\*p"):
        parse_instance(doc)


def test_parse_p3():
    inst = parse_instance(P3_DOC)
    assert inst.spec.kind is ProblemKind.P3
    assert inst.spec.patterns == ("BR", "RB")
    assert inst.spec.matrix == ((1, 1), (1, 1))


def test_parse_rejects_bad_symbol():
    doc = P1_DOC.replace("config: BBRR", "config: BBRX")
    with pytest.raises(InstanceFormatError, match="alphabet"):
        parse_instance(doc)


def test_parse_rejects_wrong_matrix_shape():
    doc = P1_DOC.replace("  1 1\n  1 1\n", "  1 1 1\n  1 1\n")
    with pytest.raises(InstanceFormatError, match="expected k=2"):
        parse_instance(doc)
    doc = P1_DOC.replace("  1 1\n  1 1\n", "  1 1\n")
    with pytest.raises(InstanceFormatError, match="rows"):
        parse_instance(doc)


def test_parse_error_carries_line_number():
    doc = P1_DOC.replace("  1 1\n  1 1\n", "  1 1\n  1 x\n")
    with pytest.raises(InstanceFormatError, match="line 8"):
        parse_instance(doc)


def test_parse_rejects_mixed_sections():
    with pytest.raises(InstanceFormatError, match="patterns"):
        parse_instance(P1_DOC + "patterns:\n  BR\n  RB\n")
    doc = P3_DOC.replace("patterns:\n  BR\n  RB\n", "requirements:\n  1 1\n  1 1\n")
    with pytest.raises(InstanceFormatError, match="patterns, not requirements"):
        parse_instance(doc)


def test_parse_rejects_unknown_and_duplicate_fields():
    with pytest.raises(InstanceFormatError, match="unknown field"):
        parse_instance("flavour: spicy\n" + P1_DOC)
    with pytest.raises(InstanceFormatError, match="duplicate"):
        parse_instance("k: 2\n" + P1_DOC)


def test_parse_rejects_missing_fields():
    with pytest.raises(InstanceFormatError, match="missing required field 'config'"):
        parse_instance("kind: P1\nk: 2\np: 2\nq: 2\nrequirements:\n  1 1\n  1 1\n")


def test_parse_ignores_comments_and_blank_lines():
    doc = "# a comment\n\n" + P1_DOC.replace("k: 2", "k: 2  # two blocks")
    assert parse_instance(doc) == parse_instance(P1_DOC)


def test_serialize_is_canonical():
    inst = parse_instance(P1_DOC)
    assert serialize_instance(inst) == P1_DOC
    inst3 = parse_instance(P3_DOC)
    assert serialize_instance(inst3) == P3_DOC


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), k=st.integers(2, 6), p=st.integers(2, 5))
def test_roundtrip_generated_instances(seed, k, p):
    for inst in (
        gen_random(k, p, 2, seed),
        gen_random(k, p, 3, seed) if p >= 2 else None,
        gen_p2_random(k, p, 2, seed),
        gen_p3_random(k, p, 2, seed),
        gen_homogeneous(k, p, 1, seed),
    ):
        if inst is None:
            continue
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert serialize_instance(again) == text


def test_counts_examples():
    cfg = Configuration.from_string("BBRR", 2, 2, 2)
    assert counts(cfg, 1) == (2, 0)
    assert counts(cfg, 2) == (0, 2)
    assert counts(Configuration.from_string("BRBR", 2, 2, 2), 1) == (1, 1)


def test_counts_block_out_of_range():
    cfg = Configuration.from_string("BBRR", 2, 2, 2)
    with pytest.raises(ValueError, match="out of range"):
        counts(cfg, 3)
    with pytest.raises(ValueError, match="out of range"):
        counts(cfg, 0)


def test_block_counts_sum_to_totals():
    for seed in range(5):
        inst = gen_random(4, 3, 3, seed)
        cfg = inst.initial
        summed = [0] * cfg.q
        for j in range(1, cfg.k + 1):
            vec = counts(cfg, j)
            assert sum(vec) == cfg.p
            for i, v in enumerate(vec):
                summed[i] += v
        assert tuple(summed) == cfg.colour_totals()


def test_validate_p1_valid():
    report = validate(make_p1("BBRR", 2, 2, [[1, 1], [1, 1]]))
    assert report.valid
    assert all(c.ok for c in report.colour_checks)
    assert report.extras is None


def test_validate_p1_count_mismatch():
    report = validate(make_p1("BRRR", 2, 2, [[1, 1], [1, 1]]))
    assert not report.valid
    blue = report.colour_checks[0]
    assert (blue.colour, blue.actual, blue.required, blue.ok) == (1, 1, 2, False)


def test_validate_p2_reports_extras():
    report = validate(make_p2("BBBR", 2, 2, [[1, 1], [0, 0]]))
    assert report.valid
    assert report.extras == 1


def test_validate_p2_shortfall_invalid():
    report = validate(make_p2("BRRR", 2, 2, [[1, 1], [0, 0]]))
    assert not report.valid
    assert report.extras is None


def test_validate_p2_rejects_a_requirement_above_the_block_length():
    # Enough blues overall, yet block 1 cannot hold four agents of any colour.
    report = validate(make_p2("BBBBBR", 2, 3, [[4, 1], [0, 0]]))
    assert not report.valid
    assert report.issues == ("block 1: colour 1 requirement 4 exceeds the block length p=3",)
    assert validate(make_p2("BBBBBR", 2, 3, [[3, 1], [0, 0]])).valid


def test_validate_p2_rejects_constrained_other_colours():
    report = validate(make_p2("BBRR", 2, 2, [[1, 1], [1, 1]]))
    assert not report.valid
    assert any("colour 1" in issue for issue in report.issues)


def test_validate_p1_positivity_below_q_only():
    # colour 1 must be demanded everywhere; the last colour may be absent
    report = validate(make_p1("BBBR", 2, 2, [[2, 1], [0, 1]]))
    assert report.valid
    report = validate(make_p1("BBBR", 2, 2, [[0, 3], [2, 1]]))
    assert not report.valid
    assert any("colour 1 requirement" in issue for issue in report.issues)


def test_validate_p1_column_sum_issue():
    report = validate(make_p1("BBRR", 2, 2, [[2, 1], [1, 1]]))
    assert not report.valid
    assert any("sums to" in issue for issue in report.issues)


def test_validate_p3_requires_every_colour_in_patterns():
    report = validate(make_p3("BRRB", 2, 2, ["BB", "RR"]))
    assert not report.valid
    assert any("does not occur" in issue for issue in report.issues)
    assert validate(make_p3("BRRB", 2, 2, ["BR", "BR"])).valid


def test_validate_agrees_with_direct_counting():
    # acceptance condition recomputed from raw strings, independent of the report
    alphabet = "BR"
    for seed in range(8):
        inst = gen_random(4, 3, 2, seed)
        text = inst.initial.to_string()
        required = [sum(inst.spec.row(i)) for i in (1, 2)]
        expected = all(text.count(alphabet[i]) == required[i] for i in range(2))
        assert validate(inst).valid == expected
        # flip one agent's colour: totals drift, validity must flip off
        flipped = "R" + text[1:] if text[0] == "B" else "B" + text[1:]
        broken = make_p1(flipped, inst.k, inst.p, inst.spec.matrix)
        assert not validate(broken).valid


def test_many_colour_alphabet_roundtrip():
    inst = gen_random(2, 4, 4, seed=3)
    text = serialize_instance(inst)
    assert parse_instance(text) == inst
    assert set(inst.initial.to_string()) <= set("1234")


def test_configuration_guards():
    with pytest.raises(ValueError, match="two blocks"):
        Configuration.from_string("BR", 1, 2, 2)
    with pytest.raises(ValueError, match="k\\*p"):
        Configuration.from_string("BRB", 2, 2, 2)

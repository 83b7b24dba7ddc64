"""Document parsing, serialization round-trips, validity reports, counting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringform.core import (
    Agent,
    Configuration,
    Instance,
    InstanceFormatError,
    ProblemKind,
    RequirementSpec,
    colour_symbols,
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
    with pytest.raises(InstanceFormatError) as info:
        parse_instance(P1_DOC.replace("q: 2", "q: 40"))
    assert (str(info.value), info.value.line) == ("line 4: q must be at most 35, got 40", 4)


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
    assert report.valid and report.issues == ()
    assert report.extras is None


def test_validate_p1_count_mismatch():
    report = validate(make_p1("BRRR", 2, 2, [[1, 1], [1, 1]]))
    assert not report.valid
    assert report.issues == ("colour 1: have 1, need 2", "colour 2: have 3, need 2")


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


P1, P2, P3 = ProblemKind.P1, ProblemKind.P2, ProblemKind.P3


@pytest.mark.parametrize("fields, message", [
    (dict(kind=P1, q=0, k=2, p=2, matrix=()), "requirement matrix is empty"),
    (dict(kind=P1, q=2, k=0, p=2, matrix=((), ())), "requirement matrix is empty"),
    (dict(kind=P1, q=3, k=2, p=2, matrix=((1, 1), (1, 1))),
     "requirement matrix has 2 rows, expected q=3"),
    (dict(kind=P1, q=2, k=2, p=2, matrix=((1, 1), (1,))),
     "requirement row 2 has 1 entries, expected k=2"),
    (dict(kind=P1, q=2, k=2, p=2, matrix=((1, -1), (1, 3))),
     "requirement for colour 1, block 2 is negative"),
    (dict(kind=P3, q=2, k=2, p=2, matrix=((1, 1), (1, 1))), "P3 requires patterns"),
    (dict(kind=P3, q=2, k=2, p=2, matrix=((1, 1), (1, 1)), patterns=("BR",)),
     "expected 2 patterns, got 1"),
    (dict(kind=P3, q=2, k=2, p=2, matrix=((1, 1), (1, 1)), patterns=("BR", "B")),
     "pattern 2 has length 1, expected p=2"),
    (dict(kind=P3, q=2, k=2, p=2, matrix=((1, 1), (1, 1)), patterns=("BR", "RX")),
     "pattern 2 symbol 'X' outside colour alphabet 'BR'"),
    (dict(kind=P2, q=2, k=2, p=2, matrix=((1, 1), (0, 0)), patterns=("BR", "RB")),
     "P2 does not take patterns"),
])
def test_requirement_spec_refuses_a_malformed_target(fields, message):
    with pytest.raises(ValueError) as info:
        RequirementSpec(**fields)
    assert str(info.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: RequirementSpec.exact([], 2), "requirement matrix is empty"),
    (lambda: RequirementSpec.exact([[], []], 2), "requirement matrix is empty"),
    (lambda: RequirementSpec.lower_bound([], 2), "requirement matrix is empty"),
    (lambda: RequirementSpec.for_patterns([], 2), "requirement matrix is empty"),
    # The matrix counts only the symbols of the alphabet, so the symbol is named.
    (lambda: RequirementSpec.for_patterns(["BX", "RB"], 2),
     "pattern 1 symbol 'X' outside colour alphabet 'BR'"),
    (lambda: RequirementSpec.for_patterns(["123", "12x"], 3),
     "pattern 2 symbol 'x' outside colour alphabet '123'"),
])
def test_requirement_spec_builders_refuse_empty_matrices_and_foreign_symbols(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: Configuration([Agent(0, 1), Agent(0, 2)], 2, 1, 2), "agent ids must be unique"),
    (lambda: Configuration([Agent(0, 1), Agent(1, 3)], 2, 1, 2),
     "agent 1 has colour 3 outside 1..2"),
    (lambda: Configuration([Agent(0, 0), Agent(1, 2)], 2, 1, 2),
     "agent 0 has colour 0 outside 1..2"),
    (lambda: Configuration([Agent(0, 1)], 2, 1, 2), "config length 1 != k*p = 2"),
    (lambda: Configuration.from_string("", 2, 0, 2), "block length must be positive, got p=0"),
    (lambda: Configuration.from_string("BRB", 2, 2, 2), "config length 3 != k*p = 4"),
    (lambda: Configuration.from_string("BRXR", 2, 2, 2),
     "config symbol 'X' outside colour alphabet 'BR'"),
    # The length is checked before the symbols.
    (lambda: Configuration.from_string("XX", 2, 2, 2), "config length 2 != k*p = 4"),
    (lambda: colour_symbols(1), "need at least two colours, got q=1"),
])
def test_configuration_refuses_a_malformed_ring(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("config, k, p, q, message", [
    ("BRBRBRBR", 4, 2, 2, "k disagrees between requirements (2) and configuration (4)"),
    ("BBRBRR", 2, 3, 2, "p disagrees between requirements (2) and configuration (3)"),
    ("1213", 2, 2, 3, "q disagrees between requirements (2) and configuration (3)"),
])
def test_instance_refuses_a_configuration_of_another_shape(config, k, p, q, message):
    spec = RequirementSpec.exact([[1, 1], [1, 1]], 2)
    with pytest.raises(ValueError) as info:
        Instance(spec=spec, initial=Configuration.from_string(config, k, p, q))
    assert str(info.value) == message


def test_validate_p2_names_each_constrained_colour_above_1():
    report = validate(make_p2("112233", 2, 3, [[1, 1], [0, 0], [0, 1]]))
    assert report.issues == ("colour 3: lower-bound instances may only constrain colour 1",)


P2_DOC = P1_DOC.replace("kind: P1", "kind: P2").replace("  1 1\n  1 1\n", "  1 1\n  0 0\n")


@pytest.mark.parametrize("doc, message", [
    # The config is refused with the words of Configuration.from_string, on its line.
    (P1_DOC.replace("config: BBRR", "config: BBRRB"), "line 5: config length 5 != k*p = 4"),
    (P1_DOC.replace("config: BBRR", "config: BBRX"),
     "line 5: config symbol 'X' outside colour alphabet 'BR'"),
    (P1_DOC.replace("config: BBRR", "config: BBX"), "line 5: config length 3 != k*p = 4"),
    (P3_DOC.replace("config: RRBB", "config: RRB"), "line 5: config length 3 != k*p = 4"),
    (P1_DOC.replace("q: 2", "q: 3").replace("config: BBRR", "config: 12R3"),
     "line 5: config symbol 'R' outside colour alphabet '123'"),
    (P3_DOC.replace("patterns:\n  BR\n  RB\n", ""), "missing patterns section"),
    (P1_DOC.replace("requirements:\n  1 1\n  1 1\n", ""), "missing requirements section"),
    (P2_DOC.replace("requirements:\n  1 1\n  0 0\n", ""), "missing requirements section"),
    (P3_DOC.replace("  RB\n", "  RX\n"), "line 8: pattern symbol 'X' outside 'BR'"),
    (P1_DOC.replace("  1 1\n  1 1\n", "  1 1\n  2 -1\n"),
     "line 8: requirement counts must be non-negative"),
    (P2_DOC.replace("  0 0\n", "  0 -1\n"), "line 8: requirement counts must be non-negative"),
])
def test_parse_refuses_a_malformed_document_with_its_line(doc, message):
    with pytest.raises(InstanceFormatError) as info:
        parse_instance(doc)
    assert str(info.value) == message

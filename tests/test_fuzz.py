"""Fuzzing of the readers of outside input and of the command line.

Whatever bytes arrive, ``parse_instance`` raises only
``InstanceFormatError``, ``read_trace`` raises only ``TraceError`` (or
``InstanceFormatError`` for a bad embedded instance), ``verify_trace``
returns verdicts, and ``ringform run``/``analyze``/``verify`` exit with a
documented code.  The inputs are random text and bytes, and honest
documents and traces with one field, line or move replaced.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringform import engine, verify
from ringform.cli import main
from ringform.core import (
    InstanceFormatError,
    ProblemKind,
    parse_instance,
    serialize_instance,
    validate,
)
from ringform.engine import TraceError
from ringform.generators import gen_p2_random, gen_p3_random, gen_random

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5}

INSTANCES = [gen_random(4, 3, 2, 1), gen_random(3, 4, 3, 2), gen_p2_random(4, 3, 2, 3),
             gen_p3_random(3, 4, 3, 4)]
DOCS = [serialize_instance(inst) for inst in INSTANCES]


def honest_trace(inst) -> list[dict]:
    oriented, reversed_roles = inst, False
    if inst.spec.kind is ProblemKind.P1 and inst.q == 2:
        oriented, reversed_roles = engine.orient_roles(inst)
    return engine.trace_records(engine.run(oriented), reversed_roles=reversed_roles)


TRACES = [honest_trace(INSTANCES[0]), honest_trace(INSTANCES[2])]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@st.composite
def instance_docs(draw) -> str:
    lines = draw(st.sampled_from(DOCS)).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(["line", "value", "delete", "duplicate", "text"]))
    if action == "line":
        lines[i] = draw(st.text(max_size=12))
    elif action == "value":
        key = lines[i].partition(":")[0]
        value = draw(st.integers(-2, 12).map(str) | st.text("BR123 ", max_size=14))
        lines[i] = f"{key}: {value}" if ":" in lines[i] else f"  {value}"
    elif action == "delete":
        del lines[i]
    elif action == "duplicate":
        lines.insert(i, lines[i])
    else:
        return draw(st.text(max_size=60))
    return "\n".join(lines) + "\n"


@st.composite
def trace_lines(draw) -> list[str]:
    records = json.loads(json.dumps(draw(st.sampled_from(TRACES))))
    i = draw(st.integers(0, len(records) - 1))
    record = records[i]
    lines = None
    action = draw(st.sampled_from(["set", "delete", "move", "counts", "instance", "line"]))
    if action == "set":
        record[draw(st.sampled_from(sorted(record) + ["extra"]))] = draw(json_values)
    elif action == "delete":
        del record[draw(st.sampled_from(sorted(record)))]
    elif action == "move" and record.get("moves"):
        j = draw(st.integers(0, len(record["moves"]) - 1))
        if draw(st.booleans()):
            record["moves"][j] = draw(json_values)
        else:
            record["moves"][j][draw(st.integers(0, 2))] = draw(json_values)
    elif action == "counts" and record.get("counts"):
        j = draw(st.integers(0, len(record["counts"]) - 1))
        if draw(st.booleans()):
            record["counts"][j] = draw(json_values)
        else:
            row = record["counts"][j]
            row[draw(st.integers(0, len(row) - 1))] = draw(json_values)
    elif action == "instance":
        records[0]["instance"] = draw(instance_docs())
    elif action == "line":
        lines = [json.dumps(r) for r in records]
        lines[i] = draw(st.text(max_size=30))
    return lines or [json.dumps(r) for r in records]


@settings(max_examples=300, deadline=None)
@given(st.one_of(instance_docs(), st.text(max_size=80)))
def test_parse_instance_raises_only_its_format_error(doc):
    try:
        inst = parse_instance(doc)
    except InstanceFormatError:
        return
    assert serialize_instance(inst) and validate(inst) is not None


@settings(max_examples=300, deadline=None)
@given(st.one_of(trace_lines(), st.lists(st.text(max_size=30), max_size=4)))
def test_read_trace_raises_only_format_errors_and_verify_returns_verdicts(lines):
    try:
        data = engine.read_trace(lines)
    except (TraceError, InstanceFormatError):
        return
    verdicts = verify.verify_trace(data)
    assert verdicts and all(isinstance(v, verify.InvariantVerdict) for v in verdicts)


not_an_int = st.one_of(st.booleans(), st.floats(), st.text(max_size=3),
                       st.lists(st.integers(0, 9), max_size=3), st.none())


@settings(max_examples=150, deadline=None)
@given(bad=st.one_of(not_an_int.map(lambda v: ("field", v)),
                     st.lists(st.integers(0, 9), min_size=2, max_size=4)
                     .filter(lambda m: len(m) != 3).map(lambda m: ("move", m))),
       where=st.integers(0, 2))
def test_malformed_moves_raise_trace_error_naming_the_line(bad, where):
    records = TRACES[0]
    i = next(i for i, record in enumerate(records) if record.get("moves"))
    lines = [json.dumps(record) for record in records]
    record = json.loads(lines[i])
    kind, value = bad
    if kind == "field":
        record["moves"][0][where] = value
    else:
        record["moves"][-1] = value
    lines[i] = json.dumps(record)
    with pytest.raises(TraceError) as caught:
        engine.read_trace(lines)
    assert caught.value.line == i + 1
    assert str(caught.value).startswith(f"line {i + 1}: 'moves' must be")


@settings(max_examples=150, deadline=None)
@given(bad=st.one_of(
           not_an_int.map(lambda v: ("entry", v)),
           st.one_of(st.integers(-3, 0), st.integers(5, 40)).map(lambda b: ("block", b)),
           st.lists(st.integers(0, 9), max_size=5)
           .filter(lambda row: len(row) != 3).map(lambda row: ("row", row)),
           st.just(("repeat", None))),
       where=st.integers(0, 2))
def test_malformed_count_rows_raise_trace_error_naming_the_line(bad, where):
    # TRACES[0] is a k=4, q=2 run: a row is [block, count of colour 1, count of colour 2].
    records = TRACES[0]
    i = next(i for i, record in enumerate(records) if record.get("counts"))
    lines = [json.dumps(record) for record in records]
    record = json.loads(lines[i])
    rows = record["counts"]
    kind, value = bad
    if kind == "entry":
        rows[0][where] = value
    elif kind == "block":
        rows[-1][0] = value
    elif kind == "row":
        rows[-1] = value
    else:
        rows.append(list(rows[0]))
    lines[i] = json.dumps(record)
    with pytest.raises(TraceError) as caught:
        engine.read_trace(lines)
    assert caught.value.line == i + 1
    assert str(caught.value).startswith(f"line {i + 1}: 'counts' ")


def _exit_code(argv: list[str], path: str, content: bytes) -> int:
    with open(path, "wb") as fp:
        fp.write(content)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=150, deadline=None)
@given(content=st.one_of(trace_lines().map(lambda lines: "\n".join(lines).encode()),
                         st.binary(max_size=40)))
def test_verify_exits_with_a_documented_code(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        assert _exit_code(["verify", "--trace", path], path, content) in DOCUMENTED_EXIT_CODES


@settings(max_examples=150, deadline=None)
@given(content=st.one_of(instance_docs().map(str.encode), st.binary(max_size=40)),
       command=st.sampled_from(["run", "analyze"]))
def test_run_and_analyze_exit_with_a_documented_code(content, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.txt")
        assert _exit_code([command, "--instance", path], path, content) in DOCUMENTED_EXIT_CODES

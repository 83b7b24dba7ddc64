"""Fuzzing of the readers of outside input and of the command line.

Whatever bytes arrive, ``parse_instance`` raises only
``InstanceFormatError``, ``read_trace`` raises only ``TraceError`` (also
for a header whose instance document does not parse), ``verify_trace``
returns verdicts, and ``ringform run``/``analyze``/``verify`` exit with a
documented code.  The inputs are random text and bytes, and honest
documents and traces with one field, line or move replaced, or a packed
field's text cut short, given one character more or re-encoded with one
integer changed.
"""

import contextlib
import io
import json
import os
import tempfile
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringform import engine, verify
from ringform.cli import main
from ringform.core import (
    InstanceFormatError,
    parse_instance,
    serialize_instance,
    validate,
)
from ringform.engine import TraceError
from ringform.generators import gen_p2_random, gen_p3_random, gen_random

from helpers import packed, unpacked, written_records

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5}

INSTANCES = [gen_random(4, 3, 2, 1), gen_random(3, 4, 3, 2), gen_p2_random(4, 3, 2, 3),
             gen_p3_random(3, 4, 3, 4)]
DOCS = [serialize_instance(inst) for inst in INSTANCES]


def honest_trace(inst) -> list[dict]:
    oriented, reversed_roles = engine.orient_roles(inst)
    return written_records(engine.run(oriented), reversed_roles=reversed_roles)


TRACES = [honest_trace(INSTANCES[0]), honest_trace(INSTANCES[2])]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
int32s = st.integers(-2 ** 31, 2 ** 31 - 1)
# A packed field's text with one character more (so never canonical base64,
# whose length is a multiple of 4), or cut short by less than one move or
# row: 16 characters, as a move and a k = 4, q = 2 count row are 12 bytes.
text_damage = st.one_of(st.tuples(st.just("inject"), st.integers(0, 10 ** 6), st.characters()),
                        st.tuples(st.just("cut"), st.integers(1, 15), st.just("")))


def damaged(text: str, damage: tuple) -> str:
    how, at, char = damage
    if how == "cut":
        return text[:-at]
    at %= len(text) + 1
    return text[:at] + char + text[at:]


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
    action = draw(st.sampled_from(["set", "delete", "moves", "counts", "instance", "line"]))
    if action == "set":
        record[draw(st.sampled_from(sorted(record) + ["extra"]))] = draw(json_values)
    elif action == "delete":
        del record[draw(st.sampled_from(sorted(record)))]
    elif action in ("moves", "counts") and record.get(action):
        text = record[action]  # the base64 of one flat list of int32s
        edit = draw(st.sampled_from(["cut", "inject", "set", "delete", "insert"]))
        if edit == "cut":
            record[action] = text[:draw(st.integers(0, len(text) - 1))]
        elif edit == "inject":
            record[action] = damaged(text, ("inject", draw(st.integers(0, len(text))),
                                            draw(st.characters())))
        else:  # re-encoded with one integer changed, dropped or added
            values = unpacked(text)
            j = draw(st.integers(0, len(values) - 1))
            if edit == "set":
                values[j] = draw(int32s)
            elif edit == "delete":
                del values[j]
            else:
                values.insert(j, draw(int32s))
            record[action] = packed(values)
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
    except TraceError:
        return
    verdicts = verify.verify_trace(data)
    assert verdicts and all(isinstance(v, verify.InvariantVerdict) for v in verdicts)


not_a_string = st.one_of(st.booleans(), st.floats(), st.integers(),
                         st.lists(st.integers(0, 9), max_size=3), st.none(),
                         st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def _mangled_round(field: str, mangle) -> tuple[int, list[str]]:
    """The first round record with a non-empty ``field`` and the lines of
    TRACES[0] with that field's text ``text`` replaced by ``mangle(text)``."""
    records = TRACES[0]
    i = next(i for i, record in enumerate(records) if record.get(field))
    lines = [json.dumps(record) for record in records]
    lines[i] = json.dumps({**records[i], field: mangle(records[i][field])})
    return i, lines


def _edited_rows(text: str, width: int, edit) -> str:
    """``text`` unpacked into rows of ``width`` ints, passed through
    ``edit``, which edits the list of rows in place, and packed again."""
    values = unpacked(text)
    rows = [values[j:j + width] for j in range(0, len(values), width)]
    edit(rows)
    return packed(chain.from_iterable(rows))


@settings(max_examples=150, deadline=None)
@given(bad=st.one_of(not_a_string.map(lambda v: ("field", v)),
                     st.lists(int32s, min_size=1, max_size=4)
                     .filter(lambda m: len(m) != 3).map(lambda m: ("move", m)),
                     text_damage.map(lambda d: ("text", d))))
def test_malformed_moves_raise_trace_error_naming_the_line(bad):
    kind, value = bad

    def mangle(text: str):
        if kind == "field":
            return value
        if kind == "text":
            return damaged(text, value)
        return _edited_rows(text, 3, lambda moves: moves.__setitem__(-1, value))

    i, lines = _mangled_round("moves", mangle)
    with pytest.raises(TraceError) as caught:
        engine.read_trace(lines)
    assert caught.value.line == i + 1
    assert str(caught.value).startswith(f"line {i + 1}: 'moves' must be base64 of")


@settings(max_examples=150, deadline=None)
@given(bad=st.one_of(
           not_a_string.map(lambda v: ("field", v)),
           st.one_of(st.integers(-2 ** 31, 0), st.integers(5, 2 ** 31 - 1))
           .map(lambda b: ("block", b)),
           st.lists(int32s, min_size=1, max_size=5)
           .filter(lambda row: len(row) != 3).map(lambda row: ("row", row)),
           st.just(("repeat", None)),
           text_damage.map(lambda d: ("text", d))))
def test_malformed_count_rows_raise_trace_error_naming_the_line(bad):
    # TRACES[0] is a k=4, q=2 run: a row is [block, count of colour 1, count of colour 2].
    kind, value = bad

    def edit(rows: list[list]) -> None:
        if kind == "block":
            rows[-1][0] = value
        elif kind == "row":
            rows[-1] = value
        else:
            rows.append(list(rows[0]))

    def mangle(text: str):
        if kind == "field":
            return value
        if kind == "text":
            return damaged(text, value)
        return _edited_rows(text, 3, edit)

    i, lines = _mangled_round("counts", mangle)
    with pytest.raises(TraceError) as caught:
        engine.read_trace(lines)
    assert caught.value.line == i + 1
    assert str(caught.value).startswith(f"line {i + 1}: 'counts' ")


@settings(max_examples=150, deadline=None)
@given(note=json_values, which=st.integers(0, 10 ** 6))
def test_an_ignored_key_of_a_round_record_changes_nothing_read(note, which):
    # Whatever it holds, a JSON true or false among it too.
    records = TRACES[0]
    lines = [json.dumps(record) for record in records]
    expected = engine.read_trace(lines)
    rounds = [i for i, record in enumerate(records) if record["type"] == "round"]
    i = rounds[which % len(rounds)]
    lines[i] = json.dumps({**records[i], "note": note})
    assert engine.read_trace(lines) == expected


@settings(max_examples=150, deadline=None)
@given(which=st.integers(0, 10 ** 6), cut=st.integers(1, 10 ** 6))
def test_a_record_cut_short_is_not_a_json_record(which, cut):
    # As a writer killed in the middle of a line leaves it.
    lines = [json.dumps(record) for record in TRACES[which % 2]]
    i = which % len(lines)
    lines[i] = lines[i][:cut % (len(lines[i]) - 1) + 1]
    with pytest.raises(TraceError, match="not a JSON record: ") as caught:
        engine.read_trace(lines)
    assert caught.value.line == i + 1


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

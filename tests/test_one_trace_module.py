"""The trace format lives in one module: ``trace.py`` writes and reads it,
spells out its one format name, depends on no package module but
``core``, and no other module spells out a format name or a record type
or imports the codec of its packed fields.  A round record holds the
fields of its line and nothing more."""

import ast
import dataclasses
import re
from pathlib import Path

from helpers import written_records
from ringform.engine import RoundTrace, orient_roles, run
from ringform.generators import gen_adversarial_half

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ringform"
RECORD_TYPES = {"header", "round", "summary"}
FORMAT_LITERAL = re.compile(r"""["']ringform-trace-v""")
# A "type" key and its value as spelled in the text of a string literal.
TYPE_IN_TEXT = re.compile(r"""["']type["']\s*:\s*["'](\w+)["']""")


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules that a module imports, relatively or by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "ringform":
            names.add(node.module.partition(".")[2] or "ringform")
        elif isinstance(node, ast.Import):
            names.update(a.name.partition(".")[2] or "ringform" for a in node.names
                         if a.name.split(".")[0] == "ringform")
    return names


def record_types(tree: ast.Module) -> set[str]:
    """The record types that a module holds under a ``"type"`` key: in a
    dict display, or spelled out in the text of a string or f-string
    literal (whose literal parts are string constants too)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            found.update(value.value for key, value in zip(node.keys, node.values)
                         if isinstance(key, ast.Constant) and key.value == "type"
                         and isinstance(value, ast.Constant))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(TYPE_IN_TEXT.findall(node.value))
    return found & RECORD_TYPES


def test_record_types_are_found_in_dicts_strings_and_f_strings():
    source = """
header = {"type": "header"}
summary = '{"type": "summary"}'
index = 1
line = f'{{"type": "round", "round": {index}}}'
other = {"type": "other"}
"""
    assert record_types(ast.parse(source)) == RECORD_TYPES


def test_trace_module_imports_only_core():
    tree = ast.parse((PACKAGE / "trace.py").read_text(encoding="utf-8"))
    assert package_imports(tree) == {"core"}


def test_only_the_trace_module_holds_the_format():
    text = (PACKAGE / "trace.py").read_text(encoding="utf-8")
    # One format name, so one reader path: a second name would be a second format.
    assert len(FORMAT_LITERAL.findall(text)) == 1
    assert record_types(ast.parse(text)) == RECORD_TYPES
    leaks = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "trace.py":
            continue
        text = path.read_text(encoding="utf-8")
        found = sorted(record_types(ast.parse(text)))
        if FORMAT_LITERAL.search(text):
            found.append("format name")
        if found:
            leaks[path.name] = found
    assert leaks == {}


def imported_modules(tree: ast.Module) -> set[str]:
    """The top-level names of the modules that a module imports absolutely."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
    return names


def test_only_the_trace_module_knows_the_packed_encoding():
    codecs = {"base64", "binascii"}
    users = {path.name for path in PACKAGE.glob("*.py")
             if imported_modules(ast.parse(path.read_text(encoding="utf-8"))) & codecs}
    assert users == {"trace.py"}


def test_a_round_record_holds_exactly_the_fields_of_its_line():
    assert [f.name for f in dataclasses.fields(RoundTrace)] == [
        "index", "offset", "moves", "counts", "distance"]
    result = run(orient_roles(gen_adversarial_half(4, 2))[0])
    rounds = [r for r in written_records(result) if r["type"] == "round"]
    assert len(rounds) == len(result.trace) > 0
    assert all(list(record) == ["type", "round", "offset", "moves", "counts", "distance"]
               for record in rounds)
    # perfbench's traced loop still passes the round checks; they change nothing.
    checks = (("collision_free", True), ("within_window", True), ("colours_conserved", True))
    for rt in result.trace:
        for given in (checks, (), object()):
            built = RoundTrace(index=rt.index, offset=rt.offset, moves=rt.moves,
                               counts=rt.counts, distance=rt.distance, checks=given)
            assert built == rt and hash(built) == hash(rt)
            assert "checks" not in vars(built)

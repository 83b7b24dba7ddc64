"""The trace format lives in one module: ``trace.py`` writes and reads it,
spells out its one format name, depends on no package module but
``core``, and no other module spells out a format name or a record type."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ringform"
RECORD_TYPES = {"header", "round", "summary"}
FORMAT_LITERAL = re.compile(r"""["']ringform-trace-v""")


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
    """The record types that a module's dict displays hold under a ``"type"`` key."""
    return {value.value for node in ast.walk(tree) if isinstance(node, ast.Dict)
            for key, value in zip(node.keys, node.values)
            if isinstance(key, ast.Constant) and key.value == "type"
            and isinstance(value, ast.Constant) and value.value in RECORD_TYPES}


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

"""Every module-level function and class of the package is named somewhere
else: in the package, its tests or its benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ringform"


def named_in(path: Path) -> set[str]:
    """The identifiers that ``path`` names: as a variable, as an attribute, or
    as a string (``__all__``, ``monkeypatch.setattr``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_module_level_function_and_class_is_named_elsewhere():
    named = set().union(*(named_in(path) for folder in ("src", "tests", "perfbench")
                          for path in (ROOT / folder).rglob("*.py")))
    defined = [(path.name, node.name) for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert len(defined) > 50
    assert [f"{module}: {name}" for module, name in defined if name not in named] == []

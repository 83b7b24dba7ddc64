"""Every module-level function and class of the package, and every method of
its classes but the dunder ones, is named somewhere else: in the package,
its tests or its benchmark."""

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


def named_anywhere() -> set[str]:
    """The identifiers that the package, its tests and its benchmark name."""
    return set().union(*(named_in(path) for folder in ("src", "tests", "perfbench")
                         for path in (ROOT / folder).rglob("*.py")))


def package_definitions() -> list[tuple[str, ast.AST]]:
    """Every top-level definition of the package, with its file name."""
    return [(path.name, node) for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body]


def test_every_module_level_function_and_class_is_named_elsewhere():
    named = named_anywhere()
    defined = [(module, node.name) for module, node in package_definitions()
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert len(defined) > 50
    assert [f"{module}: {name}" for module, name in defined if name not in named] == []


def test_every_method_but_the_dunder_ones_is_named_elsewhere():
    named = named_anywhere()
    methods = [(module, cls.name, node.name) for module, cls in package_definitions()
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert len(methods) > 20
    assert [f"{module}: {cls}.{name}" for module, cls, name in methods
            if name not in named] == []


def test_every_module_level_import_is_used_exported_or_marked_as_a_re_export():
    """A name imported at module level is used in its module, listed in
    ``__all__``, or imported in a statement marked ``# noqa: F401``."""
    imported, unused = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        lines = source.splitlines()
        known = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        known |= {element.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                  for element in node.value.elts}
        for node in tree.body:
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or lines[node.lineno - 1].endswith("# noqa: F401")):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.append(name)
                if name not in known:
                    unused.append(f"{path.name}: {name}")
    assert len(imported) > 50
    assert unused == []


def reached_through(module: str) -> set[str]:
    """The names that code in the package, its tests or its benchmark reaches
    through ``module``: as ``module.X``, or by ``from ...module import X``."""
    names = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and (
                        isinstance(node.value, ast.Name) and node.value.id == module
                        or isinstance(node.value, ast.Attribute) and node.value.attr == module):
                    names.add(node.attr)
                elif (isinstance(node, ast.ImportFrom)
                        and (node.module or "").rpartition(".")[2] == module):
                    names.update(alias.name for alias in node.names)
    return names


def test_every_name_of_a_marked_re_export_is_used_in_its_module_or_reached_through_it():
    """A name imported in a statement marked ``# noqa: F401`` is used in its
    module, or reached through that module somewhere else."""
    exported, unreached = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        lines = source.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        reached = reached_through(path.stem)
        for node in tree.body:
            if (isinstance(node, ast.ImportFrom)
                    and lines[node.lineno - 1].endswith("# noqa: F401")):
                for alias in node.names:
                    name = alias.asname or alias.name
                    exported.append(name)
                    if name not in used | reached:
                        unreached.append(f"{path.name}: {name}")
    assert len(exported) > 5
    assert unreached == []

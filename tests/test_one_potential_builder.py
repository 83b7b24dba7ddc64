"""The package builds a run's potential in one place: only ``analysis.py``,
which defines it, and ``engine.py``, whose ``initial_potential`` serves the
run, its audit and ``ringform analyze``, name ``distance_report``."""

import ast

from test_one_round_driver import PACKAGE, names_in


def names_or_defines(path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return names_in(tree) | {node.name for node in ast.walk(tree)
                             if isinstance(node, ast.FunctionDef)}


def test_only_the_engine_builds_a_potential():
    named = {path.name for path in PACKAGE.glob("*.py")
             if "distance_report" in names_or_defines(path)}
    assert named == {"analysis.py", "engine.py"}

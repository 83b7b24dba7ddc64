"""The package has one round driver: only ``engine.py`` names ``step_round``,
the two-colour step's factory ``two_colour_step``, the run's step
``_window_step``, the round steps ``_two_colour_round`` and
``_q_colour_round`` or ``_left_blocks``, which lists a pairing's windows, so
no other module steps windows round by round or lists a pairing's windows."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ringform"
DRIVER_NAMES = {"step_round", "two_colour_step", "_window_step", "_left_blocks",
                "_two_colour_round", "_q_colour_round"}


def names_in(tree: ast.Module) -> set[str]:
    """The identifiers that a module names: as a variable, as an attribute,
    as an imported name or as a string."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_only_the_engine_names_the_round_driver_and_its_steps():
    named = {path.name: sorted(DRIVER_NAMES & names_in(ast.parse(path.read_text(encoding="utf-8"))))
             for path in PACKAGE.glob("*.py")}
    assert named.pop("engine.py") == sorted(DRIVER_NAMES)
    assert {module: found for module, found in named.items() if found} == {}

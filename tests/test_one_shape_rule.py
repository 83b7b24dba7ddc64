"""The package has one shape rule: only ``core.py`` raises an error that
words the ring's geometry (``_check_shape`` and ``colour_symbols``) or the
config's shape (``Configuration.from_string``), so the parser and the
generators pass on core's refusal rather than restate it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ringform"
SHAPE_WORDS = ("need at least two blocks", "block length must be positive",
               "need at least two colours", "colours supported", "config length",
               "outside colour alphabet")


def raised_words(tree: ast.Module) -> set[str]:
    """The shape words in the string constants and f-string parts of the
    module's ``raise`` statements."""
    return {word for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc
            for part in ast.walk(node.exc)
            if isinstance(part, ast.Constant) and isinstance(part.value, str)
            for word in SHAPE_WORDS if word in part.value}


def test_only_core_raises_the_shape_errors():
    raised = {path.name: sorted(raised_words(ast.parse(path.read_text(encoding="utf-8"))))
              for path in PACKAGE.glob("*.py")}
    assert raised.pop("core.py") == sorted(SHAPE_WORDS)
    assert {module: words for module, words in raised.items() if words} == {}

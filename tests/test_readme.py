"""Every ```python block of the README runs as it stands, and its round
record example is what the trace writer writes."""

import io
import re
from pathlib import Path

import pytest

from ringform import engine
from ringform.generators import gen_adversarial_half

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)


def test_the_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_the_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})


def test_the_readme_round_record_is_round_2_of_the_k8_half_and_half_trace():
    [example] = re.findall(r"^```json\n(.*?)\n^```$", TEXT, re.MULTILINE | re.DOTALL)
    buffer = io.StringIO()
    engine.write_trace(engine.run(gen_adversarial_half(8, 2)), buffer)
    assert example == buffer.getvalue().splitlines()[2]

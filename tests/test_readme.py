"""Every ```python block of the README runs as it stands, every ``ringform
gen`` line of its command-line block exits 0, its table of generator
parameters is the generators' signatures, and its round record example is
what the trace writer writes, packing the integers that the README states."""

import array
import base64
import inspect
import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from ringform import cli, engine
from ringform.generators import GENERATORS, gen_adversarial_half

from helpers import unpacked

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
[COMMANDS] = re.findall(r"^## Command line\n\n```sh\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
GEN_LINES = re.findall(r"^ringform (gen .*)$", COMMANDS, re.MULTILINE)


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


def test_the_readme_states_the_integers_that_its_round_record_packs():
    [example] = re.findall(r"^```json\n(.*?)\n^```$", TEXT, re.MULTILINE | re.DOTALL)
    record = json.loads(example)
    stated = {key: json.loads(ints) for key, ints in re.findall(
        r'its `"(moves|counts)"` is `(\[[-\d, ]*\])`', TEXT)}
    assert stated == {"moves": [8, 8, 6, 6, 6, 8], "counts": [4, 1, 1, 5, 1, 1]}
    [decode] = re.findall(r'^`(array\.array\("i", base64\.b64decode\(text\)\))`', TEXT,
                          re.MULTILINE)
    for key, ints in stated.items():
        assert unpacked(record[key]) == ints
        if sys.byteorder == "little":  # the README's one-line decode
            assert eval(decode, {"array": array, "base64": base64, "text": record[key]}) == \
                array.array("i", ints)


def test_the_readme_has_gen_commands():
    assert len(GEN_LINES) >= 3


@pytest.mark.parametrize("line", GEN_LINES)
def test_the_readme_gen_command_exits_0(line, tmp_path):
    argv = shlex.split(line)
    if "--out" in argv:
        at = argv.index("--out")
        del argv[at:at + 2]
    out = tmp_path / "instance.txt"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    assert out.read_text(encoding="utf-8")


def test_the_readme_table_of_gen_parameters_is_the_generators_signatures():
    rows = re.findall(r"^\| (\w+) \| `([\w ]+)` \|$", TEXT, re.MULTILINE)
    assert {kind: params.split() for kind, params in rows} == {
        kind: list(inspect.signature(fn).parameters) for kind, fn in GENERATORS.items()}

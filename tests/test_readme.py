"""The Python sessions in the README run as written, and its command lines parse."""

import re
import shlex
from pathlib import Path

import pytest

from kernelbridge import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text("utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)

# Every ``kernelbridge`` line of the ``sh`` blocks, continuations joined,
# as the arguments after the program name.
COMMAND_LINES = [
    shlex.split(line)[1:]
    for block in re.findall(r"^```sh\n(.*?)^```$", TEXT, re.M | re.S)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("kernelbridge ")
]


def test_the_readme_has_a_python_session():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_the_readme_shows_every_command():
    handlers = {name[len("_cmd_") :] for name in vars(cli) if name.startswith("_cmd_")}
    assert {argv[0] for argv in COMMAND_LINES} == handlers


@pytest.mark.parametrize("index", range(len(COMMAND_LINES)))
def test_readme_command_line_parses(index):
    cli._build_parser().parse_args(COMMAND_LINES[index])

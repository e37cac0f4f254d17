"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from numradius.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(after: str, lang: str) -> str:
    """The first fenced ``lang`` block following the line ``after``."""
    tail = README[README.index(after):]
    return re.search(rf"```{lang}\n(.*?)```", tail, re.S).group(1)


def test_library_use_block_runs():
    ns: dict = {}
    exec(_block("## Library use", "python"), ns)
    assert ns["rep"].orthogonal
    assert abs(ns["e"] - 2.0 / 3.0) < 1e-6


EXAMPLES = [
    line for line in _block("Examples:", "sh").splitlines() if line.startswith("numradius ")
]


@pytest.mark.parametrize("line", EXAMPLES)
def test_example_command_runs(line, capsys):
    argv = shlex.split(line, comments=True)[1:]
    if ">" in argv:  # output redirection: the test reads stdout instead
        argv = argv[: argv.index(">")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    expect = re.search(r"#\s*(epsilon-star: \S+)", line)
    if expect:
        assert expect.group(1) in out.splitlines()

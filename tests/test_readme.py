"""Every example in README.md runs: each `qbinomial ...` line of its sh blocks
exits 0 through cli.main, and its Python quick tour executes."""

import re
import shlex
from pathlib import Path

import pytest

from qbinomial.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


COMMANDS = [  # argv after "qbinomial", comments and line continuations removed
    shlex.split(line, comments=True)[1:]
    for block in blocks("sh")
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("qbinomial ")
]


def test_readme_has_examples():
    assert len(COMMANDS) >= 10
    assert blocks("python")


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_example_exits_0(capsys, argv):
    code = main(argv)
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("source", blocks("python"), ids=lambda s: "quick-tour")
def test_python_example_runs(source):
    exec(compile(source, "README.md", "exec"), {})

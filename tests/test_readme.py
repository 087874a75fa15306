"""Every example in README.md runs: each `qbinomial ...` line of its sh blocks
exits 0 through cli.main and writes the same document as CSV and as JSON, and
its Python quick tour executes."""

import csv
import io
import json
import math
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


# columns that hold one value for the whole document
CONSTANT_COLUMNS = {"limit": ("alpha", "sigma", "delta"), "converge": ("threshold", "verdict")}


def field_value(field: str, value):
    """The CSV field read as the JSON value's type."""
    return field if isinstance(value, str) else type(value)(field)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_csv_and_json_agree(capsys, argv):
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert main(["--format", "json", *argv]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    header, *lines = text.splitlines()
    rows = list(csv.reader(io.StringIO(text)))[1:]
    assert len(rows) == len(lines) == len(data) > 0
    for row, record in zip(rows, data):
        assert header.split(",") == list(record)
        for field, value in zip(row, record.values()):
            got = field_value(field, value)
            assert got == value or (math.isnan(got) and math.isnan(value))
    for name in CONSTANT_COLUMNS.get(argv[0], ()):
        assert len({record[name] for record in data}) == 1

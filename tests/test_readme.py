"""Every example in README.md runs: each `qbinomial ...` line of its sh blocks
exits 0 through cli.main and writes the same document as CSV and as JSON, and
its Python quick tour executes. Each `# columns:` comment is its command's CSV
header. Every name its Layout table gives exists."""

import csv
import importlib
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


def column_notes() -> list:
    """(argv or None, header) of each `# columns:` comment in the sh blocks: the command on
    its line, or else the line directly above, which must be a command."""
    notes, above = [], None
    for block in blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            command, _, header = line.partition("# columns:")
            argv = shlex.split(command)[1:] if command.startswith("qbinomial ") else None
            if header:
                notes.append((argv or above, header.strip()))
            above = argv
    return notes


COLUMN_NOTES = column_notes()


def test_every_converge_example_names_its_columns():
    noted = [argv for argv, _ in COLUMN_NOTES]
    assert all(argv in noted for argv in COMMANDS if argv[0] == "converge")


@pytest.mark.parametrize("argv, header", COLUMN_NOTES, ids=[h for _, h in COLUMN_NOTES])
def test_columns_comment_is_the_csv_header(capsys, argv, header):
    assert argv, f"'# columns: {header}' annotates no command"
    assert main(argv) == 0
    assert capsys.readouterr().out.split("\n", 1)[0] == header


def layout_rows() -> list:
    """(module, backticked Python identifiers) for each library row of the Layout table."""
    section = README.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = [re.match(r"\| `(qbinomial\.\w+)` \|(.*)\|$", line) for line in section.splitlines()]
    return [(m[1], re.findall(r"`([A-Za-z_]\w*)`", m[2])) for m in rows if m and m[1] != "qbinomial.cli"]


LAYOUT = layout_rows()


def test_layout_lists_every_layer():
    assert [module for module, _ in LAYOUT] == [
        "qbinomial.qcalc",
        "qbinomial.distributions",
        "qbinomial.asymptotics",
        "qbinomial.solvers",
        "qbinomial.metrics",
    ]


@pytest.mark.parametrize("module, names", LAYOUT, ids=[module for module, _ in LAYOUT])
def test_layout_names_resolve(module, names):
    # a name resolves as a module attribute or as an attribute of a class defined there
    mod = importlib.import_module(module)
    classes = [v for v in vars(mod).values() if isinstance(v, type) and v.__module__ == module]
    missing = [n for n in names if not hasattr(mod, n) and not any(hasattr(c, n) for c in classes)]
    assert names and not missing

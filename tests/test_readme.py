"""The README's examples run as written: its Python tour, then each ``jdisk``
line of its CLI block through ``cli.main``, every one exiting 0."""

import re
import shlex
from pathlib import Path

import pytest

from jdisk import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.S | re.M)
PYTHON = [body for lang, body in BLOCKS if lang == "python"]
COMMANDS = [shlex.split(line)[1:] for lang, body in BLOCKS if not lang
            for line in body.splitlines() if line.startswith("jdisk ")]


def test_readme_has_its_examples():
    assert len(PYTHON) == 1
    assert [argv[0] for argv in COMMANDS] == ["validate", "disk", "distance", "bound",
                                              "brody", "selftest"]


def test_readme_library_tour_runs(capsys):
    exec(compile(PYTHON[0], "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_readme_cli_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out

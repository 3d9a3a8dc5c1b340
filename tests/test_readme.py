"""The examples in README.md run as written."""

import re
import shlex
from pathlib import Path

import pytest

from layerfem.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"```(\w*)\n(.*?)```", README, re.S)
CLI_LINES = [
    shlex.split(line)[1:]
    for lang, body in BLOCKS
    if lang == "sh"
    for line in body.splitlines()
    if line.startswith("layerfem ")
]
CONFIG = next(body for lang, body in BLOCKS if lang == "" and "mesh-type=" in body)
LIBRARY = next(body for lang, body in BLOCKS if lang == "python")


def test_readme_has_the_examples():
    assert [argv[0] for argv in CLI_LINES] == ["mesh", "solve", "study", "verify"]


@pytest.mark.parametrize("argv", CLI_LINES, ids=[argv[0] for argv in CLI_LINES])
def test_cli_example(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0


def test_config_example(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.cfg").write_text(CONFIG)
    assert main(["study", "--config", "sweep.cfg"]) == 0
    assert capsys.readouterr().out.startswith("family,k,sigma,N,epsilon,")


def test_library_example(capsys):
    exec(LIBRARY, {})
    assert float(capsys.readouterr().out) == pytest.approx(1.6e-3, rel=0.01)

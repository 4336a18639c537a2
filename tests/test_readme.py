"""Every ``distqc`` command in the README's usage block runs and exits 0, and
every ``python`` block runs without an error."""

import re
import shlex
from pathlib import Path

import pytest

from distqc.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    text = README.read_text().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("distqc ")]


def test_readme_has_a_usage_block():
    assert len(readme_commands()) >= 8


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_exits_zero(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out


def readme_python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_a_library_example():
    assert readme_python_blocks()


@pytest.mark.parametrize("code", readme_python_blocks())
def test_readme_python_block_runs(capsys, code):
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out

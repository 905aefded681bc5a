import doctest
import re
import shlex
from pathlib import Path

import pytest

from boolbruhat.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def command_line_block() -> list[str]:
    """The commands of the README's "## Command line" example block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S)[1]
    return [line.split("#", 1)[0].strip() for line in block.splitlines() if line.strip()]


def test_readme_has_a_command_line_block():
    commands = command_line_block()
    assert len(commands) >= 10
    assert all(command.startswith("boolbruhat ") for command in commands)


@pytest.mark.parametrize("command", command_line_block())
def test_readme_command_runs(capsys, command):
    argv = shlex.split(command)[1:]
    assert main(argv) == 0, command
    assert capsys.readouterr().out


def test_readme_python_example_passes_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 3
    assert result.failed == 0

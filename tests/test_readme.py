"""The README's examples run as written."""

import shlex
from pathlib import Path

import pytest

from slsolve import parse_problem_config
from slsolve.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block(heading, lang=""):
    """The first fenced block after the line ``heading``."""
    rest = README[README.index("\n" + heading + "\n"):]
    start = rest.index("```" + lang + "\n") + len("```" + lang + "\n")
    return rest[start:rest.index("```", start)]


def commands():
    text = block("## Command line", "sh").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("slsolve ")]


@pytest.mark.parametrize("argv", commands(), ids=lambda argv: argv[1])
def test_command_line_example(tmp_path, argv):
    i = argv.index("--output")
    argv[i + 1] = str(tmp_path / argv[i + 1])
    assert main(argv) == 0


def test_config_file_example():
    problem = parse_problem_config(block("### Problem config files"))
    assert problem.name == "radial-well"
    assert problem.de_profile is not None and problem.se_profile is not None


def test_library_example(capsys):
    code = block("## Library", "python")
    expected = next(line for line in code.splitlines() if line.startswith("print("))
    exec(code, {})
    assert capsys.readouterr().out.strip() == expected.split("#", 1)[1].strip()

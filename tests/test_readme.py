"""The README's examples run as written, and what it states about them holds."""

import ast
import re
import shlex
from pathlib import Path

import pytest

import slsolve
from slsolve.eigensolve import WARM_MIN_SIZE, WARM_MIN_SIZE_ONE
from slsolve.problems import FUNCTIONS
from slsolve.meshing import MAX_SIZE
from slsolve import convergence_study, parse_problem_config
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


@pytest.mark.parametrize("balanced", [False, True], ids=["de", "de-balanced"])
def test_config_file_example_closed_form(balanced):
    # q = (a^2-1/4)/x^2 + x^2/16 is the Laguerre operator without its
    # constant -(a+1)/2, so lambda_k = k - 1 + (a+1)/2: 1.75, 2.75, 3.75.
    text = block("### Problem config files")
    assert "param a = 2.5" in text
    records = convergence_study(parse_problem_config(text), "de", [40], (1, 2, 3),
                                balanced=balanced)
    assert [r.eig_index for r in records] == [1, 2, 3]
    for r in records:
        assert abs(r.mu - (r.eig_index - 1 + 3.5 / 2)) <= 1e-12


def test_library_example(capsys):
    code = block("## Library", "python")
    expected = next(line for line in code.splitlines() if line.startswith("print("))
    exec(code, {})
    assert capsys.readouterr().out.strip() == expected.split("#", 1)[1].strip()


def test_library_names_are_the_exports():
    # The README's table of exports, by layer, is slsolve.__all__ exactly,
    # and each name sits in the row of the module that defines it.
    table = README.split("\n| layer | names |\n", 1)[1].split("\n\n", 1)[0]
    listed = {(layer.strip(" `"), name.strip(" `"))
              for _, layer, names, _ in (line.split("|") for line in table.splitlines()[1:])
              for name in names.split(",")}
    assert {name for _, name in listed} == set(slsolve.__all__)
    assert [(layer, name) for layer, name in sorted(listed)
            if getattr(slsolve, name).__module__ != "slsolve." + layer] == []


def test_expression_functions_are_the_compiler_table():
    # The README's list "sin, ..., abs." is problems.FUNCTIONS, in order.
    text = " ".join(README.split())
    listed = text[text.index("sin, cos,"):].split(".", 1)[0]
    assert [name.strip() for name in listed.split(",")] == list(FUNCTIONS)


def imported_modules(source):
    """The package modules a module imports; "__init__" stands for the package itself."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("slsolve." if node.level else "") + (node.module or "")
            paths = [base] if node.module else [base + alias.name for alias in node.names]
        else:
            continue
        for path in paths:
            package, _, module = path.partition(".")
            if package == "slsolve":
                yield module.partition(".")[0] or "__init__"


def test_modules_import_in_the_stated_direction():
    # "`meshing` → {`problems`, `eigensolve`} → `study` → `cli`": each module
    # imports only modules of a lower rank, and the package's own
    # __init__ is imported by none of them.
    order = re.search(r"`meshing` → .* → `cli`", " ".join(README.split())).group(0)
    rank = {name: i for i, part in enumerate(order.split(" → "))
            for name in re.findall(r"`(\w+)`", part)}
    rank["__init__"] = len(rank)
    package = Path(slsolve.__file__).parent
    assert {path.stem for path in package.glob("*.py")} == set(rank)
    # A name that is not a module, as in "from . import builtin", is the package.
    upward = [(name, imported) for name in rank if name != "__init__"
              for imported in imported_modules((package / f"{name}.py").read_text())
              if rank.get(imported, rank["__init__"]) >= rank[name]]
    assert upward == []


def test_each_test_module_is_named_after_a_source_module():
    # "each `tests/test_<name>.py` tests `slsolve.<name>`, and each module
    # has its file", but for the cross-cutting files the README names.
    text = " ".join(README.split())
    exempt = set(re.findall(r"`(test_\w+)`", text.split("files are exempt: ", 1)[1].split(".")[0]))
    tests = {path.stem for path in Path(__file__).parent.glob("test_*.py")}
    modules = {path.stem for path in Path(slsolve.__file__).parent.glob("*.py")} - {"__init__"}
    assert exempt <= tests
    assert tests - exempt == {f"test_{name}" for name in modules}


def test_size_budget_is_the_meshing_constant():
    # The command-line and config sections state the budget; each is MAX_SIZE.
    stated = re.findall(r"at most (\d+)\s+\(`meshing\.MAX_SIZE`\)", README)
    assert len(stated) == 2 and {int(size) for size in stated} == {MAX_SIZE}


def test_warm_sizes_are_the_eigensolve_constants():
    # The numerical notes state the warm sizes, for one eigenvalue and for more.
    stated = re.findall(r"size (\d+) or more\s+\(`eigensolve\.(\w+)`\)", README)
    assert {name: int(size) for size, name in stated} == {
        "WARM_MIN_SIZE_ONE": WARM_MIN_SIZE_ONE, "WARM_MIN_SIZE": WARM_MIN_SIZE}

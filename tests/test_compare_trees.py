"""``tools/compare_trees.py`` finds a tree identical to itself, and finds a change."""

import ast
import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_trees",
                                                  ROOT / "tools" / "compare_trees.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def parent_run(tool):
    """The unmutated tree's run at n_max = 6, which every mutated copy is compared against."""
    return tool.run_child(ROOT, 6, tool.readme_config(ROOT))


def compare_with_parent(tool, parent_run, change):
    """``compare_trees(ROOT, change, n_max=6)``, reusing the parent's run."""
    return tool.compare_runs(parent_run, tool.run_child(change, 6, tool.readme_config(change)))


def mutated_copy(tmp_path, module, old, new):
    """A tree at ``tmp_path`` whose ``slsolve.<module>`` has its one ``old`` replaced by ``new``."""
    shutil.copytree(ROOT / "src" / "slsolve", tmp_path / "src" / "slsolve",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "README.md", tmp_path)
    source = tmp_path / "src" / "slsolve" / f"{module}.py"
    text = source.read_text()
    assert text.count(old) == 1
    source.write_text(text.replace(old, new))
    return tmp_path


def test_tree_against_itself_is_identical(tool):
    assert tool.compare_trees(ROOT, ROOT, n_max=12) == []


@pytest.mark.parametrize("old,new,first", [
    # The last bit of every eigenvalue: each series differs at its first record.
    ("mu = float(spectrum.eigenvalues[i - 1])",
     "mu = float(spectrum.eigenvalues[i - 1]) * (1.0 + 2.0**-52)", "outcome 0 differs"),
    # The same records, written with the wrong level.
    ("r.problem, r.n, r.M", "r.problem, r.n + 1, r.M", "emit_csv differs from line 2"),
], ids=["records", "csv"])
def test_a_changed_tree_differs_in_every_series(tool, parent_run, tmp_path, old, new, first):
    lines = compare_with_parent(tool, parent_run, mutated_copy(tmp_path, "study", old, new))
    study = [line for line in lines if not line.startswith("cli ")]
    assert len(study) == 24 and all(first in line for line in study)
    # Four problems by four modes by two indices: each command that writes
    # records writes the changed ones; the seven refusals write none.
    assert len(lines) - len(study) == 32


def test_a_changed_command_line_is_named_by_its_cli_series_only(tool, parent_run, tmp_path):
    change = mutated_copy(tmp_path, "cli", "wrote {len(records)} records",
                          "wrote {len(records)} rows")
    lines = compare_with_parent(tool, parent_run, change)
    assert len(lines) == 32
    for line in lines:
        name, before, after = line.split("\n")
        assert name.startswith("cli --problem ") and "differs" in name
        assert before.startswith("  parent stdout: wrote ") and before.endswith(" records to out.csv")
        assert after == before.replace("parent", "change").replace("records", "rows")


def test_a_changed_assembly_is_named_by_its_series_and_level(tool, parent_run, tmp_path):
    # Multiplying by the rounded -1/h^2 instead of dividing by -h^2 moves
    # last bits of A, and only of A.
    change = mutated_copy(tmp_path, "eigensolve", "A /= -(h * h)", "A *= -1.0 / (h * h)")
    lines = compare_with_parent(tool, parent_run, change)
    # Four problems by three methods, each at a level it names: [n, matrix, weights].
    sides = [[ast.literal_eval(side.split(None, 1)[1]) for side in line.split("\n")[1:]]
             for line in lines if "/assemble: outcome " in line]
    assert len(sides) == 12
    assert all(p[0] == c[0] and p[1] != c[1] and p[2] == c[2] for p, c in sides), sides

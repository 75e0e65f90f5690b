"""``tools/compare_trees.py`` finds a tree identical to itself, and finds a change."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_trees",
                                                  ROOT / "tools" / "compare_trees.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tree_against_itself_is_identical():
    assert load_tool().compare_trees(ROOT, ROOT, n_max=12) == []


@pytest.mark.parametrize("old,new,first", [
    # The last bit of every eigenvalue: each series differs at its first record.
    ("mu = float(spectrum.eigenvalues[i - 1])",
     "mu = float(spectrum.eigenvalues[i - 1]) * (1.0 + 2.0**-52)", "outcome 0 differs"),
    # The same records, written with the wrong level.
    ("r.problem, r.n, r.M", "r.problem, r.n + 1, r.M", "emit_csv differs from line 2"),
], ids=["records", "csv"])
def test_a_changed_tree_differs_in_every_series(tmp_path, old, new, first):
    shutil.copytree(ROOT / "src" / "slsolve", tmp_path / "src" / "slsolve",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "README.md", tmp_path)
    study = tmp_path / "src" / "slsolve" / "study.py"
    text = study.read_text()
    assert text.count(old) == 1
    study.write_text(text.replace(old, new))
    lines = load_tool().compare_trees(ROOT, tmp_path, n_max=6)
    assert len(lines) == 24 and all(first in line for line in lines)

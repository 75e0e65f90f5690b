"""The names the benchmark's tracer patches and reads still exist and are hit,
and every package name its workloads call still exists.

``bench/tracing.py`` records per-layer spans by wrapping names inside the
package; a rename there breaks traced benchmark runs without breaking any
library test.  This runs its ``install`` around one short study.
"""

import ast
import importlib.util
from pathlib import Path

from slsolve import builtin
from slsolve import study

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"

SPANS = ("problems.transform", "problems.q_rho", "maps.coeff", "meshing.mesh",
         "eigensolve.assemble", "sinc.diff_matrix", "eigensolve.solve")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_study_records_every_layer_span():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        records = study.convergence_study(builtin("bessel", n=7), "de", range(2, 6))
    finally:
        undo()
    assert len(records) == 4
    assert [name for name in SPANS if tracer.calls[name] == 0] == []
    # A study evaluates its coefficients twice, on the nodes of each half
    # of its levels.
    assert tracer.count["maps.points"] == 2
    # undone: the package's own functions are back in place
    assert not hasattr(study.assemble, "__wrapped__")


def test_workload_calls_exist():
    # The benchmark's passes call module attributes such as study.emit_csv;
    # its smoke test is too slow for this suite, so check the names here.
    tree = ast.parse((BENCH / "workloads.py").read_text())
    modules = ("eigensolve", "meshing", "problems", "study")
    names = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert {module for module, _ in names} == set(modules)
    missing = [f"{module}.{attr}" for module, attr in sorted(names)
               if not hasattr(importlib.import_module("slsolve." + module), attr)]
    assert missing == []

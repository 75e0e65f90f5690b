"""The names the benchmark's tracer patches and reads still exist and are hit.

``bench/tracing.py`` records per-layer spans by wrapping names inside the
package; a rename there breaks traced benchmark runs without breaking any
library test.  This runs its ``install`` around one short study.
"""

import importlib.util
from pathlib import Path

from slsolve import builtin
from slsolve import study

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

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
    assert tracer.count["maps.points"] == 4
    # undone: the package's own functions are back in place
    assert not hasattr(study.assemble, "__wrapped__")

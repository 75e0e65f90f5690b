"""Fresh-interpreter set-up probe started by run.py.

    python3 bench/child.py setup WORKLOAD SEED

Imports slsolve (``slsolve.cli`` for config-compare, which runs the
command) and builds
the workload's problems, then prints one JSON line with the import and
build times and the BLAS threads in effect.  Expects ``src`` on
PYTHONPATH.
"""

import importlib
import json
import sys
from time import perf_counter

import envinfo


def setup(workload, seed):
    start = perf_counter()
    importlib.import_module("slsolve.cli" if workload == "config-compare" else "slsolve")
    imported = perf_counter()
    import workloads
    workloads.WORKLOADS[workload](seed).build()
    built = perf_counter()
    print(json.dumps({"import_s": imported - start, "build_s": built - imported,
                      "blas_threads": envinfo.blas_threads()}))
    return 0


if __name__ == "__main__":
    sys.exit(setup(sys.argv[2], int(sys.argv[3])))

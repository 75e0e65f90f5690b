"""Layer spans recorded from outside the package, by wrapping its names.

A span is opened around each call into a layer: the functions that
``slsolve.study`` and ``slsolve.cli`` import by name, the module
attributes the benchmark itself calls, and the coefficient callables of
each ``TransformedProblem``.  Spans nest on a stack, so each one knows
the span that caused it; when a span closes, its duration is added to
its name's total and to its parent's child time, and the difference is
the span's self time.  Spans are aggregated by name as they close (the
per-point spans number in the millions per run), and read out as
per-pass differences of those totals.

This module imports only the standard library, so a child process can
load it before timing ``import slsolve``.
"""

import dataclasses
import importlib
from collections import defaultdict
from time import perf_counter


# Names replaced in each slsolve module: those ``study`` and ``cli`` import,
# and the module attributes the benchmark's own passes call.
PATCHED_NAMES = {
    "study": ("transformed", "assemble", "solve_generalized", "se_mesh", "de_mesh",
              "de_mesh_symmetric", "convergence_study", "compare_methods",
              "rate_fit", "emit_csv"),
    "cli": ("main", "convergence_study", "compare_methods", "rate_fit", "emit_csv"),
    "eigensolve": ("assemble", "solve_generalized", "diff_matrix"),
    "meshing": ("se_mesh", "de_mesh", "de_mesh_symmetric"),
    "problems": ("transformed",),
}

ERROR_TYPES = ("AssemblyError", "DefinitenessError", "SolverError")


class Tracer:
    """Per-name span totals, self times and counters of one process."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self._stack = []  # [name, start, child seconds]
        self._open = defaultdict(int)  # spans of each name now open

    def open(self, name):
        self._open[name] += 1
        self._stack.append([name, perf_counter(), 0.0])

    def close(self):
        name, start, child = self._stack.pop()
        elapsed = perf_counter() - start
        self._open[name] -= 1
        # A span inside one of its own name (de_mesh_symmetric calling
        # de_mesh, compare_methods calling convergence_study) adds self
        # time only, so totals and calls are not counted twice.
        if not self._open[name]:
            self.total[name] += elapsed
            self.calls[name] += 1
        self.self_time[name] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    def wrap(self, name, fn, before=None, after=None, count_errors=False):
        """``fn`` with a span named ``name`` around every call.

        ``before(*args)`` and ``after(result, *args)`` add to the counters
        around the span; with ``count_errors``, an exception is counted
        under its type and re-raised.
        """
        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if count_errors:
                    self.count[error_name(exc)] += 1
                raise
            finally:
                self.close()
            if after is not None:
                after(result, *args)
            return result
        traced.__wrapped__ = fn
        return traced

    def snapshot(self):
        """Plain copies of every total, for per-pass differences."""
        return {"total": dict(self.total), "self": dict(self.self_time),
                "calls": dict(self.calls), "count": dict(self.count)}


def delta(after, before):
    """Per-field differences of two snapshots (names absent before count as 0)."""
    return {field: {k: v - before[field].get(k, 0) for k, v in values.items()}
            for field, values in after.items()}


def install(tracer):
    """Wrap the package's layer boundaries in spans; returns an undo callable."""
    modules = {name: importlib.import_module("slsolve." + name) for name in PATCHED_NAMES}
    grade_limit = modules["eigensolve"].GRADE_LIMIT
    originals = []

    def patch(module, attr, replacement):
        originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    count = tracer.count

    def traced_transformed(real):
        def transformed(problem, method):
            wrapped = dataclasses.replace(problem, q=tracer.wrap("problems.q_rho", problem.q),
                                          rho=tracer.wrap("problems.q_rho", problem.rho))
            tp = real(wrapped, method)
            return dataclasses.replace(
                tp, weight=tracer.wrap("maps.coeff", tp.weight),
                qtilde=tracer.wrap("maps.coeff", tp.qtilde, before=count_point))
        return tracer.wrap("problems.transform", transformed)

    def count_point(t):
        count["maps.points"] += 1

    def count_solve(spectrum, system, *args):
        w = system.weights
        count["eigensolve.size3_sum"] += system.size ** 3
        count["eigensolve.inverted"] += int(w.max() > grade_limit * w.min())

    def count_entries(order, M, N):
        count["sinc.entries"] += (M + N + 1) ** 2

    def count_records(records, destination):
        count["study.records"] += len(records)

    wrappers = {
        "transformed": traced_transformed,
        "assemble": lambda fn: tracer.wrap("eigensolve.assemble", fn, count_errors=True),
        "solve_generalized": lambda fn: tracer.wrap("eigensolve.solve", fn, after=count_solve,
                                                    count_errors=True),
        "diff_matrix": lambda fn: tracer.wrap("sinc.diff_matrix", fn, before=count_entries),
        "emit_csv": lambda fn: tracer.wrap("study.emit_csv", fn, before=count_records),
        "se_mesh": lambda fn: tracer.wrap("meshing.mesh", fn),
        "de_mesh": lambda fn: tracer.wrap("meshing.mesh", fn),
        "de_mesh_symmetric": lambda fn: tracer.wrap("meshing.mesh", fn),
        "convergence_study": lambda fn: tracer.wrap("study.study", fn),
        "compare_methods": lambda fn: tracer.wrap("study.study", fn),
        "rate_fit": lambda fn: tracer.wrap("study.rate_fit", fn),
        "main": lambda fn: tracer.wrap("cli.main", fn),
    }
    for module_name, attrs in PATCHED_NAMES.items():
        for attr in attrs:
            module = modules[module_name]
            patch(module, attr, wrappers[attr](getattr(module, attr)))

    def undo():
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)
    return undo


def error_name(exc):
    name = type(exc).__name__
    return "eigensolve.errors." + (name if name in ERROR_TYPES else "other")

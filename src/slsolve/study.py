"""Convergence studies, rate fitting, and CSV emission."""

import bisect
import csv
import itertools
import math
import time
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence

import numpy as np

from .eigensolve import assemble, solve_generalized
from .meshing import MAX_SIZE, TransformedProblem, de_mesh, de_mesh_symmetric, se_mesh
from .problems import SturmLiouvilleProblem, reference_eigenvalue, transformed

# Errors at or below this, relative to max(1, |mu|), are double-precision
# plateau noise and carry no rate information.
PLATEAU_FLOOR = 1e-13

class StudyError(RuntimeError):
    """An assembly or solver failure, annotated with its study context."""

    def __init__(self, problem: str, method: str, n: int, cause: Exception):
        super().__init__(f"problem={problem!r} method={method!r} n={n}: {cause}")
        self.problem = problem
        self.method = method
        self.n = n


class InsufficientDataError(ValueError):
    """Too few usable records to fit a convergence rate."""


@dataclass(frozen=True)
class StudyRecord:
    """One solve of one eigenvalue index at one mesh refinement level.

    Exactly one of abs_error / succ_error is populated, depending on
    whether a reference eigenvalue exists; the first record of a
    reference-free study has neither.  The fields, in order, are the CSV
    columns.
    """

    method: str
    problem: str
    n: int
    M: int
    N: int
    h: float
    size: int
    eig_index: int
    mu: float
    abs_error: Optional[float]
    succ_error: Optional[float]
    runtime_ms: float

    def error(self) -> Optional[float]:
        return self.abs_error if self.abs_error is not None else self.succ_error


CSV_HEADER = tuple(field.name for field in fields(StudyRecord))


def convergence_study(problem: SturmLiouvilleProblem, method: str,
                      n_range: Iterable[int], eig_indices: Sequence[int] = (1,),
                      balanced: bool = False) -> list:
    """Run one method over ascending mesh levels and collect records.

    ``method`` is "se" or "de"; ``balanced`` selects the unequal-tail DE
    truncation (a ValueError for SE).  For each level the eig_index-th smallest
    generalized eigenvalue is extracted, and only the lowest
    max(eig_indices) are computed; the error column is absolute when the
    problem has a reference eigenvalue and successive-difference (against
    the previous level in the grid) otherwise.

    The study runs in three steps.  It plans: every level's mesh is built
    and checked against the highest index before anything is evaluated,
    so a level that cannot mesh, is over the size budget
    ``meshing.MAX_SIZE``, is too small or is smaller than the highest
    index raises before any solve, a ValueError that names the level as a
    StudyError does.  A range that runs past the budget, however far, is
    refused at once at the first level over it.  It evaluates the
    transformed coefficient and weight twice each: on the nodes of the
    first half of the levels (each mesh's ``nodes`` in a row), inside the
    first level's timed window, and on those of the second half, inside
    the timed window of the first level of that half.  Then it assembles
    and solves level by level, each level reading its own slice of its
    half's evaluation.  When the evaluation of a half raises, each of its
    levels evaluates its own nodes instead, so the failing level raises
    the StudyError it raises on its own, after the levels before it have
    solved.

    From the third level on, each solve is warm-started from the previous
    level's eigenvalues and how far they moved (``near`` of
    ``solve_generalized``), which spares pencils their dense solve once
    the series has converged: from size ``eigensolve.WARM_MIN_SIZE_ONE``
    when the study reads one eigenvalue, from ``WARM_MIN_SIZE`` otherwise.
    """
    return _run(_plan(problem, method, n_range, eig_indices, balanced))


@dataclass(frozen=True)
class _Plan:
    """One study's levels, meshed and index-checked, before any evaluation."""

    problem: SturmLiouvilleProblem
    method: str
    eig_indices: Sequence[int]
    tp: TransformedProblem
    refs: dict
    ns: list
    meshes: list


def _integers(values, what) -> list:
    """``values`` as a list of ints; a value that is not an integer is a ValueError."""
    values = list(values)
    for v in values:
        if not isinstance(v, (int, np.integer)):
            raise ValueError(f"{what} must be integers, got {v!r}")
    return [int(v) for v in values]


def _levels(n_range) -> list:
    """``n_range``'s distinct levels, ascending, up to the first one >= MAX_SIZE.

    Level n has M or N equal to n, so no level n >= MAX_SIZE meshes: the
    plan refuses the first of them, and never reaches those after it.  A
    ``range`` is cut before it is listed, so one of any length is refused
    at once.
    """
    if isinstance(n_range, range):
        if n_range.step < 0:
            n_range = n_range[::-1]
        start, step = n_range.start, n_range.step
        n_range = range(start, min(n_range.stop, max(start, MAX_SIZE) + step), step)
    ns = sorted(set(_integers(n_range, "refinement levels")))
    return ns[:bisect.bisect_left(ns, MAX_SIZE) + 1]


def _plan(problem, method, n_range, eig_indices, balanced) -> _Plan:
    ns = _levels(n_range)
    if not ns:
        raise ValueError("empty refinement range")
    indices = _integers(eig_indices or (), "eigenvalue indices")
    if not indices or any(i < 1 for i in indices):
        raise ValueError(f"eigenvalue indices must be a nonempty list of values >= 1, "
                         f"got {eig_indices!r}")
    if balanced and method == "se":
        raise ValueError("balanced truncation applies only to the DE method")
    count = max(indices)
    tp = transformed(problem, method)
    profile = problem.se_profile if method == "se" else problem.de_profile
    mesh_for = se_mesh if method == "se" else de_mesh if balanced else de_mesh_symmetric
    meshes = []
    for n in ns:
        try:
            mesh = mesh_for(profile, n)
        except ValueError as exc:
            raise ValueError(f"problem={problem.name!r} method={method!r} n={n}: {exc}") from exc
        if count > mesh.size:
            raise ValueError(f"problem={problem.name!r} method={method!r} n={n}: "
                             f"eigenvalue index {count} exceeds matrix dimension {mesh.size}")
        meshes.append(mesh)
    # Only once every index fits the meshes: a reference's cost grows with its index.
    refs = {i: reference_eigenvalue(problem, i) for i in indices}
    return _Plan(problem, method, tuple(indices), tp, refs, ns, meshes)


def _level_problems(tp: TransformedProblem, meshes):
    """Each mesh's TransformedProblem in turn, served from two evaluations of ``tp``.

    The meshes fall into two batches: the first ceil(L/2) of the L
    levels, and the rest (none when L = 1).  ``tp.qtilde`` and
    ``tp.weight`` are called once each per batch, on the nodes of its
    meshes in a row, when the batch's first level is asked for.  The DE
    series of the builtins reach 1e-10 within their first half, whose
    pencils are the smaller ones, so the levels up to that point no longer
    carry the evaluation of the larger levels after it.  The calls act on
    each node alone, so the slice a level returns is bitwise what its own
    nodes give.  If either call raises, each level of that batch gets
    ``tp`` itself and evaluates its own nodes, so the level that fails
    raises its own error.
    """
    half = (len(meshes) + 1) // 2
    for batch in (meshes[:half], meshes[half:]):
        if not batch:
            continue
        t = np.concatenate([mesh.nodes for mesh in batch])
        try:
            qvals, wvals = tp.qtilde(t), tp.weight(t)
        except Exception:
            yield from itertools.repeat(tp, len(batch))
            continue
        start = 0
        for mesh in batch:
            level = slice(start, start + mesh.size)
            start += mesh.size
            yield TransformedProblem(qtilde=lambda _, q=qvals[level]: q,
                                     weight=lambda _, w=wvals[level]: w)


def _run(plan: _Plan) -> list:
    problem, method, eig_indices = plan.problem, plan.method, plan.eig_indices
    count = max(eig_indices)
    records = []
    # The last level's lowest `count` eigenvalues give successive
    # differences; with how far they moved from the level before, they
    # warm-start the solve from the third level on.
    last = near = None
    # The first level of each half's time includes that half's evaluation.
    start = time.perf_counter()
    for n, mesh, tp in zip(plan.ns, plan.meshes, _level_problems(plan.tp, plan.meshes)):
        try:
            system = assemble(tp, mesh)
            spectrum = solve_generalized(system, count=count, near=near)
        except Exception as exc:
            raise StudyError(problem.name, method, n, exc) from exc
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        for i in eig_indices:
            mu = float(spectrum.eigenvalues[i - 1])
            ref = plan.refs[i]
            abs_error = abs(mu - ref) if ref is not None else None
            succ_error = None
            if ref is None and last is not None:
                succ_error = abs(mu - float(last[i - 1]))
            records.append(StudyRecord(
                method=method, problem=problem.name, n=n, M=mesh.M, N=mesh.N,
                h=mesh.h, size=mesh.size, eig_index=i, mu=mu,
                abs_error=abs_error, succ_error=succ_error, runtime_ms=elapsed_ms,
            ))
        if last is not None:
            near = (spectrum.eigenvalues, np.abs(spectrum.eigenvalues - last))
        last = spectrum.eigenvalues
        start = time.perf_counter()
    return records


def compare_methods(problem: SturmLiouvilleProblem, n_range: Iterable[int],
                    eig_index: int = 1,
                    adapted: Optional[SturmLiouvilleProblem] = None) -> dict:
    """Run every applicable method variant on one problem.

    Returns an ordered mapping of series label to records:

    * "se" when the problem declares SE data,
    * "de" (symmetric truncation),
    * "de-balanced" when the DE tails are unequal,
    * "de-adapted" for an optional rescaled-map companion problem.

    Every series is planned, as ``convergence_study`` plans, before any
    of them is solved, so a series that cannot mesh costs no solve.
    """
    ns = _levels(n_range)
    # (label, problem, method, balanced) of each applicable series, all
    # known before any of them runs.
    runs = []
    if problem.se_profile is not None:
        runs.append(("se", problem, "se", False))
    profile = problem.de_profile
    if profile is not None:
        runs.append(("de", problem, "de", False))
        if (profile.beta_left != profile.beta_right
                or profile.gamma_left != profile.gamma_right):
            runs.append(("de-balanced", problem, "de", True))
    if adapted is not None:
        runs.append(("de-adapted", adapted, "de", False))
    if len(runs) < 2:
        raise ValueError(
            f"problem {problem.name!r} declares only one method; nothing to compare"
        )
    plans = [(label, _plan(p, method, ns, (eig_index,), balanced))
             for label, p, method, balanced in runs]
    return {label: _run(plan) for label, plan in plans}


def rate_fit(records: Sequence[StudyRecord]):
    """Least-squares slope of log(error) against n / log(n).

    Returns (kappa_hat, r_squared) with kappa_hat = -slope.  Only the
    pre-plateau region is fitted: the record sequence is cut at the first
    error at or below PLATEAU_FLOOR * max(1, |mu|) (later records are
    rounding noise, whether above or below the floor), and n < 3 is
    excluded since n/log(n) is not monotone there (n = 2 and n = 4 share
    the abscissa 2/log 2).  The records must be one series: two records
    for one level, as a study of several eigenvalue indices gives, are a
    ValueError that names the level.
    """
    levels = set()
    for r in records:
        if r.n in levels:
            raise ValueError(f"rate fit takes one series, but level n={r.n} has two records")
        levels.add(r.n)
    ordered = sorted((r for r in records if r.error() is not None), key=lambda r: r.n)
    cut = len(ordered)
    for idx, r in enumerate(ordered):
        e = r.error()
        if not math.isfinite(e) or e <= PLATEAU_FLOOR * max(1.0, abs(r.mu)):
            cut = idx
            break
    usable = [(r.n, r.error()) for r in ordered[:cut] if r.n >= 3 and r.error() > 0.0]
    if len(usable) < 5:
        raise InsufficientDataError(
            f"rate fit needs at least 5 pre-plateau records, got {len(usable)}"
        )
    x = np.array([n / math.log(n) for n, _ in usable])
    y = np.array([math.log(e) for _, e in usable])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum((y - fitted) ** 2))
    r_squared = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return -float(slope), r_squared


def _g17(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.17g}"


def emit_csv(records: Sequence[StudyRecord], handle) -> None:
    """Write records in input order to an open text handle.

    Floats carry 17 significant digits, so every field reads back exactly;
    a missing error is an empty field.  Open a file with ``newline=""``:
    the csv module writes its own line ends, and quotes the fields.
    """
    writer = csv.writer(handle)
    writer.writerow(CSV_HEADER)
    # The csv module writes str and int fields as str() does.
    writer.writerows((r.method, r.problem, r.n, r.M, r.N, f"{r.h:.17g}", r.size, r.eig_index,
                      f"{r.mu:.17g}", _g17(r.abs_error), _g17(r.succ_error),
                      f"{r.runtime_ms:.17g}") for r in records)

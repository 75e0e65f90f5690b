"""Convergence studies, rate fitting, and CSV emission."""

import csv
import math
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .eigensolve import assemble, solve_generalized
from .meshing import de_mesh, de_mesh_symmetric, se_mesh
from .problems import SturmLiouvilleProblem, reference_eigenvalue, transformed

# Errors at or below this, relative to max(1, |mu|), are double-precision
# plateau noise and carry no rate information.
PLATEAU_FLOOR = 1e-13

CSV_HEADER = ("method", "problem", "n", "M", "N", "h", "size",
              "eig_index", "mu", "abs_error", "succ_error", "runtime_ms")


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
    reference-free study has neither.
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


def convergence_study(problem: SturmLiouvilleProblem, method: str,
                      n_range: Iterable[int], eig_indices: Sequence[int] = (1,),
                      balanced: bool = False) -> list:
    """Run one method over ascending mesh levels and collect records.

    ``method`` is "se" or "de"; ``balanced`` selects the unequal-tail DE
    truncation (ignored for SE).  For each level the eig_index-th smallest
    generalized eigenvalue is extracted, and only the lowest
    max(eig_indices) are computed; the error column is absolute when the
    problem has a reference eigenvalue and successive-difference (against
    the previous level in the grid) otherwise.
    """
    ns = sorted(set(int(n) for n in n_range))
    if not ns:
        raise ValueError("empty refinement range")
    if not eig_indices or any(i < 1 for i in eig_indices):
        raise ValueError(f"eigenvalue indices must be a nonempty list of values >= 1, "
                         f"got {eig_indices!r}")
    count = max(eig_indices)
    tp = transformed(problem, method)
    records = []
    previous = {}
    for n in ns:
        if method == "se":
            mesh = se_mesh(problem.se_profile, n)
        elif balanced:
            mesh = de_mesh(problem.de_profile, n)
        else:
            mesh = de_mesh_symmetric(problem.de_profile, n)
        if count > mesh.size:
            raise StudyError(
                problem.name, method, n,
                ValueError(f"eigenvalue index {count} exceeds matrix dimension {mesh.size}"),
            )
        start = time.perf_counter()
        try:
            system = assemble(tp, mesh)
            spectrum = solve_generalized(system, count=count)
        except Exception as exc:
            raise StudyError(problem.name, method, n, exc) from exc
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        for i in eig_indices:
            mu = float(spectrum.eigenvalues[i - 1])
            ref = reference_eigenvalue(problem, i)
            abs_error = abs(mu - ref) if ref is not None else None
            succ_error = None
            if ref is None and i in previous:
                succ_error = abs(mu - previous[i])
            previous[i] = mu
            records.append(StudyRecord(
                method=method, problem=problem.name, n=n, M=mesh.M, N=mesh.N,
                h=mesh.h, size=mesh.size, eig_index=i, mu=mu,
                abs_error=abs_error, succ_error=succ_error, runtime_ms=elapsed_ms,
            ))
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
    """
    ns = list(n_range)
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
    return {label: convergence_study(p, method, ns, (eig_index,), balanced=balanced)
            for label, p, method, balanced in runs}


def rate_fit(records: Sequence[StudyRecord]):
    """Least-squares slope of log(error) against n / log(n).

    Returns (kappa_hat, r_squared) with kappa_hat = -slope.  Only the
    pre-plateau region is fitted: the record sequence is cut at the first
    error at or below PLATEAU_FLOOR * max(1, |mu|) (later records are
    rounding noise, whether above or below the floor), and n < 3 is
    excluded since n/log(n) is not monotone there (n = 2 and n = 4 share
    the abscissa 2/log 2).
    """
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


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_csv(records: Sequence[StudyRecord], handle) -> None:
    """Write records in input order to an open text handle.

    Floats carry 17 significant digits, so every field reads back exactly.
    Open a file with ``newline=""``: the csv module writes its own line ends.
    """
    writer = csv.writer(handle)
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow([
            r.method, r.problem, r.n, r.M, r.N, _format_value(r.h), r.size,
            r.eig_index, _format_value(r.mu), _format_value(r.abs_error),
            _format_value(r.succ_error), _format_value(r.runtime_ms),
        ])

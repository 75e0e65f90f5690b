"""Assembly and solution of the generalized collocation eigensystem.

Collocating the transformed equation at the mesh points kh gives
``(A - mu D^2) v = 0`` with

    A    = -(1/h^2) delta2 + diag(qtilde(kh)),
    D^2  = diag(rho(phi(kh)) * phi'(kh)^2),

where delta2 is the order-2 sinc differentiation matrix.  A is symmetric
by construction and D^2 is diagonal positive, so the generalized
eigenvalues are real.

Two routes are used, chosen by the weight grading max(w)/min(w):

* up to GRADE_LIMIT: the diagonal congruence B = D^-1 A D^-1, applied
  as a_jk / (d_j d_k), which is exact, cheap and bitwise-symmetric;
  eigenvalues of B are the generalized eigenvalues.

* beyond it (double-exponential weights at large truncation are graded
  by up to 1e272): the congruence norm explodes like 1/min(w) and a
  dense symmetric solver then loses the small eigenvalues entirely.
  Instead one call of LAPACK's expert routine ?sygvx on the pencil
  (D^2, A + s D^2), with a small shift s that makes A + s D^2 positive
  definite, gives theta = 1/(mu + s): the lowest generalized eigenvalues
  are the LARGEST theta and are recovered with absolute accuracy
  ~eps*(mu+s).  A caller that reads only the lowest `count` eigenvalues
  gets the index range of the `count` largest theta (bisection and
  inverse iteration on the tridiagonal form) instead of the whole
  spectrum.  Eigenvalues beyond 1/eps of the smallest are not resolvable
  in this regime and are reported saturated; callers of this package
  only consume the low end of the spectrum.

?sygvx is called directly: ``scipy.linalg.eigh`` picks the
divide-and-conquer routine ?sygvd for a whole spectrum, and over the
graded levels of the ``large-n`` benchmark (sizes 41-413, one BLAS
thread) ?sygvx took 21-26 % less time, with the same shift and floor.

The generalized solve would serve ungraded pencils as well, but there it
is the slower route (44-88 % slower than the congruence at sizes
121-401, one BLAS thread) and it moves rounding-level eigenvalues, so
the congruence keeps every pencil the grading allows.  That route
computes the whole spectrum and slices it: an index-range ?syevx solve
was about 40 % faster there, but it changes the last bits of the low
eigenvalues, which gates at rounding level compare, so every ungraded
level stays bitwise what the full solve gives.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .meshing import MeshConfig
from .maps import EvaluationError, TransformedProblem
from .sinc import diff_matrix

# Weight grading max(w)/min(w) above which the congruence route is
# abandoned for the shifted factorization route.
GRADE_LIMIT = 1e8


class AssemblyError(RuntimeError):
    """A coefficient evaluation failed while filling the system."""

    def __init__(self, message: str, index: int, point: float):
        super().__init__(f"{message} (index k={index}, t={point!r})")
        self.index = index
        self.point = point


class DefinitenessError(AssemblyError):
    """A weight entry is nonpositive or not finite, so D^2 is not positive definite."""


class SolverError(RuntimeError):
    """The eigensolver failed to converge."""


@dataclass(frozen=True)
class GeneralizedSystem:
    """Dense symmetric A with the positive diagonal of D^2 and its mesh."""

    matrix: np.ndarray
    weights: np.ndarray
    mesh: MeshConfig

    @property
    def size(self) -> int:
        return self.mesh.size


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues, optionally with eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray] = None


def assemble(tp: TransformedProblem, mesh: MeshConfig) -> GeneralizedSystem:
    """Fill A and D^2 at the collocation points k*h, k = -M..N.

    ``tp.qtilde`` and ``tp.weight`` are each called once, on the whole
    mesh.  A failure is reported at the leftmost failing k, a coefficient
    failure ahead of a weight failure at the same k.
    """
    h = mesh.h
    t = np.arange(-mesh.M, mesh.N + 1, dtype=float) * h
    failures = []
    try:
        qvals = tp.qtilde(t)
    except EvaluationError as exc:
        failures.append((exc.point, 0, AssemblyError, exc))
    try:
        wvals = tp.weight(t)
    except EvaluationError as exc:
        failures.append((exc.point, 1, DefinitenessError, exc))
    if failures:
        point, _, kind, exc = min(failures, key=lambda f: f[:2])
        raise kind(str(exc), index=round(point / h), point=point) from exc

    # -D/h^2, divided in place: x / -(h*h) rounds exactly like -x / (h*h).
    A = diff_matrix(2, mesh.M, mesh.N)
    A /= -(h * h)
    diagonal = A.reshape(-1)[:: mesh.size + 1]
    diagonal += qvals
    return GeneralizedSystem(matrix=A, weights=wvals, mesh=mesh)


def _solve_congruence(A, w, compute_vectors, count):
    d = np.sqrt(w)
    B = A / (d[:, None] * d)
    try:
        if not compute_vectors:
            return Spectrum(eigenvalues=np.linalg.eigvalsh(B)[:count])
        mu, vectors = np.linalg.eigh(B)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"symmetric eigensolver failed: {exc}") from exc
    return Spectrum(eigenvalues=mu[:count], eigenvectors=vectors[:, :count] / d[:, None])


_sygvx, = scipy.linalg.get_lapack_funcs(("sygvx",), dtype=np.float64)


def _solve_inverted(A, w, compute_vectors, count):
    n = w.size
    # Shift at the scale of the low eigenvalues: min_k A_kk / w_k is an
    # upper bound for the smallest generalized eigenvalue and is invariant
    # under (A, D^2) -> (cA, cD^2).
    with np.errstate(over="ignore"):
        s = (A.diagonal() / w).min()
    if not (s > 0.0 and np.isfinite(s)):
        s = abs(np.trace(A)) / w.sum() * 1e-6 + np.finfo(float).tiny
    # theta = 1/(mu + s), ascending: the low mu are the largest theta, so
    # the lowest `count` of them are the index range n-count+1..n.  The
    # range 1..n with the default abstol takes LAPACK's all-eigenvalue
    # path, bitwise the same as range="A".
    il = max(1, n - count + 1)
    for _ in range(60):
        K = A.copy()
        K.reshape(-1)[:: n + 1] += s * w
        # Both matrices are symmetric, so their transposes are the same
        # matrices in the Fortran order LAPACK works in, without a copy.
        theta, V, m, _, info = _sygvx(np.diag(w).T, K.T, jobz="V" if compute_vectors else "N",
                                      range="I", il=il, iu=n, overwrite_a=1, overwrite_b=1)
        if info <= n:
            break
        # info = n + i: the leading minor of order i of A + sD^2 is not
        # positive definite.
        s *= 10.0
    else:
        raise SolverError("could not find a positive definite shift of (A, D^2)")
    if info != 0:
        raise SolverError(f"LAPACK sygvx failed (info={info})")
    theta = theta[:m]
    # Anything below eps*max(theta) is noise from the unresolvable top of
    # the mu-spectrum; clamp so those saturate instead of reordering.
    theta = np.maximum(theta, 0.5 * np.finfo(float).eps * theta[-1])[::-1]
    mu = 1.0 / theta - s
    if not compute_vectors:
        return Spectrum(eigenvalues=mu)
    # sygvx normalizes v^T (A + sD^2) v = 1, so v^T D^2 v = theta.
    return Spectrum(eigenvalues=mu, eigenvectors=V[:, ::-1] / np.sqrt(theta))


def solve_generalized(system: GeneralizedSystem, compute_vectors: bool = False,
                      count: Optional[int] = None) -> Spectrum:
    """Generalized eigenvalues mu of (A, D^2), ascending.

    ``count`` is the number of lowest eigenvalues the caller reads; only
    those are returned (all of them when it is None or at least the
    size).  Recovered eigenvectors are D^2-orthonormal:
    z_i^T D^2 z_j = delta_ij.  A must be exactly symmetric, on both
    routes.
    """
    w = np.asarray(system.weights, dtype=float)
    if count is None:
        count = w.size
    elif count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    # One minimum and one maximum serve the weight checks and the grading
    # test; the mask is built only when they fail (a NaN entry makes both
    # NaN).  The initial values let an empty w through to the shape check.
    w_min = w.min(initial=np.inf)
    w_max = w.max(initial=-np.inf)
    if not (w_min > 0.0 and w_max < np.inf):
        k = int(np.flatnonzero(~((w > 0.0) & (w < np.inf)))[0])
        kind = "nonpositive" if w[k] <= 0.0 else "non-finite"
        raise DefinitenessError(f"{kind} weight entry", index=k - system.mesh.M,
                                point=(k - system.mesh.M) * system.mesh.h)
    A = np.asarray(system.matrix, dtype=float)
    if A.shape != (w.size, w.size):
        raise ValueError(f"expected a {w.size}x{w.size} matrix, got shape {A.shape}")
    if not (A == A.T).all():
        raise ValueError("matrix A is not symmetric; pass (A + A.T) / 2")
    if w_max <= GRADE_LIMIT * w_min:
        return _solve_congruence(A, w, compute_vectors, count)
    return _solve_inverted(A, w, compute_vectors, count)

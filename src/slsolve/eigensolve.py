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
  ~eps*(mu+s).  The shift is min_k A_kk / w_k, an upper bound for the
  lowest mu.  Where ?sygvx finds no Cholesky factor of A + s D^2, or
  that bound is no positive number, one search bisects with ?potrf the
  decades above it, or above |tr A| / sum(w) * 1e-6, up to a
  Gershgorin bound, and ?sygvx solves once more at the smallest decade
  that leaves a margin.  A caller that reads only the lowest `count`
  eigenvalues gets the index range of the `count` largest theta
  (bisection and inverse iteration on the tridiagonal form) instead of
  the whole spectrum.  Eigenvalues beyond 1/eps of the smallest are not resolvable
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

A convergence study knows each level's eigenvalues before it solves it:
the previous level's, to the study's own convergence.  Given them as
``near``, an eigenvalues-only solve skips the dense routes from size
WARM_MIN_SIZE_ONE when it wants one eigenvalue, and from WARM_MIN_SIZE
when it wants more, since each costs a factorization of its own
(Parlett, The Symmetric Eigenvalue Problem, ch. 3-4):
for each wanted mu_i, one Bunch-Kaufman factorization (?sytrf) of
A - s_i D^2 at a shift just above the guess certifies by Sylvester's
inertia that exactly i eigenvalues lie below s_i, and inverse iteration
(?sytrs) refines the guess until the Rayleigh quotient stagnates at its
rounding floor eps |y|^T |A| |y| / y^T D^2 y.  No tridiagonal reduction
is made.  A quotient outside (s_{i-1}, s_i), a wrong inertia count or no
stagnation in 4 solves falls back to the dense route, whose result is
then bitwise what it is without ``near``, and so do guesses that predict
no stagnation, before any factorization.  The floor holds on graded
pencils too: a residual bound scaled by D^-1 does not, because rounding
in (A y)_k divided by d_k explodes where the weights are tiny.  The warm
route also keeps digits that the congruence loses on moderately graded
pencils: on the Bessel DE symmetric levels of sizes 49-63, the
congruence's mu_1 is up to 4.5e-11 relative off ?sygvx on the same
pencil, and the warm one within 7e-15.
"""

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .meshing import EvaluationError, MeshConfig, TransformedProblem, diff_matrix

# Weight grading max(w)/min(w) above which the congruence route is
# abandoned for the shifted factorization route.
GRADE_LIMIT = 1e8
# Pencils below these sizes keep the dense routes even when ``near`` is
# given: WARM_MIN_SIZE_ONE when one eigenvalue is wanted, WARM_MIN_SIZE
# when two or more are.  Medians per warm-started level of the DE studies
# over n = 2..60, one BLAS thread: with one eigenvalue the warm route took
# 61-103 us at sizes 32-63 against 89-207 us dense, but 70-81 us at sizes
# 16-31 against 47-64 us.  With three it took 267-321 us at sizes 32-63
# against 114-259 us dense.
WARM_MIN_SIZE_ONE = 32
WARM_MIN_SIZE = 64

_log = logging.getLogger(__name__)


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
    t = mesh.nodes
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
        raise kind(exc.reason, index=round(point / h), point=point) from exc

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


_sygvx, _potrf = scipy.linalg.get_lapack_funcs(("sygvx", "potrf"), dtype=np.float64)


def _shifted(A, w, s):
    """A + s D^2, a new array."""
    K = A.copy()
    K.reshape(-1)[:: w.size + 1] += s * w
    return K


def _gershgorin_shift(A, w, tried):
    """The smallest decade s = tried * 10^k, k >= 1, with A + (s/2) D^2 positive definite.

    ``tried`` is a shift that failed, or a floor at the scale of A.  By
    Gershgorin's theorem on D^-1 A D^-1, each eigenvalue of the pencil
    is at least g = min_k (A_kk / w_k - sum_{j != k} |A_kj| / sqrt(w_k w_j)),
    so s_G = -2g puts every mu + s_G at or above s_G / 2.  The decades
    below s_G are bisected for the same margin, by whether a Cholesky
    factorization (?potrf) of A + (s/2) D^2 succeeds, at about log2 of
    their number of factorizations; s_G stands in for the first decade
    above it.  Without the margin a decade that lands on -mu_1 passes by
    rounding, and the solve loses every digit of mu_1.  The result is
    within a factor 20 of the smallest positive definite shift: s_G itself
    can lie so far above the low eigenvalues that a solve shifted by it
    keeps no digits.  An s_G that overflows, as where a diagonal
    A_kk / w_k falls to -inf, leaves no shift.
    """
    d = np.sqrt(w)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(A) / d[:, None] / d
        scaled.reshape(-1)[:: w.size + 1] = 0.0
        s_g = -2.0 * (A.diagonal() / w - scaled.sum(axis=1)).min()
    if not np.isfinite(s_g):
        raise SolverError("could not find a positive definite shift of (A, D^2): Gershgorin's "
                          "lower bound on its lowest eigenvalue overflows, as when q falls to "
                          "-inf where rho decays")
    # Decades as powers of ten from log10(tried): tried * 10.0**k overflows
    # in 10.0**k when tried is tiny and s_g large.
    start = math.log10(tried)
    top = max(math.ceil(math.log10(max(s_g, tried)) - start), 1)
    lo, hi = 0, top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        # An overflowing s w_k is an infinite diagonal entry, which leaves
        # the factorization positive definite.
        with np.errstate(over="ignore"):
            K = _shifted(A, w, 0.5 * 10.0 ** (start + mid))
        if _potrf(K, overwrite_a=1, clean=0)[1] == 0:
            hi = mid
        else:
            lo = mid
    return 10.0 ** (start + hi) if hi < top else max(s_g, 10.0 * tried)


def _solve_inverted(A, w, compute_vectors, count):
    n = w.size
    # Shift at the scale of the low eigenvalues: min_k A_kk / w_k is an
    # upper bound for the smallest generalized eigenvalue and is invariant
    # under (A, D^2) -> (cA, cD^2).
    with np.errstate(over="ignore"):
        s = (A.diagonal() / w).min()
    # theta = 1/(mu + s), ascending: the low mu are the largest theta, so
    # the lowest `count` of them are the index range n-count+1..n.  The
    # range 1..n with the default abstol takes LAPACK's all-eigenvalue
    # path, bitwise the same as range="A".
    il = max(1, n - count + 1)

    def solve(s):
        # Both matrices are symmetric, so their transposes are the same
        # matrices in the Fortran order LAPACK works in, without a copy.
        return _sygvx(np.diag(w).T, _shifted(A, w, s).T, jobz="V" if compute_vectors else "N",
                      range="I", il=il, iu=n, overwrite_a=1, overwrite_b=1)

    usable = s > 0.0 and np.isfinite(s)
    if usable:
        theta, V, m, _, info = solve(s)
    if not usable or info > n:
        failed = (f"A + s D^2 with s = {s:.6g} has a leading minor of order {info - n} that is "
                  "not positive definite" if usable else f"min A_kk / w_k = {s:.6g} is no shift")
        # Without s, start at the scale of A: from 1e-308, a mu_1 of 0 clamps all mu_i above it.
        with np.errstate(over="ignore"):
            floor = min(abs(np.trace(A)) / w.sum(), 1e300) * 1e-6 + np.finfo(float).tiny
        s = _gershgorin_shift(A, w, s if usable else floor)
        _log.debug("size %d: %s; solving with s = %.6g", n, failed, s)
        theta, V, m, _, info = solve(s)
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


_sytrf, _sytrf_lwork, _sytrs = scipy.linalg.get_lapack_funcs(
    ("sytrf", "sytrf_lwork", "sytrs"), dtype=np.float64)
_EPS = np.finfo(float).eps
# Inverse iteration solves per eigenvalue before the warm route gives up.
_SOLVES = 4


def _solve_warm(A, w, guess, moved):
    """The eigenvalues next to ``guess``, certified by inertia; None to fall back.

    Eigenvalue i (from 1) is sought below the shift s_i = g_i + delta_i.
    The Bunch-Kaufman factor L B L^T of A - s_i D^2 has the inertia of
    the pencil shifted by s_i (Sylvester), so exactly i eigenvalues lie
    below s_i when B has i negative eigenvalues: one per negative 1x1
    pivot and one per 2x2 pivot, which Bunch-Kaufman only takes with a
    negative determinant.  Inverse iteration from a ones vector stops
    when the Rayleigh quotient moves by at most 4 f, where
    f = eps |y|^T |A| |y| / y^T D^2 y is the rounding floor of its
    evaluation: an absolute test, which also holds at mu = 0.  A quotient
    inside (s_{i-1}, s_i), an interval that holds mu_i alone, is mu_i.

    Each solve shrinks the quotient's error by r^2, with r = (s_i - g_i)
    over the distance from s_i to the nearest other guess (eigenvalues
    above the guesses are unknown, so r errs low).  Where r^(2 * _SOLVES)
    exceeds eps, the last solve leaves it above the floor: no factorization.
    """
    n = w.size
    # Python floats round as numpy's float64 scalars do, at less cost per operation.
    guess, moved = [float(g) for g in guess], [float(m) for m in moved]
    shifts = [g + max(8.0 * m, 1e-8 * max(1.0, abs(g))) for g, m in zip(guess, moved)]
    for i, (g, shift) in enumerate(zip(guess, shifts)):
        nearest = min((abs(o - shift) for j, o in enumerate(guess) if j != i), default=np.inf)
        if shift - g > _EPS ** (0.5 / _SOLVES) * nearest:
            _log.debug("size %d: warm start skipped: the shift %.17g for eigenvalue %d is "
                       "%.3g from its guess and %.3g from the nearest other guess",
                       n, shift, i + 1, shift - g, nearest)
            return None
    abs_a = np.abs(A)
    # scipy's default workspace, n, is too small for the blocked
    # factorization and leaves LAPACK the unblocked ?sytf2.
    lwork = int(_sytrf_lwork(n)[0])
    mu = np.empty(len(guess))
    lower = -np.inf
    for i, shift in enumerate(shifts, start=1):
        ldu, ipiv, info = _sytrf(_shifted(A, w, -shift).T, lwork=lwork, overwrite_a=1)
        if ipiv.min() > 0:  # 1x1 pivots only
            below = np.count_nonzero(ldu.diagonal() < 0.0)
        else:
            pairs = ipiv < 0  # both rows of each 2x2 pivot
            below = np.count_nonzero(ldu.diagonal()[~pairs] < 0.0) + np.count_nonzero(pairs) // 2
        if info != 0 or below != i:
            _log.debug("size %d: warm start falls back: %d eigenvalues below the shift "
                       "%.17g for eigenvalue %d", n, below, shift, i)
            return None
        # The ones vector's first right-hand side, w * 1, is w itself; each
        # later one is the w * y of the quotient before it.  ndarray.dot
        # makes the same BLAS calls as @, through fewer wrapper layers.
        wy = w
        previous = None
        for solves in range(1, _SOLVES + 1):
            y = _sytrs(ldu, ipiv, wy)[0]
            abs_y = np.abs(y)
            top = abs_y.max()
            y /= top
            wy = w * y
            ywy = y.dot(wy)
            rho = y.dot(A.dot(y)) / ywy
            if previous is not None:
                # |y| / top is |y / top| exactly.
                abs_y /= top
                if abs(rho - previous) <= 4.0 * _EPS * abs_y.dot(abs_a.dot(abs_y)) / ywy:
                    break
            previous = rho
        else:
            _log.debug("size %d: warm start falls back: no stagnation after %d solves "
                       "for eigenvalue %d", n, solves, i)
            return None
        if not lower < rho < shift:
            _log.debug("size %d: warm start falls back: Rayleigh quotient %.17g of "
                       "eigenvalue %d outside (%.17g, %.17g)", n, rho, i, lower, shift)
            return None
        mu[i - 1] = rho
        lower = shift
    return Spectrum(eigenvalues=mu)


def solve_generalized(system: GeneralizedSystem, compute_vectors: bool = False,
                      count: Optional[int] = None,
                      near: Optional[Tuple[Sequence[float], Sequence[float]]] = None
                      ) -> Spectrum:
    """Generalized eigenvalues mu of (A, D^2), ascending.

    ``count`` is the number of lowest eigenvalues the caller reads; only
    those are returned (all of them when it is None or at least the
    size).  Recovered eigenvectors are D^2-orthonormal:
    z_i^T D^2 z_j = delta_ij.  A must be exactly symmetric, on both
    routes.

    ``near`` = (g, moved) warm-starts an eigenvalues-only solve: g holds
    the lowest ``count`` eigenvalues of a neighbouring pencil, such as the
    previous level of a convergence study, and moved how far each moved
    from the level before.  From size WARM_MIN_SIZE_ONE on when ``count``
    is 1, and from size WARM_MIN_SIZE on otherwise, each g_i is refined by
    certified shifted inverse iteration instead of a dense solve; any
    doubt in the certificate falls back to the dense route, and a smaller
    pencil or ``compute_vectors`` ignores a well-formed ``near``.
    """
    w = np.asarray(system.weights, dtype=float)
    if count is None:
        count = w.size
    elif not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
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
    if near is not None:
        guess, moved = near
        if not len(guess) == len(moved) == min(count, w.size):
            raise ValueError(f"near must hold {min(count, w.size)} eigenvalues and moves, "
                             f"got {len(guess)} and {len(moved)}")
        warm_min_size = WARM_MIN_SIZE_ONE if count == 1 else WARM_MIN_SIZE
        if not compute_vectors and w.size >= warm_min_size:
            spectrum = _solve_warm(A, w, guess, moved)
            if spectrum is not None:
                return spectrum
    if w_max <= GRADE_LIMIT * w_min:
        return _solve_congruence(A, w, compute_vectors, count)
    return _solve_inverted(A, w, compute_vectors, count)

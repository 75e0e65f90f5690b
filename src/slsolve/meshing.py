"""Conformal maps, transformed coefficients, sinc meshes and the sinc matrix.

Each map phi sends the real line onto the open interval of the problem,
pushing the endpoints to -inf/+inf, and carries closed-form first,
second, and third derivatives.  Under the substitution
``v = u(phi) / sqrt(phi')`` the equation -u'' + q u = lambda rho u turns
into -v'' + qtilde v = lambda * rho(phi) * phi'^2 * v with

    qtilde = 3/4 (phi''/phi')^2 - phi'''/(2 phi') + phi'^2 q(phi),

which is the fully expanded form of the curvature term
-sqrt(phi') d/dt[(1/phi') d/dt sqrt(phi')]; the expansion avoids both a
symbolic engine and numerical differentiation noise.

Catalog (decay of the transformed solution in parentheses):

    interval      SE map                  DE map
    (0, 1)        tanh(t)/2 + 1/2         tanh(sinh t)/2 + 1/2
    (0, inf)      arcsinh(e^t)            arcsinh(e^(sinh t))
    (-inf, inf)   t                       kappa * sinh(t)

Each DE map is the SE map of its interval after kappa * sinh(t)
(Takahasi & Mori, 1974), so only the three SE maps are written out and a
DE jet is an SE jet through the chain rule.  The interval kind, the
decay kind and kappa pick the map, so a problem stores only its interval
kind and kappa.  A map is its jet (phi, phi', phi'', phi''') on a whole
numpy array of t at once, with numpy's elementary functions, and
``map_catalog`` returns that jet.  The half-line maps write arcsinh(e^y)
as y + log(1 + sqrt(1 + e^(-2y))) for y > 0, so e^(sinh t) never overflows.
``transform_problem(jet, q, rho)`` gives the one evaluation path of the
transformed coefficients, ``qtilde`` and ``weight`` on arrays of t, which
call q and rho once each, on the whole array phi(t).

A transformed problem comes with decay constants describing how fast its
solution dies off along the real axis, one profile per map.  A
``DEProfile`` (which also carries the DE map's scale kappa) declares the
double-exponential decay ``exp(-beta * exp(gamma |t|))`` of each tail;
the two truncation indices M (left) and N (right) are balanced to equate
the tail contributions.  An ``SEProfile`` declares the single-exponential
decay ``exp(-alpha |t|^rho)`` and gets a symmetric truncation.

The DE mesh size solves ``beta * exp(gamma n h) * h = pi d`` exactly,
which equates the truncation and discretization error exponents; the
closed-form solution is ``h = W(pi d gamma n / beta) / (gamma n)`` with
W the principal branch of the Lambert function, taken from
``scipy.special.lambertw``.  This form is preferred over its asymptotic
``log(pi d gamma n / beta)/(gamma n)`` replacement because it behaves
markedly better at moderate n.

The sinc basis enters the method only through its order-2
differentiation matrix at the mesh points k*h, which ``diff_matrix``
builds for a mesh's truncation (M, N); the basis is never evaluated.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.special

INTERVAL_KINDS = ("unit", "half_line", "real_line")
DECAY_KINDS = ("SE", "DE")


class EvaluationError(ValueError):
    """A transformed-coefficient evaluation failed at a collocation point.

    ``reason`` is the message without the point, which ``point`` holds.
    """

    def __init__(self, message: str, point: float):
        super().__init__(f"{message} (at t={point!r})")
        self.reason = message
        self.point = point


def _sech2(y):
    # 1/cosh^2: cosh(y) -> inf gives a clean 0.
    c = np.cosh(y)
    return 1.0 / (c * c)


def _asinh_exp_jet(y):
    """y -> arcsinh(e^y) and its first three derivatives, branch-stable in y.

    Let e = e^(-|y|), a = e^min(y, 0) and b = e^(-max(y, 0)), so that
    (a, b) is (1, e) for y > 0 and (e, 1) for y <= 0.  Both signs share
    r = (1 + e^2)^(-1/2): with c = b^2 r^2 = 1 - psi'^2 the derivatives
    are psi' = a r, psi'' = psi' c and psi''' = psi'' (3c - 2).  The value
    max(y, 0) + log1p(a + e^2 / (1 + 1/r)) is y + log(1 + 1/r) for y > 0
    and arcsinh(e) for y <= 0.
    """
    y_pos = np.maximum(y, 0.0)
    a = np.exp(np.minimum(y, 0.0))
    b = np.exp(-y_pos)
    g = (a * b) ** 2
    root = np.sqrt(1.0 + g)
    r = 1.0 / root
    p1 = a * r
    c = (b * r) ** 2
    p2 = p1 * c
    value = y_pos + np.log1p(a + g / (1.0 + root))
    return value, p1, p2, p2 * (3.0 * c - 2.0)


def _unit_se_jet(t):
    u = np.tanh(t)
    s2 = _sech2(t)
    return 0.5 * u + 0.5, 0.5 * s2, -s2 * u, s2 * (2.0 * u * u - s2)


def _real_line_se_jet(t):
    zero = np.zeros(t.shape, t.dtype)
    return t.copy(), zero + 1.0, zero, zero


_SE_JETS = {"unit": _unit_se_jet, "half_line": _asinh_exp_jet, "real_line": _real_line_se_jet}


def _de_jet(outer, kappa):
    """The jet of t -> outer(kappa sinh t), by the chain rule.

    With s = kappa sinh t and c = kappa cosh t, the derivatives are
    f' c, f'' c^2 + f' s and (f''' c^2 + 3 f'' s + f') c.
    """
    def jet(t):
        s, c = kappa * np.sinh(t), kappa * np.cosh(t)
        f0, f1, f2, f3 = outer(s)
        c2 = c * c
        return f0, f1 * c, f2 * c2 + f1 * s, (f3 * c2 + 3.0 * f2 * s + f1) * c
    return jet


def map_catalog(interval_kind: str, decay_kind: str, kappa: float = 1.0) -> Callable:
    """The jet of a catalog map; kappa rescales only the real-line DE map.

    The jet takes a float numpy array of t and returns the arrays
    (phi, phi', phi'', phi'''), computed together so they share
    subexpressions; far out in the tails it can overflow, so call it under
    ``np.errstate``.  It keeps no state, so it is safe to share across
    threads.
    """
    if interval_kind not in INTERVAL_KINDS:
        raise ValueError(f"unknown interval kind {interval_kind!r}; expected one of {INTERVAL_KINDS}")
    if decay_kind not in DECAY_KINDS:
        raise ValueError(f"unknown decay kind {decay_kind!r}; expected one of {DECAY_KINDS}")
    if not (kappa > 0.0 and math.isfinite(kappa)):
        raise ValueError(f"map scale must be positive, got kappa={kappa!r}")
    if kappa != 1.0 and (interval_kind, decay_kind) != ("real_line", "DE"):
        raise ValueError("kappa != 1 is only supported for the real-line DE map")
    jet = _SE_JETS[interval_kind]
    if decay_kind == "DE":
        jet = _de_jet(jet, kappa)
    return jet


def _values(f, x):
    """``f`` called once, on the whole array ``x``, as floats.

    The result has the shape of ``x``, or is a scalar when ``f`` returns
    one constant.
    """
    values = np.asarray(f(x), dtype=float)
    if values.ndim == 0 or values.shape == x.shape:
        return values
    return np.broadcast_to(values, x.shape)


def _raise_at(bad, t, describe):
    """Raise EvaluationError at the first entry flagged in ``bad``."""
    i = int(np.flatnonzero(bad)[0])
    raise EvaluationError(describe(i), point=float(t.flat[i]))


def _qtilde(jet, q, t):
    x, p1, p2, p3 = jet
    qx = _values(q, x)
    r = p2 / p1
    out = 0.75 * r * r - p3 / (2.0 * p1) + p1 * p1 * qx
    ok = np.isfinite(out)
    if not ok.all():
        def describe(i):
            xi, d = float(x.flat[i]), float(p1.flat[i])
            if not d > 0.0:
                return f"map derivative must be positive, got {d!r}"
            if not math.isfinite(np.broadcast_to(qx, x.shape).flat[i]):
                return f"coefficient q undefined or non-finite at x={xi!r}"
            return f"transformed coefficient non-finite at x={xi!r}"
        _raise_at(~ok, t, describe)
    return out


def _weight(jet, rho, t):
    x, p1 = jet[0], jet[1]
    w = _values(rho, x) * p1 * p1
    if not (w.min() > 0.0 and w.max() < np.inf):
        def describe(i):
            xi, wi = float(x.flat[i]), float(w.flat[i])
            if wi > 0.0 or math.isnan(wi):
                return f"transformed weight undefined or non-finite at x={xi!r}"
            return f"transformed weight must be positive, got {wi!r}"
        _raise_at(~((w > 0.0) & (w < np.inf)), t, describe)
    return w


def _evaluate(combine, jet, f, t):
    """``combine(jet(t), f, t)`` for a float array of t, warnings off."""
    with np.errstate(all="ignore"):
        return combine(jet(t), f, t)


@dataclass(frozen=True)
class TransformedProblem:
    """A problem after the change of variables, ready for collocation.

    ``qtilde(t)`` is 3/4 (phi''/phi')^2 - phi'''/(2 phi') + phi'^2 q(phi)
    and ``weight(t)`` is rho(phi) phi'^2, each on a float numpy array of t,
    with a result of its shape; they are the one way to evaluate the
    transformed coefficients.  Each evaluates the map's jet on t and calls
    q or rho once, on the array of all phi(t), and raises EvaluationError
    at the first entry of t where its result is not finite, or, for the
    weight, not positive.  Neither keeps state of its own between calls,
    so both are safe to share across threads.
    """

    qtilde: Callable
    weight: Callable


def transform_problem(jet: Callable, q, rho) -> TransformedProblem:
    """The transformed coefficient and weight of q and rho under a map.

    ``jet`` is a map as ``map_catalog`` returns it.  Samples the weight on
    t in [-3, 3] so a sign mistake in rho surfaces at construction rather
    than deep inside an assembly.
    """
    _evaluate(_weight, jet, rho, np.arange(-12, 13) / 4.0)
    return TransformedProblem(qtilde=lambda t: _evaluate(_qtilde, jet, q, t),
                              weight=lambda t: _evaluate(_weight, jet, rho, t))


_D_BOUND_SLACK = 1e-12
# The largest pencil size M + N + 1 a mesh may have.  The DE series
# converge to double precision below size 150; at 4096, A alone takes
# 128 MiB.  A mesh above it is refused before anything is evaluated.
MAX_SIZE = 4096


def _check_truncation(M, N):
    """Refuse an M or N that is not a nonnegative integer, or a size M + N + 1 over MAX_SIZE."""
    if not (isinstance(M, (int, np.integer)) and isinstance(N, (int, np.integer))):
        raise ValueError(f"truncation indices must be integers, got M={M!r}, N={N!r}")
    if M < 0 or N < 0:
        raise ValueError(f"truncation indices must be nonnegative, got M={M}, N={N}")
    size = M + N + 1
    if size > MAX_SIZE:
        raise ValueError(f"pencil size {size} (M={M}, N={N}) exceeds the size budget {MAX_SIZE}")


def _check_level(n, name):
    """Refuse a mesh builder's level n that is not an integer >= 1."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n!r}")


def _validate(profile, kind, names):
    """Refuse a strip half-width or decay constant that is not positive and finite."""
    if not (profile.d > 0.0 and math.isfinite(profile.d)):
        raise ValueError(f"strip half-width must be positive, got d={profile.d!r}")
    for name in names:
        v = getattr(profile, name)
        if not (v > 0.0 and math.isfinite(v)):
            raise ValueError(f"{kind} profile needs positive {name}, got {v!r}")


@dataclass(frozen=True)
class DEProfile:
    """DE decay ``exp(-beta e^(gamma |t|))`` per tail, strip half-width d, map scale kappa.

    d <= pi / (2 max(gamma)) and kappa is positive and finite;
    ``map_catalog`` checks kappa against the interval when a problem
    declares the profile.
    """

    beta_left: float
    beta_right: float
    gamma_left: float
    gamma_right: float
    d: float
    kappa: float = 1.0

    def __post_init__(self):
        _validate(self, "DE", ("beta_left", "beta_right", "gamma_left", "gamma_right", "kappa"))
        gamma = max(self.gamma_left, self.gamma_right)
        if self.d > math.pi / (2.0 * gamma) + _D_BOUND_SLACK:
            raise ValueError(f"strip half-width d={self.d!r} exceeds pi/(2*gamma)="
                             f"{math.pi / (2.0 * gamma)!r}")


@dataclass(frozen=True)
class SEProfile:
    """SE decay ``exp(-alpha |t|^rho_decay)`` with strip half-width d."""

    alpha: float
    rho_decay: float
    d: float

    def __post_init__(self):
        _validate(self, "SE", ("alpha", "rho_decay"))


@dataclass(frozen=True)
class MeshConfig:
    """Mesh size h together with the truncation indices M (left), N (right).

    The pencil size M + N + 1 must not exceed MAX_SIZE, and h^2 and 1/h^2
    must be finite and positive: the sinc matrix is scaled by 1/h^2.
    """

    h: float
    M: int
    N: int

    def __post_init__(self):
        if self.h <= 0.0 or not math.isfinite(self.h):
            raise ValueError(f"mesh size must be positive, got h={self.h!r}")
        h2 = float(self.h) * float(self.h)
        if not (h2 > 0.0 and math.isfinite(h2) and math.isfinite(1.0 / h2)):
            raise ValueError(f"mesh size h={self.h!r} is out of range: h^2 and 1/h^2 "
                             "must be finite and positive")
        _check_truncation(self.M, self.N)

    @property
    def size(self) -> int:
        return self.M + self.N + 1

    @property
    def nodes(self) -> np.ndarray:
        """The collocation points k*h, k = -M..N."""
        return np.arange(-self.M, self.N + 1, dtype=float) * self.h


def _de_governing(profile: DEProfile, n: int):
    """(left governs, W, h, (gamma, beta) governing, (gamma, beta) dependent)."""
    if not isinstance(profile, DEProfile):
        raise ValueError("de_mesh requires a DE decay profile")
    _check_level(n, "governing index")
    # The larger gamma governs, then the larger beta; left wins ties.
    tails = (profile.gamma_left, profile.beta_left), (profile.gamma_right, profile.beta_right)
    left = tails[0] >= tails[1]
    (gamma, beta), dependent = tails if left else tails[::-1]
    w = float(scipy.special.lambertw(math.pi * profile.d * gamma * n / beta).real)
    return left, w, w / (gamma * n), (gamma, beta), dependent


def de_mesh(profile: DEProfile, n: int) -> MeshConfig:
    """Balanced DE mesh for governing index n.

    The governing tail receives n points and the dependent index is
    chosen so both tails contribute equal truncation error:

    * gamma_left > gamma_right: n = M and
      N = ceil((gl/gr) n (1 + log(bl/br)/W(pi d gl n / bl)))+,
    * gamma_right > gamma_left: mirrored with a floor,
    * equal gammas: the larger beta governs and the ratio gl/gr drops out.

    Dependent indices are clamped at zero.  The mirror between the ceiling
    and floor cases means swapping the two tails reproduces the swapped
    (M, N) only up to the rounding direction.  A dependent index that is
    not finite (a beta ratio that overflows, or W = 0) raises ValueError.
    """
    left, w, h, (gamma, beta), (gamma_dep, beta_dep) = _de_governing(profile, n)
    try:
        dep = gamma / gamma_dep * n * (1.0 + math.log(beta / beta_dep) / w)
        index = max(math.ceil(dep) if left else math.floor(dep), 0)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"the DE mesh's dependent truncation index at n={n} is not finite "
                         f"for {profile}") from None
    M, N = (n, index) if left else (index, n)
    return MeshConfig(h=h, M=M, N=N)


def de_mesh_symmetric(profile: DEProfile, n: int) -> MeshConfig:
    """Symmetric DE mesh: M = N = n with the governing-case mesh size.

    Truncates both tails at the governing index, so the weaker tail's
    truncation error is not equalized; used as the plain-DE baseline.
    """
    return MeshConfig(h=_de_governing(profile, n)[2], M=n, N=n)


def se_mesh(profile: SEProfile, N: int) -> MeshConfig:
    """Symmetric SE mesh: h = (pi d / (alpha N)^rho)^(1/(rho+1)), M = N."""
    if not isinstance(profile, SEProfile):
        raise ValueError("se_mesh requires an SE decay profile")
    _check_level(N, "truncation index")
    rho = profile.rho_decay
    try:
        h = (math.pi * profile.d / (profile.alpha * N) ** rho) ** (1.0 / (rho + 1.0))
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"the SE mesh size at N={N} is not finite for {profile}") from None
    return MeshConfig(h=h, M=N, N=N)


def _mirrored_first_row() -> np.ndarray:
    """row[S-1], ..., row[1], row[0], row[1], ..., row[S-1] for S = MAX_SIZE, read-only."""
    k = np.arange(MAX_SIZE)
    row = np.where(k % 2 == 0, -2.0, 2.0) / np.square(np.maximum(k, 1))
    row[0] = -np.pi**2 / 3.0
    mirrored = np.concatenate((row[:0:-1], row))
    mirrored.flags.writeable = False
    return mirrored


# row[k] does not depend on the size, so every matrix reads a window of
# this one array.
_TOEPLITZ = _mirrored_first_row()


def diff_matrix(order: int, M: int, N: int) -> np.ndarray:
    """Second-derivative matrix of the sinc basis at unit mesh size.

    Entry (j, k), with j, k = -M..N mapped to 0-based storage by +M,
    holds h^2 times the second derivative of the basis element
    sinc((x - j*h)/h), evaluated at x = k*h.  The h-scaling makes the
    result independent of h: the symmetric Toeplitz matrix with diagonal
    -pi^2/3 and off-diagonals -2(-1)^(k-j)/(k-j)^2.  ``order`` must be 2;
    it stays in the signature for wrappers written against (order, M, N),
    such as the benchmark tracer's hook.

    The matrix is copied out of one read-only array built at import: the
    first row of the matrix of size MAX_SIZE, laid out both ways.  A
    truncation that ``MeshConfig`` refuses raises the same ValueError.
    The result is always a fresh, writeable, C-contiguous array.
    """
    if order != 2:
        raise ValueError(f"unsupported derivative order {order!r}; expected 2")
    _check_truncation(M, N)
    size = M + N + 1
    # Entry (j, k) depends on |k - j| only: row j of the matrix is the
    # window of the mirrored row that starts j places left of its centre.
    step = _TOEPLITZ.itemsize
    windows = np.ndarray((size, size), buffer=_TOEPLITZ, offset=(MAX_SIZE - 1) * step,
                         strides=(-step, step))
    return windows.copy()

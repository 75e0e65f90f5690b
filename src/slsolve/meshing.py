"""Mesh-size and truncation selection from solution decay profiles.

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

import numpy as np
import scipy.special

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
    ``maps.map_catalog`` checks kappa against the interval when a problem
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

    The pencil size M + N + 1 must not exceed MAX_SIZE.
    """

    h: float
    M: int
    N: int

    def __post_init__(self):
        if self.h <= 0.0 or not math.isfinite(self.h):
            raise ValueError(f"mesh size must be positive, got h={self.h!r}")
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

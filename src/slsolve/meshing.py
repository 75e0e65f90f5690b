"""Mesh-size and truncation selection from solution decay profiles.

A transformed problem comes with decay constants describing how fast its
solution dies off along the real axis.  Double-exponential (DE) decay
``exp(-beta * exp(gamma |t|))`` may differ between the left and right
tails, so the two truncation indices M (left) and N (right) are balanced
to equate the tail contributions; single-exponential (SE) decay
``exp(-alpha |t|^rho)`` uses a symmetric truncation.

The DE mesh size solves ``beta * exp(gamma n h) * h = pi d`` exactly,
which equates the truncation and discretization error exponents; the
closed-form solution is ``h = W(pi d gamma n / beta) / (gamma n)`` with
W the principal branch of the Lambert function, taken from
``scipy.special.lambertw``.  This form is preferred over its asymptotic
``log(pi d gamma n / beta)/(gamma n)`` replacement because it behaves
markedly better at moderate n.
"""

import math
from dataclasses import dataclass
from typing import Optional

import scipy.special

_D_BOUND_SLACK = 1e-12


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function: w >= 0 with w e^w = x.

    Raises ValueError if ``x`` is negative or not finite.
    """
    if not math.isfinite(x):
        raise ValueError(f"lambert_w0 requires a finite argument, got {x!r}")
    if x < 0.0:
        raise ValueError(f"lambert_w0 is only defined for x >= 0, got {x!r}")
    return float(scipy.special.lambertw(x).real)


@dataclass(frozen=True)
class DecayProfile:
    """Decay envelope of a transformed solution plus its analyticity strip.

    ``kind`` selects which fields are meaningful: "DE" uses the four
    one-sided constants beta/gamma, "SE" uses alpha and rho_decay.  The
    strip half-width d bounds the discretization-error exponent and, for
    DE profiles, must satisfy d <= pi / (2 max(gamma)).
    """

    kind: str
    d: float
    beta_left: Optional[float] = None
    beta_right: Optional[float] = None
    gamma_left: Optional[float] = None
    gamma_right: Optional[float] = None
    alpha: Optional[float] = None
    rho_decay: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("SE", "DE"):
            raise ValueError(f"unknown decay kind {self.kind!r}; expected 'SE' or 'DE'")
        if not (self.d > 0.0 and math.isfinite(self.d)):
            raise ValueError(f"strip half-width must be positive, got d={self.d!r}")
        if self.kind == "DE":
            for name in ("beta_left", "beta_right", "gamma_left", "gamma_right"):
                v = getattr(self, name)
                if v is None or not (v > 0.0 and math.isfinite(v)):
                    raise ValueError(f"DE profile needs positive {name}, got {v!r}")
            gamma = max(self.gamma_left, self.gamma_right)
            if self.d > math.pi / (2.0 * gamma) + _D_BOUND_SLACK:
                raise ValueError(
                    f"strip half-width d={self.d!r} exceeds pi/(2*gamma)="
                    f"{math.pi / (2.0 * gamma)!r}"
                )
        else:
            for name in ("alpha", "rho_decay"):
                v = getattr(self, name)
                if v is None or not (v > 0.0 and math.isfinite(v)):
                    raise ValueError(f"SE profile needs positive {name}, got {v!r}")

    @classmethod
    def de(cls, beta_left, beta_right, gamma_left, gamma_right, d) -> "DecayProfile":
        return cls(kind="DE", d=d, beta_left=beta_left, beta_right=beta_right,
                   gamma_left=gamma_left, gamma_right=gamma_right)

    @classmethod
    def se(cls, alpha, rho_decay, d) -> "DecayProfile":
        return cls(kind="SE", d=d, alpha=alpha, rho_decay=rho_decay)


@dataclass(frozen=True)
class MeshConfig:
    """Mesh size h together with the truncation indices M (left), N (right)."""

    h: float
    M: int
    N: int

    def __post_init__(self):
        if self.h <= 0.0 or not math.isfinite(self.h):
            raise ValueError(f"mesh size must be positive, got h={self.h!r}")
        if self.M < 0 or self.N < 0:
            raise ValueError(f"truncation indices must be nonnegative, got M={self.M}, N={self.N}")

    @property
    def size(self) -> int:
        return self.M + self.N + 1


def de_mesh(profile: DecayProfile, n: int) -> MeshConfig:
    """Balanced DE mesh for governing index n.

    The governing tail receives n points and the dependent index is
    chosen so both tails contribute equal truncation error:

    * gamma_left > gamma_right: n = M and
      N = ceil((gl/gr) n (1 + log(bl/br)/W(pi d gl n / bl)))+,
    * gamma_right > gamma_left: mirrored with a floor,
    * equal gammas: the larger beta governs and the ratio gl/gr drops out.

    Dependent indices are clamped at zero.  The mirror between the ceiling
    and floor cases means swapping the two tails reproduces the swapped
    (M, N) only up to the rounding direction.
    """
    if profile.kind != "DE":
        raise ValueError("de_mesh requires a DE decay profile")
    if n < 1:
        raise ValueError(f"governing index must be >= 1, got {n!r}")
    # The larger gamma governs, then the larger beta; left wins ties.
    tails = (profile.gamma_left, profile.beta_left), (profile.gamma_right, profile.beta_right)
    left = tails[0] >= tails[1]
    (gamma, beta), (gamma_dep, beta_dep) = tails if left else tails[::-1]
    w = lambert_w0(math.pi * profile.d * gamma * n / beta)
    h = w / (gamma * n)
    dep = gamma / gamma_dep * n * (1.0 + math.log(beta / beta_dep) / w)
    if left:
        return MeshConfig(h=h, M=n, N=max(math.ceil(dep), 0))
    return MeshConfig(h=h, M=max(math.floor(dep), 0), N=n)


def de_mesh_symmetric(profile: DecayProfile, n: int) -> MeshConfig:
    """Symmetric DE mesh: M = N = n with the governing-case mesh size.

    Truncates both tails at the governing index, so the weaker tail's
    truncation error is not equalized; used as the plain-DE baseline.
    """
    balanced = de_mesh(profile, n)
    return MeshConfig(h=balanced.h, M=n, N=n)


def se_mesh(profile: DecayProfile, N: int) -> MeshConfig:
    """Symmetric SE mesh: h = (pi d / (alpha N)^rho)^(1/(rho+1)), M = N."""
    if profile.kind != "SE":
        raise ValueError("se_mesh requires an SE decay profile")
    if N < 1:
        raise ValueError(f"truncation index must be >= 1, got {N!r}")
    rho = profile.rho_decay
    h = (math.pi * profile.d / (profile.alpha * N) ** rho) ** (1.0 / (rho + 1.0))
    return MeshConfig(h=h, M=N, N=N)

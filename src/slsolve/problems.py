"""Built-in eigenvalue problems, reference values, and config ingestion."""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
import scipy.special

from .expressions import ExpressionError, compile_expression, parse_expression
from .maps import TransformedProblem, map_catalog, transform_problem
from .meshing import DecayProfile


class ConfigError(ValueError):
    """A problem configuration could not be loaded."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(f"{message} (line {line})" if line else message)
        self.line = line


@dataclass(frozen=True)
class SturmLiouvilleProblem:
    """A problem -u'' + q u = lambda rho u with its transformation data.

    ``interval_kind`` ("unit", "half_line" or "real_line") picks the
    problem's SE map from ``maps.map_catalog``; its DE map is that map
    after kappa sinh(t).  ``kappa`` scales only the real-line DE map and
    is 1 elsewhere: a DE profile declared with an (interval_kind, kappa)
    the catalog has no DE map for raises ValueError at construction.  A
    method is available exactly when its decay profile is declared.

    ``q`` and ``rho`` are called with a numpy array of x, all points of a
    mesh at once, and must return an array of its shape or a constant.
    ``transformed`` samples rho on an array, so a scalar-only rho raises
    its own error there; a scalar-only q raises at the first assembly.
    Decay profiles are declared per problem rather than derived: they
    come from asymptotic analysis of the transformed solution, which is
    not automated here.  ``reference`` maps a 1-based eigenvalue index to
    its known exact value, or is None when no closed form exists.
    """

    name: str
    interval_kind: str
    q: Callable
    rho: Callable
    kappa: float = 1.0
    de_profile: Optional[DecayProfile] = None
    se_profile: Optional[DecayProfile] = None
    reference: Optional[Callable[[int], float]] = None

    def __post_init__(self):
        if self.de_profile is not None:
            map_catalog(self.interval_kind, "DE", self.kappa)


def reference_eigenvalue(problem: SturmLiouvilleProblem, index: int) -> Optional[float]:
    """Known exact eigenvalue for 1-based ``index``, or None if unavailable."""
    if index < 1:
        raise ValueError(f"eigenvalue index must be >= 1, got {index!r}")
    if problem.reference is None:
        return None
    return problem.reference(index)


@lru_cache(maxsize=None)
def bessel_zero(n: int, m: int) -> float:
    """m-th positive zero of the order-n Bessel function of the first kind."""
    if n < 1 or m < 1:
        raise ValueError(f"order and index must be >= 1, got n={n!r}, m={m!r}")
    return float(scipy.special.jn_zeros(n, m)[m - 1])


def _bessel(n: int = 7) -> SturmLiouvilleProblem:
    if not (n >= 1 and float(n).is_integer()):
        raise ValueError(f"Bessel order must be an integer >= 1, got {n!r}")
    n = int(n)
    coeff = (4.0 * n * n - 1.0) / 4.0
    return SturmLiouvilleProblem(
        name="bessel",
        interval_kind="unit",
        q=lambda x: coeff / (x * x),
        rho=lambda x: 1.0,
        # Transformed tails: exp(-n e^|t|) on the left, exp(-e^t / 2) on the right.
        de_profile=DecayProfile.de(beta_left=float(n), beta_right=0.5,
                                   gamma_left=1.0, gamma_right=1.0, d=math.pi / 2.0),
        # Single-exponential rate 1 is the binding (right) tail; the map's
        # poles sit at +-i pi/2.
        se_profile=DecayProfile.se(alpha=1.0, rho_decay=1.0, d=math.pi / 2.0),
        reference=lambda i: bessel_zero(n, i) ** 2,
    )


def _laguerre(alpha: float = 3.0) -> SturmLiouvilleProblem:
    if not alpha > 0.5:
        raise ValueError(f"Laguerre parameter must exceed 1/2, got alpha={alpha!r}")
    alpha = float(alpha)
    return SturmLiouvilleProblem(
        name="laguerre",
        interval_kind="half_line",
        q=lambda x: (alpha * alpha - 0.25) / (x * x) - (alpha + 1.0) / 2.0 + x * x / 16.0,
        rho=lambda x: 1.0,
        # Tails exp(-(alpha/2) e^|t|) left and exp(-e^(2t)/32) right.
        de_profile=DecayProfile.de(beta_left=alpha / 2.0, beta_right=1.0 / 32.0,
                                   gamma_left=1.0, gamma_right=2.0, d=math.pi / 4.0),
        se_profile=DecayProfile.se(alpha=1.0, rho_decay=1.0, d=math.pi / 2.0),
        # Eigenvalues 0, 1, 2, ... independent of alpha.
        reference=lambda i: float(i - 1),
    )


_ADAPTED_KAPPA = math.sqrt(0.2)


def _singular(kappa: float = _ADAPTED_KAPPA) -> SturmLiouvilleProblem:
    """Whole-line problem whose coefficients have complex singularities.

    q has poles at +-i sqrt(0.1) (and further up), so the strip width of
    the kappa-scaled sinh map is arcsin(sqrt(0.1)/kappa) from those poles,
    capped at pi/4 by the decay constraint; kappa = sqrt(0.2) realizes the
    cap exactly, which is why it is the default.
    """
    if not (0.0 < kappa <= 1.0):
        raise ValueError(f"map scale must lie in (0, 1], got kappa={kappa!r}")
    kappa = float(kappa)
    ratio = min(math.sqrt(0.1) / kappa, 1.0)
    d_de = min(math.pi / 4.0, math.asin(ratio))
    return SturmLiouvilleProblem(
        name="singular" if kappa == 1.0 else "singular-adapted",
        interval_kind="real_line",
        q=lambda x: x * x + np.tanh(x) / np.log(x * x + 1.1),
        rho=lambda x: 1.0 / (x * x + np.cos(x)),
        kappa=kappa,
        # Both tails exp(-(kappa^2/8) e^(2|t|)).
        de_profile=DecayProfile.de(beta_left=kappa * kappa / 8.0, beta_right=kappa * kappa / 8.0,
                                   gamma_left=2.0, gamma_right=2.0, d=d_de),
        # Untransformed solution ~ exp(-t^2/2); nearest singularity +-i sqrt(0.1).
        se_profile=DecayProfile.se(alpha=0.5, rho_decay=2.0, d=math.sqrt(0.1)),
        reference=None,
    )


_BUILTINS = {"bessel": _bessel, "laguerre": _laguerre, "singular": _singular}
_BUILTIN_PARAMS = {"bessel": {"n"}, "laguerre": {"alpha"}, "singular": {"kappa"}}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str, **params) -> SturmLiouvilleProblem:
    """Construct a catalog problem: bessel(n), laguerre(alpha), singular(kappa)."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin problem {name!r}; expected one of {sorted(_BUILTINS)}")
    unknown = set(params) - _BUILTIN_PARAMS[name]
    if unknown:
        raise ValueError(f"problem {name!r} does not take parameters {sorted(unknown)}")
    return _BUILTINS[name](**params)


def transformed(problem: SturmLiouvilleProblem, method: str) -> TransformedProblem:
    """The problem under its SE or DE map, ready for assembly.

    The map follows from ``problem.interval_kind`` and, for "de",
    ``problem.kappa``; a method without a declared profile is a ConfigError.
    """
    if method == "de":
        profile, kappa = problem.de_profile, problem.kappa
    elif method == "se":
        profile, kappa = problem.se_profile, 1.0
    else:
        raise ValueError(f"unknown method {method!r}; expected 'se' or 'de'")
    if profile is None:
        raise ConfigError(f"problem {problem.name!r} declares no {method} transformation data")
    jet = map_catalog(problem.interval_kind, method.upper(), kappa)
    return transform_problem(jet, problem.q, problem.rho)


_INTERVALS = {"unit": "unit", "halfline": "half_line", "realline": "real_line"}
_SCALAR_KEYS = ("kappa", "d", "beta_l", "beta_r", "gamma_l", "gamma_r",
                "alpha_se", "rho_decay_se")


def parse_problem_config(text: str) -> SturmLiouvilleProblem:
    """Load a problem from the line-oriented ``key = value`` format.

    Recognized keys: name, interval (unit|halfline|realline), q, rho,
    map (se|de), kappa, d, beta_l, beta_r, gamma_l, gamma_r, alpha_se,
    rho_decay_se, and repeatable ``param <name> = <value>`` declarations
    usable inside the q/rho expressions.  ``#`` starts a comment.
    ``kappa`` scales the DE map, so it needs all four DE decay constants.
    """
    fields = {}
    exprs = {}
    params = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not value:
            raise ConfigError(f"missing value for {key!r}", line=lineno)
        if key.startswith("param "):
            pname = key[len("param "):].strip()
            if not pname.isidentifier() or pname == "x":
                raise ConfigError(f"invalid parameter name {pname!r}", line=lineno)
            params[pname] = _scalar(value, key, lineno)
        elif key in ("q", "rho"):
            try:
                exprs[key] = parse_expression(value, line=lineno)
            except ExpressionError as exc:
                raise ConfigError(f"expression {key!r}: {exc}") from None
        elif key in _SCALAR_KEYS:
            fields[key] = _scalar(value, key, lineno)
        elif key in ("name", "interval", "map"):
            fields[key] = value
        else:
            raise ConfigError(f"unknown key {key!r}", line=lineno)

    for mandatory in ("interval", "q", "rho", "map"):
        if mandatory not in fields and mandatory not in exprs:
            raise ConfigError(f"missing mandatory field {mandatory!r}")
    interval = fields["interval"]
    if interval not in _INTERVALS:
        raise ConfigError(f"interval must be one of {sorted(_INTERVALS)}, got {interval!r}")
    interval_kind = _INTERVALS[interval]
    declared_map = fields["map"]
    if declared_map not in ("se", "de"):
        raise ConfigError(f"map must be 'se' or 'de', got {declared_map!r}")
    if "d" not in fields:
        raise ConfigError("missing mandatory field 'd'")

    compiled = {}
    for key, node in exprs.items():
        try:
            compiled[key] = compile_expression(node, params)
        except ExpressionError as exc:
            raise ConfigError(f"expression {key!r} references an undeclared name: {exc}") from None

    missing_de = [k for k in ("beta_l", "beta_r", "gamma_l", "gamma_r") if k not in fields]
    have_de = not missing_de
    have_se = "alpha_se" in fields and "rho_decay_se" in fields
    if declared_map == "de" and not have_de:
        raise ConfigError(f"map = de requires decay constants {missing_de}")
    if declared_map == "se" and not have_se:
        raise ConfigError("map = se requires alpha_se and rho_decay_se")
    if "kappa" in fields and not have_de:
        raise ConfigError(f"kappa scales only the DE map, which requires decay constants {missing_de}")

    try:
        de_profile = DecayProfile.de(
            beta_left=fields["beta_l"], beta_right=fields["beta_r"],
            gamma_left=fields["gamma_l"], gamma_right=fields["gamma_r"],
            d=fields["d"],
        ) if have_de else None
        se_profile = DecayProfile.se(
            alpha=fields["alpha_se"], rho_decay=fields["rho_decay_se"], d=fields["d"],
        ) if have_se else None
        return SturmLiouvilleProblem(
            name=fields.get("name", "custom"),
            interval_kind=interval_kind,
            q=compiled["q"],
            rho=compiled["rho"],
            kappa=fields.get("kappa", 1.0),
            de_profile=de_profile,
            se_profile=se_profile,
            reference=None,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _scalar(value: str, key: str, lineno: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"value for {key!r} must be a number, got {value!r}", line=lineno) from None

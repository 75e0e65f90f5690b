"""Conformal maps onto the problem interval and the transformed coefficients.

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

Every map is evaluated as a jet (phi, phi', phi'', phi''') on a whole
numpy array of t at once, and the coefficients q and rho are called once,
on the whole array phi(t).  The half-line maps write arcsinh(e^y) as
y + log(1 + sqrt(1 + e^(-2y))) for y > 0, so e^(sinh t) never overflows.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .meshing import DecayProfile

INTERVAL_KINDS = ("unit", "half_line", "real_line")
DECAY_KINDS = ("SE", "DE")


class EvaluationError(ValueError):
    """A transformed-coefficient evaluation failed at a collocation point."""

    def __init__(self, message: str, point: float):
        super().__init__(f"{message} (at t={point!r})")
        self.point = point


@dataclass(frozen=True)
class ConformalMap:
    """A monotone map of the real line onto a problem interval.

    ``jet(t)`` takes a float numpy array of t and returns the arrays
    (phi, phi', phi'', phi'''), computed together so they share
    subexpressions; far out in the tails it can overflow, so call it under
    ``np.errstate``.  ``phi``, ``dphi``, ``d2phi`` and ``d3phi`` take a
    scalar or an array.  ``qtilde_eval`` and ``weight_eval`` call the
    coefficients q and rho once, on the numpy array phi(t); callables that
    only take scalars are still accepted and called point by point.
    Instances are immutable and safe to share across threads.
    """

    interval_kind: str
    decay_kind: str
    kappa: float
    jet: Callable

    def _derivative(self, order, t):
        with np.errstate(all="ignore"):
            return _result(self.jet(np.asarray(t, dtype=float))[order], t)

    def phi(self, t):
        return self._derivative(0, t)

    def dphi(self, t):
        return self._derivative(1, t)

    def d2phi(self, t):
        return self._derivative(2, t)

    def d3phi(self, t):
        return self._derivative(3, t)


def _from_c_library(name):
    """``math.<name>`` applied to every entry of an array.

    numpy's vectorized sinh, cosh, tanh, exp and log1p round about 5-25%
    of arguments differently from the C library in the last bit, and low
    eigenvalues at rounding level follow such changes of the weights (by
    up to half a digit at n >= 100).  The maps therefore take their
    elementary functions from ``math``, and their formulas keep one
    operation order, so an assembled matrix rounds exactly as a point by
    point evaluation with ``math`` does.  Where ``math`` reports an
    overflow, numpy's inf is used.
    """
    scalar, vector = getattr(math, name), getattr(np, name)

    def apply(t):
        try:
            return np.fromiter(map(scalar, t.ravel().tolist()), float, t.size).reshape(t.shape)
        except OverflowError:
            return vector(t)
    return apply


_sinh, _cosh, _tanh, _exp, _log1p = map(_from_c_library, ("sinh", "cosh", "tanh", "exp", "log1p"))


def _sech2(y):
    # 1/cosh^2: cosh(y) -> inf gives a clean 0.
    c = _cosh(y)
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
    a = _exp(np.minimum(y, 0.0))
    b = _exp(-np.maximum(y, 0.0))
    g = (a * b) ** 2
    root = np.sqrt(1.0 + g)
    r = 1.0 / root
    p1 = a * r
    c = (b * r) ** 2
    p2 = p1 * c
    value = np.maximum(y, 0.0) + _log1p(a + g / (1.0 + root))
    return value, p1, p2, p2 * (3.0 * c - 2.0)


def _unit_se_jet(t):
    u = _tanh(t)
    s2 = _sech2(t)
    return 0.5 * u + 0.5, 0.5 * s2, -s2 * u, s2 * (2.0 * u * u - s2)


def _unit_de_jet(t):
    s, c = _sinh(t), _cosh(t)
    u = _tanh(s)
    s2 = _sech2(s)
    half = 0.5 * s2
    c3 = c * c * c
    return (0.5 * u + 0.5, half * c, half * (s - 2.0 * c * c * u),
            half * (c - 6.0 * c * s * u + 4.0 * c3 * u * u - 2.0 * c3 * s2))


def _half_line_de_jet(t):
    # phi = psi(sinh t) with psi = arcsinh o exp; chain rule throughout.
    s, c = _sinh(t), _cosh(t)
    value, p1, p2, p3 = _asinh_exp_jet(s)
    c2 = c * c
    return value, p1 * c, p2 * c2 + p1 * s, (p3 * c2 + 3.0 * p2 * s + p1) * c


def _real_line_se_jet(t):
    zero = np.zeros_like(t)
    return t.copy(), zero + 1.0, zero, zero


def _real_line_de_jet(kappa: float):
    def jet(t):
        s, c = kappa * _sinh(t), kappa * _cosh(t)
        return s, c, s, c
    return jet


def _validate_map(m: ConformalMap) -> None:
    # Monotonicity over the reachable mesh range, endpoint limits at +-20.
    ts = np.arange(-60, 61) / 10.0
    bad = np.flatnonzero(~(m.dphi(ts) > 0.0))
    if bad.size:
        raise ValueError(f"map derivative not positive at t={float(ts[bad[0]])}")
    lo, hi = m.phi(np.array([-20.0, 20.0])).tolist()
    if m.interval_kind == "unit":
        ok = abs(lo) < 1e-6 and abs(hi - 1.0) < 1e-6
    elif m.interval_kind == "half_line":
        ok = 0.0 <= lo < 1e-6 and hi > 10.0
    else:
        ok = lo < -10.0 and hi > 10.0
    if not ok:
        raise ValueError(
            f"map does not cover the {m.interval_kind} interval: phi(-20)={lo!r}, phi(20)={hi!r}"
        )


def map_catalog(interval_kind: str, decay_kind: str, kappa: float = 1.0) -> ConformalMap:
    """Look up a catalog map; kappa rescales only the real-line DE map."""
    if interval_kind not in INTERVAL_KINDS:
        raise ValueError(f"unknown interval kind {interval_kind!r}; expected one of {INTERVAL_KINDS}")
    if decay_kind not in DECAY_KINDS:
        raise ValueError(f"unknown decay kind {decay_kind!r}; expected one of {DECAY_KINDS}")
    if not (kappa > 0.0 and math.isfinite(kappa)):
        raise ValueError(f"map scale must be positive, got kappa={kappa!r}")
    if kappa != 1.0 and (interval_kind, decay_kind) != ("real_line", "DE"):
        raise ValueError("kappa != 1 is only supported for the real-line DE map")
    jets = {
        ("unit", "SE"): _unit_se_jet,
        ("unit", "DE"): _unit_de_jet,
        ("half_line", "SE"): _asinh_exp_jet,
        ("half_line", "DE"): _half_line_de_jet,
        ("real_line", "SE"): _real_line_se_jet,
        ("real_line", "DE"): _real_line_de_jet(kappa),
    }
    m = ConformalMap(interval_kind, decay_kind, kappa, jets[(interval_kind, decay_kind)])
    _validate_map(m)
    return m


def _values(f, x):
    """``f`` at every entry of the array ``x``, as floats.

    The result has the shape of ``x``, or is a scalar when ``f`` returns
    one constant.  ``f`` is called once, on the whole array.  A callable
    that only takes scalars raises there and is then called point by
    point; a point at which it raises an arithmetic or value error comes
    back as NaN.
    """
    try:
        values = np.asarray(f(x), dtype=float)
        if values.ndim == 0 or values.shape == x.shape:
            return values
        return np.broadcast_to(values, x.shape)
    except (ArithmeticError, TypeError, ValueError):
        pass
    out = np.empty(x.size)
    for i, xi in enumerate(x.ravel().tolist()):
        try:
            out[i] = f(xi)
        except (ArithmeticError, ValueError):
            out[i] = np.nan
    return out.reshape(x.shape)


def _result(values, t):
    return float(values) if np.ndim(t) == 0 else values


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
    """``combine(jet(t), f, t)`` for a scalar or an array of t, warnings off."""
    ts = np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):
        return _result(combine(jet(ts), f, ts), t)


def qtilde_eval(m: ConformalMap, q: Callable, t):
    """Transformed coefficient 3/4 (phi''/phi')^2 - phi'''/(2 phi') + phi'^2 q(phi).

    ``t`` is a scalar (the result is a float) or a numpy array (the
    result is an array of its shape).  ``q`` is called once, on the array
    of all phi(t); a callable that only takes scalars is called point by
    point.  Raises EvaluationError at the first entry of t where the
    result is not finite.
    """
    return _evaluate(_qtilde, m.jet, q, t)


def weight_eval(m: ConformalMap, rho: Callable, t):
    """Transformed weight rho(phi(t)) * phi'(t)^2, which must come out positive.

    Takes a scalar or an array of t and calls ``rho`` as ``qtilde_eval``
    calls q; raises EvaluationError at the first entry of t where the
    weight is not positive and finite.
    """
    return _evaluate(_weight, m.jet, rho, t)


@dataclass(frozen=True)
class TransformedProblem:
    """A problem after the change of variables, ready for collocation.

    ``qtilde`` and ``weight`` take a scalar or an array of t.
    """

    map: ConformalMap
    qtilde: Callable
    weight: Callable
    decay: DecayProfile


def _remember_last(jet):
    """``jet`` that reuses its result when called again with the same t.

    Assembly asks for qtilde and then for the weight on one mesh; this
    lets both share one evaluation of the map.
    """
    last = [None]

    def cached(t):
        key = (t.shape, t.tobytes())
        hit = last[0]
        if hit is not None and hit[0] == key:
            return hit[1]
        values = jet(t)
        last[0] = (key, values)
        return values
    return cached


def transform_problem(m: ConformalMap, q, rho, decay: DecayProfile) -> TransformedProblem:
    """Bundle the transformed coefficient and weight evaluators.

    Samples the weight on t in [-3, 3] so a sign mistake in rho surfaces
    at construction rather than deep inside an assembly.
    """
    weight_eval(m, rho, np.arange(-12, 13) / 4.0)
    jet = _remember_last(m.jet)
    return TransformedProblem(map=m, qtilde=lambda t: _evaluate(_qtilde, jet, q, t),
                              weight=lambda t: _evaluate(_weight, jet, rho, t), decay=decay)

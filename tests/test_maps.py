import math

import mpmath
import numpy as np
import pytest

from slsolve import EvaluationError, map_catalog, transform_problem

ALL_MAPS = [
    ("unit", "SE", 1.0),
    ("unit", "DE", 1.0),
    ("half_line", "SE", 1.0),
    ("half_line", "DE", 1.0),
    ("real_line", "SE", 1.0),
    ("real_line", "DE", 1.0),
    ("real_line", "DE", math.sqrt(0.2)),
]


def derivative(m, order):
    # t -> the order-th derivative of the map, on a float array of t
    return lambda t: m(np.asarray(t, dtype=float))[order]


def central(f, t, e):
    return (f(t + e) - f(t - e)) / (2.0 * e)


def curvature_fd(m, t, e=1e-4):
    # numerically differentiate -sqrt(phi') d/dt [ (1/phi') d/dt sqrt(phi') ]
    dphi = derivative(m, 1)
    F = lambda u: np.sqrt(dphi(u))
    G = lambda u: central(F, u, e) / dphi(u)
    return -F(t) * central(G, t, e)


def coefficients(m, q=lambda x: 0.0, rho=lambda x: 1.0):
    return transform_problem(m, q, rho)


def test_catalog_rejects_bad_arguments():
    with pytest.raises(ValueError):
        map_catalog("circle", "DE")
    with pytest.raises(ValueError):
        map_catalog("unit", "XX")
    with pytest.raises(ValueError):
        map_catalog("unit", "DE", kappa=0.5)
    with pytest.raises(ValueError):
        map_catalog("real_line", "DE", kappa=-1.0)


def test_identity_map_values():
    m = map_catalog("real_line", "SE")
    phi, dphi, d2phi, _ = m(np.array([2.0]))
    assert phi[0] == 2.0
    assert dphi[0] == 1.0
    assert d2phi[0] == 0.0


def test_unit_de_midpoint():
    m = map_catalog("unit", "DE")
    assert m(np.array([0.0]))[0][0] == pytest.approx(0.5, abs=1e-16)


def test_scaled_sinh_value():
    kappa = math.sqrt(0.2)
    m = map_catalog("real_line", "DE", kappa=kappa)
    phi = m(np.array([1.0]))[0][0]
    assert phi == pytest.approx(kappa * math.sinh(1.0), rel=1e-15)
    assert phi == pytest.approx(0.5255659512452867, abs=1e-15)


@pytest.mark.parametrize("interval,decay,kappa", ALL_MAPS)
def test_derivatives_match_finite_differences(interval, decay, kappa):
    m = map_catalog(interval, decay, kappa=kappa)
    e = 1e-5
    t = np.linspace(-3.0, 3.0, 25)
    for order in (1, 2, 3):
        exact = derivative(m, order)(t)
        fd = central(derivative(m, order - 1), t, e)
        assert exact == pytest.approx(fd, rel=1e-7, abs=1e-7)


_MP_SE_MAPS = {
    "unit": lambda y: mpmath.tanh(y) / 2 + mpmath.mpf(0.5),
    "half_line": lambda y: mpmath.asinh(mpmath.exp(y)),
    "real_line": lambda y: y,
}


@pytest.mark.parametrize("interval,decay,kappa", ALL_MAPS)
def test_jet_matches_mpmath_derivatives(interval, decay, kappa):
    m = map_catalog(interval, decay, kappa=kappa)
    t = np.linspace(-6.0, 6.0, 97)
    with np.errstate(all="ignore"):
        jet = np.array(np.broadcast_arrays(*m(t)))
    outer = _MP_SE_MAPS[interval]
    phi = outer if decay == "SE" else (lambda u: outer(mpmath.mpf(kappa) * mpmath.sinh(u)))
    with mpmath.workdps(40):
        ref = np.array([[float(d) for d in mpmath.diffs(phi, mpmath.mpf(float(ti)), 3)]
                        for ti in t]).T
    for k in range(4):
        tol = 1e-13 * np.abs(ref[k]) + 1e-15 * np.abs(ref[k]).max()
        assert np.all(np.abs(jet[k] - ref[k]) <= tol), k


@pytest.mark.parametrize("interval,decay,kappa", ALL_MAPS)
def test_maps_are_monotone_onto(interval, decay, kappa):
    m = map_catalog(interval, decay, kappa=kappa)
    phi = derivative(m, 0)
    # strictly increasing where the image is resolvable in double precision
    assert np.all(np.diff(phi(np.linspace(-3.5, 3.5, 71))) > 0.0)
    assert np.all(np.diff(phi(np.linspace(-6.0, 6.0, 121))) >= 0.0)
    with np.errstate(all="ignore"):
        # positive derivative over the reachable mesh range
        assert np.all(derivative(m, 1)(np.arange(-60, 61) / 10.0) > 0.0)
        lo, hi = phi(np.array([-20.0, 20.0])).tolist()
    if interval == "unit":
        assert abs(lo) < 1e-9 and abs(hi - 1.0) < 1e-9
    elif interval == "half_line":
        assert 0.0 <= lo < 1e-8 and hi > 10.0
    else:
        assert lo < -10.0 < 10.0 < hi


def test_half_line_de_asymptote_region_is_smooth():
    # crossing sinh(t) = 30 must not kink phi or its derivatives
    m = map_catalog("half_line", "DE")
    t_star = math.asinh(30.0)
    (below, above, mid), (dbelow, dabove, dmid) = m(
        np.array([t_star - 1e-7, t_star + 1e-7, t_star]))[:2]
    assert above - below == pytest.approx(2e-7 * dmid, rel=1e-3)
    assert dabove == pytest.approx(dbelow, rel=1e-6)


def test_qtilde_identity_map_reduces_to_q():
    m = map_catalog("real_line", "SE")
    q = lambda x: 3.0 * x * x - 1.0
    qtilde = coefficients(m, q).qtilde
    t = np.linspace(-4.0, 4.0, 33)
    assert np.array_equal(qtilde(t), q(t))
    assert qtilde(np.array([1.3]))[0] == pytest.approx(q(1.3), abs=1e-15)


def test_qtilde_sinh_map_zero_potential():
    m = map_catalog("real_line", "DE")
    qtilde = coefficients(m).qtilde
    assert qtilde(np.array([0.0]))[0] == pytest.approx(-0.5, abs=1e-15)
    # curvature of the sinh map in closed form: 1/4 - 3/4 sech^2
    t = np.linspace(-2.0, 2.0, 21)
    expected = 0.25 - 0.75 / np.cosh(t) ** 2
    assert qtilde(t) == pytest.approx(expected, rel=1e-13, abs=1e-14)


def test_qtilde_unit_de_bessel_point_value():
    # curvature 1/2 plus phi'(0)^2 * q(1/2) = 1/4 * 195 for order 7
    m = map_catalog("unit", "DE")
    q = lambda x: 48.75 / (x * x)
    assert coefficients(m, q).qtilde(np.array([0.0]))[0] == pytest.approx(49.25, abs=1e-12)


@pytest.mark.parametrize("interval,decay,kappa", ALL_MAPS)
def test_qtilde_matches_defining_expression(interval, decay, kappa):
    m = map_catalog(interval, decay, kappa=kappa)
    t = np.array([-1.5, -0.4, 0.0, 0.8, 2.0])
    oracle = curvature_fd(m, t)
    assert coefficients(m).qtilde(t) == pytest.approx(oracle, rel=2e-6, abs=2e-6)


def test_qtilde_propagates_coefficient_failures():
    m = map_catalog("real_line", "SE")
    q = lambda x: np.log(x)  # undefined for x <= 0
    with pytest.raises(EvaluationError) as info:
        coefficients(m, q).qtilde(np.array([-2.0]))
    assert info.value.point == -2.0


def test_weight_identity():
    m = map_catalog("real_line", "SE")
    assert coefficients(m).weight(np.array([0.77]))[0] == 1.0


def test_weight_unit_de():
    m = map_catalog("unit", "DE")
    assert coefficients(m).weight(np.array([0.0]))[0] == pytest.approx(0.25, abs=1e-16)


def test_weight_scaled_sinh_singular():
    kappa = math.sqrt(0.2)
    m = map_catalog("real_line", "DE", kappa=kappa)
    rho = lambda x: 1.0 / (x * x + np.cos(x))
    assert coefficients(m, rho=rho).weight(np.array([0.0]))[0] == pytest.approx(0.2, abs=1e-15)


def test_weight_must_be_positive():
    m = map_catalog("real_line", "SE")
    # a weight negative everywhere fails the construction sample
    with pytest.raises(EvaluationError, match="must be positive"):
        coefficients(m, rho=lambda x: -1.0)


def test_transform_problem_samples_weight():
    m = map_catalog("real_line", "SE")
    rho = lambda x: np.cos(x)  # negative inside the sampled window
    with pytest.raises(EvaluationError):
        transform_problem(m, lambda x: 0.0, rho)


def test_evaluation_error_names_first_failing_entry():
    m = map_catalog("real_line", "SE")
    # negative only left of the construction sample on [-3, 3]
    weight = coefficients(m, rho=lambda x: np.where(x > -5.0, 1.0, -1.0)).weight
    t = np.array([-5.5, -5.25, 1.0, 2.0, 3.0])
    with pytest.raises(EvaluationError) as info:
        weight(t)
    assert info.value.point == -5.5
    assert weight(t[2:]).shape == (3,)


def _identity_jet_breaking_outside_the_sample(p1, p3):
    # phi(t) = t, with phi' = p1 and phi''' = p3 where |t| > 3 only.
    def jet(t):
        outside = np.abs(t) > 3.0
        zero = np.zeros(t.shape)
        return t.copy(), np.where(outside, p1, 1.0), zero, np.where(outside, p3, 0.0)
    return jet


@pytest.mark.parametrize("jet,rho,coefficient,message", [
    (_identity_jet_breaking_outside_the_sample(0.0, 0.0), lambda x: 1.0, "qtilde",
     "map derivative must be positive, got 0.0"),
    (_identity_jet_breaking_outside_the_sample(1.0, np.inf), lambda x: 1.0, "qtilde",
     "transformed coefficient non-finite at x=4.0"),
    (map_catalog("real_line", "SE"), lambda x: np.where(np.abs(x) > 3.0, np.nan, 1.0), "weight",
     "transformed weight undefined or non-finite at x=4.0"),
], ids=["map-derivative", "coefficient", "weight"])
def test_failures_outside_the_construction_sample_are_described(jet, rho, coefficient, message):
    # Each passes the weight sample on [-3, 3] and fails at t = 4 only.
    tp = transform_problem(jet, lambda x: 0.0 * x, rho)
    with pytest.raises(EvaluationError) as info:
        getattr(tp, coefficient)(np.array([0.0, 4.0]))
    assert info.value.reason == message
    assert info.value.point == 4.0

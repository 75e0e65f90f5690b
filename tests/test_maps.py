import math

import numpy as np
import pytest

from slsolve import (EvaluationError, builtin, de_mesh, map_catalog, parse_problem_config,
                     qtilde_eval, se_mesh, transform_problem, transformed, weight_eval)
from slsolve.meshing import DecayProfile

ALL_MAPS = [
    ("unit", "SE", 1.0),
    ("unit", "DE", 1.0),
    ("half_line", "SE", 1.0),
    ("half_line", "DE", 1.0),
    ("real_line", "SE", 1.0),
    ("real_line", "DE", 1.0),
    ("real_line", "DE", math.sqrt(0.2)),
]


def central(f, t, e):
    return (f(t + e) - f(t - e)) / (2.0 * e)


def curvature_fd(m, t, e=1e-4):
    # numerically differentiate -sqrt(phi') d/dt [ (1/phi') d/dt sqrt(phi') ]
    F = lambda u: math.sqrt(m.dphi(u))
    G = lambda u: central(F, u, e) / m.dphi(u)
    return -F(t) * central(G, t, e)


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
    assert m.phi(2.0) == 2.0
    assert m.dphi(2.0) == 1.0
    assert m.d2phi(2.0) == 0.0


def test_unit_de_midpoint():
    m = map_catalog("unit", "DE")
    assert m.phi(0.0) == pytest.approx(0.5, abs=1e-16)


def test_scaled_sinh_value():
    kappa = math.sqrt(0.2)
    m = map_catalog("real_line", "DE", kappa=kappa)
    assert m.phi(1.0) == pytest.approx(kappa * math.sinh(1.0), rel=1e-15)
    assert m.phi(1.0) == pytest.approx(0.5255659512452867, abs=1e-15)


@pytest.mark.parametrize("interval,decay,kappa", ALL_MAPS)
def test_derivatives_match_finite_differences(interval, decay, kappa):
    m = map_catalog(interval, decay, kappa=kappa)
    e = 1e-5
    for t in np.linspace(-3.0, 3.0, 25):
        t = float(t)
        for exact, fd in (
            (m.dphi(t), central(m.phi, t, e)),
            (m.d2phi(t), central(m.dphi, t, e)),
            (m.d3phi(t), central(m.d2phi, t, e)),
        ):
            assert exact == pytest.approx(fd, rel=1e-7, abs=1e-7)


@pytest.mark.parametrize("interval,decay,kappa", ALL_MAPS)
def test_maps_are_monotone_onto(interval, decay, kappa):
    m = map_catalog(interval, decay, kappa=kappa)
    # strictly increasing where the image is resolvable in double precision
    ts = np.linspace(-3.5, 3.5, 71)
    vals = [m.phi(float(t)) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    wide = [m.phi(float(t)) for t in np.linspace(-6.0, 6.0, 121)]
    assert all(b >= a for a, b in zip(wide, wide[1:]))
    if interval == "unit":
        assert abs(m.phi(-20.0)) < 1e-9 and abs(m.phi(20.0) - 1.0) < 1e-9
    elif interval == "half_line":
        assert m.phi(-20.0) < 1e-8 and m.phi(20.0) > 10.0


def test_half_line_de_asymptote_region_is_smooth():
    # crossing sinh(t) = 30 must not kink phi or its derivatives
    m = map_catalog("half_line", "DE")
    t_star = math.asinh(30.0)
    below, above = t_star - 1e-7, t_star + 1e-7
    assert m.phi(above) - m.phi(below) == pytest.approx(2e-7 * m.dphi(t_star), rel=1e-3)
    assert m.dphi(above) == pytest.approx(m.dphi(below), rel=1e-6)


def test_qtilde_identity_map_reduces_to_q():
    m = map_catalog("real_line", "SE")
    q = lambda x: 3.0 * x * x - 1.0
    for t in np.linspace(-4.0, 4.0, 33):
        assert qtilde_eval(m, q, float(t)) == q(float(t))
    assert qtilde_eval(m, q, 1.3) == pytest.approx(q(1.3), abs=1e-15)


def test_qtilde_sinh_map_zero_potential():
    m = map_catalog("real_line", "DE")
    q0 = lambda x: 0.0
    assert qtilde_eval(m, q0, 0.0) == pytest.approx(-0.5, abs=1e-15)
    # curvature of the sinh map in closed form: 1/4 - 3/4 sech^2
    for t in np.linspace(-2.0, 2.0, 21):
        expected = 0.25 - 0.75 / math.cosh(float(t)) ** 2
        assert qtilde_eval(m, q0, float(t)) == pytest.approx(expected, rel=1e-13, abs=1e-14)


def test_qtilde_unit_de_bessel_point_value():
    # curvature 1/2 plus phi'(0)^2 * q(1/2) = 1/4 * 195 for order 7
    m = map_catalog("unit", "DE")
    q = lambda x: 48.75 / (x * x)
    assert qtilde_eval(m, q, 0.0) == pytest.approx(49.25, abs=1e-12)


@pytest.mark.parametrize("interval,decay,kappa", ALL_MAPS)
def test_qtilde_matches_defining_expression(interval, decay, kappa):
    m = map_catalog(interval, decay, kappa=kappa)
    q = lambda x: 0.0
    for t in (-1.5, -0.4, 0.0, 0.8, 2.0):
        oracle = curvature_fd(m, t)
        assert qtilde_eval(m, q, t) == pytest.approx(oracle, rel=2e-6, abs=2e-6)


def test_qtilde_propagates_coefficient_failures():
    m = map_catalog("real_line", "SE")
    q = lambda x: math.log(x)  # undefined for x <= 0
    with pytest.raises(EvaluationError) as info:
        qtilde_eval(m, q, -2.0)
    assert info.value.point == -2.0


def test_weight_identity():
    m = map_catalog("real_line", "SE")
    assert weight_eval(m, lambda x: 1.0, 0.77) == 1.0


def test_weight_unit_de():
    m = map_catalog("unit", "DE")
    assert weight_eval(m, lambda x: 1.0, 0.0) == pytest.approx(0.25, abs=1e-16)


def test_weight_scaled_sinh_singular():
    kappa = math.sqrt(0.2)
    m = map_catalog("real_line", "DE", kappa=kappa)
    rho = lambda x: 1.0 / (x * x + math.cos(x))
    assert weight_eval(m, rho, 0.0) == pytest.approx(0.2, abs=1e-15)


def test_weight_must_be_positive():
    m = map_catalog("real_line", "SE")
    with pytest.raises(EvaluationError):
        weight_eval(m, lambda x: -1.0, 0.0)


def test_transform_problem_samples_weight():
    m = map_catalog("real_line", "SE")
    rho = lambda x: math.cos(x)  # negative inside the sampled window
    with pytest.raises(EvaluationError):
        transform_problem(m, lambda x: 0.0, rho, DecayProfile.se(alpha=1.0, rho_decay=1.0, d=1.0))


RADIAL_WELL = """
name = radial-well
interval = halfline
map = de
param a = 2.5
q = (a^2-1/4)/x^2 + x^2/16
rho = 1
d = 0.7853981633974483
beta_l = 1.25
beta_r = 0.03125
gamma_l = 1
gamma_r = 2
alpha_se = 1
rho_decay_se = 1
"""


def _mesh_points(problem, method, n):
    mesh = se_mesh(problem.se_profile, n) if method == "se" else de_mesh(problem.de_profile, n)
    return np.arange(-mesh.M, mesh.N + 1) * mesh.h


@pytest.mark.parametrize("problem", [builtin("bessel", n=7), builtin("laguerre", alpha=3.0),
                                     builtin("singular"), parse_problem_config(RADIAL_WELL)],
                         ids=["bessel", "laguerre", "singular", "radial-well"])
@pytest.mark.parametrize("method", ["se", "de"])
def test_array_evaluation_matches_scalar_path(problem, method):
    tp = transformed(problem, method)
    m = tp.map
    t = _mesh_points(problem, method, 40)
    q_array, w_array = tp.qtilde(t), tp.weight(t)
    q_scalar = np.array([qtilde_eval(m, problem.q, ti) for ti in t.tolist()])
    w_scalar = np.array([weight_eval(m, problem.rho, ti) for ti in t.tolist()])
    # scaled deviation as in criterion 6d
    assert np.max(np.abs(q_array - q_scalar) / np.maximum(1.0, np.abs(q_scalar))) <= 1e-12
    assert np.max(np.abs(w_array - w_scalar) / w_scalar) <= 1e-12


def test_scalar_only_coefficient_is_evaluated_point_by_point():
    m = map_catalog("half_line", "SE")
    t = np.linspace(-2.0, 2.0, 9)
    scalar_only = lambda x: math.log(x) + 1.0 / x
    vectorized = lambda x: np.log(x) + 1.0 / x
    np.testing.assert_array_equal(qtilde_eval(m, scalar_only, t), qtilde_eval(m, vectorized, t))
    with pytest.raises(EvaluationError) as info:
        qtilde_eval(map_catalog("real_line", "SE"), scalar_only, t)
    assert info.value.point == -2.0


def test_evaluation_error_names_first_failing_entry():
    m = map_catalog("real_line", "SE")
    t = np.array([-1.5, -0.5, 1.0, 2.0, 3.0])
    with pytest.raises(EvaluationError) as info:
        weight_eval(m, lambda x: np.where(x > 0.0, 1.0, -1.0), t)
    assert info.value.point == -1.5
    assert isinstance(weight_eval(m, lambda x: 1.0, 0.5), float)

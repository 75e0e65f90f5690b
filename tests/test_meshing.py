import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slsolve import (DEProfile, EvaluationError, MeshConfig, SEProfile, de_mesh,
                     de_mesh_symmetric, diff_matrix, map_catalog, se_mesh, transform_problem)
from slsolve.meshing import MAX_SIZE

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


def test_half_line_de_asymptote_region_is_smooth():
    # crossing sinh(t) = 30 must not kink phi or its derivatives
    m = map_catalog("half_line", "DE")
    t_star = math.asinh(30.0)
    (below, above, mid), (dbelow, dabove, dmid) = m(
        np.array([t_star - 1e-7, t_star + 1e-7, t_star]))[:2]
    assert above - below == pytest.approx(2e-7 * dmid, rel=1e-3)
    assert dabove == pytest.approx(dbelow, rel=1e-6)


def curvature_fd(m, t, e=1e-4):
    # numerically differentiate -sqrt(phi') d/dt [ (1/phi') d/dt sqrt(phi') ]
    dphi = derivative(m, 1)
    F = lambda u: np.sqrt(dphi(u))
    G = lambda u: central(F, u, e) / dphi(u)
    return -F(t) * central(G, t, e)


def coefficients(m, q=lambda x: 0.0, rho=lambda x: 1.0):
    return transform_problem(m, q, rho)


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


def test_one_element_coefficient_result_is_broadcast():
    # rho returns one value for the whole array: every node gets it.
    m = map_catalog("real_line", "SE")
    t = np.linspace(-1.0, 1.0, 5)
    tp = coefficients(m, rho=lambda x: np.ones(1))
    assert tp.weight(t).shape == t.shape
    assert tp.weight(t).tobytes() == coefficients(m).weight(t).tobytes()


def bisect_w(target, lo, hi, tol):
    # independent root bracketing of w*e^w - target
    f = lambda w: w * math.exp(w) - target
    assert f(lo) < 0.0 < f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


BESSEL7 = DEProfile(beta_left=7.0, beta_right=0.5, gamma_left=1.0,
                          gamma_right=1.0, d=math.pi / 2.0)
LAGUERRE3 = DEProfile(beta_left=1.5, beta_right=1.0 / 32.0, gamma_left=1.0,
                            gamma_right=2.0, d=math.pi / 4.0)


def test_profile_validation():
    with pytest.raises(ValueError, match="DE profile needs positive beta_left"):
        DEProfile(beta_left=0.0, beta_right=1.0, gamma_left=1.0, gamma_right=1.0, d=1.0)
    with pytest.raises(ValueError, match="SE profile needs positive alpha"):
        SEProfile(alpha=-1.0, rho_decay=1.0, d=1.0)
    with pytest.raises(ValueError, match="exceeds pi/"):
        # strip wider than pi / (2 gamma)
        DEProfile(beta_left=1.0, beta_right=1.0, gamma_left=2.0, gamma_right=2.0, d=1.0)
    with pytest.raises(ValueError, match="strip half-width must be positive"):
        SEProfile(alpha=1.0, rho_decay=1.0, d=math.inf)
    assert BESSEL7.kappa == 1.0


@pytest.mark.parametrize("kappa", [math.nan, 0.0, -1.0, math.inf])
def test_de_profile_refuses_kappa(kappa):
    with pytest.raises(ValueError, match=f"^DE profile needs positive kappa, got {kappa!r}$"):
        DEProfile(1.0, 1.0, 1.0, 1.0, 0.5, kappa=kappa)


def test_mesh_config_validation():
    with pytest.raises(ValueError):
        MeshConfig(h=0.0, M=1, N=1)
    with pytest.raises(ValueError):
        MeshConfig(h=0.1, M=-1, N=1)
    with pytest.raises(ValueError, match="^truncation indices must be integers, got M=2.5, N=3$"):
        MeshConfig(h=0.5, M=2.5, N=3)
    # assemble divides by h^2, which underflows to 0 here.
    with pytest.raises(ValueError, match=r"^mesh size h=3.1e-300 is out of range: h\^2 and 1/h\^2 "
                                         "must be finite and positive$"):
        MeshConfig(h=3.1e-300, M=1, N=1)
    assert MeshConfig(h=0.1, M=2, N=3).size == 6
    assert MeshConfig(h=0.1, M=np.int64(2), N=np.int64(3)).size == 6


def test_mesh_config_size_budget():
    assert MeshConfig(h=0.1, M=MAX_SIZE - 1001, N=1000).size == MAX_SIZE
    with pytest.raises(ValueError, match=f"pencil size {MAX_SIZE + 1} \\(M={MAX_SIZE - 1000}, "
                                         f"N=1000\\) exceeds the size budget {MAX_SIZE}$"):
        MeshConfig(h=0.1, M=MAX_SIZE - 1000, N=1000)


def test_symmetric_profile_gives_equal_truncation():
    profile = DEProfile(beta_left=0.025, beta_right=0.025, gamma_left=2.0,
                              gamma_right=2.0, d=math.pi / 4.0)
    for n in (1, 5, 17):
        mesh = de_mesh(profile, n)
        assert mesh.M == mesh.N == n


def test_bessel_case_matches_direct_formulas():
    # equal gammas, larger left beta: M governs, N from the ceiling formula
    n = 20
    w = bisect_w(10.0 * math.pi**2 / 7.0, 0.0, 20.0, 5e-15)
    mesh = de_mesh(BESSEL7, n)
    assert mesh.M == n
    assert mesh.h == pytest.approx(w / n, rel=1e-12)
    assert mesh.N == math.ceil(n * (1.0 + math.log(14.0) / w))


def test_laguerre_case_matches_direct_formulas():
    # gamma_right > gamma_left: N governs, M from the floor formula
    n = 30
    w = bisect_w(480.0 * math.pi**2, 0.0, 30.0, 5e-15)
    mesh = de_mesh(LAGUERRE3, n)
    assert mesh.N == n
    assert mesh.h == pytest.approx(w / 60.0, rel=1e-12)
    assert mesh.M == max(math.floor(2.0 * n * (1.0 - math.log(48.0) / w)), 0)


def test_equated_error_identity():
    # beta * exp(gamma n h) * h = pi d is exact for the chosen h
    for profile, side in ((BESSEL7, "left"), (LAGUERRE3, "right")):
        beta = profile.beta_left if side == "left" else profile.beta_right
        gamma = profile.gamma_left if side == "left" else profile.gamma_right
        for n in (1, 3, 10, 33, 80):
            h = de_mesh(profile, n).h
            value = beta * math.exp(gamma * n * h) * h
            assert value == pytest.approx(math.pi * profile.d, rel=1e-10)


def test_mesh_size_decreases_in_n():
    hs = [de_mesh(BESSEL7, n).h for n in range(1, 60)]
    assert all(b < a for a, b in zip(hs, hs[1:]))


def test_mirror_swap():
    def swap(p):
        return DEProfile(beta_left=p.beta_right, beta_right=p.beta_left,
                               gamma_left=p.gamma_right, gamma_right=p.gamma_left, d=p.d)

    # Left-governed profiles: Bessel by the larger beta on equal gammas,
    # swapped Laguerre by the larger gamma.
    for left in (BESSEL7, swap(LAGUERRE3)):
        right = swap(left)
        gamma, beta = left.gamma_left, left.beta_left
        for n in (2, 9, 21):
            a = de_mesh(left, n)
            b = de_mesh(right, n)
            assert a.h == b.h
            assert a.M == b.N == n
            # ceiling (left-governed) vs floor (right-governed) may differ by one
            assert a.N - 1 <= b.M <= a.N
            w = gamma * n * a.h  # h = W / (gamma n)
            inner = gamma / left.gamma_right * n * (1.0 + math.log(beta / left.beta_right) / w)
            assert a.N == max(math.ceil(inner), 0)
            assert b.M == max(math.floor(inner), 0)


def test_dependent_index_clamps_at_zero():
    profile = DEProfile(beta_left=100.0, beta_right=1e-4, gamma_left=1.0,
                              gamma_right=2.0, d=math.pi / 4.0)
    mesh = de_mesh(profile, 2)
    assert mesh.N == 2
    assert mesh.M == 0


def test_symmetric_variant_keeps_governing_mesh_size():
    for n in (3, 12):
        balanced = de_mesh(BESSEL7, n)
        symmetric = de_mesh_symmetric(BESSEL7, n)
        assert symmetric.h == balanced.h
        assert symmetric.M == symmetric.N == n


def test_se_mesh_unit_case():
    profile = SEProfile(alpha=math.pi * 0.3, rho_decay=1.0, d=0.3)
    assert se_mesh(profile, 1).h == pytest.approx(1.0, rel=1e-14)


def test_se_mesh_square_root_form():
    profile = SEProfile(alpha=2.0, rho_decay=1.0, d=0.7)
    for N in (4, 25):
        assert se_mesh(profile, N).h == pytest.approx(math.sqrt(math.pi * 0.7 / (2.0 * N)), rel=1e-14)


def test_se_mesh_gaussian_decay_case():
    # alpha = 1/2, rho = 2, d = sqrt(0.1): h = (4 pi sqrt(0.1) / N^2)^(1/3)
    profile = SEProfile(alpha=0.5, rho_decay=2.0, d=math.sqrt(0.1))
    mesh = se_mesh(profile, 10)
    expected = (4.0 * math.pi * math.sqrt(0.1) / 100.0) ** (1.0 / 3.0)
    assert mesh.h == pytest.approx(expected, rel=1e-14)
    assert mesh.M == mesh.N == 10


def test_kind_mismatch_rejected():
    se = SEProfile(alpha=1.0, rho_decay=1.0, d=1.0)
    with pytest.raises(ValueError, match="se_mesh requires an SE decay profile"):
        se_mesh(BESSEL7, 5)
    with pytest.raises(ValueError, match="^truncation index must be >= 1, got 0$"):
        se_mesh(se, 0)
    for mesh in (de_mesh, de_mesh_symmetric):
        with pytest.raises(ValueError, match="de_mesh requires a DE decay profile"):
            mesh(se, 5)
        with pytest.raises(ValueError):
            mesh(BESSEL7, 0)


def test_overflowing_dependent_index_is_a_value_error():
    # beta_left / beta_right overflows, so the dependent index is infinite.
    profile = DEProfile(beta_left=7.0, beta_right=5e-324, gamma_left=1.0,
                        gamma_right=1.0, d=math.pi / 2.0)
    with pytest.raises(ValueError, match=r"dependent truncation index at n=3 is not finite "
                                         r"for DEProfile\(beta_left=7.0, beta_right=5e-324"):
        de_mesh(profile, 3)
    # The symmetric mesh never forms the dependent index.
    assert de_mesh_symmetric(profile, 3) == de_mesh_symmetric(BESSEL7, 3)


def test_underflowing_mesh_equation_is_a_value_error():
    # pi d gamma n / beta underflows to 0, so W = h = 0.
    profile = DEProfile(beta_left=1e300, beta_right=1e300, gamma_left=1.0,
                        gamma_right=1.0, d=1e-300)
    for mesh in (de_mesh, de_mesh_symmetric):
        with pytest.raises(ValueError):
            mesh(profile, 1)
    with pytest.raises(ValueError, match="SE mesh size at N=10 is not finite"):
        se_mesh(SEProfile(alpha=1e300, rho_decay=2.0, d=1.0), 10)


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(beta_left=positive, beta_right=positive, gamma_left=positive, gamma_right=positive,
       d=positive, alpha=positive, rho_decay=positive, n=st.integers(1, 10**6))
def test_any_positive_constants_give_a_mesh_or_a_value_error(beta_left, beta_right, gamma_left,
                                                            gamma_right, d, alpha, rho_decay, n):
    de = (beta_left, beta_right, gamma_left, gamma_right, d)
    for make in (lambda: de_mesh(DEProfile(*de), n),
                 lambda: de_mesh_symmetric(DEProfile(*de), n),
                 lambda: se_mesh(SEProfile(alpha, rho_decay, d), n)):
        try:
            config = make()
        except ValueError:
            continue
        assert math.isfinite(config.h) and config.h > 0.0
        h2 = config.h * config.h
        assert h2 > 0.0 and math.isfinite(h2) and math.isfinite(1.0 / h2)
        assert config.M >= 0 and config.N >= 0


betas = st.floats(min_value=1e-6, max_value=1e6)
gammas = st.floats(min_value=0.1, max_value=10.0)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(beta_left=betas, beta_right=betas, gamma_left=gammas, gamma_right=gammas,
       d_share=st.floats(min_value=1e-3, max_value=1.0), n=st.integers(1, 200))
def test_de_mesh_size_strictly_increases_with_n(beta_left, beta_right, gamma_left, gamma_right,
                                                d_share, n):
    # Refining a DE mesh never shrinks it: the dependent index never
    # decreases in n, so each level of a study has a larger pencil.
    d = d_share * math.pi / (2.0 * max(gamma_left, gamma_right))
    profile = DEProfile(beta_left, beta_right, gamma_left, gamma_right, d)
    for mesh in (de_mesh, de_mesh_symmetric):
        try:
            sizes = [mesh(profile, m).size for m in range(n, n + 8)]
        except ValueError:
            continue
        assert all(a < b for a, b in zip(sizes, sizes[1:])), sizes


def test_mesh_builders_refuse_a_non_integer_level():
    se = SEProfile(alpha=1.0, rho_decay=1.0, d=1.0)
    with pytest.raises(ValueError, match="^truncation index must be an integer, got 2.5$"):
        se_mesh(se, 2.5)
    assert se_mesh(se, np.int64(3)) == se_mesh(se, 3)
    for mesh in (de_mesh, de_mesh_symmetric):
        with pytest.raises(ValueError, match="^governing index must be an integer, got 2.5$"):
            mesh(BESSEL7, 2.5)
        assert mesh(BESSEL7, np.int64(3)) == mesh(BESSEL7, 3)


# The Lambert W inside de_mesh, read back from its mesh size.  With
# gamma = n = 1 and d = 1 the DE mesh size is h = W(pi / beta), so a
# profile with beta = pi / x gives W(x) at x = pi / beta.

def lambert_w(x):
    """(W, its argument) through de_mesh; the argument is x up to rounding."""
    beta = math.pi / x
    profile = DEProfile(beta_left=beta, beta_right=beta, gamma_left=1.0, gamma_right=1.0, d=1.0)
    return de_mesh(profile, 1).h, math.pi / beta


def test_e_maps_to_one():
    assert lambert_w(math.e)[0] == pytest.approx(1.0, abs=1e-14)


def test_value_at_ten_matches_bisection():
    w, x = lambert_w(10.0)
    expected = bisect_w(x, 1.0, 2.0, 1e-15)
    assert expected == pytest.approx(1.7455280027406994, abs=1e-13)
    assert w == pytest.approx(expected, abs=1e-13)


def test_non_finite_rejected():
    # pi d gamma n / beta overflows to inf, and so would W and h.
    profile = DEProfile(beta_left=5e-324, beta_right=5e-324, gamma_left=1.0,
                        gamma_right=1.0, d=1.0)
    with pytest.raises(ValueError, match="mesh size must be positive, got h=inf"):
        de_mesh(profile, 1)


def test_residual_and_monotonicity_over_wide_range():
    ws, xs = np.array([lambert_w(float(x)) for x in np.logspace(-8, 8, 10000)]).T
    residual = np.abs(ws * np.exp(ws) - xs)
    assert np.all(residual <= 1e-13 * np.maximum(1.0, xs))
    assert np.all(np.diff(xs) > 0.0)
    assert np.all(np.diff(ws) > 0.0)


def test_asymptotic_ratio():
    ratio = lambert_w(1e8)[0] / math.log(1e8)
    assert 0.8 < ratio < 1.0


def basis(j, h, x):
    # the basis element centred at j*h, independent of the package
    return np.sinc((x - j * h) / h)


def d2_basis_fd(j, h, x, step=1e-2):
    # fourth-order central stencil for h^2 * S(j,h)''(x)
    vals = [basis(j, h, x + k * step) for k in (-2, -1, 0, 1, 2)]
    second = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * step**2)
    return h * h * second


# The oracle basis the finite-difference check differentiates: 1 at its
# own mesh point, 0 at every other one.
def test_basis_examples():
    assert basis(3, 0.5, 1.5) == 1.0
    assert basis(0, 1.0, 3.0) == pytest.approx(0.0, abs=1e-16)
    assert basis(2, 0.5, 1.25) == pytest.approx(0.6366197723675814, abs=1e-15)


# 0.1 is not binary-exact, so float(k * h) sits a few ulps off the true
# mesh point; the basis itself is exact there, hence the wider bound.
@pytest.mark.parametrize("h,tol", [(0.1, 1e-14), (0.5, 1e-15), (1.0, 1e-15)])
def test_discrete_orthogonality(h, tol):
    js = np.arange(-50, 51)
    for j in js:
        row = np.array([basis(int(j), h, float(k * h)) for k in js])
        expected = (js == j).astype(float)
        assert np.max(np.abs(row - expected)) <= tol


def test_diff_matrix_rejects_order0():
    # The pencil's mass matrix is the identity in the sinc basis, so only
    # order 2 is ever built.
    with pytest.raises(ValueError, match="expected 2"):
        diff_matrix(0, 3, 5)


def test_diff_matrix_order2_entries():
    D = diff_matrix(2, 4, 4)
    assert D[4, 4] == pytest.approx(-np.pi**2 / 3.0, abs=1e-15)
    assert D[4, 4] == pytest.approx(-3.2898681336964524, abs=1e-15)
    assert D[4, 5] == pytest.approx(2.0, abs=1e-16)
    assert D[4, 6] == pytest.approx(-0.5, abs=1e-16)


def test_diff_matrix_order2_exactly_symmetric():
    D = diff_matrix(2, 3, 7)
    assert np.array_equal(D, D.T)


def test_diff_matrix_order2_against_finite_differences():
    M = N = 5
    D = diff_matrix(2, M, N)
    h = 0.7
    for row, j in enumerate(range(-M, N + 1)):
        for col, k in enumerate(range(-M, N + 1)):
            oracle = d2_basis_fd(j, h, k * h)
            assert D[row, col] == pytest.approx(oracle, abs=1e-6)


def test_diff_matrix_rejects_bad_arguments():
    with pytest.raises(ValueError):
        diff_matrix(1, 2, 2)
    with pytest.raises(ValueError):
        diff_matrix(2, -1, 2)
    with pytest.raises(ValueError, match="^truncation indices must be integers, got M=2, N=3.0$"):
        diff_matrix(2, 2, 3.0)
    assert np.array_equal(diff_matrix(2, np.int64(2), np.int32(3)), diff_matrix(2, 2, 3))


def test_diff_matrix_refuses_sizes_over_the_budget():
    with pytest.raises(ValueError, match=f"pencil size {MAX_SIZE + 1} \\(M=1, N={MAX_SIZE - 1}\\) "
                                         f"exceeds the size budget {MAX_SIZE}"):
        diff_matrix(2, 1, MAX_SIZE - 1)


def _diff_matrix_dense(M, N):
    # Entry by entry from the offsets |k - j|: the reference for the
    # Toeplitz fill, which must reproduce it bit for bit.
    k = np.arange(M + N + 1)
    offset = np.abs(k[None, :] - k[:, None])
    sign = np.where(offset % 2 == 0, 1.0, -1.0)
    out = -2.0 * sign / np.square(np.maximum(offset, 1))
    out[offset == 0] = -np.pi**2 / 3.0
    return out


@pytest.mark.parametrize("M,N", [(0, 0), (0, 1), (3, 7), (20, 20), (60, 60), (140, 140),
                                 (300, 299)])
def test_diff_matrix_order2_matches_dense_reference(M, N):
    D = diff_matrix(2, M, N)
    assert D.flags.c_contiguous and D.flags.writeable
    assert np.array_equal(D, _diff_matrix_dense(M, N))

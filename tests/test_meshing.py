import math

import pytest
from hypothesis import given, settings, strategies as st

from slsolve import DEProfile, MeshConfig, SEProfile, de_mesh, de_mesh_symmetric, se_mesh
from slsolve.meshing import MAX_SIZE


def bisect_w(target, lo=0.0, hi=20.0, tol=5e-15):
    f = lambda w: w * math.exp(w) - target
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
    assert MeshConfig(h=0.1, M=2, N=3).size == 6


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
    w = bisect_w(10.0 * math.pi**2 / 7.0)
    mesh = de_mesh(BESSEL7, n)
    assert mesh.M == n
    assert mesh.h == pytest.approx(w / n, rel=1e-12)
    assert mesh.N == math.ceil(n * (1.0 + math.log(14.0) / w))


def test_laguerre_case_matches_direct_formulas():
    # gamma_right > gamma_left: N governs, M from the floor formula
    n = 30
    w = bisect_w(480.0 * math.pi**2, hi=30.0)
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
        assert config.M >= 0 and config.N >= 0


betas = st.floats(min_value=1e-6, max_value=1e6)
gammas = st.floats(min_value=0.1, max_value=10.0)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(beta_left=betas, beta_right=betas, gamma_left=gammas, gamma_right=gammas,
       d_share=st.floats(min_value=1e-3, max_value=1.0), n=st.integers(1, 200))
def test_de_mesh_size_strictly_increases_with_n(beta_left, beta_right, gamma_left, gamma_right,
                                                d_share, n):
    # A study serves each level its coefficients by node count, which
    # names one level because the dependent index never decreases in n.
    d = d_share * math.pi / (2.0 * max(gamma_left, gamma_right))
    profile = DEProfile(beta_left, beta_right, gamma_left, gamma_right, d)
    for mesh in (de_mesh, de_mesh_symmetric):
        try:
            sizes = [mesh(profile, m).size for m in range(n, n + 8)]
        except ValueError:
            continue
        assert all(a < b for a, b in zip(sizes, sizes[1:])), sizes

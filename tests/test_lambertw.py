"""The Lambert W inside de_mesh, read back from its mesh size.

With gamma = n = 1 and d = 1 the DE mesh size is h = W(pi / beta), so a
profile with beta = pi / x gives W(x) at x = pi / beta.
"""

import math

import numpy as np
import pytest

from slsolve import DEProfile, de_mesh
from test_meshing import bisect_w


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

import math

import numpy as np
import pytest

from slsolve.meshing import lambert_w0


def bisect_w(target, lo, hi, tol=1e-15):
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


def test_zero():
    assert lambert_w0(0.0) == 0.0


def test_e_maps_to_one():
    assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)


def test_value_at_ten_matches_bisection():
    expected = bisect_w(10.0, 1.0, 2.0)
    assert expected == pytest.approx(1.7455280027406994, abs=1e-13)
    assert lambert_w0(10.0) == pytest.approx(expected, abs=1e-13)


def test_negative_rejected():
    with pytest.raises(ValueError):
        lambert_w0(-1e-12)


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        lambert_w0(float("nan"))
    with pytest.raises(ValueError):
        lambert_w0(float("inf"))


def test_residual_and_monotonicity_over_wide_range():
    xs = np.logspace(-8, 8, 10000)
    ws = np.array([lambert_w0(float(x)) for x in xs])
    residual = np.abs(ws * np.exp(ws) - xs)
    assert np.all(residual <= 1e-13 * np.maximum(1.0, xs))
    assert np.all(np.diff(ws) > 0.0)


def test_asymptotic_ratio():
    ratio = lambert_w0(1e8) / math.log(1e8)
    assert 0.8 < ratio < 1.0

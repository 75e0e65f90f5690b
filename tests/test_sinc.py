import importlib
import sys
import threading

import numpy as np
import pytest

from slsolve import diff_matrix


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


def _diff_matrix_dense(M, N):
    # Entry by entry from the offsets |k - j|: the reference for the
    # Toeplitz fill, which must reproduce it bit for bit.
    k = np.arange(M + N + 1)
    offset = np.abs(k[None, :] - k[:, None])
    sign = np.where(offset % 2 == 0, 1.0, -1.0)
    out = -2.0 * sign / np.square(np.maximum(offset, 1))
    out[offset == 0] = -np.pi**2 / 3.0
    return out


@pytest.mark.parametrize("M,N", [(0, 0), (0, 1), (3, 7), (20, 20), (60, 60), (140, 140)])
def test_diff_matrix_order2_matches_dense_reference(M, N):
    D = diff_matrix(2, M, N)
    assert D.flags.c_contiguous and D.flags.writeable
    assert np.array_equal(D, _diff_matrix_dense(M, N))


def test_diff_matrix_order2_exact_in_any_size_order(monkeypatch):
    # Order 2 reads a band built for the largest size so far: start from
    # no band, grow it, read smaller sizes out of it, and write into each
    # result before the next call.
    monkeypatch.setattr(importlib.import_module("slsolve.sinc"), "_band", np.empty(0))
    for M, N in [(20, 39), (0, 0), (3, 3), (50, 149), (30, 30), (20, 39)]:
        D = diff_matrix(2, M, N)
        assert D.flags.c_contiguous and D.flags.writeable
        assert np.array_equal(D, _diff_matrix_dense(M, N))
        D.fill(np.nan)


def test_diff_matrix_concurrent_growth_stays_exact():
    # Threads start together from no band, so they grow and read it at
    # once, with a short switch interval so they interleave inside
    # diff_matrix.  A reader must never see a band that is not complete.
    module = importlib.import_module("slsolve.sinc")
    orders = [[5, 40, 80, 120], [120, 3, 60, 90], [30, 100, 7, 110], [90, 11, 120, 50]]
    reference = {s: _diff_matrix_dense(s // 2, s - 1 - s // 2) for order in orders for s in order}
    mismatches = []

    def worker(barrier, order):
        barrier.wait(timeout=10)
        for s in order:
            if not np.array_equal(diff_matrix(2, s // 2, s - 1 - s // 2), reference[s]):
                mismatches.append(s)

    saved_band, interval = module._band, sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            module._band = np.empty(0)
            barrier = threading.Barrier(len(orders))
            threads = [threading.Thread(target=worker, args=(barrier, order)) for order in orders]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        module._band = saved_band
    assert mismatches == []

import numpy as np
import pytest

from slsolve import diff_matrix
from slsolve.meshing import MAX_SIZE


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

"""Eigenvalues of a stored double-precision pencil (A, D^2), in extended precision.

The solvers' results are compared with the exact eigenvalues of the
pencil they were given, not with the problem's, so that a solver that
loses digits is told apart from a mesh that is too coarse.  The pencil's
entries are taken exactly into a wider type; an LU factorization with
partial pivoting of A - sigma D^2, with sigma just above the double
result, then inverse iteration and the Rayleigh quotient all run in that
type.  It is numpy's ``longdouble`` where that is wider than double by
at least a factor 200 in eps (the x87 80-bit type: eps 1.08e-19, and an
exponent range to 1e4932, so graded weights of 1e-272 are no problem);
elsewhere it is mpmath at 96 bits, much slower.  ``BACKEND`` says which.

It shares no code with slsolve.
"""

import mpmath
import numpy as np

BACKEND = "longdouble" if np.finfo(np.longdouble).eps < 1e-18 else "mpmath"
_EPS = np.finfo(float).eps


def _wide(x):
    """``x`` (float64) exactly, in the backend's type."""
    x = np.asarray(x, dtype=float)
    if BACKEND == "longdouble":
        return x.astype(np.longdouble)
    return np.frompyfunc(mpmath.mpf, 1, 1)(x)


def _lu(K):
    """LU with partial pivoting, in place: (K holding L below the diagonal and U, row order)."""
    n = len(K)
    rows = np.arange(n)
    for j in range(n - 1):
        p = j + int(np.argmax(np.abs(K[j:, j])))
        K[[j, p]], rows[[j, p]] = K[[p, j]], rows[[p, j]]
        K[j + 1:, j] /= K[j, j]
        K[j + 1:, j + 1:] -= np.outer(K[j + 1:, j], K[j, j + 1:])
    return K, rows


def _solve(K, rows, b):
    x = b[rows]
    for j in range(len(x)):
        x[j + 1:] -= K[j + 1:, j] * x[j]
    for j in range(len(x) - 1, -1, -1):
        x[j] /= K[j, j]
        x[:j] -= K[:j, j] * x[j]
    return x


def eigenpair(A, w, mu, solves=3):
    """The eigenvalue of (A, diag(w)) next to the double ``mu``, wide, and its eigenvector."""
    with mpmath.workprec(96):
        A, w = _wide(A), _wide(w)
        sigma = mu + 1e-9 * max(1.0, abs(mu))
        K, rows = _lu(A - np.diag(sigma * w))
        y = w * 0 + 1
        for _ in range(solves):
            y = _solve(K, rows, w * y)
            y = y / np.abs(y).max()
        return A.dot(y).dot(y) / (w * y).dot(y), y.astype(float)


def error_and_floor(A, w, mu):
    """(|mu - mu_exact|, f): f = eps |z|^T |A| |z| / z^T D^2 z, the pencil's rounding floor at z."""
    exact, z = eigenpair(A, w, mu)
    with mpmath.workprec(96):
        error = float(abs(_wide(mu) - exact))
    z = np.abs(z)
    return error, _EPS * z.dot(np.abs(A).dot(z)) / (np.asarray(w) * z).dot(z)

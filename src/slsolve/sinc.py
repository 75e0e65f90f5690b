"""The order-2 sinc differentiation matrix of the collocation pencil.

The method samples the sinc basis only through this matrix at the mesh
points k*h, so the basis itself is never evaluated point by point.
"""

import numpy as np

from .meshing import MAX_SIZE


def _mirrored_first_row() -> np.ndarray:
    """row[S-1], ..., row[1], row[0], row[1], ..., row[S-1] for S = MAX_SIZE, read-only."""
    k = np.arange(MAX_SIZE)
    row = np.where(k % 2 == 0, -2.0, 2.0) / np.square(np.maximum(k, 1))
    row[0] = -np.pi**2 / 3.0
    mirrored = np.concatenate((row[:0:-1], row))
    mirrored.flags.writeable = False
    return mirrored


# row[k] does not depend on the size, so every matrix reads a window of
# this one array.
_TOEPLITZ = _mirrored_first_row()


def diff_matrix(order: int, M: int, N: int) -> np.ndarray:
    """Second-derivative matrix of the sinc basis at unit mesh size.

    Entry (j, k), with j, k = -M..N mapped to 0-based storage by +M,
    holds h^2 times the second derivative of the basis element
    sinc((x - j*h)/h), evaluated at x = k*h.  The h-scaling makes the
    result independent of h: the symmetric Toeplitz matrix with diagonal
    -pi^2/3 and off-diagonals -2(-1)^(k-j)/(k-j)^2.  ``order`` must be 2;
    it stays in the signature for wrappers written against (order, M, N),
    such as the benchmark tracer's hook.

    The matrix is copied out of one read-only array built at import: the
    first row of the matrix of size ``meshing.MAX_SIZE``, laid out both
    ways.  A size over that budget raises ValueError.  The result is
    always a fresh, writeable, C-contiguous array.
    """
    if order != 2:
        raise ValueError(f"unsupported derivative order {order!r}; expected 2")
    if M < 0 or N < 0:
        raise ValueError(f"truncation indices must be nonnegative, got M={M}, N={N}")
    size = M + N + 1
    if size > MAX_SIZE:
        raise ValueError(f"pencil size {size} (M={M}, N={N}) exceeds the size budget {MAX_SIZE}")
    # Entry (j, k) depends on |k - j| only: row j of the matrix is the
    # window of the mirrored row that starts j places left of its centre.
    step = _TOEPLITZ.itemsize
    windows = np.ndarray((size, size), buffer=_TOEPLITZ, offset=(MAX_SIZE - 1) * step,
                         strides=(-step, step))
    return windows.copy()

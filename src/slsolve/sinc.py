"""The order-2 sinc differentiation matrix of the collocation pencil.

The method samples the sinc basis only through this matrix at the mesh
points k*h, so the basis itself is never evaluated point by point.
"""

import numpy as np


# The order-2 band row[S-1], ..., row[1], row[0], row[1], ..., row[S-1] of
# the largest size S built so far.  row[k] does not depend on the size, so
# every smaller matrix reads a window of it.  The band is read-only and is
# only ever replaced whole, by one assignment, so a concurrent caller sees
# either the old band or the new one, each complete.
_band = np.empty(0)


def _order2_band(size: int) -> np.ndarray:
    global _band
    band = _band
    if band.size < 2 * size - 1:
        # Grow at least geometrically, so an ascending series of levels
        # builds the band a logarithmic number of times.
        k = np.arange(max(size, band.size + 1))
        row = np.where(k % 2 == 0, -2.0, 2.0) / np.square(np.maximum(k, 1))
        row[0] = -np.pi**2 / 3.0
        band = np.concatenate((row[:0:-1], row))
        band.flags.writeable = False
        _band = band
    return band


def diff_matrix(order: int, M: int, N: int) -> np.ndarray:
    """Second-derivative matrix of the sinc basis at unit mesh size.

    Entry (j, k), with j, k = -M..N mapped to 0-based storage by +M,
    holds h^2 times the second derivative of the basis element
    sinc((x - j*h)/h), evaluated at x = k*h.  The h-scaling makes the
    result independent of h: the symmetric Toeplitz matrix with diagonal
    -pi^2/3 and off-diagonals -2(-1)^(k-j)/(k-j)^2.  ``order`` must be 2;
    it stays in the signature for wrappers written against (order, M, N),
    such as the benchmark tracer's hook.

    The matrix is copied out of one read-only band, built for the largest
    size asked for so far and reused by every smaller one; the result is
    always a fresh, writeable, C-contiguous array.
    """
    if order != 2:
        raise ValueError(f"unsupported derivative order {order!r}; expected 2")
    if M < 0 or N < 0:
        raise ValueError(f"truncation indices must be nonnegative, got M={M}, N={N}")
    size = M + N + 1
    band = _order2_band(size)
    # Entry (j, k) depends on |k - j| only: row j of the matrix is the
    # window of the band that starts j places left of its centre.
    step = band.itemsize
    centre = (band.size - 1) // 2
    windows = np.ndarray((size, size), buffer=band, offset=centre * step,
                         strides=(-step, step))
    return windows.copy()

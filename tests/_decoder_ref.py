"""Whole-array Dn and E8 decoders as they stood before the one-pass rewrite, used as a test oracle.

`_nearest_dn_points` fixes the parity on a full copy of every row and
selects with `np.where`; `_nearest_e8_points` runs one D8 decode per coset
and compares the coset distances with `_sqnorm_rows`.  The library's
decoders must return the same bits.
"""

import numpy as np

from rsuq.lattices import _sqnorm_rows


def _nearest_dn_points(X):
    """Nearest point of {z integer : sum z even} for each row, in Z^n coords."""
    f = np.ceil(X - 0.5)
    e = X - f
    # an int64 sum: a float sum of n coordinates near the input limit can
    # pass 2**53 and round away the parity
    odd = (f.astype(np.int64).sum(axis=1) & 1) == 1
    rows = np.arange(X.shape[0])
    k = np.argmax(np.abs(e), axis=1)
    step = np.where(e[rows, k] > 0, 1.0, -1.0)
    g = f.copy()
    g[rows, k] += step
    return np.where(odd[:, None], g, f)


def _nearest_e8_points(X):
    """Nearest E8 point via the D8 / D8 + (1/2)^8 coset decomposition."""
    y0 = _nearest_dn_points(X)
    y1 = _nearest_dn_points(X - 0.5) + 0.5
    d0 = _sqnorm_rows(X - y0)
    d1 = _sqnorm_rows(X - y1)
    return np.where((d0 <= d1)[:, None], y0, y1)

"""Per-round reference for the rejection loop and the decoder, used as a test oracle.

`reject_ref` runs every round through integer coordinates, for every
lattice family: `nearest_rows` gives j, and the embedding G j is the
fixed-order column sum.  The fold is `W - G nearest_rows(W)` the same way.
The library keeps Zn, Dn and E8 in R^n, converts only accepted rows to
coordinates and embeds integer rows by an int64 product; `reject_ref` and
`decode_ref` are drop-in replacements for `rsuq.quantizer._reject_rows`
and `_decode_rows`, and their outputs are compared bit for bit.
"""

import numpy as np

from rsuq.dither import gathered_uniforms, stream_uniforms
from rsuq.lattices import _accumulate_columns


def embed_ref(lat, J):
    # G j as sum_k j_k G[:, k], one column at a time
    return _accumulate_columns(J, lat._g_cols)


def fold_ref(lat, U):
    W = embed_ref(lat, U)
    return W - embed_ref(lat, lat.nearest_rows(W))


def reject_ref(lat, gamma, X, seeds, reserved, max_iters, accept):
    Xg = X / gamma
    N, n = X.shape
    K = np.zeros(N, dtype=np.int64)
    J = np.zeros((N, n), dtype=np.int64)
    Y = np.zeros((N, n))
    active = np.arange(N)
    for t in range(max_iters):
        if active.size == 0:
            return K, J, Y
        u = stream_uniforms(seeds[active], reserved + t * n, n)
        v = fold_ref(lat, u)
        j = lat.nearest_rows(Xg[active] - v)
        y = gamma * (embed_ref(lat, j) + v)
        ok = accept(y - X[active], active)
        hit = active[ok]
        K[hit] = t + 1
        J[hit] = j[ok]
        Y[hit] = y[ok]
        active = active[~ok]
    if active.size:
        raise RuntimeError(f"no acceptance within {max_iters} rounds")
    return K, J, Y


def decode_ref(lat, scale, seeds, K, J, reserved=0):
    K = np.asarray(K, dtype=np.int64)
    n = lat.n
    idx = (np.uint64(reserved) + (K - 1).astype(np.uint64)[:, None] * np.uint64(n)
           + np.arange(n, dtype=np.uint64)[None, :])
    v = fold_ref(lat, gathered_uniforms(seeds, idx))
    return scale * (embed_ref(lat, np.atleast_2d(J)) + v)

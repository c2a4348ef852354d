"""Per-round reference for the rejection loop and the decoder, used as a test oracle.

`reject_ref` runs every round through integer coordinates and two searches,
the fold and then the search on x / gamma - V, for every lattice family:
`nearest_rows` gives j, and the embedding G j is the dense fixed-order
column sum `dense_column_sum`, written out here apart from the library's
kernel.  The fold is `W - G nearest_rows(W)` the same way.  The library
screens each draw with one search in R^n and rebuilds M and y once, at
the accepted draw; `reject_ref` and `decode_ref` are drop-in replacements
for `rsuq.quantizer._reject_rows` and `_decode_rows`, and their outputs
are compared bit for bit.
"""

import numpy as np

import rsuq.quantizer
from rsuq.dither import gathered_uniforms, stream_uniforms


def dense_column_sum(X, A):
    # sum_k X[:, k] * A[:, k], one column at a time, every term kept
    X = np.asarray(X, dtype=np.float64)
    out = np.zeros_like(X)
    for k in range(A.shape[1]):
        out += X[:, k : k + 1] * A[:, k]
    return out


def embed_ref(lat, J):
    return dense_column_sum(J, lat.G)


def fold_ref(lat, U):
    W = embed_ref(lat, U)
    return W - embed_ref(lat, lat.nearest_rows(W))


def reject_ref(lat, gamma, X, seeds, reserved, r2=None, accept=None):
    Xg = X / gamma
    N, n = X.shape
    K = np.zeros(N, dtype=np.int64)
    J = np.zeros((N, n), dtype=np.int64)
    Y = np.zeros((N, n))
    active = np.arange(N)
    max_iters = rsuq.quantizer.default_max_iters(lat)
    for t in range(max_iters):
        if active.size == 0:
            return K, J, Y
        u = stream_uniforms(seeds[active], reserved + t * n, n)
        v = fold_ref(lat, u)
        j = lat.nearest_rows(Xg[active] - v)
        y = gamma * (embed_ref(lat, j) + v)
        err = y - X[active]
        if accept is None:
            ok = np.einsum("ij,ij->i", err, err) <= r2[active]
        else:
            ok = accept(err, active)
        hit = active[ok]
        K[hit] = t + 1
        J[hit] = j[ok]
        Y[hit] = y[ok]
        active = active[~ok]
    if active.size:
        raise RuntimeError(f"no acceptance within {max_iters} rounds")
    return K, J, Y


def count_fold_rows(monkeypatch):
    """Count the rows the library passes to `fold_rows`; returns a one-item list."""
    rows = [0]
    fold = rsuq.quantizer.fold_rows

    def counted(lat, U):
        rows[0] += len(U)
        return fold(lat, U)

    monkeypatch.setattr(rsuq.quantizer, "fold_rows", counted)
    return rows


def decode_ref(lat, scale, seeds, K, J, reserved=0):
    K = np.asarray(K, dtype=np.int64)
    n = lat.n
    idx = (np.uint64(reserved) + (K - 1).astype(np.uint64)[:, None] * np.uint64(n)
           + np.arange(n, dtype=np.uint64)[None, :])
    v = fold_ref(lat, gathered_uniforms(seeds, idx))
    return scale * (embed_ref(lat, np.atleast_2d(J)) + v)

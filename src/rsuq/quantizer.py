"""Rejection-sampled universal quantization with error uniform over a ball.

The encoder redraws shared dithers until the reconstruction lands within
radius r of the input, then transmits the stopping index K and the lattice
point M.  With the cell scaled by gamma = r / packing_radius the ball fits
inside the scaled Voronoi cell, the acceptance probability per draw equals
the packing density of the lattice, and the error is exactly uniform over
the r-ball and independent of the input.

Each draw costs one product W = G u and one squared distance with no
lattice point built.  The dither is the fold of W into the Voronoi cell,
V = W mod the lattice, and the norm of the error of draw k does not
depend on that reduction, so the loop decides each draw on the squared
distance of x / gamma - W to the lattice.  That distance, its closed
forms and the proved rounding band of the radius are the lattice's
(`Lattice.sqdist_rows`, `Lattice.screen_limits`).  Draws within the band
are decided again by the exact fold-and-search, and one pass at every
row's stopping index K rebuilds the accepted V, M and reconstruction as
the decoder does: K, M and every output bit are those of testing V itself.

The loop is coordinate-major.  Round t draws for the A rows still
active, and every per-draw array has one row per coordinate: the dithers
come word-major from `stream_uniforms`, x / gamma is formed once as an
(n, N) array and kept compacted to the active rows' columns (with their
indices, seeds and screen limits), and W is one (n, A) product G u^T,
the layout the closed forms of `sqdist_rows` reduce fastest.  Rows stop
at a geometric rate, so most rounds serve a few rows and each round's
fixed cost, a count of numpy calls, matters as much as its work.  The
pass at K and every decoder's rebuild of V_K draw their words word-major
as well, from a word index laid out as (n, rows), and the fold's
embedding reads those rows without a copy; only the searches (the point
decoders, the band's exact test and the search at K) stay row-major: the
band gathers its rows of x / gamma into a C-ordered copy, and the pass
at K divides its own rows of x by gamma.

The entry points take rows and derive one stream seed per row
(derive_seed mixed with the row index), so results are reproducible and
row i's bits do not depend on the other rows.  A vector of shape (n,) is
one row, seeded with derive_seed(seed, 0).

Everything runs on the calling thread.  The stages after the rejection
loop compute each row from that row alone, so `split_rows` runs them on
row slices, each writing its rows into output arrays allocated once for
the batch: the pass at K, the decoder's rebuild of M + V_K and the
layered quantizer's level draw.  A slice holds at most _SLICE_MAX
coordinates, which bounds the temporaries of a large batch.  No output
bit depends on the cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dither import derive_seeds, fold_rows, gathered_uniforms, stream_uniforms
from .lattices import Lattice, as_rows, check_rows, packing_density


# Each call of a split stage covers at most _SLICE_MAX coordinates, so its
# temporaries stay in the CPU caches and below a few MB.
_SLICE_MAX = 2 ** 16


def split_rows(fn, N, n):
    """Run fn(rows) over consecutive row slices `rows` covering 0..N, in order.

    fn writes the results of its rows in place, into arrays the caller
    allocated for all N rows, and must compute each row from that row
    alone, so the results do not depend on the cut.  Every slice holds at
    most _SLICE_MAX coordinates (one row if a row holds more).  The first
    slice that raises stops the loop.
    """
    step = max(1, _SLICE_MAX // n)
    for lo in range(0, N, step):
        fn(slice(lo, min(lo + step, N)))


class RejectionCapError(RuntimeError):
    """A row found no acceptance within default_max_iters(lat) rounds."""


def default_max_iters(lat: Lattice) -> int:
    """Rejection-round cap whose geometric failure probability is below e**-50."""
    return int(math.ceil(50.0 / packing_density(lat)))


@dataclass
class RsuqConfig:
    """Ball-error quantizer configuration.

    gamma is pinned to r / packing_radius so that the r-ball is inscribed
    in the scaled Voronoi cell; the acceptance probability of every dither
    is then the packing density of the lattice.
    """

    lat: Lattice
    r: float
    seed: int = 0

    def __post_init__(self):
        # NaN fails both tests; r * r overflows for r above about 1.3e154.
        if not (self.r > 0 and math.isfinite(self.r * self.r)):
            raise ValueError(f"ball radius must be positive, finite and have a finite square, "
                             f"got {self.r!r}")

    @property
    def gamma(self) -> float:
        return self.r / self.lat.packing_radius


def _reject_rows(lat, gamma, X, seeds, reserved, r2=None, accept=None):
    """Shared rejection loop over rows; returns (K, J, Y).

    Round t draws dither t of every still-active row and keeps the rows whose
    error err = y - X[row], y = gamma * (M + V), passes the test: |err|^2 <=
    r2, or, for a model without a radius (r2 None), accept(err, rows) over
    the batch indices `rows`.  The cell scale gamma and the squared radius r2
    are in the units of X, each a scalar or one value per row.  Y holds the
    y of each row's accepting round, bit-identical to the decoder's.

    The dither V = W - Q(W) folds W = G u into the cell, so quantizing
    x / gamma - W leaves an error of the same norm as x / gamma - V up to
    rounding (Zamir & Feder 1992): with r2 the screen decides on that norm,
    `lat.sqdist_rows` of x / gamma - W in cell units, with W^T = G u^T one
    product over the active rows whose bits may depend on the batch.  A
    draw outside the screen's `lat.screen_limits`, and every draw of a
    model without a radius, gets the exact test: the fold, then the search
    on x / gamma - V, as the decoder computes them.  After the loop one
    pass at every row's K rebuilds V, M and y exactly.
    """
    N, n = X.shape
    gamma = np.broadcast_to(gamma, N)
    # x / gamma, one row per coordinate.  A tiny gamma overflows the quotient
    # (or, at 0, divides by zero): check_rows refuses the inf and NaN by name.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        XgT = np.divide(X.T, gamma, out=np.empty((n, N)))
    # NaN and inf fail the comparison as well.
    check_rows(XgT.T, lat.input_limit, "is not finite or too large to quantize "
               f"(|x / scale| must stay below 2**{math.log2(lat.input_limit):.4g})")
    K = np.zeros(N, dtype=np.int64)
    # The still-active rows, compacted: their indices, seeds, limits and XgT columns.
    active, live_seeds = np.arange(N), seeds
    if r2 is not None:
        r2 = np.broadcast_to(r2, N)
        lo, hi = lat.screen_limits(XgT, gamma, r2)
    max_iters = default_max_iters(lat)
    for t in range(max_iters):
        if active.size == 0:
            break
        u = stream_uniforms(live_seeds, reserved + t * n, n)
        if r2 is None:
            ok = np.zeros(active.size, dtype=bool)
            near = np.arange(active.size)
        else:
            y = lat.G @ u.T
            np.subtract(XgT, y, out=y)
            d = lat.sqdist_rows(y.T)
            ok = d < lo
            near = (~ok & (d <= hi)).nonzero()[0]
        if near.size:
            rows = active[near]
            v = fold_rows(lat, u[near])
            err = gamma[rows, None] * (lat.nearest_points(XgT.T[near] - v) + v) - X[rows]
            ok[near] = (np.einsum("ij,ij->i", err, err) <= r2[rows] if accept is None
                        else accept(err, rows))
        K[active[ok]] = t + 1
        keep = ~ok
        active = active.compress(keep)
        live_seeds = live_seeds.compress(keep)
        XgT = XgT.compress(keep, axis=1)
        if r2 is not None:
            lo, hi = lo.compress(keep), hi.compress(keep)
    if active.size:
        raise RejectionCapError(
            f"no acceptance within {max_iters} rounds for {active.size} input(s)")

    J, Y = np.empty((N, n), dtype=np.int64), np.empty((N, n))

    def at_k(rows):
        V = _dithers_at(lat, seeds[rows], K[rows] - 1, reserved)
        P = X[rows] / gamma[rows, None]
        P -= V
        J[rows], M = lat.nearest_rows_and_points(P)
        y = np.add(M, V, out=Y[rows])
        y *= gamma[rows, None]

    split_rows(at_k, N, n)
    return K, J, Y


def _dithers_at(lat, seeds, draws, reserved):
    """Unscaled cell dithers at per-row draw indices (vectorized jump), drawn
    word-major from a word index laid out as (n, rows)."""
    idx = np.arange(lat.n, dtype=np.uint64)[:, None] + (
        np.asarray(draws, dtype=np.uint64) * np.uint64(lat.n) + np.uint64(reserved))
    U = gathered_uniforms(seeds, idx.T)
    del idx  # not held through the fold
    return fold_rows(lat, U)


def description_arrays(K, J, count: int, n: int):
    """(K, J) as int64 arrays; ValueError unless K holds integers >= 1 of shape
    (count,) and J integers of shape (count, n)."""
    out = []
    for name, a, shape in (("K", K, (count,)), ("J", J, (count, n))):
        a = np.asarray(a)
        if a.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
        try:
            with np.errstate(invalid="ignore"):
                out.append(a.astype(np.int64, copy=False))
            exact = out[-1] is a or np.array_equal(out[-1], a)
        except (TypeError, ValueError, OverflowError):
            exact = False
        if not exact:
            raise ValueError(f"{name} must hold integers")
    if np.any(out[0] < 1):
        raise ValueError("stopping indices K must be >= 1")
    return out


def _decode_rows(lat, scale, seeds, K, J, reserved=0):
    """Every decoder's reconstructions scale * (M + V_K), scale as in _reject_rows."""
    K, J = description_arrays(K, J, len(seeds), lat.n)
    scale = np.broadcast_to(scale, len(seeds))

    Y = np.empty(J.shape)

    def rebuild(rows):
        y = np.add(lat.embed_rows(J[rows]), _dithers_at(lat, seeds[rows], K[rows] - 1, reserved),
                   out=Y[rows])
        y *= scale[rows, None]

    split_rows(rebuild, len(seeds), lat.n)
    return Y


# -- entry points ------------------------------------------------------------


def batch_seeds(seed: int, count: int):
    """Per-row stream seeds for a batch (row i uses derive_seed(seed, i))."""
    return derive_seeds(seed, np.arange(count, dtype=np.uint64))


def encode_batch(cfg: RsuqConfig, X):
    """Encode rows of X with per-row derived streams; returns (K, J, Y).

    K are stopping indices, J integer coordinates of the lattice points,
    Y the reconstructions accepted by the encoder.
    """
    X = as_rows(X, cfg.lat.n)
    return _reject_rows(cfg.lat, cfg.gamma, X, batch_seeds(cfg.seed, X.shape[0]), 0, cfg.r ** 2)


def decode_batch(cfg: RsuqConfig, K, J):
    """Reconstructions M + V_K for a batch of descriptions (inverse of
    encode_batch), bit-identical to the encoder's accepted values.

    A seed/lattice/radius mismatch with the encoder is undetectable by
    construction; supplying the encoding configuration is the contract.
    Only cfg.lat, cfg.gamma and cfg.seed are read, so a stream decoder can
    pass the gamma its header carries.
    """
    return _decode_rows(cfg.lat, cfg.gamma, batch_seeds(cfg.seed, np.size(K)), K, J)

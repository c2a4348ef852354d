"""Rejection-sampled universal quantization with error uniform over a ball.

The encoder redraws shared dithers until the reconstruction lands within
radius r of the input, then transmits the stopping index K and the lattice
point M.  With the cell scaled by gamma = r / packing_radius the ball fits
inside the scaled Voronoi cell, the acceptance probability per draw equals
the packing density of the lattice, and the error is exactly uniform over
the r-ball and independent of the input.

Each draw costs one nearest-point search.  The dither is the fold of
W = G u into the Voronoi cell, V = W mod the lattice, and the error of
draw k does not depend on that reduction, so the loop decides each draw
on x / gamma - W.  Draws within a proved rounding band of the radius are
decided again by the exact fold-and-search, and one pass at every row's
stopping index K rebuilds the accepted V, M and reconstruction as the
decoder does: K, M and every output bit are those of testing V itself.

Batched entry points derive one stream seed per row (derive_seed mixed
with the row index), so batch results are reproducible and independent of
batch splitting.  A single-vector call is a batch of one row whose stream
seed is the configured seed itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dither import derive_seeds, fold_rows, gathered_uniforms, stream_uniforms
from .lattices import (Lattice, LatticePoint, _covering_radius_bound, _row_max, as_rows,
                       check_rows, packing_density)


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

    @property
    def acceptance_probability(self) -> float:
        return packing_density(self.lat)


@dataclass
class Description:
    """Compressible output of an encode: stopping index K and lattice point M."""

    K: int
    M: LatticePoint


def _reject_rows(lat, gamma, X, seeds, reserved, r2=None, accept=None):
    """Shared rejection loop over rows; returns (K, J, Y).

    Round t draws dither t of every still-active row and keeps the rows whose
    error err = y - X[row], y = gamma * (M + V), passes the test: |err|^2 <=
    r2 of the row, or, for a model without a radius (r2 None), accept(err,
    rows) over the batch indices `rows`.  Y holds the y of each row's
    accepting round, bit-identical to what the decoder rebuilds.

    With r2 a draw costs one nearest-point search.  The dither V = W - Q(W)
    folds W = G u into the cell, V = W mod the lattice, so quantizing
    x / gamma - W leaves the same error as x / gamma - V up to rounding
    (Zamir & Feder 1992): the screen decides on that error, in cell units.
    A draw whose screened |err|^2 lies within the band of `_screen_limits`
    around r2, and every draw of a model without a radius, gets the exact
    test: the fold, then the search on x / gamma - V, as the decoder
    computes them.  After the loop one pass at every row's K rebuilds V, M
    and y exactly.
    """
    # A tiny gamma overflows the quotient (or, at 0, divides by zero):
    # check_rows refuses the inf and NaN by name.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        Xg = X / gamma
    # NaN and inf fail the comparison as well.
    check_rows(Xg, lat.input_limit, "is not finite or too large to quantize "
               f"(|x / scale| must stay below 2**{math.log2(lat.input_limit):.4g})")
    N, n = X.shape
    K = np.zeros(N, dtype=np.int64)
    if N == 0:
        return K, np.zeros((0, n), dtype=np.int64), np.zeros((0, n))
    if r2 is not None:
        lo, hi = _screen_limits(lat, Xg, gamma, r2)
    active = np.arange(N)
    max_iters = default_max_iters(lat)
    for t in range(max_iters):
        u = stream_uniforms(seeds[active], reserved + t * n, n)
        if r2 is None:
            ok = np.zeros(active.size, dtype=bool)
            near = np.arange(active.size)
        else:
            W = lat.embed_rows(u)
            p = Xg[active]
            e = lat.nearest_points(p - W)
            e += W
            e -= p
            d = np.einsum("ij,ij->i", e, e)
            ok = d < lo[active]
            near = np.flatnonzero(~ok & (d <= hi[active]))
        if near.size:
            rows = active[near]
            v = fold_rows(lat, u[near])
            err = gamma * (lat.nearest_points(Xg[rows] - v) + v) - X[rows]
            ok[near] = (np.einsum("ij,ij->i", err, err) <= r2[rows] if accept is None
                        else accept(err, rows))
        K[active[ok]] = t + 1
        active = active[~ok]
        if active.size == 0:
            break
    if active.size:
        raise RejectionCapError(
            f"no acceptance within {max_iters} rounds for {active.size} input(s)")
    V = _dithers_at(lat, seeds, K - 1, reserved)
    if lat.native:
        Z = lat.nearest_points(Xg - V)
        J = lat.point_coords(Z)
    else:
        J = lat.nearest_rows(Xg - V)
        Z = lat.embed_rows(J)
    return K, J, gamma * (Z + V)


# The screen's band is this many units of 2**-53 times the scale of
# _screen_limits; raising it sends more draws to the exact test.
_BAND_ULPS = 64.0


def _screen_limits(lat, Xg, gamma, r2):
    """Per-row (lo, hi) in cell units: the screen accepts a draw whose
    |Q(p - W) + W - p|^2, p = x / gamma, is below lo, rejects it above hi
    and leaves the rest to the exact test."""
    # With u = 2**-53, |p|_inf <= P, |W|_inf <= a = max_i sum_k |G_ik|,
    # kappa = a max_i sum_k |G^-1_ik|, R1 one more than the covering-radius
    # bound R and S = P + a + 2 R1, every vector either error is formed from
    # stays below S in size, and the screened error and the exact one over
    # gamma each differ from the distance F <= R of p - W to the lattice by
    # at most 12 n^1.5 kappa u S in norm.  A search may also return a point
    # up to tau^2 <= 15 n^1.5 kappa u S R1 farther in squared distance (the
    # scan's rescore; E8's coset comparison is far tighter), and each
    # |err|^2 sum rounds by (n + 1) u relative.  So the screened sum and the
    # exact one over gamma^2 lie within h (R1 + h) of each other, h = 64 n
    # (n + 2) kappa u S (64 is _BAND_ULPS), plus a floor for subnormal squares of the exact
    # test, and r2 / gamma^2 rounds by 2 u relative.  The bound needs tau
    # below R1, which holds while the band is below R1^2; the screen decides
    # a row only while its band is also below r2 / gamma^2, and a wider band
    # leaves every draw of the row to the exact test.
    n = lat.n
    # A gamma whose square underflows gives an infinite band, or with r2 = 0
    # a NaN limit: the comparison below leaves such rows to the exact test.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a = float(np.abs(lat.G).sum(axis=1).max())
        kappa = a * float(np.abs(lat._invG).sum(axis=1).max())
        R1 = _covering_radius_bound(lat) + 1.0
        h = _BAND_ULPS * 2.0 ** -53 * n * (n + 2) * kappa * (_row_max(np.abs(Xg)) + a + 2.0 * R1)
        g2 = np.float64(gamma) ** 2
        band = h * (R1 + h) + n * 2.0 ** -1060 / g2
        r2 = r2 / g2
        decides = band < np.minimum(r2, R1 * R1)
    return np.where(decides, r2 - band, -np.inf), np.where(decides, r2 + band, np.inf)


def _dithers_at(lat, seeds, draws, reserved):
    """Unscaled cell dithers at per-row draw indices (vectorized jump)."""
    n = lat.n
    draws = np.asarray(draws, dtype=np.uint64)
    idx = np.uint64(reserved) + draws[:, None] * np.uint64(n) + np.arange(n, dtype=np.uint64)[None, :]
    return fold_rows(lat, gathered_uniforms(seeds, idx))


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
            exact = np.array_equal(out[-1], a)
        except (TypeError, ValueError, OverflowError):
            exact = False
        if not exact:
            raise ValueError(f"{name} must hold integers")
    if np.any(out[0] < 1):
        raise ValueError("stopping indices K must be >= 1")
    return out


def _decode_rows(lat, scale, seeds, K, J, reserved=0):
    """Reconstructions scale * (M + V_K) per row, shared by every decoder."""
    K, J = description_arrays(K, J, len(seeds), lat.n)
    return scale * (lat.embed_rows(J) + _dithers_at(lat, seeds, K - 1, reserved))


def _encode_rows(cfg: RsuqConfig, seeds, X):
    return _reject_rows(cfg.lat, cfg.gamma, X, seeds, 0, np.full(X.shape[0], cfg.r ** 2))


def rsuq_encode(cfg: RsuqConfig, x) -> Description:
    """Encode one vector with a fresh dither stream from cfg.seed."""
    X = as_rows(x, cfg.lat.n, single=True)
    K, J, _ = _encode_rows(cfg, np.asarray([cfg.seed], dtype=np.uint64), X)
    return Description(K=int(K[0]),
                       M=LatticePoint(coords=J[0], embedding=cfg.lat.embed_rows(J)[0]))


def rsuq_decode(cfg: RsuqConfig, d: Description):
    """Reconstruct M + V_K, bit-identical to the encoder's accepted value.

    A seed/lattice/radius mismatch with the encoder is undetectable by
    construction; supplying the encoding configuration is the contract.
    """
    seeds = np.asarray([cfg.seed], dtype=np.uint64)
    return _decode_rows(cfg.lat, cfg.gamma, seeds, [d.K], np.atleast_2d(d.M.coords))[0]


# -- batched drivers ---------------------------------------------------------


def batch_seeds(seed: int, count: int):
    """Per-row stream seeds for a batch (row i uses derive_seed(seed, i))."""
    return derive_seeds(seed, np.arange(count, dtype=np.uint64))


def encode_batch(cfg: RsuqConfig, X):
    """Encode rows of X with per-row derived streams; returns (K, J, Y).

    K are stopping indices, J integer coordinates of the lattice points,
    Y the reconstructions accepted by the encoder.
    """
    X = as_rows(X, cfg.lat.n)
    return _encode_rows(cfg, batch_seeds(cfg.seed, X.shape[0]), X)


def decode_batch(cfg: RsuqConfig, K, J):
    """Reconstructions for a batch of descriptions (inverse of encode_batch)."""
    return _decode_rows(cfg.lat, cfg.gamma, batch_seeds(cfg.seed, np.size(K)), K, J)

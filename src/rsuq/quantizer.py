"""Rejection-sampled universal quantization with error uniform over a ball.

The encoder redraws shared dithers until the reconstruction lands within
radius r of the input, then transmits the stopping index K and the lattice
point M.  With the cell scaled by gamma = r / packing_radius the ball fits
inside the scaled Voronoi cell, the acceptance probability per draw equals
the packing density of the lattice, and the error is exactly uniform over
the r-ball and independent of the input.

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
from .lattices import Lattice, LatticePoint, as_rows, check_rows, packing_density


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


def _reject_rows(lat, gamma, X, seeds, reserved, accept):
    """Shared rejection loop over rows; returns (K, J, Y).

    Round t draws dither t of every still-active row, quantizes X / gamma
    against it and keeps the rows where accept(err, active) holds, with
    err = y - X[active] and y = gamma * (M + V).  Y holds the y of each
    row's accepting round, bit-identical to what the decoder rebuilds.
    """
    Xg = X / gamma
    # NaN and inf fail the comparison as well.
    check_rows(Xg, lat.input_limit, "is not finite or too large to quantize "
               f"(|x / scale| must stay below 2**{math.log2(lat.input_limit):.4g})")
    N, n = X.shape
    K = np.zeros(N, dtype=np.int64)
    J = np.zeros((N, n), dtype=np.int64)
    Y = np.zeros((N, n))
    if N == 0:
        return K, J, Y
    active = np.arange(N)
    max_iters = default_max_iters(lat)
    for t in range(max_iters):
        first = reserved + t * n
        u = stream_uniforms(seeds[active], first, n)
        v = fold_rows(lat, u)
        if lat.native:
            # Native lattices stay in R^n: only accepted rows get coordinates.
            z = lat.nearest_points(Xg[active] - v)
        else:
            j = lat.nearest_rows(Xg[active] - v)
            z = lat.embed_rows(j)
        y = gamma * (z + v)
        ok = accept(y - X[active], active)
        hit = active[ok]
        K[hit] = t + 1
        J[hit] = lat.point_coords(z[ok]) if lat.native else j[ok]
        Y[hit] = y[ok]
        active = active[~ok]
        if active.size == 0:
            return K, J, Y
    raise RejectionCapError(
        f"no acceptance within {max_iters} rounds for {active.size} input(s)")


def _within_radius(r2):
    """Row predicate of the ball test: |err|^2 <= r2 of the row."""
    return lambda err, active: np.einsum("ij,ij->i", err, err) <= r2[active]


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
    r2 = np.full(X.shape[0], cfg.r ** 2)
    return _reject_rows(cfg.lat, cfg.gamma, X, seeds, 0, _within_radius(r2))


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

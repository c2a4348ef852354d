"""Layered rejection-sampled quantization for arbitrary continuous error laws.

A continuous density f is a mixture of uniform laws over its superlevel
sets.  The encoder first draws a level T from the density t -> volume of
the superlevel set at t (consuming a fixed reserved prefix of generator
words, before any dither), then runs the ball/set rejection quantizer for
that level set against the Voronoi cell scaled by beta(T).  The decoder
regenerates T and the accepted dither from the shared stream, so
reconstructions are bit-identical.

The built-in model is the standard Gaussian: its level sets are balls of
radius sqrt(V) with V chi-square distributed on n + 2 degrees of freedom,
and the minimal valid scale is beta = sqrt(V) / packing_radius, which
makes the per-dither acceptance probability exactly the packing density.
Custom models supply sample_level / in_level_set / beta; the membership
predicate is evaluated once per rejection round over all active rows.
Checking that the level sets are bounded and integrable is the caller's
obligation.
"""

from __future__ import annotations

import math

import numpy as np

from .dither import stream_uniforms
from .lattices import Lattice, LatticePoint, as_rows
from .quantizer import Description, _decode_rows, _reject_rows, batch_seeds


class NoiseModel:
    """Continuous error law exposed through its superlevel-set geometry.

    Subclasses define sample_level(u) mapping rows of `level_words`
    uniforms to density levels t, the membership predicate
    in_level_set(Z, t) returning one boolean per row of error vectors Z
    (row i against level t[i]), and the cell scale beta(t) with
    superlevel(t) contained in beta(t) * Voronoi; all three work over
    rows.  Models whose level sets are centered balls may set
    level_ball = True and provide level_radius(t); the encoder then runs
    the ball test in x / beta coordinates in place of in_level_set, and
    screens each draw with one squared distance (see quantizer).
    """

    n: int
    level_words = 1
    level_ball = False

    def sample_level(self, u):
        raise NotImplementedError

    def in_level_set(self, Z, t):
        raise NotImplementedError

    def beta(self, t) -> float:
        raise NotImplementedError

    def level_radius(self, t) -> float:
        raise NotImplementedError


class GaussianNoise(NoiseModel):
    """Standard n-dimensional Gaussian error, simulated exactly.

    Levels are parameterized internally by v with t = (2 pi)^(-n/2) e^(-v/2);
    the superlevel set at t is the ball of radius sqrt(v), and v follows the
    chi-square law with n + 2 degrees of freedom.  The level draw inverts
    the chi-square CDF on one stream uniform, so it is a pure function of
    the stream and the decoder regenerates it bit-exactly.
    """

    level_ball = True

    def __init__(self, n: int, lat: Lattice):
        if lat.n != n:
            raise ValueError(f"lattice dimension {lat.n} != noise dimension {n}")
        self.n = n
        self.lat = lat
        self._log_t_offset = -(n / 2.0) * math.log(2.0 * math.pi)

    def _v_of_t(self, t):
        return -2.0 * (np.log(t) - self._log_t_offset)

    def _t_of_v(self, v):
        return np.exp(-0.5 * v + self._log_t_offset)

    def sample_level(self, u):
        from scipy.special import gammaincinv  # a slow import; ball paths skip it

        v = 2.0 * gammaincinv((self.n + 2) / 2.0, np.asarray(u)[..., 0])
        return self._t_of_v(v)

    def in_level_set(self, Z, t):
        Z = np.asarray(Z, dtype=np.float64)
        return np.einsum("ij,ij->i", Z, Z) <= self._v_of_t(t)

    def beta(self, t):
        return np.sqrt(self._v_of_t(t)) / self.lat.packing_radius

    def level_radius(self, t):
        return np.sqrt(self._v_of_t(t))


def _levels_and_betas(noise, seeds):
    """Level draws (from the reserved word prefix) and cell scales per row seed."""
    u = stream_uniforms(seeds, 0, noise.level_words)
    t = noise.sample_level(u)
    beta = np.asarray(noise.beta(np.atleast_1d(np.asarray(t, dtype=np.float64))),
                      dtype=np.float64)
    if not np.all(beta > 0):
        raise ValueError("noise model produced a nonpositive cell scale")
    return t, beta


def lrsuq_encode(noise: NoiseModel, lat: Lattice, seed: int, x) -> Description:
    """Layered encode of one vector; returns the stopping index and point."""
    X = as_rows(x, lat.n, single=True)
    K, J, _, _ = _lrsuq_encode_rows(noise, lat, np.asarray([seed], dtype=np.uint64), X)
    return Description(K=int(K[0]),
                       M=LatticePoint(coords=J[0], embedding=lat.embed_rows(J)[0]))


def lrsuq_decode(noise: NoiseModel, lat: Lattice, seed: int, d: Description):
    """Regenerate the level and dither K; returns beta(T) * (M + V_K).

    A configuration mismatch with the encoder is undetectable by
    construction; supplying the encoding configuration is the contract.
    """
    seeds = np.asarray([seed], dtype=np.uint64)
    return _lrsuq_decode_rows(noise, lat, seeds, [d.K], np.atleast_2d(d.M.coords))[0]


def _lrsuq_encode_rows(noise, lat, seeds, X):
    """Layered encode of rows; returns (K, J, Y, levels)."""
    if noise.n != lat.n:
        raise ValueError("noise/lattice dimension mismatch")
    t, beta = _levels_and_betas(noise, seeds)
    r2 = accept = None
    if noise.level_ball:
        # In x/beta coordinates the level set is a ball of this radius
        # around the input; for the minimal beta it equals the packing radius.
        r2 = (np.asarray(noise.level_radius(t), dtype=np.float64) / beta) ** 2
    else:
        def accept(err, rows):
            return np.asarray(noise.in_level_set(err * beta[rows, None], t[rows]), dtype=bool)
    # The loop runs in x/beta coordinates (scale 1); its accepted rows are
    # scaled back exactly as the decoder scales M + V_K.
    K, J, Y = _reject_rows(lat, 1.0, X / beta[:, None], seeds, noise.level_words, r2, accept)
    return K, J, beta[:, None] * Y, t


def _lrsuq_decode_rows(noise, lat, seeds, K, J):
    _, beta = _levels_and_betas(noise, seeds)
    return _decode_rows(lat, beta[:, None], seeds, K, J, noise.level_words)


# -- batched drivers ---------------------------------------------------------


def lrsuq_encode_batch(noise: NoiseModel, lat: Lattice, seed: int, X):
    """Encode rows of X with per-row derived streams; returns (K, J, Y, levels).

    Y are the encoder-side reconstructions; levels are the drawn density
    levels (useful for conditional diagnostics).
    """
    X = as_rows(X, lat.n)
    return _lrsuq_encode_rows(noise, lat, batch_seeds(seed, X.shape[0]), X)


def lrsuq_decode_batch(noise: NoiseModel, lat: Lattice, seed: int, K, J):
    """Reconstructions for a batch of descriptions (inverse of encode batch)."""
    return _lrsuq_decode_rows(noise, lat, batch_seeds(seed, np.size(K)), K, J)

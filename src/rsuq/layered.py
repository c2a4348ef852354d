"""Layered rejection-sampled quantization for arbitrary continuous error laws.

A continuous density f is a mixture of uniform laws over its superlevel
sets.  The encoder first draws a level T from the density t -> volume of
the superlevel set at t (consuming a fixed reserved prefix of generator
words, before any dither), then runs the ball/set rejection quantizer for
that level set against the Voronoi cell scaled by beta(T).  The decoder
regenerates T and the accepted dither from the shared stream, so
reconstructions are bit-identical.  As in the quantizer, the entry points
take rows, row i drawing from the stream derive_seed(seed, i).

The built-in model is the standard Gaussian: its level sets are balls of
radius sqrt(V) with V chi-square distributed on n + 2 degrees of freedom.
For a ball model the quantizer takes the minimal valid scale beta =
level radius / packing radius of the lattice it quantizes with, which
makes the per-dither acceptance probability exactly the packing density;
the model itself holds no lattice.  Other models supply in_level_set and
beta; the membership predicate is evaluated once per rejection round over
all active rows.  Checking that the level sets are bounded and integrable
is the caller's obligation.
"""

from __future__ import annotations

import math

import numpy as np

from .dither import stream_uniforms
from .lattices import Lattice, as_rows
from .quantizer import _decode_rows, _reject_rows, batch_seeds, split_rows


class NoiseModel:
    """Continuous error law exposed through its superlevel-set geometry.

    Every model defines sample_level(u), mapping rows of `level_words`
    uniforms to density levels t.  A model whose level sets are centered
    balls sets level_ball = True and provides level_radius(t); the
    quantizer then scales the cell by beta = level_radius / packing_radius
    of its lattice and, as the ball quantizer does, tests the error y - x
    in input units against level_radius^2, screening each draw with one
    squared distance (see quantizer).  Any other model provides beta(t),
    with superlevel(t) contained in beta(t) * Voronoi, and the membership
    predicate in_level_set(Z, t): one boolean per row of errors Z = y - x in
    input units, row i against level t[i].  All of them work over rows.
    sample_level is called on slices of a batch's rows (quantizer.split_rows),
    so each of its levels must be a pure function of its own row of uniforms.
    """

    n: int
    level_words = 1
    level_ball = False

    def sample_level(self, u):
        raise NotImplementedError

    def level_radius(self, t):
        raise NotImplementedError

    def in_level_set(self, Z, t):
        raise NotImplementedError

    def beta(self, t):
        raise NotImplementedError


class GaussianNoise(NoiseModel):
    """Standard n-dimensional Gaussian error, simulated exactly on any lattice.

    Levels are parameterized internally by v with t = (2 pi)^(-n/2) e^(-v/2);
    the superlevel set at t is the ball of radius sqrt(v), and v follows the
    chi-square law with n + 2 degrees of freedom.  The level draw inverts
    the chi-square CDF on one stream uniform, so it is a pure function of
    the stream and the decoder regenerates it bit-exactly.
    """

    level_ball = True

    def __init__(self, n: int):
        self.n = n
        self._log_t_offset = -(n / 2.0) * math.log(2.0 * math.pi)

    def _v_of_t(self, t):
        return -2.0 * (np.log(t) - self._log_t_offset)

    def _t_of_v(self, v):
        return np.exp(-0.5 * v + self._log_t_offset)

    def sample_level(self, u):
        from scipy.special import gammaincinv  # a slow import; ball paths skip it

        v = 2.0 * gammaincinv((self.n + 2) / 2.0, np.asarray(u)[..., 0])
        return self._t_of_v(v)

    def level_radius(self, t):
        return np.sqrt(self._v_of_t(t))


def _levels_and_betas(noise, lat, seeds):
    """Per row seed: the level (from the reserved word prefix), the cell scale
    on `lat` and, for a ball model, the squared level radius (else None).
    Refuses a noise model of another dimension."""
    if noise.n != lat.n:
        raise ValueError(f"noise dimension {noise.n} != lattice dimension {lat.n}")

    t = np.empty(len(seeds))

    def levels(rows):
        t[rows] = noise.sample_level(stream_uniforms(seeds[rows], 0, noise.level_words))

    split_rows(levels, len(seeds), lat.n)
    r2 = None
    if noise.level_ball:
        radius = np.asarray(noise.level_radius(t), dtype=np.float64)
        beta = radius / lat.packing_radius
        r2 = radius ** 2
    else:
        beta = np.asarray(noise.beta(t), dtype=np.float64)
    if not np.all(beta > 0):
        raise ValueError("noise model produced a nonpositive cell scale")
    return t, beta, r2


def lrsuq_encode_batch(noise: NoiseModel, lat: Lattice, seed: int, X):
    """Encode rows of X with per-row derived streams; returns (K, J, Y).

    K are stopping indices, J integer coordinates of the lattice points,
    Y the reconstructions accepted by the encoder.
    """
    X = as_rows(X, lat.n)
    seeds = batch_seeds(seed, X.shape[0])
    t, beta, r2 = _levels_and_betas(noise, lat, seeds)
    accept = None if r2 is not None else (
        lambda err, rows: np.asarray(noise.in_level_set(err, t[rows]), dtype=bool))
    return _reject_rows(lat, beta, X, seeds, noise.level_words, r2, accept)


def lrsuq_decode_batch(noise: NoiseModel, lat: Lattice, seed: int, K, J):
    """Regenerate each row's level and dither K; returns beta(T) * (M + V_K).

    A configuration mismatch with the encoder is undetectable by
    construction; supplying the encoding configuration is the contract.
    """
    seeds = batch_seeds(seed, np.size(K))
    beta = _levels_and_betas(noise, lat, seeds)[1]
    return _decode_rows(lat, beta, seeds, K, J, noise.level_words)

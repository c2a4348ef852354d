"""Layered quantizer: level law, exact Gaussian errors, bit-exact decode."""

import math
from unittest import mock

import numpy as np
import pytest
from scipy.special import gammainc

import rsuq.layered
from _reject_ref import count_fold_rows, reject_ref
from rsuq.dither import derive_seed
from rsuq.lattices import builtin_lattice, log2_ball_volume
from rsuq.layered import (GaussianNoise, NoiseModel, lrsuq_decode,
                          lrsuq_decode_batch, lrsuq_encode, lrsuq_encode_batch)

Z2 = builtin_lattice("Zn", 2)


def gaussian_v(noise, t):
    return noise._v_of_t(np.asarray(t))


def acceptance_given_level(noise, lat, t, log2_set):
    # per-dither acceptance probability at level t: the level set's volume
    # over the cell's, beta(t)^n det G
    log2_cell = noise.n * math.log2(float(noise.beta(t))) + math.log2(lat.det)
    return 2.0 ** (log2_set - log2_cell)


def test_noise_dimension_check():
    with pytest.raises(ValueError):
        GaussianNoise(3, Z2)


def test_level_parameterization():
    g = GaussianNoise(2, Z2)
    t = g._t_of_v(np.array([4.0]))[0]
    assert float(g.beta(t)) == pytest.approx(4.0, rel=1e-12)
    assert float(g.level_radius(t)) == pytest.approx(2.0, rel=1e-12)
    # rows |z|^2 = 2 <= 4 and |z|^2 = 5 > 4
    inside = g.in_level_set(np.array([[1.0, 1.0], [2.0, 1.0]]), np.array([t, t]))
    assert inside.tolist() == [True, False]
    # level-set volume: log2(pi * v), the ball of radius sqrt(v)
    log2_volume = (g.n / 2.0) * np.log2(gaussian_v(g, t)) + log2_ball_volume(g.n)
    assert float(log2_volume) == pytest.approx(math.log2(4 * math.pi), rel=1e-12)


def test_level_draw_is_chi_square():
    g = GaussianNoise(2, Z2)
    N = 100000
    _, _, _, levels = lrsuq_encode_batch(g, Z2, 4321, np.zeros((N, 2)))
    V = gaussian_v(g, levels)
    assert V.mean() == pytest.approx(4.0, rel=0.02)   # mean of chi2_4
    assert V.var() == pytest.approx(8.0, rel=0.05)    # var of chi2_4
    from rsuq.mc import ks_test

    assert ks_test(gammainc(2.0, V / 2.0), "chi2-level").verdict


@pytest.mark.parametrize("family,n,expect", [
    ("Zn", 2, math.pi / 4),
    ("E8", 8, math.pi ** 4 / 384),
])
def test_acceptance_probability_constant(family, n, expect):
    lat = builtin_lattice(family, n)
    g = GaussianNoise(n, lat)
    for v in (0.5, 2.0, 11.0):
        t = g._t_of_v(np.array([v]))[0]
        log2_ball = n * math.log2(float(g.level_radius(t))) + log2_ball_volume(n)
        assert acceptance_given_level(g, lat, t, log2_ball) == pytest.approx(expect, rel=1e-9)


def test_mean_stopping_index():
    g = GaussianNoise(2, Z2)
    K, _, _, _ = lrsuq_encode_batch(g, Z2, 99, np.zeros((100000, 2)))
    assert K.mean() == pytest.approx(4.0 / math.pi, rel=0.01)


def test_decode_bit_exact_and_matches_single():
    g = GaussianNoise(2, Z2)
    rng = np.random.default_rng(12)
    X = rng.uniform(-30, 30, size=(200, 2))
    K, J, Y, _ = lrsuq_encode_batch(g, Z2, 1111, X)
    assert np.array_equal(lrsuq_decode_batch(g, Z2, 1111, K, J), Y)
    for i in range(30):
        seed_i = derive_seed(1111, i)
        d = lrsuq_encode(g, Z2, seed_i, X[i])
        assert d.K == K[i]
        assert np.array_equal(d.M.coords, J[i])
        assert np.array_equal(lrsuq_decode(g, Z2, seed_i, d), Y[i])


def test_error_is_standard_gaussian():
    from rsuq.mc import test_gaussian

    g = GaussianNoise(2, Z2)
    X = np.zeros((200000, 2))
    _, _, Y, _ = lrsuq_encode_batch(g, Z2, 2718, X)
    res = test_gaussian(Y - X, 2)
    assert res.verdict, [(s.test, s.statistic, s.threshold) for s in res.subresults]


def test_error_independent_of_input():
    from rsuq.mc import ks_two_sample

    g = GaussianNoise(2, Z2)
    seeds = 3141
    norms = {}
    for name, x in (("origin", np.zeros(2)), ("far", np.array([10.0, 10.0]))):
        X = np.tile(x, (50000, 1))
        _, _, Y, _ = lrsuq_encode_batch(g, Z2, seeds, X)
        norms[name] = np.linalg.norm(Y - X, axis=1)
    # identical seeds would trivially match; use different seeds per input
    X = np.tile([10.0, 10.0], (50000, 1))
    _, _, Y, _ = lrsuq_encode_batch(g, Z2, seeds + 1, X)
    norms["far"] = np.linalg.norm(Y - X, axis=1)
    assert ks_two_sample(norms["origin"], norms["far"], "input-shift").verdict


def test_conditional_uniformity_within_level_bucket():
    # conditioned on V in [a, b], (|Z| / sqrt(V))^n follows the ball radial law
    from rsuq.mc import ks_test

    g = GaussianNoise(2, Z2)
    X = np.zeros((200000, 2))
    _, _, Y, levels = lrsuq_encode_batch(g, Z2, 515, X)
    V = gaussian_v(g, levels)
    Z = Y - X
    sel = (V >= 2.0) & (V <= 6.0)
    u = (np.linalg.norm(Z[sel], axis=1) / np.sqrt(V[sel])) ** 2
    assert sel.sum() > 50000
    assert ks_test(u, "conditional-radial").verdict


def test_norm_squared_is_chi_square_n():
    from rsuq.mc import ks_test

    g = GaussianNoise(4, builtin_lattice("Dn", 4))
    lat = builtin_lattice("Dn", 4)
    X = np.zeros((100000, 4))
    _, _, Y, _ = lrsuq_encode_batch(g, lat, 62, X)
    n2 = np.einsum("ij,ij->i", Y, Y)
    assert ks_test(gammainc(2.0, n2 / 2.0), "norm2-chi2").verdict


class TriangleNoise(NoiseModel):
    """1-D triangular density on [-1, 1]: f(z) = 1 - |z| (custom model)."""

    level_words = 1

    def __init__(self, lat):
        self.n = 1
        self.lat = lat

    def sample_level(self, u):
        # f_T(t) = mu(L_t) = 2(1-t) on [0,1]; inverse CDF of its own law
        uu = np.asarray(u)[..., 0]
        return 1.0 - np.sqrt(1.0 - uu)

    def in_level_set(self, Z, t):
        return np.abs(Z[:, 0]) <= 1.0 - t

    def beta(self, t):
        return (1.0 - t) / self.lat.packing_radius


def test_custom_noise_model_generic_path():
    z1 = builtin_lattice("Zn", 1)
    tri = TriangleNoise(z1)
    X = np.zeros((4000, 1))
    K, J, Y, levels = lrsuq_encode_batch(tri, z1, 808, X)
    Z = (Y - X)[:, 0]
    assert np.all(np.abs(Z) <= 1.0)
    # triangular density: E Z = 0, E Z^2 = 1/6
    assert abs(Z.mean()) < 4.0 / math.sqrt(12 * 4000)
    assert Z.var() == pytest.approx(1.0 / 6.0, rel=0.1)
    assert np.array_equal(lrsuq_decode_batch(tri, z1, 808, K, J), Y)
    t0 = float(np.atleast_1d(levels)[0])
    # p(t) = mu(L_t) / (beta(t) * det) = 2(1-t) / (2(1-t)) = 1... scaled cell
    log2_level = math.log2(2.0 * (1.0 - t0))
    assert acceptance_given_level(tri, z1, t0, log2_level) == pytest.approx(1.0, rel=1e-9)


class BallSetGaussian(GaussianNoise):
    """The Gaussian model through its membership predicate, as a model
    without a level radius: every draw takes the exact per-round test."""

    level_ball = False


@pytest.mark.parametrize("family,n,model", [("Zn", 1, TriangleNoise), ("Zn", 1, BallSetGaussian),
                                            ("E8", 8, BallSetGaussian)])
def test_custom_noise_model_matches_reference(monkeypatch, family, n, model):
    lat = builtin_lattice(family, n)
    noise = TriangleNoise(lat) if model is TriangleNoise else model(n, lat)
    X = np.random.default_rng(12).standard_normal((500, n)) * 3
    folded = count_fold_rows(monkeypatch)
    K, J, Y, levels = lrsuq_encode_batch(noise, lat, 44, X)
    # no screen without a radius: one fold per draw, plus the pass at K
    assert folded[0] == K.sum() + len(K)
    with mock.patch.object(rsuq.layered, "_reject_rows", reject_ref):
        K0, J0, Y0, levels0 = lrsuq_encode_batch(noise, lat, 44, X)
    assert np.array_equal(K, K0) and np.array_equal(J, J0)
    assert np.array_equal(Y.view(np.uint64), Y0.view(np.uint64))
    assert np.array_equal(levels, levels0)
    assert np.array_equal(lrsuq_decode_batch(noise, lat, 44, K, J), Y)

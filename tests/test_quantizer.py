"""Ball-error quantizer: guard bound, exact round trips, error law, stopping law."""

import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsuq.quantizer
from rsuq.dither import derive_seed
from rsuq.lattices import LatticePoint, builtin_lattice, lattice_from_config
from rsuq.layered import (GaussianNoise, lrsuq_decode, lrsuq_decode_batch, lrsuq_encode,
                          lrsuq_encode_batch)
from rsuq.quantizer import (Description, RejectionCapError, RsuqConfig,
                            decode_batch, default_max_iters, encode_batch,
                            rsuq_decode, rsuq_encode)

Z2 = builtin_lattice("Zn", 2)
FCC_CONFIG = "3\n1 1 0\n1 0 1\n0 1 1\npacking_radius=0.7071067811865476\n"
ROUND_TRIP_LATTICES = [
    builtin_lattice("Zn", 1), builtin_lattice("Zn", 3), builtin_lattice("Dn", 2),
    builtin_lattice("Dn", 5), builtin_lattice("A2", 2), builtin_lattice("E8", 8),
    lattice_from_config(FCC_CONFIG, name="fcc"),
    lattice_from_config("2\n1 0.3\n0.2 1.1\n", name="skew2"),
]


def test_config_defaults():
    cfg = RsuqConfig(Z2, r=0.5, seed=1)
    assert cfg.gamma == 1.0
    assert cfg.acceptance_probability == pytest.approx(math.pi / 4, rel=1e-12)
    assert default_max_iters(Z2) == math.ceil(50.0 / (math.pi / 4))
    for r in (-1.0, 0.0, math.nan, math.inf, 1e200):
        with pytest.raises(ValueError, match="ball radius"):
            RsuqConfig(Z2, r=r)


def test_guard_bound_always_within_radius():
    cfg = RsuqConfig(Z2, r=0.5, seed=7)
    rng = np.random.default_rng(0)
    X = rng.uniform(-50, 50, size=(10000, 2))
    _, _, Y = encode_batch(cfg, X)
    err = np.linalg.norm(Y - X, axis=1)
    assert err.max() <= 0.5 + 1e-12


def test_round_trip_bit_exact_single():
    cfg = RsuqConfig(Z2, r=0.5, seed=9)
    rng = np.random.default_rng(1)
    for x in rng.uniform(-50, 50, size=(200, 2)):
        d = rsuq_encode(cfg, x)
        y = rsuq_decode(cfg, d)
        assert np.linalg.norm(y - x) <= 0.5
        # decode twice: identical bits
        assert np.array_equal(y, rsuq_decode(cfg, d))


def test_immediate_acceptance_at_origin():
    # find a seed whose first dither direction lands in the ball at x=0
    for seed in range(100):
        cfg = RsuqConfig(Z2, r=0.5, seed=seed)
        d = rsuq_encode(cfg, np.zeros(2))
        if d.K == 1:
            assert d.M.coords.tolist() == [0, 0]
            break
    else:
        pytest.fail("no immediate acceptance in 100 seeds (p should be ~0.785)")


def test_batch_matches_single_with_derived_seeds():
    cfg = RsuqConfig(Z2, r=0.5, seed=77)
    rng = np.random.default_rng(2)
    X = rng.uniform(-20, 20, size=(100, 2))
    K, J, Y = encode_batch(cfg, X)
    for i in range(20):
        cfg_i = RsuqConfig(Z2, r=0.5, seed=derive_seed(77, i))
        d = rsuq_encode(cfg_i, X[i])
        assert d.K == K[i]
        assert np.array_equal(d.M.coords, J[i])
        assert np.array_equal(rsuq_decode(cfg_i, d), Y[i])
    assert np.array_equal(decode_batch(cfg, K, J), Y)


@pytest.mark.parametrize("model", ["ball", "gaussian"])
@pytest.mark.parametrize("lat", [
    builtin_lattice("Zn", 2), builtin_lattice("A2", 2), builtin_lattice("Dn", 4),
    builtin_lattice("E8", 8), lattice_from_config(FCC_CONFIG, name="fcc"),
], ids=lambda lat: lat.name + str(lat.n))
def test_encoder_reconstruction_is_decoder_output(lat, model):
    # the encoder keeps the reconstruction it accepted; the decoder must
    # rebuild it bit for bit from (K, J) alone
    rng = np.random.default_rng(9)
    X = rng.uniform(-20, 20, size=(500 if lat.family == "generic" else 5000, lat.n))
    if model == "ball":
        cfg = RsuqConfig(lat, r=0.05, seed=404)
        K, J, Y = encode_batch(cfg, X)
        assert np.array_equal(decode_batch(cfg, K, J), Y)
        assert np.linalg.norm(Y - X, axis=1).max() <= 0.05
    else:
        g = GaussianNoise(lat.n, lat)
        K, J, Y, _ = lrsuq_encode_batch(g, lat, 404, X)
        assert np.array_equal(lrsuq_decode_batch(g, lat, 404, K, J), Y)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.data())
def test_round_trip_property(data):
    # decode(encode(X)) rebuilds the encoder's reconstruction bit for bit, on
    # every family, with the ball error bound for the ball quantizer
    lat = data.draw(st.sampled_from(ROUND_TRIP_LATTICES), label="lattice")
    rows = data.draw(st.integers(0, 5))
    X = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=rows * lat.n,
                                    max_size=rows * lat.n))).reshape(rows, lat.n)
    seed = data.draw(st.integers(0, 2 ** 64 - 1))
    if data.draw(st.booleans(), label="gaussian"):
        noise = GaussianNoise(lat.n, lat)
        K, J, Y, _ = lrsuq_encode_batch(noise, lat, seed, X)
        assert np.array_equal(_bits(lrsuq_decode_batch(noise, lat, seed, K, J)), _bits(Y))
    else:
        cfg = RsuqConfig(lat, r=data.draw(st.floats(1e-3, 10.0)), seed=seed)
        K, J, Y = encode_batch(cfg, X)
        assert np.array_equal(_bits(decode_batch(cfg, K, J)), _bits(Y))
        assert np.all(np.einsum("ij,ij->i", Y - X, Y - X) <= cfg.r ** 2)
    assert K.shape == (rows,) and np.all(K >= 1)
    assert J.dtype == np.int64 and J.shape == X.shape == Y.shape


def test_readme_quick_start_runs():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(block, ns)
    cfg, x = ns["cfg"], ns["x"]
    assert np.linalg.norm(rsuq_decode(cfg, rsuq_encode(cfg, x)) - x) <= cfg.r
    assert ns["y"].shape == (8,) and np.all(np.isfinite(ns["y"]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e300])
def test_nonfinite_or_huge_input_rejected(bad):
    X = np.zeros((3, 2))
    X[1, 0] = bad
    cfg = RsuqConfig(Z2, r=0.5, seed=1)
    g = GaussianNoise(2, Z2)
    with pytest.raises(ValueError, match="row 1"):
        encode_batch(cfg, X)
    with pytest.raises(ValueError, match="row 1"):
        lrsuq_encode_batch(g, Z2, 1, X)
    with pytest.raises(ValueError, match="row 0"):
        rsuq_encode(cfg, X[1])
    with pytest.raises(ValueError, match="row 0"):
        lrsuq_encode(g, Z2, 1, X[1])
    # below 2**52 / scale the input still quantizes exactly
    X[1, 0] = 2.0 ** 51
    _, _, Y = encode_batch(cfg, X)
    assert np.linalg.norm(Y - X, axis=1).max() <= 0.5


def test_error_sample_and_mse():
    cfg = RsuqConfig(Z2, r=0.5, seed=5)
    plan_size = 100000
    rng = np.random.default_rng(3)
    X = rng.uniform(-25, 25, size=(plan_size, 2))
    _, _, Y = encode_batch(cfg, X)
    Z = Y - X
    # second moment of the uniform ball: n r^2 / (n + 2)
    assert np.einsum("ij,ij->i", Z, Z).mean() == pytest.approx(0.125, rel=0.01)
    assert np.abs(Z.mean(axis=0)).max() < 3 * (0.25 / math.sqrt(plan_size))
    # the single-vector law: decode(encode(x)) - x lies in the r-ball
    z1 = rsuq_decode(cfg, rsuq_encode(cfg, X[0])) - X[0]
    assert np.linalg.norm(z1) <= 0.5


def test_row_inputs_are_checked_in_one_place():
    # batch encoders take (N, n) rows and refuse a third axis by shape;
    # single-vector encoders take only (n,)
    cfg = RsuqConfig(Z2, r=0.5, seed=1)
    g = GaussianNoise(2, Z2)
    cube = np.zeros((2, 2, 2))
    with pytest.raises(ValueError, match=re.escape("expected shape (N, 2), got (2, 2, 2)")):
        encode_batch(cfg, cube)
    with pytest.raises(ValueError, match=re.escape("expected shape (N, 2), got (2, 2, 2)")):
        lrsuq_encode_batch(g, Z2, 1, cube)
    with pytest.raises(ValueError, match=re.escape("expected shape (N, 2), got (3,)")):
        encode_batch(cfg, np.zeros(3))
    row = np.zeros((1, 2))
    with pytest.raises(ValueError, match=re.escape("expected shape (2,), got (1, 2)")):
        rsuq_encode(cfg, row)
    with pytest.raises(ValueError, match=re.escape("expected shape (2,), got (1, 2)")):
        lrsuq_encode(g, Z2, 1, row)
    # a vector of shape (n,) is still a batch of one row
    assert np.array_equal(encode_batch(cfg, row[0])[1], encode_batch(cfg, row)[1])


def test_radial_law_uniform_ball():
    from rsuq.mc import ks_test

    cfg = RsuqConfig(Z2, r=0.5, seed=11)
    rng = np.random.default_rng(4)
    X = rng.uniform(-25, 25, size=(100000, 2))
    _, _, Y = encode_batch(cfg, X)
    Z = Y - X
    radial = (np.linalg.norm(Z, axis=1) / 0.5) ** 2
    assert ks_test(radial, "radial").verdict


@pytest.mark.parametrize("family,n", [("Zn", 2), ("A2", 2), ("Dn", 4)])
def test_stopping_index_geometric(family, n):
    from rsuq.mc import chi_square_gof

    lat = builtin_lattice(family, n)
    cfg = RsuqConfig(lat, r=0.4, seed=21)
    rng = np.random.default_rng(5)
    X = rng.uniform(-10, 10, size=(100000, n))
    K, _, _ = encode_batch(cfg, X)
    p = cfg.acceptance_probability
    assert K.mean() == pytest.approx(1.0 / p, rel=0.01)
    obs = np.asarray([(K == k).sum() for k in range(1, 11)] + [(K > 10).sum()],
                     dtype=float)
    pmf = p * (1 - p) ** np.arange(10)
    exp = X.shape[0] * np.concatenate([pmf, [(1 - p) ** 10]])
    assert chi_square_gof(obs, exp, f"geom[{family}]").verdict


def test_rejection_cap_error(monkeypatch):
    # ball and Gaussian models (screened draws) and a model without a level
    # radius (exact test every draw) all stop at the cap
    monkeypatch.setattr(rsuq.quantizer, "default_max_iters", lambda lat: 1)
    cfg = RsuqConfig(Z2, r=0.5, seed=3)
    rng = np.random.default_rng(6)
    X = rng.uniform(-5, 5, size=(500, 2))
    with pytest.raises(RejectionCapError):
        encode_batch(cfg, X)
    set_gaussian = type("SetGaussian", (GaussianNoise,), {"level_ball": False})
    for noise in (GaussianNoise(2, Z2), set_gaussian(2, Z2)):
        with pytest.raises(RejectionCapError):
            lrsuq_encode_batch(noise, Z2, 3, X)


def test_subnormal_radius_is_refused_without_warnings():
    # x / gamma overflowed with a numpy RuntimeWarning ahead of the ValueError
    lat = builtin_lattice("Dn", 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="row 0 is not finite or too large"):
            encode_batch(RsuqConfig(lat, r=1e-320), np.ones((3, 8)))


def test_embedding_is_unscaled_lattice_point():
    # LatticePoint.embedding is G j everywhere, also when gamma != 1
    from rsuq.lattices import nearest_point

    lat = builtin_lattice("E8", 8)
    x = np.linspace(-1, 1, 8)
    points = [nearest_point(lat, x), rsuq_encode(RsuqConfig(lat, r=0.25, seed=4), x).M,
              lrsuq_encode(GaussianNoise(8, lat), lat, 4, x).M]
    for M in points:
        assert np.array_equal(M.embedding, lat.embed_rows(M.coords[None])[0])


def test_decode_rejects_bad_k():
    cfg = RsuqConfig(Z2, r=0.5, seed=3)
    with pytest.raises(ValueError):
        rsuq_decode(cfg, Description(K=0, M=rsuq_encode(cfg, np.zeros(2)).M))
    with pytest.raises(ValueError):
        decode_batch(cfg, [1, 0], np.zeros((2, 2)))


def test_decoders_refuse_malformed_descriptions():
    # K must hold integers of shape (count,), J integers of shape (count, n)
    cfg = RsuqConfig(Z2, r=0.5, seed=3)
    g = GaussianNoise(2, Z2)
    M = rsuq_encode(cfg, np.zeros(2)).M
    cases = [([1, 1, 1], [[0, 0]], r"shape \(3, 2\)"), ([1.7], [[1, 0]], "K must hold integers"),
             ([1], [[1.5, 0]], "J must hold integers"), ([[1]], [[1, 0]], r"shape \(1,\)"),
             ([1], [1, 0], r"shape \(1, 2\)"), ([1], [[1, 0, 0]], r"shape \(1, 2\)"),
             (1, [[1, 0]], r"shape \(1,\)")]
    for K, J, match in cases:
        with pytest.raises(ValueError, match=match):
            decode_batch(cfg, K, J)
        with pytest.raises(ValueError, match=match):
            lrsuq_decode_batch(g, Z2, 3, K, J)
    for d in (Description(K=1.7, M=M),
              Description(K=1, M=LatticePoint(np.array([1.5, 0.0]), M.embedding))):
        with pytest.raises(ValueError, match="must hold integers"):
            rsuq_decode(cfg, d)
        with pytest.raises(ValueError, match="must hold integers"):
            lrsuq_decode(g, Z2, 3, d)
    # integral floats are integers
    assert np.array_equal(decode_batch(cfg, [2.0], [[1.0, 0.0]]), decode_batch(cfg, [2], [[1, 0]]))


def test_lattice_insensitive_error_law():
    # same radial law on different lattices (errors depend only on the ball)
    from rsuq.mc import ks_two_sample

    rng = np.random.default_rng(8)
    samples = {}
    for family, n in (("Zn", 2), ("A2", 2)):
        lat = builtin_lattice(family, n)
        cfg = RsuqConfig(lat, r=0.5, seed=31)
        X = rng.uniform(-20, 20, size=(50000, 2))
        _, _, Y = encode_batch(cfg, X)
        samples[family] = np.linalg.norm(Y - X, axis=1)
    res = ks_two_sample(samples["Zn"], samples["A2"], "lattice-insensitivity")
    assert res.verdict, res

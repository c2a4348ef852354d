"""Ball-error quantizer: guard bound, exact round trips, error law, stopping law."""

import math
import pathlib
import re
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsuq.quantizer
from _reject_ref import BallSetGaussian
from rsuq.lattices import builtin_lattice, lattice_from_config, packing_density
from rsuq.layered import GaussianNoise, lrsuq_decode_batch, lrsuq_encode_batch
from rsuq.quantizer import (RejectionCapError, RsuqConfig, decode_batch, default_max_iters,
                            encode_batch)

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
    assert packing_density(cfg.lat) == pytest.approx(math.pi / 4, rel=1e-12)
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
    # a vector of shape (n,) is a batch of one row
    cfg = RsuqConfig(Z2, r=0.5, seed=9)
    rng = np.random.default_rng(1)
    for x in rng.uniform(-50, 50, size=(200, 2)):
        K, J, _ = encode_batch(cfg, x)
        y = decode_batch(cfg, K, J)[0]
        assert np.linalg.norm(y - x) <= 0.5
        # decode twice: identical bits
        assert np.array_equal(y, decode_batch(cfg, K, J)[0])


def test_immediate_acceptance_at_origin():
    # find a seed whose first dither direction lands in the ball at x=0
    for seed in range(100):
        cfg = RsuqConfig(Z2, r=0.5, seed=seed)
        K, J, _ = encode_batch(cfg, np.zeros(2))
        if K[0] == 1:
            assert J[0].tolist() == [0, 0]
            break
    else:
        pytest.fail("no immediate acceptance in 100 seeds (p should be ~0.785)")


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
        g = GaussianNoise(lat.n)
        K, J, Y = lrsuq_encode_batch(g, lat, 404, X)
        assert np.array_equal(lrsuq_decode_batch(g, lat, 404, K, J), Y)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("model", ["ball", "gaussian"])
@pytest.mark.parametrize("lat", [
    builtin_lattice("Zn", 2), builtin_lattice("A2", 2), builtin_lattice("E8", 8),
    lattice_from_config(FCC_CONFIG, name="fcc"),
], ids=lambda lat: lat.name + str(lat.n))
def test_batch_prefix_encodes_to_the_same_bits(lat, model):
    # row i's stream is derive_seed(seed, i) and its bits do not depend on
    # the other rows: a prefix of the batch encodes and decodes to the
    # first rows of the whole batch
    N = 3000
    X = np.random.default_rng(13).standard_normal((N, lat.n)) * 10
    if model == "ball":
        cfg = RsuqConfig(lat, r=0.3, seed=606)
        encode, decode = partial(encode_batch, cfg), partial(decode_batch, cfg)
    else:
        noise = GaussianNoise(lat.n)
        encode = partial(lrsuq_encode_batch, noise, lat, 606)
        decode = partial(lrsuq_decode_batch, noise, lat, 606)
    K, J, Y = encode(X)
    Yd = decode(K, J)
    for m in (1, 7, N // 2):
        Km, Jm, Ym = encode(X[:m])
        assert np.array_equal(Km, K[:m]) and np.array_equal(Jm, J[:m])
        assert np.array_equal(_bits(Ym), _bits(Y[:m]))
        assert np.array_equal(_bits(decode(Km, Jm)), _bits(Yd[:m]))


@pytest.mark.parametrize("lat,model", [
    (builtin_lattice("Zn", 2), "ball"), (builtin_lattice("Dn", 4), "ball"),
    (builtin_lattice("E8", 8), "ball"), (builtin_lattice("A2", 2), "ball"),
    (lattice_from_config(FCC_CONFIG, name="fcc"), "ball"),
    (builtin_lattice("E8", 8), "gaussian"), (builtin_lattice("E8", 8), "accept"),
], ids=lambda p: p if isinstance(p, str) else p.name + str(p.n))
def test_one_dither_call_per_round_on_the_active_rows(lat, model, monkeypatch):
    # Round t draws once, for exactly the rows still active (those with
    # K > t, in batch order), the n words of draw t after the reserved prefix;
    # so the rows summed over the calls are sum K.  rsuqbench/spans.py counts
    # rounds and row draws this way.
    calls = []
    draw = rsuq.quantizer.stream_uniforms

    def recorded(seeds, first_word, count):
        calls.append((np.array(seeds), first_word, count))
        return draw(seeds, first_word, count)

    monkeypatch.setattr(rsuq.quantizer, "stream_uniforms", recorded)
    X = np.random.default_rng(17).standard_normal((400, lat.n)) * 5
    if model == "ball":
        K, _, _ = encode_batch(RsuqConfig(lat, r=0.3, seed=808), X)
        reserved = 0
    else:
        noise = GaussianNoise(lat.n) if model == "gaussian" else BallSetGaussian(lat.n, lat)
        K, _, _ = lrsuq_encode_batch(noise, lat, 808, X)
        reserved = noise.level_words
    seeds = rsuq.quantizer.batch_seeds(808, len(X))
    assert len(calls) == K.max()
    for t, (drawn, first_word, count) in enumerate(calls):
        assert np.array_equal(drawn, seeds[K > t])
        assert (first_word, count) == (reserved + t * lat.n, lat.n)
    assert sum(len(drawn) for drawn, _, _ in calls) == K.sum()


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
        noise = GaussianNoise(lat.n)
        K, J, Y = lrsuq_encode_batch(noise, lat, seed, X)
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
    K, J, _ = encode_batch(cfg, x)
    assert np.linalg.norm(decode_batch(cfg, K, J)[0] - x) <= cfg.r
    assert ns["y"].shape == (8,) and np.all(np.isfinite(ns["y"]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e300])
def test_nonfinite_or_huge_input_rejected(bad):
    X = np.zeros((3, 2))
    X[1, 0] = bad
    cfg = RsuqConfig(Z2, r=0.5, seed=1)
    g = GaussianNoise(2)
    with pytest.raises(ValueError, match="row 1"):
        encode_batch(cfg, X)
    with pytest.raises(ValueError, match="row 1"):
        lrsuq_encode_batch(g, Z2, 1, X)
    with pytest.raises(ValueError, match="row 0"):
        encode_batch(cfg, X[1])
    with pytest.raises(ValueError, match="row 0"):
        lrsuq_encode_batch(g, Z2, 1, X[1])
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
    # the law of one vector: decode(encode(x)) - x lies in the r-ball
    K, J, _ = encode_batch(cfg, X[0])
    z1 = decode_batch(cfg, K, J)[0] - X[0]
    assert np.linalg.norm(z1) <= 0.5


def test_row_inputs_are_checked_in_one_place():
    # encoders take (N, n) rows and refuse a third axis by shape
    cfg = RsuqConfig(Z2, r=0.5, seed=1)
    g = GaussianNoise(2)
    cube = np.zeros((2, 2, 2))
    with pytest.raises(ValueError, match=re.escape("expected shape (N, 2), got (2, 2, 2)")):
        encode_batch(cfg, cube)
    with pytest.raises(ValueError, match=re.escape("expected shape (N, 2), got (2, 2, 2)")):
        lrsuq_encode_batch(g, Z2, 1, cube)
    with pytest.raises(ValueError, match=re.escape("expected shape (N, 2), got (3,)")):
        encode_batch(cfg, np.zeros(3))
    row = np.zeros((1, 2))
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
    p = packing_density(lat)
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
    for noise in (GaussianNoise(2), BallSetGaussian(2, Z2)):
        with pytest.raises(RejectionCapError):
            lrsuq_encode_batch(noise, Z2, 3, X)


def test_subnormal_radius_is_refused_without_warnings():
    # x / gamma overflowed with a numpy RuntimeWarning ahead of the ValueError
    lat = builtin_lattice("Dn", 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="row 0 is not finite or too large"):
            encode_batch(RsuqConfig(lat, r=1e-320), np.ones((3, 8)))


def _numpy_peak(encode, X):
    # the traced peak of encode(X) after a warm call on a few rows
    import tracemalloc

    encode(X[:100])
    tracemalloc.start()
    try:
        encode(X)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rejection_loop_holds_x_over_gamma_once():
    # x / gamma is one coordinate-major (n, N) array, the pass at K divides
    # its own rows and the squared radius stays a scalar: the numpy peak of
    # a large encode reads 7.5 inputs (a second, row-major copy of x / gamma
    # read 9, a per-row r2 array 8)
    cfg = RsuqConfig(Z2, r=0.05, seed=5)
    X = np.random.default_rng(7).standard_normal((2 ** 17, 2)) * 3
    peak = _numpy_peak(partial(encode_batch, cfg), X)
    assert peak <= 8.0 * X.nbytes, peak / X.nbytes


def test_layered_encode_holds_no_copy_of_the_input():
    # the layered quantizer hands x and beta to the rejection loop, which
    # forms x / beta once: the numpy peak of a large Gaussian E8 encode reads
    # 7.5 inputs (a whole-batch x / beta copy read 8.5)
    E8 = builtin_lattice("E8", 8)
    X = np.random.default_rng(7).standard_normal((2 ** 15, 8)) * 3
    peak = _numpy_peak(partial(lrsuq_encode_batch, GaussianNoise(8), E8, 5), X)
    assert peak <= 8.0 * X.nbytes, peak / X.nbytes


def test_decode_rejects_bad_k():
    cfg = RsuqConfig(Z2, r=0.5, seed=3)
    with pytest.raises(ValueError):
        decode_batch(cfg, [0], encode_batch(cfg, np.zeros(2))[1])
    with pytest.raises(ValueError):
        decode_batch(cfg, [1, 0], np.zeros((2, 2)))


def test_decoders_refuse_malformed_descriptions():
    # K must hold integers of shape (count,), J integers of shape (count, n)
    cfg = RsuqConfig(Z2, r=0.5, seed=3)
    g = GaussianNoise(2)
    J0 = encode_batch(cfg, np.zeros(2))[1]
    cases = [([1, 1, 1], [[0, 0]], r"shape \(3, 2\)"), ([1.7], [[1, 0]], "K must hold integers"),
             ([1], [[1.5, 0]], "J must hold integers"), ([[1]], [[1, 0]], r"shape \(1,\)"),
             ([1], [1, 0], r"shape \(1, 2\)"), ([1], [[1, 0, 0]], r"shape \(1, 2\)"),
             (1, [[1, 0]], r"shape \(1,\)")]
    for K, J, match in cases:
        with pytest.raises(ValueError, match=match):
            decode_batch(cfg, K, J)
        with pytest.raises(ValueError, match=match):
            lrsuq_decode_batch(g, Z2, 3, K, J)
    for K, J in (([1.7], J0), ([1], [[1.5, 0.0]])):
        with pytest.raises(ValueError, match="must hold integers"):
            decode_batch(cfg, K, J)
        with pytest.raises(ValueError, match="must hold integers"):
            lrsuq_decode_batch(g, Z2, 3, K, J)
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

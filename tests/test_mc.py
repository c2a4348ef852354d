"""Monte-Carlo machinery: estimator calibration, test power, rate checks."""

import math

import numpy as np
import pytest
from scipy.special import kolmogorov

from rsuq import mc
from rsuq.bounds import LOG2E, gaussian_layered_entropy
from rsuq.coding import mean_code_length
from rsuq.dither import stream_uniforms
from rsuq.lattices import (_covering_radius_bound, builtin_lattice, log2_ball_volume,
                           packing_density)
from rsuq.layered import GaussianNoise, _levels_and_betas, lrsuq_encode_batch
from rsuq.quantizer import RsuqConfig, batch_seeds, encode_batch

Z2 = builtin_lattice("Zn", 2)


def layered_rate_check(noise, lat, seed, X, tau, layered_entropy_bits):
    """Layered rate check: plug-in rate vs -h_layered + log2 e + support term,
    with 0.1 bit of slack.

    The support term n E[log2(1 + 3 eta beta / tau)] uses the sampled cell
    scales; eta bounds the circumradius of the unscaled Voronoi cell.
    """
    K, J, _ = lrsuq_encode_batch(noise, lat, seed, X)
    beta = _levels_and_betas(noise, lat, batch_seeds(seed, len(X)))[1]
    h_k, h_m = mc.rate_from_descriptions(K, J)
    n = lat.n
    lhs = h_k + h_m - (n * math.log2(tau) + log2_ball_volume(n))
    eta = _covering_radius_bound(lat)
    support = n * float(np.log2(1.0 + 3.0 * eta * beta / tau).mean())
    return lhs, -layered_entropy_bits + LOG2E + support + 0.1


def gaussian_inputs(n, samples, tau, seed):
    """N(0, tau^2 I) inputs, shape (samples, n), from the seed's deterministic normals."""
    return tau * mc._standard_normals(seed, 0, samples, n)


def run_quantizer(cfg, samples, tau, seed):
    """(X, K, J, Y): inputs uniform in the tau-ball and their encoding."""
    X = mc.sample_inputs(cfg.lat.n, samples, tau, seed)
    return (X, *encode_batch(cfg, X))


def mean_squared_error(cfg, samples, tau, seed):
    X, _, _, Y = run_quantizer(cfg, samples, tau, seed)
    return float(np.einsum("ij,ij->i", Y - X, Y - X).mean())


def estimate_rate(cfg, samples, tau, seed):
    """Plug-in entropies of K and M of a run."""
    _, K, J, _ = run_quantizer(cfg, samples, tau, seed)
    return mc.rate_from_descriptions(K, J)


def gaussian_smoothness_penalty(eps, sigma_min_eig, mean_norm):
    """Smoothness penalty (bits) of a full-rank Gaussian source at scale eps."""
    return eps / sigma_min_eig * (mean_norm + eps / 2.0) * LOG2E


def test_plan_validation():
    with pytest.raises(ValueError):
        mc.sample_inputs(2, samples=0, tau=50.0, seed=0)


def test_kolmogorov_sf_reference_points():
    # classic critical points of the asymptotic law that ks_test uses
    assert kolmogorov(1.3581) == pytest.approx(0.05, abs=2e-4)
    assert kolmogorov(1.6276) == pytest.approx(0.01, abs=2e-4)
    assert kolmogorov(0.0) == 1.0
    assert kolmogorov(0.1) == 1.0  # CDF underflows below lam ~ 0.2
    assert kolmogorov(8.0) < 1e-16
    # median of the limiting distribution
    assert kolmogorov(0.82757356) == pytest.approx(0.5, abs=1e-4)


def test_ks_statistic_tiny_case():
    # hand value: samples {0.1, 0.9} against U[0,1]
    d = mc.ks_statistic(np.array([0.1, 0.9]))
    assert d == pytest.approx(0.4, abs=1e-12)


def test_ks_calibration_uniform_passes_and_shifted_fails():
    u = stream_uniforms([5], 0, 20000)[0]
    assert mc.ks_test(u, "uniform").verdict
    assert not mc.ks_test(np.clip(u * 0.9, 0, 1), "shifted").verdict


def test_ks_sample_floor():
    with pytest.raises(mc.InsufficientSamplesError):
        mc.ks_test(np.array([0.5]), "one")


def test_two_sample_ks_power():
    a = stream_uniforms([10], 0, 20000)[0]
    b = stream_uniforms([110], 0, 20000)[0]
    assert mc.ks_two_sample(a, b, "same-law").verdict
    assert not mc.ks_two_sample(a, 0.9 * b, "scaled").verdict


def test_chi_square_gof_calibration():
    counts = np.array([1020, 980, 1001, 999], dtype=float)
    assert mc.chi_square_gof(counts, np.full(4, 1000.0), "flat").verdict
    assert not mc.chi_square_gof(np.array([1300, 700, 1000, 1000.0]),
                                 np.full(4, 1000.0), "skewed").verdict


def test_plugin_entropy_fair_coin_calibration():
    bits = (stream_uniforms([123], 0, 10 ** 6)[0] > 0.5).astype(np.int64)
    h = mc.plugin_entropy(bits)
    assert h == pytest.approx(1.0, abs=0.01)
    # bias shrinks with more samples on the fixed stream
    biases = [1.0 - mc.plugin_entropy(bits[:n]) for n in (10 ** 3, 10 ** 4, 10 ** 6)]
    assert abs(biases[0]) >= abs(biases[1]) >= abs(biases[2])


def test_plugin_entropy_rows():
    rows = np.array([[0, 0], [0, 1], [0, 0], [1, 1]])
    # frequencies 1/2, 1/4, 1/4
    assert mc.plugin_entropy(rows) == pytest.approx(1.5, abs=1e-12)


def test_sample_inputs_laws():
    X = mc.sample_inputs(2, 50000, 3.0, 9)
    r = np.linalg.norm(X, axis=1)
    assert r.max() <= 3.0
    # radial CDF of the uniform ball: (r/tau)^n uniform
    assert mc.ks_test((r / 3.0) ** 2, "ball-radial").verdict
    # determinism
    assert np.array_equal(X, mc.sample_inputs(2, 50000, 3.0, 9))

    G = gaussian_inputs(2, 50000, 2.0, 9)
    assert G[:, 0].std() == pytest.approx(2.0, rel=0.02)


def test_estimate_rate_and_mse():
    cfg = RsuqConfig(Z2, r=0.5, seed=808)
    X, K, J, Y = run_quantizer(cfg, 50000, 50.0, 11)
    h_k, _ = mc.rate_from_descriptions(K, J)
    # stopping index entropy near the geometric value
    from rsuq.bounds import geometric_entropy

    assert h_k == pytest.approx(geometric_entropy(math.pi / 4), abs=0.02)
    # realized code cannot beat entropy
    assert mean_code_length(Z2, K, int(np.abs(J).max())) >= h_k
    assert float(np.einsum("ij,ij->i", Y - X, Y - X).mean()) == pytest.approx(0.125, rel=0.01)
    _, K, J, _ = run_quantizer(cfg, 5000, 1.0, 1)
    with pytest.raises(ValueError):
        mc.rsuq_rate_check(Z2, 0.5, 1.0, K, J)


def test_degenerate_full_cell_acceptance():
    # 1-D with r = packing radius: the ball is the whole cell, K is constant 1
    z1 = builtin_lattice("Zn", 1)
    cfg = RsuqConfig(z1, r=0.5, seed=3)
    _, K, _, _ = run_quantizer(cfg, 20000, 25.0, 5)
    assert np.all(K == 1)
    assert mc.plugin_entropy(K) == 0.0


def test_uniform_ball_test_pass_and_fail():
    cfg = RsuqConfig(Z2, r=0.5, seed=21)
    X, _, _, Y = run_quantizer(cfg, 100000, 50.0, 22)
    Z = Y - X
    assert mc.test_uniform_ball(Z, 0.5).verdict
    # adversarial: inputs uniform over a 0.9 r ball must fail the radial test
    shrunk = mc.sample_inputs(2, 20000, 0.45, 8)
    assert not mc.test_uniform_ball(shrunk, 0.5).verdict
    with pytest.raises(mc.InsufficientSamplesError):
        mc.test_uniform_ball(Z[:1], 0.5)


def test_independence_pass_fail_and_vacuous():
    cfg = RsuqConfig(Z2, r=0.5, seed=31)
    X, _, _, Y = run_quantizer(cfg, 100000, 50.0, 32)
    Z = Y - X
    assert mc.test_independence(X, Z).verdict
    # deterministic (non-dithered) lattice quantizer: error is a function of x
    Xs = mc.sample_inputs(2, 20000, 2.0, 33)
    Zdet = Z2.embed_rows(Z2.nearest_rows(Xs)) - Xs
    assert not mc.test_independence(Xs, Zdet).verdict
    # constant input: vacuous pass by contract
    Xc = np.zeros((20000, 2))
    _, _, Yc = encode_batch(cfg, Xc)
    assert mc.test_independence(Xc, Yc - Xc).verdict


def test_gaussian_test_pass_and_fail():
    g = GaussianNoise(2)
    X = mc.sample_inputs(2, 100000, 50.0, 44)
    _, _, Y = lrsuq_encode_batch(g, Z2, 444, X)
    assert mc.test_gaussian(Y - X).verdict
    # ball-uniform errors must fail the norm test
    ball = mc.sample_inputs(2, 20000, 1.0, 45)
    assert not mc.test_gaussian(ball).verdict


def test_distribution_tests_read_the_dimension_from_the_errors():
    # errors uniform in the 3-ball and standard normals in 3 dimensions pass:
    # the radial law, the mean band, the covariance and the norm test all
    # take n from the arrays' columns
    assert mc.test_uniform_ball(mc.sample_inputs(3, 20000, 0.5, 91), 0.5).verdict
    res = mc.test_gaussian(gaussian_inputs(3, 20000, 1.0, 92))
    assert res.verdict and len(res.subresults) == 3 + 2


def test_distribution_tests_refuse_one_dimensional_arrays():
    # 5000 one-dimensional errors as a (5000,) array are refused by shape, not
    # read as one sample of 5000 dimensions; as a (5000, 1) column they pass
    Z = mc.sample_inputs(1, 5000, 0.5, 93)
    G = gaussian_inputs(1, 5000, 1.0, 94)
    X = mc.sample_inputs(1, 5000, 2.0, 95)
    for check, args in ((mc.test_uniform_ball, (Z[:, 0], 0.5)), (mc.test_gaussian, (G[:, 0],)),
                        (mc.test_independence, (X, Z[:, 0])),
                        (mc.test_independence, (X[:, 0], Z))):
        with pytest.raises(ValueError, match=r"must have shape \(samples, n\), got \(5000,\)"):
            check(*args)
    assert mc.test_uniform_ball(Z[:, :1], 0.5).verdict
    assert mc.test_gaussian(G[:, :1]).verdict
    assert mc.test_independence(X[:, :1], Z[:, :1]).verdict


def test_estimate_mse_dimensions_and_scaling():
    e8 = builtin_lattice("E8", 8)
    # n r^2 / (n+2) at n=8, r=1 is 0.8
    assert mean_squared_error(RsuqConfig(e8, r=1.0, seed=56), 50000, 20.0, 57) == \
        pytest.approx(0.8, rel=0.01)
    tiny = mean_squared_error(RsuqConfig(Z2, r=0.01, seed=56), 5000, 5.0, 57)
    assert tiny == pytest.approx(0.01 ** 2 * 0.5, rel=0.05)  # -> 0 as r -> 0


def test_gaussian_test_one_dimensional_degenerate_cov():
    # at n=1 the covariance band reduces to a variance-near-1 check
    z1 = builtin_lattice("Zn", 1)
    g = GaussianNoise(1)
    from rsuq.layered import lrsuq_encode_batch

    _, _, Y = lrsuq_encode_batch(g, z1, 58, np.zeros((50000, 1)))
    res = mc.test_gaussian(Y)
    cov = [s for s in res.subresults if s.test == "gaussian[cov]"][0]
    assert res.verdict
    assert abs(cov.statistic - abs(float(Y.var() - 1.0))) < 1e-9


def test_rsuq_redundancies_nonnegative():
    from rsuq.bounds import rsuq_red_per_dim

    for n in range(1, 49):
        assert rsuq_red_per_dim(n) >= 0.0
    for delta in (1e-6, 0.1, 0.62, 0.91, 1.0):
        assert rsuq_red_per_dim(4, delta) >= 0.0


def test_k_distribution_and_estimator():
    cfg = RsuqConfig(Z2, r=0.5, seed=52)
    mean_k, res = mc.k_statistics(run_quantizer(cfg, 100000, 50.0, 53)[1],
                                  packing_density(Z2))
    assert res.verdict
    assert mean_k == pytest.approx(4.0 / math.pi, rel=0.02)


def test_rate_checks():
    for family, n in (("Zn", 2), ("A2", 2), ("Dn", 4)):
        lat = builtin_lattice(family, n)
        _, K, J, _ = run_quantizer(RsuqConfig(lat, r=0.5, seed=606), 100000, 50.0, 61)
        res = mc.rsuq_rate_check(lat, 0.5, 50.0, K, J)
        assert res.verdict, (family, res.statistic, res.threshold)
    lhs, rhs = layered_rate_check(GaussianNoise(2), Z2, 607,
                                  mc.sample_inputs(2, 100000, 50.0, 61), 50.0,
                                  gaussian_layered_entropy(2))
    assert lhs <= rhs, (lhs, rhs)


def test_rate_tau_convergence():
    # the normalized plug-in rate is defined through a large-tau limit; the
    # snapshot at growing tau stays under the bound and tightens (the large
    # alphabet at tau=200 adds downward plug-in bias, absorbed one-sidedly)
    cfg = RsuqConfig(Z2, r=0.5, seed=81)
    rhs = -(2 * math.log2(0.5) + log2_ball_volume(2)) + LOG2E
    lhs = []
    for tau in (10.0, 50.0, 200.0):
        h_k, h_m = estimate_rate(cfg, 100000, tau, 82)
        lhs.append(h_k + h_m - (2 * math.log2(tau) + log2_ball_volume(2)))
    assert all(v <= rhs for v in lhs), (lhs, rhs)
    assert lhs[0] >= lhs[1] >= lhs[2]


def test_estimate_rate_sample_floor():
    _, K, J, _ = run_quantizer(RsuqConfig(Z2, r=0.5, seed=1), 100, 50.0, 1)
    with pytest.raises(mc.InsufficientSamplesError):
        mc.rsuq_rate_check(Z2, 0.5, 50.0, K, J)


def test_high_resolution_gaussian_input_check():
    # scaled quantizers on a Gaussian source: the normalized plug-in rate
    # approaches the differential entropy within log2 e plus the smoothness
    # penalty at the error diameter
    sigma = 2.0
    n = 2
    h_x = (n / 2.0) * math.log2(2 * math.pi * math.e * sigma ** 2)
    mean_norm = sigma * math.sqrt(2.0) * math.gamma(1.5) / math.gamma(1.0)
    X = gaussian_inputs(n, 100000, sigma, 71)
    vals = []
    for alpha in (1.0, 0.5, 0.25):
        r = 0.5 * alpha
        cfg = RsuqConfig(Z2, r=r, seed=700 + int(4 * alpha))
        K, J, _ = encode_batch(cfg, X)
        h_k, h_m = mc.rate_from_descriptions(K, J)
        v = h_k + h_m + (n * math.log2(r) + log2_ball_volume(n)) - h_x
        bound = LOG2E + gaussian_smoothness_penalty(2 * r, sigma ** 2, mean_norm)
        assert v <= bound + 0.05, (alpha, v, bound)
        vals.append(v)
    assert vals[-1] <= vals[0] + 0.02


def test_result_csv_shape():
    res = mc.TestResult(test="demo", statistic=1.0, threshold=2.0, p_value=0.5,
                        verdict=True, n_samples=10)
    assert res.csv_row("demo[Z2]", 3) == "demo[Z2],1,2,pass,10,3,0.5"
    closed = mc.TestResult(test="demo", statistic=1.0, threshold=2.0, verdict=True,
                           n_samples=0)
    assert closed.csv_row("demo", 3) == "demo,1,2,pass,0,3,"
    assert mc.TestResult.CSV_HEADER.split(",") == [
        "test", "statistic", "threshold", "verdict", "samples", "seed", "p_value"]

"""Monte-Carlo estimators and hypothesis tests for the quantizer claims.

Every routine is a pure function of its seeds and arrays: the input
sampler runs on the same counter-based generator as the dither streams
(auxiliary stream indices live above 2**62 so they never collide with
per-vector encode streams), reductions are order-independent sums, and
re-running reproduces identical statistics bit for bit.

Significance tests use the asymptotic Kolmogorov distribution for KS
p-values and the chi-square upper tail for goodness of fit; sample floors
are enforced wherever a significance level is quoted.  Checks take the
arrays they test, and read the dimension from them; their tolerances are
the constants ALPHA and RATE_SLACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import rd_lower_max_error, rsuq_norment_ub
from .dither import derive_seed, stream_uniforms

_AUX_BASE = 1 << 62
_MIN_SAMPLES = 1000
_MASS_POINTS = 10
# Significance level of every KS and chi-square check.
ALPHA = 0.01
# Bits allowed above the rate bound in rsuq_rate_check.
RATE_SLACK = 0.1


class InsufficientSamplesError(ValueError):
    """Too few samples for a significance-quoting test."""


@dataclass
class TestResult:
    """Outcome of one check; verdict = statistic-vs-threshold decision."""

    test: str
    statistic: float
    threshold: float
    verdict: bool
    n_samples: int
    p_value: float | None = None
    subresults: list = field(default_factory=list)

    def csv_row(self, name: str, seed: int) -> str:
        """This result's CSV record as `name` at `seed`; no p-value, an empty cell."""
        p = "" if self.p_value is None else f"{self.p_value:.6g}"
        return (f"{name},{self.statistic:.6g},{self.threshold:.6g},"
                f"{'pass' if self.verdict else 'fail'},{self.n_samples},{seed},{p}")

    CSV_HEADER = "test,statistic,threshold,verdict,samples,seed,p_value"


def _at_most(name, statistic, threshold, n_samples) -> TestResult:
    # A check that passes while the statistic stays within the threshold.
    return TestResult(test=name, statistic=statistic, threshold=threshold,
                      verdict=statistic <= threshold, n_samples=n_samples)


def _significance(name, statistic, p, n_samples) -> TestResult:
    # A check decided by its p-value p at level ALPHA.
    return TestResult(test=name, statistic=statistic, threshold=ALPHA, p_value=p,
                      verdict=p >= ALPHA, n_samples=n_samples)


def _require_samples(n):
    if n < _MIN_SAMPLES:
        raise InsufficientSamplesError(
            f"{n} samples; significance-quoting tests need >= {_MIN_SAMPLES}")


# -- distribution helpers ------------------------------------------------------


def ks_statistic(u) -> float:
    """One-sample KS statistic of values against U[0, 1]."""
    u = np.sort(np.asarray(u))
    n = u.size
    grid = np.arange(1, n + 1) / n
    return float(max((grid - u).max(), (u - (grid - 1.0 / n)).max()))


def ks_test(cdf_values, name: str) -> TestResult:
    """KS test of probability-integral-transformed samples against U[0,1]."""
    from scipy.special import kolmogorov  # a slow import; encode and decode skip it

    u = np.asarray(cdf_values, dtype=np.float64)
    _require_samples(u.size)
    d = ks_statistic(u)
    return _significance(name, d, float(kolmogorov(math.sqrt(u.size) * d)), u.size)


def ks_two_sample(a, b, name: str) -> TestResult:
    """Two-sample KS with the asymptotic null distribution."""
    from scipy.special import kolmogorov

    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    _require_samples(min(a.size, b.size))
    allv = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, allv, side="right") / a.size
    cdf_b = np.searchsorted(b, allv, side="right") / b.size
    d = float(np.abs(cdf_a - cdf_b).max())
    n_eff = a.size * b.size / (a.size + b.size)
    p = float(kolmogorov(math.sqrt(n_eff) * d))
    return _significance(name, d, p, a.size + b.size)


def chi_square_gof(observed, expected, name: str) -> TestResult:
    """Chi-square goodness of fit; degrees of freedom = bins - 1."""
    from scipy.special import gammaincc

    obs = np.asarray(observed, dtype=np.float64)
    exp = np.asarray(expected, dtype=np.float64)
    if np.any(exp <= 0):
        raise ValueError("expected counts must be positive")
    stat = float(((obs - exp) ** 2 / exp).sum())
    p = float(gammaincc((obs.size - 1) / 2.0, stat / 2.0))
    return _significance(name, stat, p, int(obs.sum()))


def plugin_entropy(values) -> float:
    """Empirical-frequency entropy in bits; rows are treated as symbols."""
    arr = np.asarray(values)
    if arr.ndim == 1:
        _, counts = np.unique(arr, return_counts=True)
    else:
        flat = np.ascontiguousarray(arr).view(
            np.dtype((np.void, arr.dtype.itemsize * arr.shape[1]))).ravel()
        _, counts = np.unique(flat, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def rate_from_descriptions(K, J) -> tuple[float, float]:
    """(H(K), H(M)) in bits: plug-in entropies of the stopping indices and points."""
    return plugin_entropy(K), plugin_entropy(J)


# -- input sampling -------------------------------------------------------------


def _aux_uniforms(seed: int, stream: int, count: int, width: int):
    u = stream_uniforms([derive_seed(seed, _AUX_BASE + stream)], 0, count * width)
    return u.reshape(count, width)


def _standard_normals(seed: int, stream: int, count: int, n: int):
    pairs = (n + 1) // 2
    u = _aux_uniforms(seed, stream, count, 2 * pairs)
    u1 = u[:, 0::2]
    u2 = u[:, 1::2]
    rad = np.sqrt(-2.0 * np.log1p(-u1))
    ang = 2.0 * math.pi * u2
    g = np.empty((count, 2 * pairs))
    g[:, 0::2] = rad * np.cos(ang)
    g[:, 1::2] = rad * np.sin(ang)
    return g[:, :n]


def sample_inputs(n: int, samples: int, tau: float, seed: int) -> np.ndarray:
    """Deterministic inputs uniform in the ball of radius tau, shape (samples, n)."""
    if samples < 1:
        raise ValueError("need at least one sample")
    g = _standard_normals(seed, 0, samples, n)
    norm = np.sqrt(np.einsum("ij,ij->i", g, g))
    norm[norm == 0.0] = 1.0
    u = _aux_uniforms(seed, 1, samples, 1)[:, 0]
    radius = tau * u ** (1.0 / n)
    return (radius / norm)[:, None] * g


# -- distributional tests ---------------------------------------------------------


def _samples(a, name):
    # a as float64 rows of shape (samples, n); a 1-D array is refused, not read as one sample
    A = np.asarray(a, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"{name} must have shape (samples, n), got {A.shape}")
    return A


def _all_of(name, subs) -> TestResult:
    """Passes when every sub-check does; reports the numbers of the first
    failing one (else the first)."""
    bad = [s for s in subs if not s.verdict]
    worst = bad[0] if bad else subs[0]
    return TestResult(test=name, statistic=worst.statistic, threshold=worst.threshold,
                      p_value=worst.p_value, verdict=not bad, n_samples=subs[0].n_samples,
                      subresults=subs)


def test_uniform_ball(errors, r: float) -> TestResult:
    """Radial KS against the uniform-ball law plus a 3-sigma mean-vector band."""
    Z = _samples(errors, "errors")
    N, n = Z.shape
    _require_samples(N)
    radial = (np.sqrt(np.einsum("ij,ij->i", Z, Z)) / r) ** n
    ks = ks_test(radial, "uniform-ball[radial-ks]")
    band = 3.0 * (r / math.sqrt(n + 2)) / math.sqrt(N)
    mean_ok = _at_most("uniform-ball[mean]", float(np.abs(Z.mean(axis=0)).max()), band, N)
    return _all_of("uniform-ball", [ks, mean_ok])


def test_gaussian(errors) -> TestResult:
    """Per-coordinate KS vs the standard normal, covariance band, norm2 KS."""
    from scipy.special import gammainc, ndtr

    Z = _samples(errors, "errors")
    N, n = Z.shape
    _require_samples(N)
    subs = []
    for c in range(n):
        subs.append(ks_test(ndtr(Z[:, c]), f"gaussian[coord{c}-ks]"))
    cov = (Z.T @ Z) / N - np.outer(Z.mean(axis=0), Z.mean(axis=0))
    dev = float(np.abs(cov - np.eye(n)).max())
    subs.append(_at_most("gaussian[cov]", dev, max(0.02, 6.0 * math.sqrt(2.0 / N)), N))
    norm2 = np.einsum("ij,ij->i", Z, Z)
    subs.append(ks_test(gammainc(n / 2.0, norm2 / 2.0), "gaussian[norm2-ks]"))
    return _all_of("gaussian", subs)


def test_independence(xs, errors) -> TestResult:
    """Cross-correlation band plus a two-sample KS across input halves.

    Inputs with (near-)constant coordinates make both checks vacuous
    passes; that degenerate case is the documented contract.
    """
    X, Z = _samples(xs, "xs"), _samples(errors, "errors")
    if X.shape[0] != Z.shape[0]:
        raise ValueError("inputs and errors must pair up")
    N = X.shape[0]
    _require_samples(N)
    xc = X - X.mean(axis=0)
    zc = Z - Z.mean(axis=0)
    sx = np.sqrt(np.einsum("ij,ij->j", xc, xc))
    sz = np.sqrt(np.einsum("ij,ij->j", zc, zc))
    corr_bound = 4.0 / math.sqrt(N)
    live = (sx > 0)[:, None] & (sz > 0)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(live, (xc.T @ zc) / np.outer(sx, sz), 0.0)
    max_corr = float(np.abs(corr).max()) if corr.size else 0.0
    subs = [_at_most("independence[corr]", max_corr, corr_bound, N)]
    split = X[:, 0] > np.median(X[:, 0])
    norms = np.sqrt(np.einsum("ij,ij->i", Z, Z))
    if split.sum() >= _MIN_SAMPLES and (~split).sum() >= _MIN_SAMPLES:
        subs.append(ks_two_sample(norms[split], norms[~split],
                                  "independence[region-ks]"))
    return _all_of("independence", subs)


# -- stopping-index statistics -----------------------------------------------------


def k_statistics(K, p: float):
    """(mean K, chi-square TestResult of the stopping indices K = 1..10 and
    K > 10 against the geometric law of success probability p)."""
    _require_samples(K.size)
    obs = np.asarray([(K == k).sum() for k in range(1, _MASS_POINTS + 1)]
                     + [(K > _MASS_POINTS).sum()], dtype=np.float64)
    pmf = p * (1.0 - p) ** (np.arange(1, _MASS_POINTS + 1) - 1)
    exp = K.size * np.concatenate([pmf, [(1.0 - p) ** _MASS_POINTS]])
    return float(K.mean()), chi_square_gof(obs, exp, "stopping-index[geometric-chi2]")


# -- rate-bound checks ---------------------------------------------------------------


def rsuq_rate_check(lat, r: float, tau: float, K, J) -> TestResult:
    """Normalized plug-in rate of the descriptions (K, J) of inputs uniform in
    the tau-ball on `lat` at radius r, against the ball quantizer's entropy bound.

    Passes when Hhat(K) + Hhat(M) - log2 vol(tau ball) stays below
    -log2 vol(r ball) + log2 e + RATE_SLACK.
    """
    if tau < 10.0 * r:
        raise ValueError("high-resolution regime needs tau >= 10 r")
    _require_samples(K.size)
    h_k, h_m = rate_from_descriptions(K, J)
    lhs = h_k + h_m + rd_lower_max_error(lat.n, tau)
    return _at_most(f"rate-bound[{lat.name}]", lhs, rsuq_norment_ub(lat, r) + RATE_SLACK,
                    int(K.size))


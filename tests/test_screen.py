"""The one-search rejection screen: bit identity with the two-search reference, and its saving.

`_reject_rows` decides each draw on the error of x / gamma - W, W = G u the
unfolded dither, and sends only draws within its band of the radius to the
fold and the second search.  `reject_ref` runs both searches every round;
the two must agree on K, J and Y bit for bit.
"""

from unittest import mock

import numpy as np
import pytest

import rsuq.layered
import rsuq.quantizer
from _reject_ref import count_fold_rows, embed_ref, fold_ref, reject_ref
from rsuq.lattices import builtin_lattice, lattice_from_config
from rsuq.layered import GaussianNoise, _levels_and_betas, lrsuq_encode_batch
from rsuq.quantizer import RsuqConfig, batch_seeds, encode_batch

FCC_CONFIG = "3\n1 1 0\n1 0 1\n0 1 1\npacking_radius=0.7071067811865476\n"
LATTICES = {
    "Z2": builtin_lattice("Zn", 2), "Z5": builtin_lattice("Zn", 5),
    "D4": builtin_lattice("Dn", 4), "D9": builtin_lattice("Dn", 9),
    "A2": builtin_lattice("A2", 2), "E8": builtin_lattice("E8", 8),
    "fcc": lattice_from_config(FCC_CONFIG, name="fcc"),
}


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _encode(lat, mode, seed, X, r=None):
    if mode == "ball":
        cfg = RsuqConfig(lat, r=lat.packing_radius if r is None else r, seed=seed)
        return encode_batch(cfg, X)
    return lrsuq_encode_batch(GaussianNoise(lat.n, lat), lat, seed, X)[:3]


def _cell_rows(lat, mode, seed, Xg):
    # rows whose loop inputs x / gamma (ball at r = packing radius, gamma = 1)
    # or x / beta (Gaussian) are Xg
    if mode == "ball":
        return Xg
    _, beta = _levels_and_betas(GaussianNoise(lat.n, lat), batch_seeds(seed, len(Xg)))
    return Xg * beta[:, None]


def _assert_equals_reference(lat, mode, seed, X, r=None):
    K, J, Y = _encode(lat, mode, seed, X, r)
    with mock.patch.object(rsuq.quantizer, "_reject_rows", reject_ref), \
            mock.patch.object(rsuq.layered, "_reject_rows", reject_ref):
        K0, J0, Y0 = _encode(lat, mode, seed, X, r)
    assert np.array_equal(K, K0)
    assert np.array_equal(J, J0)
    assert np.array_equal(_bits(Y), _bits(Y0))
    return K


@pytest.mark.parametrize("name", sorted(LATTICES))
@pytest.mark.parametrize("mode", ["ball", "gaussian"])
@pytest.mark.parametrize("scale", ["unit", "mixed", "2**45"])
def test_screen_equals_two_search_reference(name, mode, scale):
    # "mixed" spreads the rows over 2**0 .. 2**45 in cell units, so one batch
    # holds rows the screen decides and rows whose band sends them to the
    # exact test; from about 2**40 most rows take the exact test
    lat = LATTICES[name]
    rng = np.random.default_rng(17)
    Xg = rng.standard_normal((300, lat.n))
    if scale == "mixed":
        Xg *= 2.0 ** rng.uniform(0, 45, size=(300, 1))
    elif scale == "2**45":
        Xg *= 2.0 ** 45
    _assert_equals_reference(lat, mode, 5, _cell_rows(lat, mode, 5, Xg))


@pytest.mark.parametrize("name", sorted(LATTICES))
@pytest.mark.parametrize("exponents", [(0, 1), (10, 30), (30, 45)])
def test_band_bounds_the_rounding_gap(name, exponents):
    # the screened |Q(p - W) + W - p|^2 and the exact test's |y - x|^2 (at
    # gamma = 1) differ by at most the band wherever the screen decides; the
    # native searches often agree to the bit, A2 and E8 at unit scale do not
    lat = LATTICES[name]
    rng = np.random.default_rng(8)
    N, n = 5000, lat.n
    Xg = rng.standard_normal((N, n)) * 2.0 ** rng.uniform(*exponents, size=(N, 1))
    lo, hi = rsuq.quantizer._screen_limits(lat, Xg, 1.0, np.full(N, lat.packing_radius ** 2))
    U = rng.random((N, n))
    W = lat.embed_rows(U)
    e = lat.nearest_points(Xg - W) + W - Xg
    v = fold_ref(lat, U)
    err = embed_ref(lat, lat.nearest_rows(Xg - v)) + v - Xg
    gap = np.abs(np.einsum("ij,ij->i", e, e) - np.einsum("ij,ij->i", err, err))
    decided = np.isfinite(hi)
    assert decided.mean() > 0.1
    assert np.all(gap[decided] <= ((hi - lo) / 2)[decided])
    if name in ("A2", "E8") and exponents == (0, 1):
        assert gap.max() > 0


@pytest.mark.parametrize("name", sorted(LATTICES))
@pytest.mark.parametrize("mode", ["ball", "gaussian"])
def test_wide_band_sends_every_draw_to_the_exact_test(monkeypatch, name, mode):
    lat = LATTICES[name]
    monkeypatch.setattr(rsuq.quantizer, "_BAND_ULPS", 2.0 ** 60)
    rows = count_fold_rows(monkeypatch)
    X = _cell_rows(lat, mode, 9, np.random.default_rng(3).standard_normal((200, lat.n)) * 4)
    K = _assert_equals_reference(lat, mode, 9, X)
    # the reference folds through fold_ref, so every counted fold is the
    # loop's: one per draw, plus one per row in the pass at K
    assert rows[0] == K.sum() + len(K)


@pytest.mark.parametrize("r", [1e-320, 1e-160, 1e-150, 1e150])
def test_extreme_scales_equal_reference(r):
    # squares of the errors underflow (or come near overflow); the band's
    # floor and the limits in cell units must still give the reference's K
    lat = builtin_lattice("Dn", 8)
    rng = np.random.default_rng(4)
    X = np.zeros((40, 8)) if r < 1e-300 else rng.standard_normal((40, 8)) * (0.1 * r)
    _assert_equals_reference(lat, "ball", 2, X, r=r)


def test_gaussian_e8_encode_folds_each_row_once(monkeypatch):
    # one fold per row, in the pass at K: no draw of 4096 N(0, 1) rows fell
    # into the band, so each draw cost one search.  A band too wide to
    # decide draws would bring back a second search per draw, unseen by
    # every bit-identity test.
    lat = builtin_lattice("E8", 8)
    rows = count_fold_rows(monkeypatch)
    X = np.random.default_rng(0).standard_normal((4096, 8))
    K, _, _, _ = lrsuq_encode_batch(GaussianNoise(8, lat), lat, 1, X)
    assert K.mean() > 3.5
    assert rows[0] == 4096

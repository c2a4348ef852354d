"""The rejection screen: bit identity with the two-search reference, and its saving.

`_reject_rows` decides each draw on the squared distance of x / gamma - W,
W = G u the unfolded dither from one product, to the lattice: one closed
form on Zn, Dn and E8, the least of the scan's ranks on other bases.  Only
draws within its band of the radius go to the fold and the search.
`reject_ref` runs both searches every round; the two must agree on K, J and
Y bit for bit.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest

import rsuq.lattices
import rsuq.layered
import rsuq.quantizer
from _reject_ref import count_fold_rows, embed_ref, fold_ref, reject_ref
from rsuq.lattices import Lattice, builtin_lattice, lattice_from_config
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
    return lrsuq_encode_batch(GaussianNoise(lat.n), lat, seed, X)


def _cell_rows(lat, mode, seed, Xg):
    # rows whose loop inputs x / gamma (ball at r = packing radius, gamma = 1)
    # or x / beta (Gaussian) are Xg
    if mode == "ball":
        return Xg
    _, beta, _ = _levels_and_betas(GaussianNoise(lat.n), lat, batch_seeds(seed, len(Xg)))
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
    # the screen's sqdist_rows(p - W), like the searched |Q(p - W) + W - p|^2,
    # and the exact test's |y - x|^2 (at gamma = 1) differ by at most the
    # band wherever the screen decides; the native searches often agree to
    # the bit, A2 and E8 at unit scale do not
    lat = LATTICES[name]
    rng = np.random.default_rng(8)
    N, n = 5000, lat.n
    Xg = rng.standard_normal((N, n)) * 2.0 ** rng.uniform(*exponents, size=(N, 1))
    lo, hi = lat.screen_limits(Xg.T, 1.0, np.full(N, lat.packing_radius ** 2))
    U = rng.random((N, n))
    W = lat.embed_rows(U)
    e = lat.nearest_points(Xg - W) + W - Xg
    v = fold_ref(lat, U)
    err = embed_ref(lat, lat.nearest_rows(Xg - v)) + v - Xg
    exact = np.einsum("ij,ij->i", err, err)
    gap = np.abs(np.einsum("ij,ij->i", e, e) - exact)
    screened_gap = np.abs(lat.sqdist_rows(Xg - W) - exact)
    decided = np.isfinite(hi)
    assert decided.mean() > 0.1
    assert np.all(gap[decided] <= ((hi - lo) / 2)[decided])
    assert np.all(screened_gap[decided] <= ((hi - lo) / 2)[decided])
    if name in ("A2", "E8") and exponents == (0, 1):
        assert gap.max() > 0


# SHA-256 of lo then hi, little-endian float64, from _pinned_limit_inputs;
# recorded from quantizer._screen_limits before the limits moved into Lattice.
_LIMITS_SHA256 = {
    "Z2": "67a426e74174d84a953248a3f9bbdfeaedf0fe808f0f14e63f861901b1605ef2",
    "D4": "865b9eca0250075dcb97351b0d9e244f6946a847cbc75802427eec46119fd645",
    "E8": "f77a1499553714c05e861ea2637c485ad08989fe36e8d0b136ef26ed425ea04a",
    "A2": "d9526c83af9e4b9cd296a72b8a8f60e2f0e00ed9f8af944970614c6ccec48a1c",
    "fcc": "26e5d0bd4c29f6e2defee29c2f07c7ffa1d7282419c6c9efbbce59aac888b91b",
}


def _pinned_limit_inputs(lat, N=64):
    # (XgT, gamma, r2) from exact integer arithmetic and correctly rounded
    # divisions only: |p| up to 2**52, one gamma whose square underflows,
    # gamma = 0, and r2 = 0 on every fifth row
    k = np.arange(N * lat.n, dtype=np.int64)
    XgT = ((k * 7919 % 1001 - 500) / 137.0).reshape(lat.n, N) * 2.0 ** (np.arange(N) % 53)
    gamma = (np.arange(N) % 7 + 1) / 8.0
    gamma[-2:] = 2.0 ** -540, 0.0
    r2 = np.square(lat.packing_radius * gamma)
    r2[::5] = 0.0
    return XgT, gamma, r2


@pytest.mark.parametrize("name", sorted(_LIMITS_SHA256))
def test_screen_limits_are_pinned(name):
    # the screen's limits keep their bits: a change to the band's arithmetic
    # or its order changes the digest (fcc with its covering radius given, so
    # no QR factorization enters the constants)
    lat = (lattice_from_config(FCC_CONFIG + "covering_radius=1\n", name="fcc") if name == "fcc"
           else LATTICES[name])
    lo, hi = lat.screen_limits(*_pinned_limit_inputs(lat))
    assert 0 < np.isfinite(hi).sum() < len(hi)
    digest = hashlib.sha256(np.concatenate([lo, hi]).astype("<f8").tobytes()).hexdigest()
    assert digest == _LIMITS_SHA256[name]


def _limits_ref(lat, XgT, gamma, r2, floor=True):
    # screen_limits with the subnormal floor added to every row in one line
    n = lat.n
    a, kappa, R1 = lat._screen_constants
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        P = np.abs(XgT).max(axis=0)
        h = rsuq.lattices._BAND_ULPS * 2.0 ** -53 * n * (n + 2) * kappa * (P + a + 2.0 * R1)
        g2 = np.square(gamma)
        band = h * (R1 + h) + (n * 2.0 ** -1060 / g2 if floor else 0.0)
        r2 = r2 / g2
        decides = band < np.minimum(r2, R1 * R1)
    return np.where(decides, r2 - band, -np.inf), np.where(decides, r2 + band, np.inf)


@pytest.mark.parametrize("name", sorted(LATTICES))
@pytest.mark.parametrize("per_row", [True, False])
def test_floor_on_some_rows_keeps_the_limits(name, per_row):
    # the floor is added only on the rows where it can move the band, and the
    # limits keep the bits of the one-line sum: per-row gammas from 2**-540
    # (its square underflows) to 2**540, a quarter of them 2**-512 to 2**-502
    # at small |p|, where the floor moves the band, or one scalar gamma
    lat = LATTICES[name]
    rng = np.random.default_rng(23)
    N = 2000
    scale, gamma = 2.0 ** rng.uniform(0, 45, size=N), 2.0 ** rng.uniform(-540, 540, size=N)
    scale[::4], gamma[::4] = 2.0 ** rng.uniform(0, 10, size=(2, N // 4)) * [[1], [2.0 ** -512]]
    XgT = rng.standard_normal((lat.n, N)) * scale
    if not per_row:
        gamma = 2.0 ** -505
    with np.errstate(over="ignore", under="ignore"):
        r2 = np.broadcast_to(np.square(lat.packing_radius * gamma), N) * rng.uniform(0.5, 1.5, N)
    lo, hi = lat.screen_limits(XgT, gamma, r2)
    want_lo, want_hi = _limits_ref(lat, XgT, gamma, r2)
    assert np.array_equal(_bits(lo), _bits(want_lo))
    assert np.array_equal(_bits(hi), _bits(want_hi))
    moved = want_lo != _limits_ref(lat, XgT, gamma, r2, floor=False)[0]
    assert np.isfinite(hi[moved]).sum() >= N // 20


@pytest.mark.parametrize("name", sorted(LATTICES))
@pytest.mark.parametrize("mode", ["ball", "gaussian"])
def test_wide_band_sends_every_draw_to_the_exact_test(monkeypatch, name, mode):
    lat = LATTICES[name]
    monkeypatch.setattr(rsuq.lattices, "_BAND_ULPS", 2.0 ** 60)
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
    # into the band, so each draw cost one distance.  A band too wide to
    # decide draws would bring back the fold and a search per draw, unseen
    # by every bit-identity test.
    lat = builtin_lattice("E8", 8)
    rows = count_fold_rows(monkeypatch)
    X = np.random.default_rng(0).standard_normal((4096, 8))
    K, _, _ = lrsuq_encode_batch(GaussianNoise(8), lat, 1, X)
    assert K.mean() > 3.5
    assert rows[0] == 4096


def _counted(monkeypatch, name, owner=Lattice):
    # [calls, rows] passed to `owner`'s function `name`, called as f(lattice, X)
    seen = [0, 0]
    method = getattr(owner, name)

    def counted(lat, X):
        seen[0] += 1
        seen[1] += len(X)
        return method(lat, X)

    monkeypatch.setattr(owner, name, counted)
    return seen


def test_gaussian_e8_screen_builds_no_point(monkeypatch):
    # the E8 screen is a closed-form distance of x / gamma - u G^T, one
    # product: of a 4096-row N(0, 1) Gaussian encode, only the pass at K
    # passes rows to nearest_points, once for the fold and once for the
    # search, and to embed_rows, for the fold.  A screen routed through the
    # search or the column sum would add rows per draw, unseen by every
    # bit-identity test.
    lat = builtin_lattice("E8", 8)
    points = _counted(monkeypatch, "nearest_points")
    embedded = _counted(monkeypatch, "embed_rows")
    X = np.random.default_rng(0).standard_normal((4096, 8))
    K, _, _ = lrsuq_encode_batch(GaussianNoise(8), lat, 1, X)
    assert K.mean() > 3.5
    assert points[1] == 2 * 4096
    assert embedded[1] == 4096


def test_user_basis_screen_runs_no_search(monkeypatch):
    # the fcc screen is the scan's rank minimum: of a 512-row ball encode
    # only the pass at K runs the scan, once for the fold and once for the
    # search.  A screen routed through the search would add a call per
    # round, unseen by every bit-identity test.
    calls = _counted(monkeypatch, "_scan", rsuq.lattices)
    X = np.random.default_rng(0).standard_normal((512, 3))
    K, _, _ = _encode(LATTICES["fcc"], "ball", 1, X)
    assert K.max() > 1
    assert calls == [2, 2 * 512]


@pytest.mark.parametrize("name", sorted(LATTICES))
@pytest.mark.parametrize("mode", ["ball", "gaussian"])
def test_outputs_do_not_depend_on_the_product_rounding(monkeypatch, name, mode):
    # The band covers the rounding of the screened W = u G^T, at most n 2**-53 a
    # per entry (a = max_i sum_k |G_ik|), with room to spare: moving each entry
    # of y = x / gamma - W by up to n 2**-53 (|y|_inf + a) must leave K, J and
    # Y bit for bit.
    lat = LATTICES[name]
    rng = np.random.default_rng(23)
    Xg = rng.standard_normal((300, lat.n)) * 2.0 ** rng.uniform(0, 45, size=(300, 1))
    X = _cell_rows(lat, mode, 6, Xg)
    K, J, Y = _encode(lat, mode, 6, X)
    sqdist, a = Lattice.sqdist_rows, lat._screen_constants[0]

    def nudged(self, P):
        step = self.n * 2.0 ** -53 * (np.abs(P).max(axis=1, keepdims=True) + a)
        return sqdist(self, P + step * rng.integers(-1, 2, size=P.shape))

    monkeypatch.setattr(Lattice, "sqdist_rows", nudged)
    K1, J1, Y1 = _encode(lat, mode, 6, X)
    assert np.array_equal(K1, K)
    assert np.array_equal(J1, J)
    assert np.array_equal(_bits(Y1), _bits(Y))

"""Zn, Dn and E8 in native coordinates: bit identity with the coordinate loop, input limit,
and the closed-form squared distances the rejection screen uses.

The rejection loop is held to the coordinate loop on tie inputs for the
scanned families A2 and fcc as well.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsuq.lattices
import rsuq.layered
import rsuq.quantizer
from _reject_ref import decode_ref, embed_ref, reject_ref
from rsuq.cli import main
from rsuq.coding import write_vectors
from rsuq.lattices import Lattice, builtin_lattice, lattice_from_config
from rsuq.layered import GaussianNoise, lrsuq_decode_batch, lrsuq_encode_batch
from rsuq.quantizer import RsuqConfig, batch_seeds, decode_batch, encode_batch

NATIVE = [("Zn", n) for n in range(1, 5)] + [("Dn", n) for n in range(2, 10)] + [("E8", 8)]
SCANNED = [builtin_lattice("A2", 2),
           lattice_from_config("3\n1 1 0\n1 0 1\n0 1 1\npacking_radius=0.7071067811865476\n",
                               name="fcc")]
LOOP_LATTICES = [builtin_lattice(*family) for family in NATIVE] + SCANNED


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@st.composite
def _grid_rows(draw, lat):
    """Rows on the quarter-integer grid (ties for every decoder), some entries
    shifted by a multiple of 4 to just below the lattice's input limit."""
    rows, n = draw(st.integers(1, 6)), lat.n
    top = 4.0 * math.floor(lat.input_limit * (1.0 - 2.0 ** -20) / 4.0)
    q = draw(st.lists(st.integers(-8, 8), min_size=rows * n, max_size=rows * n))
    shift = draw(st.lists(st.sampled_from([0.0, 0.0, 2.0 ** 20, top, -top]),
                          min_size=rows * n, max_size=rows * n))
    return (np.array(shift) + np.array(q) / 4.0).reshape(rows, n)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_native_points_equal_embedded_coordinates(data):
    lat = builtin_lattice(*data.draw(st.sampled_from(NATIVE)))
    X = data.draw(_grid_rows(lat))
    Z = lat.nearest_points(X)
    J = lat.nearest_rows(X)
    # the fixed-order column sum, the int64 product and the decoder agree,
    # sign of zero included
    assert np.array_equal(_bits(Z), _bits(embed_ref(lat, J)))
    assert np.array_equal(_bits(Z), _bits(lat.embed_rows(J)))
    assert np.array_equal(lat.point_coords(Z), J)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.data())
def test_rejection_loop_matches_coordinate_reference(data):
    lat = data.draw(st.sampled_from(LOOP_LATTICES))
    Xg = data.draw(_grid_rows(lat))
    seed = data.draw(st.integers(0, 2 ** 64 - 1))
    if data.draw(st.booleans(), label="gaussian"):
        noise = GaussianNoise(lat.n)
        _, beta, _ = rsuq.layered._levels_and_betas(noise, lat, batch_seeds(seed, len(Xg)))
        X = Xg * beta[:, None]  # the loop sees X / beta, near Xg

        def encode():
            K, J, Y = lrsuq_encode_batch(noise, lat, seed, X)
            return K, J, Y, lrsuq_decode_batch(noise, lat, seed, K, J)
    else:
        cfg = RsuqConfig(lat, r=data.draw(st.sampled_from([lat.packing_radius, 0.3])),
                         seed=seed)
        X = Xg * cfg.gamma

        def encode():
            K, J, Y = encode_batch(cfg, X)
            return K, J, Y, decode_batch(cfg, K, J)

    K, J, Y, D = encode()
    with mock.patch.multiple(rsuq.quantizer, _reject_rows=reject_ref, _decode_rows=decode_ref), \
            mock.patch.multiple(rsuq.layered, _reject_rows=reject_ref, _decode_rows=decode_ref):
        K0, J0, Y0, D0 = encode()
    assert np.array_equal(K, K0)
    assert np.array_equal(J, J0)
    assert np.array_equal(_bits(Y), _bits(Y0))
    assert np.array_equal(_bits(D), _bits(D0))
    assert np.array_equal(_bits(D), _bits(Y))


@pytest.mark.parametrize("family,n,row_sum", [
    ("Zn", 3, 1.0), ("Dn", 2, 1.0), ("Dn", 4, 2.0), ("Dn", 9, 7.0), ("E8", 8, 12.0),
    ("A2", 2, 1.0 + 1.0 / math.sqrt(3.0)),
])
def test_input_limit_from_inverse_row_sums(family, n, row_sum):
    lat = builtin_lattice(family, n)
    assert lat.input_limit == pytest.approx(min(2.0 ** 52, 2.0 ** 53 / row_sum), rel=1e-12)


@pytest.mark.parametrize("family,n,size", [("E8", 8, 2.0 ** 50), ("Dn", 9, 2.0 ** 51)])
def test_input_beyond_exact_limit_is_refused(family, n, size):
    # from about 2**50 (E8) or 2**51 (D9) the coordinate of a nearest point is
    # no longer exact in float64; such rows are refused by name, not looped on
    lat = builtin_lattice(family, n)
    X = np.zeros((3, n))
    X[1] = size
    with pytest.raises(ValueError, match="row 1"):
        encode_batch(RsuqConfig(lat, r=lat.packing_radius, seed=1), X)
    with pytest.raises(ValueError, match="row 1"):
        lrsuq_encode_batch(GaussianNoise(n), lat, 1, X * 16)
    # just below the limit every row still encodes and decodes exactly
    X[1] = 4.0 * math.floor(lat.input_limit / 4.0) - 4.0
    cfg = RsuqConfig(lat, r=lat.packing_radius, seed=1)
    K, J, Y = encode_batch(cfg, X)
    assert np.array_equal(_bits(decode_batch(cfg, K, J)), _bits(Y))
    assert np.linalg.norm(Y - X, axis=1).max() <= cfg.r


def test_simulate_beyond_exact_limit_is_a_usage_error(tmp_path):
    X = np.zeros((4, 8))
    X[2] = 2.0 ** 52 * 0.75
    path = tmp_path / "big.vqf"
    path.write_bytes(write_vectors(X))
    code = main(["simulate", "--lattice", "E8", "--dim", "8", "--input", str(path),
                 "--output", str(tmp_path / "out.vqf")])
    assert code == 2


def _searched_sqdist(lat, X):
    # the squared distance through the nearest point, which sqdist_rows
    # approximates without building it
    e = lat.nearest_points(X)
    e -= X
    return np.einsum("ij,ij->i", e, e)


def _assert_closed_form_distance(lat, X):
    # The closed form is within (n + 4) 2**-53 of the squared distance,
    # relative (the bound the proof of Lattice.screen_limits states); the
    # searched value rounds its sum by (n + 1) 2**-53 and E8's coset
    # comparison by twice that, so the two agree within 4 (n + 4) 2**-53 of
    # it, plus a floor for subnormal squares.
    n = lat.n
    d = lat.sqdist_rows(X)
    want = _searched_sqdist(lat, X)
    assert d.shape == (len(X),)
    assert np.all(np.abs(d - want) <= 4.0 * (n + 4) * 2.0 ** -53 * want + n * 2.0 ** -1074)
    # the same bits for the rows as the transposed view of a C-contiguous
    # (n, rows) array, which is how the rejection loop passes its draws
    view = np.ascontiguousarray(X.T).T
    assert np.array_equal(_bits(lat.sqdist_rows(view)), _bits(d))
    for i in range(min(len(X), 3)):  # a row's value does not depend on its batch
        assert _bits(lat.sqdist_rows(X[i : i + 1]))[0] == _bits(d)[i]
        assert _bits(lat.sqdist_rows(view[i : i + 1]))[0] == _bits(d)[i]


def _equidistant_e8_rows(rng, rows):
    # z + s / 4, z in D8 and s in {-1, 1}^8 with an even number of -1: at
    # squared distance 1/2 from both z and z + s / 2, a point of D8 + (1/2)^8
    z = rng.integers(-6, 7, size=(rows, 8))
    z[:, 0] += z.sum(axis=1) & 1
    s = rng.choice([-1, 1], size=(rows, 8))
    s[:, 0] *= np.prod(s, axis=1)
    return z + s / 4.0


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_closed_form_distance_on_tie_rows(data):
    lat = builtin_lattice(*data.draw(st.sampled_from(NATIVE)))
    _assert_closed_form_distance(lat, data.draw(_grid_rows(lat)))


@pytest.mark.parametrize("family", NATIVE, ids=lambda f: f"{f[0]}{f[1]}")
def test_closed_form_distance(family):
    lat = builtin_lattice(*family)
    rng = np.random.default_rng(31)
    n = lat.n
    X = rng.standard_normal((2000, n)) * 2.0 ** rng.uniform(0, 45, size=(2000, 1))
    for rows in (X, np.zeros((5, n)), np.zeros((0, n)), X[:1]):
        _assert_closed_form_distance(lat, rows)
    if family == ("E8", 8):
        E = _equidistant_e8_rows(rng, 500)
        d = lat.sqdist_rows(E)
        assert np.array_equal(d, np.full(500, 0.5))
        _assert_closed_form_distance(lat, E)
        _assert_closed_form_distance(lat, E + 4.0 * 2.0 ** 40)


def _band(lat, X):
    # h (R1 + h), h = _BAND_ULPS n (n + 2) kappa 2**-53 S, S = |x|_inf + a + 2 R1,
    # plus the subnormal floor: the bound the proof of Lattice.screen_limits
    # puts, at gamma = 1, between the screened distance and the exact test's
    a, kappa, R1 = lat._screen_constants
    n = lat.n
    S = (np.abs(X).max(axis=1) if len(X) else np.zeros(0)) + a + 2.0 * R1
    h = rsuq.lattices._BAND_ULPS * 2.0 ** -53 * n * (n + 2) * kappa * S
    return h * (R1 + h) + n * 2.0 ** -1060


@pytest.mark.parametrize("lat", SCANNED, ids=lambda lat: lat.name)
def test_scanned_distance_within_band_of_searched(lat, monkeypatch):
    # On A2 and user bases sqdist_rows is the least of the scan's ranks, not
    # the searched formula: the two differ in the last bits (at |x| ~ 1e12 on
    # A2, 0.24278944 against 0.24273435), always within the screen's band.
    tables = []
    offset_table = Lattice._offset_table

    def recorded(self, full=False):
        tables.append(full)
        return offset_table(self, full)

    monkeypatch.setattr(Lattice, "_offset_table", recorded)
    rng = np.random.default_rng(32)
    n = lat.n
    X = rng.standard_normal((500, n)) * 2.0 ** rng.uniform(0, 45, size=(500, 1))
    for exponent in range(0, 46, 5):
        X = np.vstack([X, rng.standard_normal((50, n)) * 2.0 ** exponent])
    for rows in (X, X[:1], np.zeros((0, n)), np.zeros((5, n))):
        d, want = lat.sqdist_rows(rows), _searched_sqdist(lat, rows)
        assert d.shape == (len(rows),)
        assert np.all(np.abs(d - want) <= _band(lat, rows))
    assert np.array_equal(lat.sqdist_rows(np.zeros((5, n))), np.zeros(5))
    assert np.any(lat.sqdist_rows(X) != _searched_sqdist(lat, X))
    # the certificate holds at unit scale; at 2**45 rows fail it and the
    # batch ranks the whole box
    tables.clear()
    lat.sqdist_rows(X[500:550])
    assert tables == [False]
    tables.clear()
    big = X[-50:]
    d = lat.sqdist_rows(big)
    assert tables == [False, True]
    assert np.all(np.abs(d - _searched_sqdist(lat, big)) <= _band(lat, big))

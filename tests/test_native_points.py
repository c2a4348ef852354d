"""Zn, Dn and E8 in native coordinates: bit identity with the coordinate loop, input limit.

The rejection loop is held to the coordinate loop on tie inputs for the
scanned families A2 and fcc as well.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsuq.layered
import rsuq.quantizer
from _reject_ref import decode_ref, embed_ref, reject_ref
from rsuq.cli import main
from rsuq.coding import write_vectors
from rsuq.lattices import builtin_lattice, lattice_from_config
from rsuq.layered import GaussianNoise, lrsuq_decode_batch, lrsuq_encode_batch
from rsuq.quantizer import RsuqConfig, batch_seeds, decode_batch, encode_batch

NATIVE = [("Zn", n) for n in range(1, 5)] + [("Dn", n) for n in range(2, 10)] + [("E8", 8)]
LOOP_LATTICES = [builtin_lattice(*family) for family in NATIVE] + [
    builtin_lattice("A2", 2),
    lattice_from_config("3\n1 1 0\n1 0 1\n0 1 1\npacking_radius=0.7071067811865476\n", name="fcc")]


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
        noise = GaussianNoise(lat.n, lat)
        _, beta = rsuq.layered._levels_and_betas(noise, batch_seeds(seed, len(Xg)))
        X = Xg * beta[:, None]  # the loop sees X / beta, near Xg

        def encode():
            K, J, Y, _ = lrsuq_encode_batch(noise, lat, seed, X)
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
        lrsuq_encode_batch(GaussianNoise(n, lat), lat, 1, X * 16)
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

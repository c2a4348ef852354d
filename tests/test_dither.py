"""Dither stream determinism, cell membership, uniformity and random access."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _dither_ref import mix64, rand_words, uniform53
from rsuq.dither import derive_seed, derive_seeds, fold_rows, gathered_uniforms, stream_uniforms
from rsuq.lattices import builtin_lattice, lattice_from_config
from rsuq.quantizer import _dithers_at, batch_seeds

FCC_CONFIG = "3\n1 1 0\n1 0 1\n0 1 1\npacking_radius=0.7071067811865476\n"


def dithers(seed, lat, count, scale=1.0, reserved=0):
    """Draws 0..count-1 of a stream: dither k uses words reserved + k*n onward."""
    u = stream_uniforms([seed], reserved, count * lat.n).reshape(count, lat.n)
    return scale * fold_rows(lat, u)


def test_generator_reference_words():
    # First outputs of the classic splitmix scrambler for seed 0.
    w = rand_words(0, np.arange(3))
    assert [int(x) for x in w] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                   0x06C45D188009454F]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=4),
       st.integers(0, 2 ** 48), st.integers(0, 16))
def test_stream_and_gathered_uniforms_agree(seeds, first, count):
    a = stream_uniforms(seeds, first, count)
    idx = np.tile(np.arange(first, first + count, dtype=np.uint64), (len(seeds), 1))
    b = gathered_uniforms(seeds, idx)
    c = np.array([uniform53(rand_words(s, idx[0])) for s in seeds]).reshape(len(seeds), count)
    assert a.shape == (len(seeds), count) and a.T.flags.c_contiguous
    assert np.array_equal(a, b) and np.array_equal(a, c)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=4),
       st.integers(2 ** 64 - 2 ** 10, 2 ** 64 - 1), st.integers(0, 9))
def test_word_positions_wrap_mod_2_64(seeds, first, count):
    # a run of words that passes 2**64 - 1 goes on at word 0, for both generators
    idx = np.array([(first + i) % 2 ** 64 for i in range(count)], dtype=np.uint64)
    want = uniform53(rand_words(np.array(seeds, dtype=np.uint64)[:, None], idx))
    assert np.array_equal(stream_uniforms(seeds, first, count), want)
    assert np.array_equal(gathered_uniforms(seeds, np.tile(idx, (len(seeds), 1))), want)


def test_gathered_uniforms_on_a_word_major_index_stay_word_major():
    # the transpose of a C-contiguous (n, N) index gives a view whose
    # transpose is C-contiguous, with the values of the row-major index
    idx = np.arange(6, dtype=np.uint64).reshape(3, 2) * np.uint64(7)
    seeds = np.array([3, 2 ** 64 - 1], dtype=np.uint64)
    u = gathered_uniforms(seeds, idx.T)
    assert u.base is not None and u.T.flags.c_contiguous
    assert np.array_equal(u, gathered_uniforms(seeds, np.ascontiguousarray(idx.T)))


def test_uniform53_range_and_resolution():
    u = uniform53(rand_words(123, np.arange(10000)))
    assert np.all((u >= 0.0) & (u < 1.0))
    # top-53-bit deviates are multiples of 2^-53
    assert np.all(u * 2.0 ** 53 == np.floor(u * 2.0 ** 53))


def test_determinism_same_seed():
    z2 = builtin_lattice("Zn", 2)
    a = dithers(42, z2, 1000)
    b = dithers(42, z2, 1000)
    assert np.array_equal(a, b)


def test_zn_cell_is_half_open_cube():
    z2 = builtin_lattice("Zn", 2)
    v = dithers(7, z2, 20000)
    assert np.all((v > -0.5) & (v <= 0.5))


def test_scaled_cell_membership():
    z2 = builtin_lattice("Zn", 2)
    v = dithers(7, z2, 5000, scale=3.0)
    assert np.all((v > -1.5) & (v <= 1.5))


@pytest.mark.parametrize("family,n,scale", [("A2", 2, 1.0), ("A2", 2, 2.5),
                                            ("Dn", 4, 1.0), ("Dn", 4, 0.3)])
def test_fold_correctness(family, n, scale):
    lat = builtin_lattice(family, n)
    v = dithers(99, lat, 100000, scale=scale)
    assert np.abs(lat.nearest_rows(v / scale)).sum() == 0


def test_jump_to_semantics():
    # the decoder's random access reproduces the sequential draws
    z2 = builtin_lattice("Zn", 2)
    seq = dithers(5, z2, 10)
    seeds = np.full(10, 5, dtype=np.uint64)
    assert np.array_equal(_dithers_at(z2, seeds, np.arange(10), 0), seq)


@pytest.mark.parametrize("lat", [
    builtin_lattice("Zn", 2), builtin_lattice("Dn", 4), builtin_lattice("E8", 8),
    builtin_lattice("A2", 2), lattice_from_config(FCC_CONFIG, name="fcc"),
], ids=lambda lat: lat.name + str(lat.n))
@pytest.mark.parametrize("N", [0, 1, 4097])
@pytest.mark.parametrize("reserved", [0, 1, 5])
def test_dithers_at_equals_the_row_major_fold(lat, N, reserved):
    # the jump's word-major words and fold give the bits of a row-major index
    seeds = batch_seeds(11, N)
    draws = np.random.default_rng(N + reserved).integers(0, 40, N)
    idx = (reserved + draws[:, None] * lat.n + np.arange(lat.n)).astype(np.uint64)
    want = fold_rows(lat, gathered_uniforms(seeds, idx))
    got = _dithers_at(lat, seeds, draws, reserved)
    assert got.shape == (N, lat.n)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_reserved_words_shift_the_stream():
    z2 = builtin_lattice("Zn", 2)
    plain = dithers(5, z2, 3)
    shifted = dithers(5, z2, 3, reserved=1)
    assert not np.array_equal(plain, shifted)
    # draw k of the shifted stream uses words 1 + 2k, 2 + 2k
    u = stream_uniforms([5], 1, 2)
    w = z2.embed_rows(u)
    j = z2.nearest_rows(w)
    expect = (w - z2.embed_rows(j))[0]
    assert np.array_equal(shifted[0], expect)


def test_scalar_moments_z1():
    z1 = builtin_lattice("Zn", 1)
    v = dithers(31, z1, 10 ** 6)[:, 0]
    sigma = 1.0 / math.sqrt(12.0)
    assert abs(v.mean()) <= 3.0 * sigma / 1000.0
    assert v.var() == pytest.approx(1.0 / 12.0, rel=0.01)


def test_uniformity_chi_square_16_cells():
    # 4x4 partition of the Voronoi cell of Z^2 at significance 0.01
    from rsuq.mc import chi_square_gof

    z2 = builtin_lattice("Zn", 2)
    v = dithers(1234, z2, 100000)
    ix = np.floor((v[:, 0] + 0.5) * 4).clip(0, 3).astype(int)
    iy = np.floor((v[:, 1] + 0.5) * 4).clip(0, 3).astype(int)
    counts = np.bincount(4 * ix + iy, minlength=16).astype(float)
    res = chi_square_gof(counts, np.full(16, v.shape[0] / 16.0), "dither-uniformity")
    assert res.verdict, res


def test_volume_preservation_congruent_boxes():
    z2 = builtin_lattice("Zn", 2)
    v = dithers(77, z2, 100000)
    in_box1 = np.all((v >= [-0.40, -0.40]) & (v < [-0.20, -0.20]), axis=1)
    in_box2 = np.all((v >= [0.10, 0.20]) & (v < [0.30, 0.40]), axis=1)
    c1, c2 = in_box1.sum(), in_box2.sum()
    ratio = c1 / c2
    sd = math.sqrt(2.0 / min(c1, c2))
    assert abs(ratio - 1.0) <= 4.0 * sd


def test_derive_seed_scalar_vector_agree():
    idx = np.arange(50, dtype=np.uint64)
    vec = derive_seeds(31337, idx)
    assert [derive_seed(31337, int(i)) for i in idx] == [int(v) for v in vec]


def test_mix64_bijective_on_samples():
    x = np.arange(10000, dtype=np.uint64)
    assert len(np.unique(mix64(x))) == 10000

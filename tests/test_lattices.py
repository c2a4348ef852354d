"""Lattice geometry and nearest-point tests against independent oracles."""

import itertools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rsuq.lattices as lattices
from _scan_ref import scan_ref
from rsuq.lattices import (Lattice, ball_volume, builtin_lattice,
                           covering_density, lattice_from_config,
                           load_lattice, log2_ball_volume, nearest_point,
                           packing_density)

RNG = np.random.default_rng(20240511)


# -- independent nearest-point oracles ----------------------------------------
#
# The production decoders use closed-form constructions; the oracles below
# minimize the distance exhaustively over a candidate set that provably
# contains the optimum (any lattice point within the covering radius), with
# lexicographically-smallest tie breaking.


def oracle_zn(x):
    out = []
    for xi in x:
        best, bestd = None, None
        for c in range(int(math.floor(xi)) - 1, int(math.floor(xi)) + 3):
            d = (xi - c) ** 2
            if bestd is None or d < bestd:
                best, bestd = c, d
        out.append(best)
    return np.array(out, dtype=np.int64)


def oracle_even_sum(x, halfwidth=2):
    """Lex-least minimizer over integer points with even coordinate sum.

    Backward parity DP over coordinates, then a greedy forward pass that
    takes the smallest candidate consistent with the optimal cost.
    """
    n = len(x)
    cands = []
    for xi in x:
        base = int(math.floor(xi))
        cs = list(range(base - halfwidth + 1, base + halfwidth + 1))
        cands.append([(c, (xi - c) ** 2) for c in cs])
    INF = float("inf")
    best = [[0.0, INF]]  # best[p]: minimal suffix cost reaching parity p
    for i in range(n - 1, -1, -1):
        cur = [INF, INF]
        for c, cost in cands[i]:
            for p in (0, 1):
                total = cost + best[0][p ^ (c & 1)]
                if total < cur[p]:
                    cur[p] = total
        best.insert(0, cur)
    z = []
    need = 0
    for i in range(n):
        for c, cost in sorted(cands[i]):
            if cost + best[i + 1][need ^ (c & 1)] == best[i][need]:
                z.append(c)
                need ^= c & 1
                break
    return np.array(z, dtype=np.int64), best[0][0]


def oracle_e8_point(x):
    z0, d0 = oracle_even_sum(x)
    z1, d1 = oracle_even_sum(x - 0.5)
    if d0 <= d1:
        return z0.astype(np.float64)
    return z1 + 0.5


def oracle_a2(lat, x):
    c = lat.coords_rows(x[None, :])[0]
    base = np.floor(c).astype(np.int64)
    best, bestd = None, None
    for o1 in range(-3, 4):
        for o2 in range(-3, 4):
            j = base + np.array([o1, o2])
            d = float(np.sum((x - lat.embed_rows(j[None, :].astype(float))[0]) ** 2))
            if bestd is None or d < bestd:
                best, bestd = j, d
    return best


# -- geometric constants --------------------------------------------------------


def test_zn_geometry():
    z2 = builtin_lattice("Zn", 2)
    assert z2.packing_radius == 0.5
    assert z2.det == 1.0
    assert packing_density(z2) == pytest.approx(math.pi / 4, abs=1e-12)


def test_e8_geometry_minimal_vectors():
    e8 = builtin_lattice("E8", 8)
    assert e8.det == pytest.approx(abs(np.linalg.det(e8.G)), abs=1e-12)
    # minimal nonzero norm is sqrt(2): enumerate both cosets directly
    best = np.inf
    count = 0
    from itertools import product

    for v in product((-1, 0, 1), repeat=8):
        if sum(v) % 2 == 0 and any(v):
            nrm = math.sqrt(sum(c * c for c in v))
            if nrm < best - 1e-12:
                best, count = nrm, 1
            elif abs(nrm - best) < 1e-12:
                count += 1
    # half coset: all-(+-1/2) vectors with even number of minus signs
    for v in product((-0.5, 0.5), repeat=8):
        if sum(1 for c in v if c < 0) % 2 == 0:
            nrm = math.sqrt(sum(c * c for c in v))
            if nrm < best - 1e-12:
                best, count = nrm, 1
            elif abs(nrm - best) < 1e-12:
                count += 1
    assert best == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert 2 * e8.packing_radius == pytest.approx(best, abs=1e-12)
    assert count == 240  # the E8 root count

    assert packing_density(e8) == pytest.approx(math.pi ** 4 / 384, rel=1e-12)


def test_dn_geometry():
    d4 = builtin_lattice("Dn", 4)
    assert d4.det == 2.0
    assert d4.packing_radius == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    assert packing_density(d4) == pytest.approx(math.pi ** 2 / 16, rel=1e-12)
    # index-2 sublattice of Z^4 with minimal norm sqrt(2)
    cols = [d4.G[:, k] for k in range(4)]
    for c in cols:
        assert float(c @ c) >= 2.0 - 1e-12


@pytest.mark.parametrize("family,n", [("Zn", 3), ("A2", 2), ("Dn", 4)])
def test_packing_radius_is_half_min_norm(family, n):
    # bounded shortest-vector enumeration confirms 2 lambda_min = min |G j|
    from rsuq.lattices import _min_nonzero_norm

    lat = builtin_lattice(family, n)
    assert 2.0 * lat.packing_radius == pytest.approx(_min_nonzero_norm(lat.G),
                                                     rel=1e-12)


def test_packing_density_unit_scaling():
    for n in range(1, 17):
        zn = builtin_lattice("Zn", n)
        assert packing_density(zn) * 2 ** n / ball_volume(n) == pytest.approx(1.0, rel=1e-12)


def test_covering_examples():
    z1 = builtin_lattice("Zn", 1)
    # exactly 1: in log space it would come out at 1 + 2**-52
    assert packing_density(z1) == 1.0
    assert covering_density(z1) == pytest.approx(1.0, rel=1e-12)
    a2 = builtin_lattice("A2", 2)
    assert covering_density(a2) == pytest.approx(2 * math.pi / (3 * math.sqrt(3)), rel=1e-12)
    e8 = builtin_lattice("E8", 8)
    assert covering_density(e8) == pytest.approx(math.pi ** 4 / 24, rel=1e-12)


def test_covering_density_requires_radius():
    lat = Lattice("bare", np.eye(2), packing_radius=0.5)
    with pytest.raises(ValueError):
        covering_density(lat)


def test_builtin_errors():
    with pytest.raises(ValueError):
        builtin_lattice("Leech", 24)
    with pytest.raises(ValueError):
        builtin_lattice("A2", 3)
    with pytest.raises(ValueError):
        builtin_lattice("E8", 4)
    with pytest.raises(ValueError):
        builtin_lattice("Dn", 1)


# -- nearest point ----------------------------------------------------------------


def test_nearest_zn_examples():
    z2 = builtin_lattice("Zn", 2)
    assert nearest_point(z2, [0.4, -1.6]).coords.tolist() == [0, -2]
    # boundary tie resolves to the lexicographically smallest minimizer
    assert nearest_point(z2, [0.5, 0.5]).coords.tolist() == [0, 0]
    assert nearest_point(z2, [-0.5, 0.5]).coords.tolist() == [-1, 0]


def test_nearest_d4_example():
    d4 = builtin_lattice("Dn", 4)
    p = nearest_point(d4, [0.6, 0.2, 0.0, 0.0])
    assert np.allclose(p.embedding, 0.0, atol=1e-12)
    x = np.array([0.6, 0.2, 0.0, 0.0])
    assert np.sum((x - p.embedding) ** 2) == pytest.approx(0.40, abs=1e-12)
    other = np.array([1.0, 1.0, 0.0, 0.0])
    assert np.sum((x - other) ** 2) == pytest.approx(0.80, abs=1e-12)


def test_nearest_dimension_mismatch():
    z2 = builtin_lattice("Zn", 2)
    with pytest.raises(ValueError):
        nearest_point(z2, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("family,n,count", [
    ("Zn", 1, 10000), ("Zn", 2, 10000), ("Zn", 4, 10000), ("Zn", 8, 10000),
])
def test_nearest_zn_oracle(family, n, count):
    lat = builtin_lattice(family, n)
    X = RNG.uniform(-4, 4, size=(count, n))
    J = lat.nearest_rows(X)
    # vectorized exhaustive minimization over the 4 integers around each
    # coordinate, scanned in increasing order so ties stay lexicographic
    base = np.floor(X).astype(np.int64)
    best = base - 1
    bestd = (X - best) ** 2
    for off in (0, 1, 2):
        cand = base + off
        d = (X - cand) ** 2
        better = d < bestd
        best[better] = cand[better]
        bestd[better] = d[better]
    assert np.array_equal(J, best)
    idx = RNG.integers(0, count, size=200)
    for i in idx:
        assert np.array_equal(J[i], oracle_zn(X[i]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_nearest_dn_oracle(n):
    lat = builtin_lattice("Dn", n)
    count = 10000
    X = RNG.uniform(-4, 4, size=(count, n))
    J = lat.nearest_rows(X)
    emb = lat.embed_rows(J)
    d_fast = np.einsum("ij,ij->i", X - emb, X - emb)
    # exhaustive-parity optimum must match in cost and point everywhere
    # (decision ties over random inputs have measure zero)
    for i in range(count):
        z, d = oracle_even_sum(X[i])
        assert d == pytest.approx(d_fast[i], abs=1e-9)
        assert np.allclose(emb[i], z)


def test_nearest_e8_oracle():
    lat = builtin_lattice("E8", 8)
    count = 10000
    X = RNG.uniform(-3, 3, size=(count, 8))
    J = lat.nearest_rows(X)
    emb = lat.embed_rows(J)
    d_fast = np.einsum("ij,ij->i", X - emb, X - emb)
    for i in range(count):
        z = oracle_e8_point(X[i])
        d = float(np.sum((X[i] - z) ** 2))
        assert d == pytest.approx(d_fast[i], abs=1e-9)
        assert np.allclose(emb[i], z)


def test_nearest_a2_oracle():
    lat = builtin_lattice("A2", 2)
    X = RNG.uniform(-5, 5, size=(10000, 2))
    J = lat.nearest_rows(X)
    # vectorized 7x7-offset exhaustive search around the rounded coordinates
    C = lat.coords_rows(X)
    base = np.floor(C).astype(np.int64)
    best = None
    bestd = None
    for o1 in range(-3, 4):
        for o2 in range(-3, 4):
            j = base + np.array([o1, o2], dtype=np.int64)
            diff = X - lat.embed_rows(j)
            d = np.einsum("ij,ij->i", diff, diff)
            if best is None:
                best, bestd = j.copy(), d
            else:
                better = d < bestd
                best[better] = j[better]
                bestd[better] = d[better]
    assert np.array_equal(J, best)
    for i in RNG.integers(0, 10000, size=100):
        assert np.array_equal(J[i], oracle_a2(lat, X[i]))


@pytest.mark.parametrize("family,n", [("Zn", 2), ("Zn", 8), ("Dn", 4),
                                      ("A2", 2), ("E8", 8)])
def test_shift_covariance(family, n):
    lat = builtin_lattice(family, n)
    X = RNG.uniform(-5, 5, size=(3000, n))
    shifts = RNG.integers(-3, 4, size=(3000, n))
    J = lat.nearest_rows(X)
    J2 = lat.nearest_rows(X + lat.embed_rows(shifts.astype(np.float64)))
    assert np.array_equal(J2, J + shifts)


@pytest.mark.parametrize("family,n", [("Zn", 3), ("Dn", 4), ("A2", 2), ("E8", 8)])
def test_distance_within_covering_radius(family, n):
    lat = builtin_lattice(family, n)
    X = RNG.uniform(-6, 6, size=(10000, n))
    emb = lat.embed_rows(lat.nearest_rows(X))
    d = np.sqrt(np.einsum("ij,ij->i", X - emb, X - emb))
    assert d.max() <= lat.covering_radius + 1e-9


# -- user lattices -----------------------------------------------------------------


A2_CONFIG = """2
1 0.5
0 0.8660254037844386
covering_radius=0.5773502691896258
"""


def test_user_lattice_matches_builtin_decoder():
    user = lattice_from_config(A2_CONFIG)
    a2 = builtin_lattice("A2", 2)
    # packing radius found by shortest-vector enumeration
    assert user.packing_radius == pytest.approx(0.5, rel=1e-12)
    X = RNG.uniform(-5, 5, size=(5000, 2))
    assert np.array_equal(user.nearest_rows(X), a2.nearest_rows(X))


def test_user_lattice_explicit_fields():
    text = "2\n2 0\n0 2\npacking_radius=1.0\ncovering_radius=1.4142135623730951\nnsm=0.08333333333333333\n"
    lat = lattice_from_config(text)
    assert lat.packing_radius == 1.0
    assert lat.nsm == pytest.approx(1 / 12)
    assert packing_density(lat) == pytest.approx(math.pi / 4, rel=1e-12)


def test_user_lattice_config_errors():
    with pytest.raises(ValueError):
        lattice_from_config("")
    with pytest.raises(ValueError):
        lattice_from_config("2\n1 0\n")  # missing row
    with pytest.raises(ValueError):
        lattice_from_config("2\n1 0\n0 1\nwhatever=3\n")
    with pytest.raises(ValueError):
        lattice_from_config("2\n1 0\n0 0\n")  # singular
    with pytest.raises(ValueError, match="packing density"):
        # true packing radius 0.5; 0.9 would put density at 0.81 pi > 1
        lattice_from_config("2\n1 0\n0 1\npacking_radius=0.9\n")


def test_packing_radius_above_half_the_shortest_column_is_refused():
    # 0.55 keeps the density of Z2 below 1 (0.95), but an r-ball no longer fits
    # the scaled cell, so the error would not be uniform over the ball
    with pytest.raises(ValueError, match="shortest generator column"):
        lattice_from_config("2\n1 0\n0 1\npacking_radius=0.55\n")
    # exactly half the shortest column loads: fcc, 1/2 |(1, 1, 0)|
    fcc = lattice_from_config("3\n1 1 0\n1 0 1\n0 1 1\npacking_radius=0.7071067811865476\n")
    assert fcc.packing_radius == 0.5 * math.sqrt(2.0)


def test_constructor_holds_the_packing_rules():
    # the rules hold for every Lattice, not only for configs
    with pytest.raises(ValueError, match="shortest generator column"):
        Lattice("z2", np.eye(2), packing_radius=0.55)
    # a radius that breaks both rules names the density
    with pytest.raises(ValueError, match="packing density"):
        Lattice("z2", np.eye(2), packing_radius=0.9)
    # the density of Z^n underflows to 0 from n = 340 on
    with pytest.raises(ValueError, match="packing density 0.0 outside"):
        builtin_lattice("Zn", 400)


@pytest.mark.parametrize("G,expect", [
    ([[1.0, 0.3], [0.2, 1.1]], "0x1.0511de5a8265fp+0"),
    ([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], "0x1.6a09e667f3bcdp+0"),
    ([[1.3, -0.4, 0.25], [0.1, 0.9, -0.7], [0.35, 0.6, 1.2]], "0x1.273bcd5e51828p+0"),
    ([[1.0, 0.1, -0.3, 0.2], [0.4, 1.2, 0.05, -0.5], [-0.2, 0.3, 0.8, 0.6],
      [0.15, -0.25, 0.45, 1.1]], "0x1.2a8b73e294fb6p-1"),
])
def test_min_nonzero_norm_pinned(G, expect):
    # this value fixes gamma, hence the stream bytes, for configs without
    # packing_radius: it must not move by a single bit.  The pins hold for one
    # numpy/BLAS build; a BLAS that reorders or fuses these short dot products
    # may move the last bit, which lattice_for_header tolerates on decode.
    from rsuq.lattices import _min_nonzero_norm

    assert float(_min_nonzero_norm(np.array(G))).hex() == expect


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from([("A2", 2), ("Zn", 3), ("Dn", 3), ("Dn", 4)]), st.integers(0, 2 ** 32 - 1))
def test_min_nonzero_norm_matches_per_candidate_loop(family, seed):
    # Rotated bases with many shortest vectors of one true norm, whose float
    # norms differ in the last bits: the ranked search must return what
    # scoring every candidate with its own G @ j returns.
    from rsuq.lattices import _box, _min_nonzero_norm

    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(family[1], family[1])))[0]
    G = Q @ builtin_lattice(*family).G * rng.uniform(0.5, 3.0)
    best = min(np.linalg.norm(G[:, k]) for k in range(G.shape[0]))
    for j in _box(np.linalg.inv(G), best, 0.0, ""):
        if j.any():
            v = G @ j.astype(np.float64)
            best = min(best, math.sqrt(float(v @ v)))
    assert float(_min_nonzero_norm(G)).hex() == float(best).hex()


def _brute_nearest(lat, x):
    # Any minimizer j has |c_i - j_i| <= |row_i(G^-1)| * |x - G j0| for the
    # rounded coordinates j0; scan that box in lexicographic order and keep
    # the first exact minimum.
    from rsuq.lattices import _sqnorm_rows

    c = lat.coords_rows(x[None])[0]
    j0 = np.round(c)
    d0 = math.sqrt(float(np.sum((x - lat.embed_rows(j0[None])[0]) ** 2)))
    reach = np.linalg.norm(np.linalg.inv(lat.G), axis=1) * d0 + 1e-9
    axes = [range(math.floor(ci - ri), math.ceil(ci + ri) + 1) for ci, ri in zip(c, reach)]
    J = np.array(np.meshgrid(*axes, indexing="ij")).reshape(lat.n, -1).T
    return J[np.argmin(_sqnorm_rows(x[None] - lat.embed_rows(J)))]


@st.composite
def _small_integer_basis(draw):
    n = draw(st.sampled_from([2, 3]))
    G = np.array(draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n)),
                 dtype=np.float64).reshape(n, n)
    assume(abs(np.linalg.det(G)) > 0.5 and np.linalg.cond(G) < 6)
    return G


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_small_integer_basis(), st.data())
def test_generic_decoder_matches_brute_force(G, data):
    lat = Lattice("user", G, packing_radius=0.01)  # unused by the decoder
    coord = st.floats(-4, 4, allow_nan=False).map(lambda v: round(v * 4) / 4)
    X = np.array(data.draw(st.lists(st.lists(coord, min_size=lat.n, max_size=lat.n),
                                    min_size=1, max_size=4)))
    got = lat.nearest_rows(X)
    for x, j in zip(X, got):
        assert np.array_equal(j, _brute_nearest(lat, x))


def test_load_lattice_file(tmp_path):
    path = tmp_path / "a2.lat"
    path.write_text(A2_CONFIG)
    lat = load_lattice(path)
    assert lat.n == 2
    assert lat.name == "a2.lat"


def test_log2_ball_volume_matches_closed_forms():
    assert ball_volume(1) == pytest.approx(2.0, rel=1e-12)
    assert ball_volume(2) == pytest.approx(math.pi, rel=1e-12)
    assert ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-12)
    # stays finite far beyond the overflow range of direct Gamma
    assert log2_ball_volume(64) == pytest.approx(
        32 * math.log2(math.pi) - math.lgamma(33) / math.log(2), rel=1e-12)


# -- the pruned scan against the per-offset reference ---------------------------


@st.composite
def _scan_case(draw):
    # A well-conditioned 2-4 dimensional integer or real basis, a covering
    # radius that keeps the box below ~2000 offsets (the scan and the
    # reference see the same box, so it need not cover the Voronoi cell), and
    # rows at scale 1 to 1e6, on the quarter grid (exact ties) or not.
    n = draw(st.sampled_from([2, 3, 4]))
    integer = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    while True:
        G = (rng.integers(-2, 3, size=(n, n)) if integer
             else rng.uniform(-2, 2, size=(n, n))).astype(np.float64)
        if abs(np.linalg.det(G)) > 0.5 and np.linalg.cond(G) < 6:
            break
    reach = np.linalg.norm(np.linalg.inv(G), axis=1)
    cover = draw(st.sampled_from([0.5, 1.0, 2.0]))
    while np.prod(2 * np.ceil(reach * cover + 0.5) + 1) > 2000:
        cover /= 2
    lat = Lattice("user", G, packing_radius=0.01, covering_radius=max(cover, 0.01))
    X = rng.uniform(-4, 4, size=(draw(st.integers(1, 150)), n))
    X *= draw(st.sampled_from([1.0, 1e3, 1e6]))
    if draw(st.booleans()):
        X = np.round(X * 4) / 4
    # one row per block when the box has more offsets than the block
    return lat, X, draw(st.sampled_from([2 ** 14, 64, 7, 1]))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_scan_case())
def test_scan_matches_per_offset_reference(case):
    lat, X, block = case
    with mock.patch.object(lattices, "_SCAN_BLOCK", block):
        got = lat.nearest_rows(X)
        single = [lat.nearest_rows(x[None])[0] for x in X[:4]]
        point = nearest_point(lat, X[0]).coords
    base = lattices._round_half_down(lat.coords_rows(X))
    assert np.array_equal(got, scan_ref(lat, X, base, lat._offset_table().O))
    assert np.array_equal(single, got[:4])
    assert np.array_equal(point, got[0])


@pytest.mark.parametrize("block", [2 ** 14, 3, 1])
@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_a2_scan_matches_per_offset_reference(block, scale):
    lat = builtin_lattice("A2", 2)
    X = RNG.uniform(-5, 5, size=(2000, 2)) * scale
    X[::2] = np.round(X[::2] * 4) / 4
    with mock.patch.object(lattices, "_SCAN_BLOCK", block):
        got = lat.nearest_rows(X)
    base = np.floor(lat.coords_rows(X)).astype(np.int64)
    assert np.array_equal(got, scan_ref(lat, X, base, ((0, 0), (0, 1), (1, 0), (1, 1))))


@st.composite
def _pruning_case(draw):
    # A well-conditioned 2-4 dimensional integer or real basis without
    # covering_radius, whose pre-change box (sqrt(n) max |g_k|) stays small
    # enough for the per-offset reference; rows at scale 1 to 1e6, on the
    # quarter grid (exact ties) or not, and a few rows just below input_limit.
    n = draw(st.sampled_from([2, 3, 4]))
    integer = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    while True:
        G = (rng.integers(-2, 3, size=(n, n)) if integer
             else rng.uniform(-2, 2, size=(n, n))).astype(np.float64)
        if abs(np.linalg.det(G)) > 0.5 and np.linalg.cond(G) < 6:
            half = np.ceil(np.linalg.norm(np.linalg.inv(G), axis=1) * math.sqrt(n)
                           * np.linalg.norm(G, axis=0).max() + 0.5).astype(int)
            if np.prod(2 * half + 1) <= 10000:
                break
    X = rng.uniform(-4, 4, size=(draw(st.integers(1, 60)), n))
    X *= draw(st.sampled_from([1.0, 1e3, 1e6]))
    if draw(st.booleans()):
        X = np.round(X * 4) / 4
    box = np.array(list(itertools.product(*[range(-h, h + 1) for h in half])))
    return Lattice("user", G), X, box


@settings(derandomize=True, deadline=None, max_examples=50)
@given(_pruning_case())
def test_pruned_scan_matches_pre_change_box(case):
    # The certified table gives the first minimum over the whole box; rows
    # just below input_limit fail its residual guard and scan the whole box.
    lat, X, box = case
    huge = np.nextafter(lat.input_limit, 0) * RNG.uniform(-1, 1, size=(3, lat.n))
    huge[:, 0] = np.copysign(np.nextafter(lat.input_limit, 0), huge[:, 0])
    rows = np.vstack([X, huge])
    want = scan_ref(lat, rows, lattices._round_half_down(lat.coords_rows(rows)), box)
    assert np.array_equal(lat.nearest_rows(X), want[: len(X)])
    if np.abs(X).max() <= 4:
        assert True not in lat._scan_tables  # the guard kept the pruned table
    assert np.array_equal(lat.nearest_rows(rows), want)
    assert len(lat._scan_tables[True].O) == len(box)


def test_certified_table_sizes():
    # the pre-change boxes held 343 (fcc) and 528,471 offsets
    fcc = lattice_from_config("3\n1 1 0\n1 0 1\n0 1 1\n")
    assert len(fcc._offset_table().O) <= 79
    basis = Lattice("user", [[1.0, 0.1, -0.3, 0.2], [0.4, 1.2, 0.05, -0.5],
                             [-0.2, 0.3, 0.8, 0.6], [0.15, -0.25, 0.45, 1.1]])
    assert len(basis._offset_table().O) <= 1000
    assert len(builtin_lattice("A2", 2)._offset_table().O) == 7


FCC_CONFIG = "3\n1 1 0\n1 0 1\n0 1 1\n"


def test_scan_memory_is_bounded_per_block():
    # Rows near input_limit keep every offset of the whole box through the
    # margin; with one row per block, each block is ranked, rescored and
    # written before the next, so no call holds rows x offsets candidates.
    fcc = lattice_from_config(FCC_CONFIG)
    X = 0.999 * fcc.input_limit * np.random.default_rng(5).uniform(-1, 1, size=(2000, 3))
    want = fcc.nearest_rows(X)  # also builds the whole-box table outside the trace
    with mock.patch.object(lattices, "_SCAN_BLOCK", 1):
        tracemalloc.start()
        try:
            got = fcc.nearest_rows(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert np.array_equal(got, want)
    # 2000 x 343 candidates would hold tens of MB; one block holds 343
    assert peak < 2 ** 21


@pytest.mark.parametrize("lat", [builtin_lattice("Zn", 2), builtin_lattice("Dn", 3),
                                 builtin_lattice("A2", 2), builtin_lattice("E8", 8),
                                 lattice_from_config(FCC_CONFIG)],
                         ids=["Zn2", "Dn3", "A2", "E8", "fcc"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_rows_rejected(lat, bad):
    X = np.zeros((4, lat.n))
    X[2, -1] = bad
    with pytest.raises(ValueError, match="row 2 is not finite"):
        lat.nearest_rows(X)
    with pytest.raises(ValueError, match="row 0 is not finite"):
        nearest_point(lat, X[2])


@pytest.mark.parametrize("text,key", [
    ("2\n1 0\n0 1\ncovering_radius=inf\n", "covering_radius"),
    ("2\n1 0\n0 1\ncovering_radius=nan\n", "covering_radius"),
    ("2\n1 0\n0 1\nnsm=nan\n", "nsm"),
    ("2\n1 0\n0 1\nnsm=-0.1\n", "nsm"),
    ("2\n1 0\n0 1\npacking_radius=nan\n", "packing_radius"),
    ("2\n1 0\n0 1\npacking_radius=inf\n", "packing_radius"),
    ("2\n1 nan\n0 1\n", "generator matrix"),
    ("2\n1 0\n-inf 1\n", "generator matrix"),
    ("2\n1e200 0\n0 1e200\n", "determinant"),
])
def test_nonfinite_config_is_refused_by_key(text, key):
    with pytest.raises(ValueError, match=key):
        lattice_from_config(text)


# Valid configs; the fuzz below replaces some of their tokens.
_FUZZ_CONFIGS = [
    "2\n1 0\n0 1\n",
    A2_CONFIG,
    "3\n1 1 0\n1 0 1\n0 1 1\npacking_radius=0.7071067811865476\n",
    "2\n2 0\n0 2\npacking_radius=1.0\ncovering_radius=1.4142135623730951\nnsm=0.0833\n",
]
_FUZZ_TOKENS = ["nan", "inf", "-inf", "1e999", "-1", "0", "-0", "1e-300", "1e300",
                "5e-324", "3", "x", "", "=", "\n", "# c", "nsm", "covering_radius"]


@settings(derandomize=True, deadline=None, max_examples=300)
@example(A2_CONFIG, [(12, "inf")])  # covering_radius=inf
@given(st.sampled_from(_FUZZ_CONFIGS),
       st.lists(st.tuples(st.integers(0, 40), st.sampled_from(_FUZZ_TOKENS)), max_size=3))
def test_fuzz_lattice_config(text, edits):
    # an untrusted config is refused with ValueError, or gives a lattice
    # whose decoder works or refuses with ValueError
    tokens = re.split(r"([\s=]+)", text)
    for pos, token in edits:
        tokens[pos % len(tokens)] = token
    try:
        lat = lattice_from_config("".join(tokens))
        packing_density(lat)
        lat.nearest_rows(np.linspace(-2, 2, 3 * lat.n).reshape(3, lat.n))
    except ValueError:
        pass

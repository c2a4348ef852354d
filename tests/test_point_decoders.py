"""The one-pass Dn and E8 decoders: bit identity with the two-pass oracle, and the tie rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _decoder_ref import _nearest_dn_points as dn_ref
from _decoder_ref import _nearest_e8_points as e8_ref
from rsuq.lattices import (_coset_sqnorm, _nearest_dn_points, _nearest_e8_points, _sqnorm_rows,
                           builtin_lattice)

CASES = [("Dn", n) for n in range(2, 10)] + [("E8", 8)]
DECODERS = {"Dn": (_nearest_dn_points, dn_ref), "E8": (_nearest_e8_points, e8_ref)}


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _assert_matches_oracle(family, X):
    new, ref = DECODERS[family]
    want = ref(X)
    before = X.copy()
    got = new(X)
    assert got.shape == want.shape == X.shape
    np.testing.assert_array_equal(_bits(got), _bits(want))
    np.testing.assert_array_equal(_bits(X), _bits(before))  # the input is left alone


@st.composite
def _rows(draw, n, limit):
    """Rows of one kind: quarter grid (rounding and parity ties), half grid
    with an optional shift of 1/4 (E8 rows with d0 == d1), quarter grid
    just below the input limit, or N(0,1) * 10^k."""
    rows = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["quarter", "half", "limit", "normal"]))
    size = rows * n
    if kind == "normal":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        return rng.standard_normal((rows, n)) * 10.0 ** draw(st.integers(-3, 13))
    q = np.array(draw(st.lists(st.integers(-12, 12), min_size=size, max_size=size)), dtype=float)
    if kind == "quarter":
        return (q / 4.0).reshape(rows, n)
    if kind == "half":
        return (q / 2.0 + draw(st.sampled_from([0.0, 0.25]))).reshape(rows, n)
    top = 4.0 * math.floor(limit * (1.0 - 2.0 ** -20) / 4.0)
    sign = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=size, max_size=size)))
    return (sign * top + q / 4.0).reshape(rows, n)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.data())
def test_decoders_match_the_two_pass_oracle(data):
    family, n = data.draw(st.sampled_from(CASES))
    lat = builtin_lattice(family, n)
    _assert_matches_oracle(family, data.draw(_rows(n, lat.input_limit)))


@pytest.mark.parametrize("family, n", CASES)
@pytest.mark.parametrize("block", ["empty", "one", "even", "odd"])
def test_decoders_match_the_oracle_on_fixed_blocks(family, n, block):
    # Every row of the "even" block rounds to an even sum, every row of the
    # "odd" block to an odd one, so the parity fix touches none or all of them.
    rng = np.random.default_rng(11)
    base = rng.integers(-9, 10, size=(64, n))
    base[:, 0] += (base.sum(axis=1) + (block == "odd")) % 2
    X = base + rng.uniform(-0.45, 0.45, size=base.shape)
    X = {"empty": X[:0], "one": X[:1]}.get(block, X)
    if block in ("even", "odd"):
        parity = np.ceil(X - 0.5).sum(axis=1) % 2
        assert (parity == (block == "odd")).all()
    _assert_matches_oracle(family, X)


def test_tie_rule():
    # round half down; an odd row moves its first largest residual toward x,
    # downward when that residual is 0
    assert _nearest_dn_points(np.array([[0.5, 0.5]])).tolist() == [[0.0, 0.0]]
    assert _nearest_dn_points(np.array([[1.5, 0.5, 0.0]])).tolist() == [[2.0, 0.0, 0.0]]
    assert _nearest_dn_points(np.array([[1.0, 0.0, 0.0]])).tolist() == [[0.0, 0.0, 0.0]]
    # (1/4)^8 is 1/2 from both 0 and (1/2)^8: the D8 coset wins the tie
    X = np.full((1, 8), 0.25)
    assert _coset_sqnorm(X - 0.0) == _coset_sqnorm(X - 0.5)
    assert _nearest_e8_points(X).tolist() == [[0.0] * 8]


def test_coset_distance_equals_sqnorm_rows():
    rng = np.random.default_rng(3)
    for scale in (rng.uniform(-20, 20, (50_000, 1)), rng.uniform(-20, 20, (50_000, 8))):
        D = rng.standard_normal((50_000, 8)) * 10.0 ** scale
        np.testing.assert_array_equal(_bits(_coset_sqnorm(D)), _bits(_sqnorm_rows(D)))

"""Closed-form bound values against independent oracles and frozen tables."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma

from rsuq import bounds as bd
from rsuq.lattices import builtin_lattice, log2_ball_volume

LN2 = math.log(2.0)

# Published reference table for the standard Gaussian: layered entropy and
# the three excess-information columns (bits, bits/dim).
GAUSSIAN_TABLE = {
    1: (1.52632, 0.52077, 0.52077, 6.13777),
    2: (3.26144, 0.41637, 1.13772, 4.03337),
    3: (5.08819, 0.35103, 0.83193, 3.30136),
    4: (6.96559, 0.30570, 0.66637, 2.92270),
    5: (8.87490, 0.27212, 0.56065, 2.68912),
    6: (10.80611, 0.24608, 0.48653, 2.52974),
    7: (12.75325, 0.22520, 0.43130, 2.41363),
    8: (14.71250, 0.20803, 0.38837, 2.32503),
    24: (46.71338, 0.10070, 0.16082, 1.88437),
}


def layered_entropy_digamma(n):
    """Independent oracle: E[log2 vol(sqrt(V) ball)], V ~ chi2(n+2).

    E[ln V] = ln 2 + digamma((n+2)/2) gives the closed form
    (n/2) (log2 pi + E[ln V]/ln 2) - log2 Gamma(n/2 + 1).
    """
    e_ln_v = LN2 + digamma((n + 2) / 2.0)
    return (n / 2.0) * (math.log2(math.pi) + e_ln_v / LN2) \
        - math.lgamma(n / 2.0 + 1.0) / LN2


# -- lower bounds and redundancies ---------------------------------------------


def test_rd_lower_max_error_values():
    # 1-D at r = 1/2: -log2(1/2) - log2(2) = 0 bits
    assert bd.rd_lower_max_error(1, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert bd.rd_lower_max_error(2, 1.0) == pytest.approx(-math.log2(math.pi), abs=1e-12)
    # adding n log2 r recovers an r-free quantity
    for r in (0.1, 1.0, 7.3):
        v = bd.rd_lower_max_error(3, r) + 3 * math.log2(r)
        assert v == pytest.approx(-log2_ball_volume(3), abs=1e-9)


def test_mse_lower_bounds_scaling():
    for n in (1, 2, 8):
        for c in (2.0, 10.0):
            drop = (n / 2.0) * math.log2(c)
            assert bd.shannon_lb_mse(n, 1.0) - bd.shannon_lb_mse(n, c) == \
                pytest.approx(drop, abs=1e-9)
            assert bd.zador_lb_mse(n, 1.0) - bd.zador_lb_mse(n, c) == \
                pytest.approx(drop, abs=1e-9)


def test_mse_gap_value_and_bound():
    # gap at n=2: (1/2) log2(2 pi e / 4) - (1/2) log2 pi = (1/2) log2(e/2)
    assert bd.mse_redundancy_gap(2) == pytest.approx(0.5 * math.log2(math.e / 2), abs=1e-12)
    for n in range(2, 65):
        assert bd.mse_redundancy_gap(n) <= math.log2(n) / (2 * n) - 0.05 / n + 1e-12
        # consistency: gap equals shannon_red - zador_red at any (Hbar, D)
        g = bd.shannon_red_mse(3.0, n, 1.7) - bd.zador_red_mse(3.0, n, 1.7)
        assert g == pytest.approx(bd.mse_redundancy_gap(n), abs=1e-9)


def test_redundancy_of_ball_quantizer_is_log2e_over_n():
    for n in (1, 2, 8, 48):
        lat = builtin_lattice("Zn", n)
        hbar = bd.rsuq_norment_ub(lat, r=0.37, tight=False)
        red = bd.redundancy_max_error(hbar, n, 0.37)
        assert red == pytest.approx(bd.LOG2E / n, abs=1e-12)
        # same value against the Zador-MSE bound at the matched distortion
        D = n * 0.37 ** 2 / (n + 2)
        assert bd.zador_red_mse(hbar, n, D) == pytest.approx(bd.LOG2E / n, abs=1e-12)


def test_tight_bound_below_loose_bound():
    z2 = builtin_lattice("Zn", 2)
    tight = bd.rsuq_norment_ub(z2, r=0.5, tight=True)
    loose = bd.rsuq_norment_ub(z2, r=0.5, tight=False)
    p = math.pi / 4
    assert tight - loose == pytest.approx(
        bd.LOG2E * 0 + (-(1 - p) / p * math.log2(1 - p)) - bd.LOG2E, abs=1e-12)
    assert tight < loose


def test_geometric_excess_limits():
    # decreasing in p; approaches log2(e) from below as p -> 0, and 0 as p -> 1
    ps = [1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999999]
    vals = [bd.geometric_excess(p) for p in ps]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] < bd.LOG2E
    assert bd.LOG2E - vals[0] < 1e-5
    assert vals[-1] < 1e-4
    assert bd.geometric_excess(1.0) == 0.0


def test_geometric_excess_keeps_precision_for_tiny_p():
    # 1 - p rounds to 1 here; the excess still tends to log2(e)
    assert bd.geometric_excess(1e-20) == pytest.approx(bd.LOG2E, rel=1e-12)
    assert bd.geometric_entropy(1e-20) == pytest.approx(
        -math.log2(1e-20) + bd.LOG2E, rel=1e-12)
    z34 = builtin_lattice("Zn", 34)  # packing density 4.6e-17
    assert bd.rsuq_norment_ub(z34, 0.5, tight=True) == pytest.approx(
        bd.rsuq_norment_ub(z34, 0.5), abs=1e-12)


def test_lattice_redundancy_formulas():
    # 1-D interval lattice is an optimal covering: zero max-error redundancy
    assert bd.lattice_red_max_error(1, 1.0) == 0.0
    # cube cell: (1/2) log2(2 pi e / 12)
    assert bd.lattice_shannon_red_mse(1.0 / 12.0) == pytest.approx(
        0.5 * math.log2(2 * math.pi * math.e / 12.0), abs=1e-12)
    # Zador equality point gives exactly zero
    for n in (1, 2, 8):
        assert bd.lattice_zador_red_mse(n, bd.ball_nsm(n)) == pytest.approx(0.0, abs=1e-9)
    # hexagonal cell value, derived once from the exact second moment
    a2_nsm = 5.0 / (36.0 * math.sqrt(3.0))
    assert bd.lattice_zador_red_mse(2, a2_nsm) == pytest.approx(0.00550899, abs=1e-7)


def test_reference_upper_bounds():
    assert bd.zador_ub(2) == pytest.approx(0.5, abs=1e-12)
    assert bd.ordentlich_ub(8) == pytest.approx(0.2367121, abs=1e-6)
    # quoted chain at n = 8: value below the (1/n + 4/n^2 + 8/n^3) log2 e cap
    cap8 = (1 / 8 + 4 / 64 + 8 / 512) * bd.LOG2E
    assert bd.ordentlich_ub(8) <= cap8
    assert cap8 == pytest.approx(0.29305, abs=1e-4)
    # rejection quantizer beats the lattice existence bound at n = 48
    assert bd.rsuq_red_per_dim(48) < bd.ordentlich_ub(48)
    assert bd.rogers_bound(2) == pytest.approx(0.5, abs=1e-12)  # loglog2(2) = 0
    for n in (8, 16, 48):
        assert bd.ordentlich_ub(n) <= (1 / n + 4 / n ** 2 + 8 / n ** 3) * bd.LOG2E


def test_loose_bound_identity():
    # the lattice-free form is exactly the max-error floor plus log2(e)
    z2 = builtin_lattice("Zn", 2)
    assert bd.rsuq_norment_ub(z2, 0.5, tight=False) == pytest.approx(
        bd.rd_lower_max_error(2, 0.5) + bd.LOG2E, abs=1e-12)


def test_nonlattice_existence_tighter_than_lattice_existence():
    # the non-constructive vector-quantizer bound sits below the lattice one
    for n in (8, 16, 24, 48):
        assert bd.zador_ub(n) < bd.ordentlich_ub(n)


def test_sinc_definition():
    assert bd.sinc(0.0) == 1.0
    assert bd.sinc(1.0) == pytest.approx(0.0, abs=1e-15)
    assert bd.sinc(0.25) == pytest.approx(math.sin(math.pi / 4) / (math.pi / 4), rel=1e-12)


def test_universal_bound_terms():
    # ball second moment: 1-D value 1/12 matches the unit interval
    assert bd.ball_nsm(1) == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert bd.ball_nsm(2) == pytest.approx(1.0 / (4 * math.pi), rel=1e-12)
    # n=2: the channel term is exactly log2 e, so p=1 gives 2 log2 e
    assert bd.universal_bound_terms(2, 1.0) == pytest.approx(2 * bd.LOG2E, rel=1e-12)
    assert bd.universal_bound_terms(2, 0.5) == pytest.approx(1.0 + 2 * bd.LOG2E, rel=1e-12)


def test_gaussian_delta_eps():
    assert bd.gaussian_delta_eps(0.0, 1.0, 5.0) == 0.0
    assert bd.gaussian_delta_eps(0.1, 1.0, 1.0) == pytest.approx(0.105 * bd.LOG2E, rel=1e-12)
    # near-linear for eps << mean norm
    small = bd.gaussian_delta_eps(1e-4, 1.0, 1.0)
    assert bd.gaussian_delta_eps(2e-4, 1.0, 1.0) == pytest.approx(2 * small, rel=1e-3)


def test_entropy_ordering_chain():
    for n in list(range(1, 49)):
        h_inf = bd.gaussian_h_inf(n)
        h_l = bd.gaussian_layered_entropy(n)
        h = bd.gaussian_h(n)
        assert h_inf < h_l < h
    assert bd.h_inf_bound((2 * math.pi) ** -0.5) == pytest.approx(
        0.5 * math.log2(2 * math.pi), rel=1e-12)
    # uniform density on measure mu: all three entropies coincide at log2 mu
    mu = 3.7
    assert bd.h_inf_bound(1.0 / mu) == pytest.approx(math.log2(mu), rel=1e-12)


def test_layered_entropy_against_digamma_oracle():
    for n in (1, 2, 3, 5, 8, 16, 24, 48):
        assert bd.gaussian_layered_entropy(n) == pytest.approx(
            layered_entropy_digamma(n), abs=1e-8)


def test_gaussian_table_reproduction():
    for n, (hl, lo, lr, ls) in GAUSSIAN_TABLE.items():
        assert bd.gaussian_layered_entropy(n) == pytest.approx(hl, abs=1e-4)
        assert bd.excess_info(n, "lower") == pytest.approx(lo, abs=1e-4)
        assert bd.excess_info(n, "lrsuq") == pytest.approx(lr, abs=1e-4)
        assert bd.excess_info(n, "lspq") == pytest.approx(ls, abs=1e-4)


def test_excess_info_structure():
    # the 1-D layered scheme needs no rejection step: no log2 e term
    assert bd.excess_info(1, "lrsuq") == bd.excess_info(1, "lower")
    for n in (2, 3, 8):
        assert bd.excess_info(n, "lrsuq") == pytest.approx(
            bd.excess_info(n, "lower") + bd.LOG2E / n, abs=1e-12)
    with pytest.raises(ValueError):
        bd.excess_info(2, "best")


# -- registry and report ---------------------------------------------------------


def test_shipped_registry_entries():
    reg = bd.load_registry()
    assert reg.dims() == [1, 2, 4, 8]
    for n in reg.dims():
        e = reg.get(n)
        assert 0 < e.delta <= 1.0
        assert e.theta >= 1.0
        assert e.nsm >= bd.ball_nsm(n) - 1e-12
    assert reg.get(2).delta == pytest.approx(math.pi / (2 * math.sqrt(3)), rel=1e-12)
    assert reg.get(8).nsm == pytest.approx(929.0 / 12960.0, rel=1e-12)


def test_registry_parse_and_merge(tmp_path):
    extra = tmp_path / "extra.csv"
    extra.write_text("n,delta,theta,nsm,source\n3,0.74048,1.4635,0.078543,fcc\n")
    reg = bd.load_registry(extra)
    assert 3 in reg.dims()
    bad = tmp_path / "bad.csv"
    bad.write_text("n,delta,theta,nsm,source\n3,1.5,1.4,0.08,oops\n")
    with pytest.raises(ValueError):
        bd.load_registry(bad)


_REGISTRY_TOKEN = st.one_of(
    st.sampled_from(["", "-", "n", "#x", '"', "nan", "inf", "-inf", "1e400", "0", "1", "2",
                     "0.5", "1.2", "0.07", "-3", "1" + "0" * 400, "x" * 140000]),
    st.integers(-3, 50).map(str), st.floats().map(repr), st.text(max_size=6))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.lists(_REGISTRY_TOKEN, max_size=6), max_size=4), st.text(max_size=20))
def test_fuzz_parse_registry(rows, tail):
    # untrusted registry CSV may fail only with ValueError; what it accepts is usable
    text = "\n".join(",".join(row) for row in rows) + tail
    try:
        reg = bd.parse_registry(text)
    except ValueError:
        return
    for n in reg.dims():
        e = reg.get(n)
        assert n >= 1
        assert all(v is None or math.isfinite(v) for v in (e.delta, e.theta, e.nsm))


def test_registry_ordering_claims():
    # rejection quantizer above the best lattice line at small n, below at n=8
    reg = bd.load_registry()
    for n in (1, 2, 4):
        lattice_line = bd.lattice_red_max_error(n, reg.get(n).theta)
        assert bd.rsuq_red_per_dim(n) > lattice_line
    assert bd.rsuq_red_per_dim(8) < bd.lattice_red_max_error(8, reg.get(8).theta)


def test_bounds_report_csv():
    rep, missing = bd.table_max_error_redundancy([1, 2, 3, 8], bd.load_registry())
    assert missing == [3]
    csv_text = rep.to_csv()
    assert csv_text.startswith("n,quantity,value_bits,equation_tag\n")
    assert rep.value(8, "rsuq_any_lattice") == pytest.approx(bd.LOG2E / 8, rel=1e-12)
    rep2, missing2 = bd.table_mse_redundancy([2, 8, 48], bd.load_registry())
    assert missing2 == [48]
    assert rep2.value(8, "ordentlich_ub") == pytest.approx(bd.ordentlich_ub(8), rel=1e-12)
    rep3 = bd.table_layered_gaussian([1, 24])
    assert rep3.value(24, "layered_entropy") == pytest.approx(46.71338, abs=1e-4)


def test_table1_runtime_under_budget():
    import time

    t0 = time.perf_counter()
    bd.table_layered_gaussian(list(range(1, 9)) + [24])
    assert time.perf_counter() - t0 < 5.0

"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS line (visible with -s or -rA) carrying the
measured statistics and its runtime; assertions pin the stated tolerances.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from _golomb_ref import golomb_decode, golomb_encode
from rsuq import bounds as bd
from rsuq import mc
from rsuq.cli import main as cli_main
from rsuq.coding import GolombCode, StreamHeader, MODE_BALL, decode_stream, \
    encode_stream, write_vectors
from rsuq.dither import stream_uniforms
from rsuq.lattices import builtin_lattice, packing_density
from rsuq.layered import GaussianNoise, lrsuq_encode_batch
from rsuq.quantizer import RsuqConfig, encode_batch


@contextlib.contextmanager
def budget(name, seconds):
    t0 = time.perf_counter()
    outcome = {"detail": ""}
    yield outcome
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {name}: PASS ({outcome['detail']}) [{dt:.2f}s]")
    assert dt < seconds, f"{name} exceeded its {seconds}s runtime budget ({dt:.1f}s)"


def test_criterion_1_gaussian_table():
    """Layered entropy and excess-information table, 1e-4 absolute."""
    table = {
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
    with budget("1 table-reproduction", 5.0) as out:
        worst = 0.0
        for n, (hl, lo, lr, ls) in table.items():
            got = (bd.gaussian_layered_entropy(n), bd.excess_info(n, "lower"),
                   bd.excess_info(n, "lrsuq"), bd.excess_info(n, "lspq"))
            for g, w in zip(got, (hl, lo, lr, ls)):
                worst = max(worst, abs(g - w))
                assert abs(g - w) < 1e-4, (n, g, w)
        out["detail"] = f"worst abs err {worst:.2e} over {4 * len(table)} cells"


def test_criterion_2_distributional_exactness():
    """Uniform-ball error law on Z2 at r=0.5: KS, MSE within 1%, mean band."""
    with budget("2 distributional-exactness", 30.0) as out:
        cfg = RsuqConfig(builtin_lattice("Zn", 2), r=0.5, seed=20001)
        X = mc.sample_inputs(2, 100000, 50.0, 20002)
        _, _, Y = encode_batch(cfg, X)
        Z = Y - X
        res = mc.test_uniform_ball(Z, 0.5)
        ks, mean_band = res.subresults
        assert mc.ALPHA == 0.01 and ks.threshold == 0.01
        assert ks.verdict, f"radial KS p={ks.p_value}"
        mse = float(np.einsum("ij,ij->i", Z, Z).mean())
        assert abs(mse - 0.125) <= 0.01 * 0.125, mse
        assert mean_band.verdict, (mean_band.statistic, mean_band.threshold)
        out["detail"] = (f"KS p={ks.p_value:.3f}, mse={mse:.5f}, "
                         f"|mean|={mean_band.statistic:.2e}")


def test_criterion_3_geometric_stopping():
    """Mean stopping index within 2% and chi-square geometric fit at 0.01."""
    with budget("3 geometric-stopping", 60.0) as out:
        details = []
        for family, n, seed in (("Zn", 2, 30001), ("E8", 8, 30002)):
            lat = builtin_lattice(family, n)
            cfg = RsuqConfig(lat, r=lat.packing_radius, seed=seed)
            K = encode_batch(cfg, mc.sample_inputs(n, 100000, 50.0, seed + 7))[0]
            mean_k, fit = mc.k_statistics(K, packing_density(lat))
            want = 1.0 / packing_density(lat)
            assert fit.threshold == 0.01
            assert abs(mean_k - want) / want <= 0.02, (family, mean_k, want)
            assert fit.verdict, (family, fit.p_value)
            details.append(f"{family}: mean={mean_k:.4f} (want {want:.4f}), "
                           f"chi2 p={fit.p_value:.3f}")
        out["detail"] = "; ".join(details)


def test_criterion_4_rate_bound_lattice_insensitive():
    """Plug-in rate below the lattice-independent entropy bound + 0.1 bits."""
    with budget("4 rate-bound", 120.0) as out:
        details = []
        for family, n in (("Zn", 2), ("A2", 2), ("Dn", 4)):
            lat = builtin_lattice(family, n)
            cfg = RsuqConfig(lat, r=0.5, seed=40001)
            K, J, _ = encode_batch(cfg, mc.sample_inputs(n, 100000, 50.0, 40002))
            res = mc.rsuq_rate_check(lat, 0.5, 50.0, K, J)
            assert mc.RATE_SLACK == 0.1
            assert res.threshold == bd.rsuq_norment_ub(lat, 0.5) + 0.1
            assert res.verdict, (family, res.statistic, res.threshold)
            details.append(f"{family}: {res.statistic:.3f} <= {res.threshold:.3f}")
        out["detail"] = "; ".join(details)


def test_criterion_5_gaussian_channel_simulation():
    """Exact Gaussian error law and input independence at 2e5 trials."""
    with budget("5 gaussian-simulation", 180.0) as out:
        z2 = builtin_lattice("Zn", 2)
        noise = GaussianNoise(2)
        N = 200000
        _, _, Y0 = lrsuq_encode_batch(noise, z2, 50001, np.zeros((N, 2)))
        Z0 = Y0
        res = mc.test_gaussian(Z0)
        coord_ks = [s for s in res.subresults if "coord" in s.test]
        cov = [s for s in res.subresults if s.test == "gaussian[cov]"][0]
        norm2 = [s for s in res.subresults if "norm2" in s.test][0]
        assert all(s.threshold == 0.01 for s in coord_ks + [norm2])
        assert all(s.verdict for s in coord_ks), [s.p_value for s in coord_ks]
        assert cov.statistic < 0.02, cov.statistic
        assert norm2.verdict, norm2.p_value
        X1 = np.tile([10.0, 10.0], (N, 1))
        _, _, Y1 = lrsuq_encode_batch(noise, z2, 50002, X1)
        Z1 = Y1 - X1
        two = mc.ks_two_sample(np.linalg.norm(Z0, axis=1),
                               np.linalg.norm(Z1, axis=1),
                               "input-shift")
        assert two.threshold == 0.01
        assert two.verdict, two.p_value
        out["detail"] = (f"coord KS p>={min(s.p_value for s in coord_ks):.3f}, "
                         f"cov dev={cov.statistic:.4f}, norm2 p={norm2.p_value:.3f}, "
                         f"shift p={two.p_value:.3f}")


def test_criterion_6_redundancy_arithmetic():
    """Exact-formula orderings of the redundancy curves, tolerance 1e-9."""
    with budget("6 redundancy-arithmetic", 1.0) as out:
        rsuq48 = bd.rsuq_red_per_dim(48)
        assert rsuq48 == pytest.approx(0.03006, abs=1e-5)
        assert rsuq48 < bd.ordentlich_ub(48) - 1e-9
        reg = bd.load_registry()
        # below the crossover the best lattice wins; by n = 8 the ball
        # quantizer's lattice-independent line is already below it
        for n in (1, 2, 4):
            lattice_line = bd.lattice_red_max_error(n, reg.get(n).theta)
            assert bd.rsuq_red_per_dim(n) > lattice_line + 1e-9
        e8_line = bd.lattice_red_max_error(8, reg.get(8).theta)
        assert bd.rsuq_red_per_dim(8) < e8_line - 1e-9
        # tight (best-packing) line sits below the lattice-independent cap
        for n in (1, 2, 4, 8):
            assert bd.rsuq_red_per_dim(n, reg.get(n).delta) <= \
                bd.rsuq_red_per_dim(n) + 1e-9
        out["detail"] = (f"log2e/48={rsuq48:.5f} < ordentlich(48)="
                         f"{bd.ordentlich_ub(48):.5f}; orderings at n=1,2,4,8")


def test_criterion_7_coding_layer():
    """Golomb prefix-freeness, near-entropy rate, container round trip."""
    with budget("7 coding-layer", 30.0) as out:
        for m in range(1, 17):
            code = GolombCode(m=m)
            words = sorted(golomb_encode(code, k) for k in range(1, 1001))
            for a, b in zip(words, words[1:]):
                assert not b.startswith(a), (m, a, b)
            for k in (1, 2, 3, 17, 999):
                assert golomb_decode(code, golomb_encode(code, k)) == k
        rates = []
        for i, p in enumerate((0.2, 0.5, math.pi / 4)):
            code = GolombCode.for_geometric(p)
            u = stream_uniforms([70001 + i], 0, 10 ** 6)[0]
            k = np.floor(np.log1p(-u) / math.log1p(-p)).astype(np.int64) + 1
            mean_len = float(code.length(k).mean())
            h = bd.geometric_entropy(p)
            assert mean_len <= h + 1.0, (p, mean_len, h)
            rates.append(f"p={p:.3f}: {mean_len:.3f}<=H+1={h + 1:.3f}")
        rng_k = np.floor(np.log1p(-stream_uniforms([70009], 0, 1000)[0])
                         / math.log1p(-0.6)).astype(np.int64) + 1
        rng_j = (np.floor(stream_uniforms([70010], 0, 2000) * 111).astype(np.int64)
                 .reshape(1000, 2) - 55)
        h = StreamHeader(n=2, lattice_id="Zn", gamma=1.0, param=0.5,
                         mode=MODE_BALL, seed=1, count=1000,
                         coord_bound=int(np.abs(rng_j).max()))
        blob = encode_stream(h, rng_k, rng_j)
        _, K2, J2 = decode_stream(blob)
        assert np.array_equal(rng_k, K2) and np.array_equal(rng_j, J2)
        out["detail"] = "; ".join(rates) + f"; container {len(blob)}B round trip"


def test_criterion_8_cli_determinism(tmp_path):
    """Byte-identical outputs for every subcommand under a fixed seed."""
    with budget("8 cli-determinism", 120.0) as out:
        u = stream_uniforms([80001], 0, 600)
        X = (u.reshape(300, 2) - 0.5) * 60.0
        src = tmp_path / "in.vqf"
        src.write_bytes(write_vectors(X))
        files = {name: tmp_path / name for name in
                 ("o.rsq", "r.vqf", "s.vqf", "t.csv", "fl.csv", "fr.csv", "sc.csv")}
        commands = [
            ("encode", "--input", str(src), "--lattice", "Dn", "--dim", "2",
             "--radius", "0.7", "--seed", "88", "--output", str(files["o.rsq"])),
            ("decode", "--input", str(files["o.rsq"]), "--output", str(files["r.vqf"])),
            ("simulate", "--noise", "gaussian", "--dim", "2", "--lattice", "A2",
             "--seed", "88", "--input", str(src), "--output", str(files["s.vqf"])),
            ("bounds", "--table", "table1", "--out", str(files["t.csv"])),
            ("bounds", "--table", "figure2-left", "--dims", "1..12",
             "--out", str(files["fl.csv"])),
            ("bounds", "--table", "figure2-right", "--dims", "1..12",
             "--out", str(files["fr.csv"])),
            ("selftest", "--quick", "--seed", "88", "--out", str(files["sc.csv"])),
        ]
        snapshots = []
        for _ in (1, 2):
            stdouts = []
            for cmd in commands:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli_main(list(cmd))
                assert code == 0, cmd
                stdouts.append(buf.getvalue())
            snapshots.append((tuple(f.read_bytes() for f in files.values()),
                              tuple(stdouts)))
        assert snapshots[0] == snapshots[1]
        out["detail"] = f"{len(commands)} subcommands byte-identical across runs"

"""Command-line surface: file encode/decode, channel simulation, bound
tables and the self-test suite.

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error.
Every subcommand is bit-reproducible for a fixed --seed; all numeric
output uses fixed formats with a decimal point and LF line endings.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import bounds as bd
from . import mc
from .coding import (MODE_BALL, FormatError, GolombCode, StreamHeader, coord_width_for_bound,
                     decode_stream, encode_stream, golomb_for_lattice, lattice_for_header,
                     mean_code_length, read_vectors, write_header, write_vectors)
from .dither import derive_seed, stream_uniforms
from .lattices import _BUILTIN_FAMILIES, builtin_lattice, load_lattice, packing_density
from .layered import GaussianNoise, lrsuq_decode_batch, lrsuq_encode_batch
from .quantizer import RsuqConfig, decode_batch, encode_batch


def _seed64(text: str) -> int:
    """Seeds are 64-bit unsigned; other integers wrap, matching the streams."""
    return int(text) & 0xFFFFFFFFFFFFFFFF


# -- encode / decode -----------------------------------------------------------


def _read_input(args):
    """The rows of the VQF1 file args.input and the lattice args.lattice of
    dimension args.dim, checked before any quantizer work starts."""
    with open(args.input, "rb") as fh:
        X = read_vectors(fh.read())
    if X.shape[1] != args.dim:
        raise ValueError(f"input file has dimension {X.shape[1]}, expected {args.dim}")
    lat = (builtin_lattice(args.lattice, args.dim) if args.lattice in _BUILTIN_FAMILIES
           else load_lattice(args.lattice))
    if lat.n != args.dim:
        raise ValueError(f"lattice config has dimension {lat.n}, expected {args.dim}")
    # A density too small for a Golomb code would only fail after the
    # rejection loop, which at such densities runs for ever.
    golomb_for_lattice(lat)
    return X, lat


def cmd_encode(args) -> int:
    X, lat = _read_input(args)
    cfg = RsuqConfig(lat, r=args.radius, seed=args.seed)
    header = StreamHeader(n=args.dim, lattice_id=lat.name, gamma=cfg.gamma,
                          param=args.radius, mode=MODE_BALL, seed=args.seed,
                          count=len(X), coord_bound=0)
    lattice_for_header(header, lat)
    # Refuses a lattice id the header cannot hold before the rejection loop;
    # the header's length does not depend on the coordinate bound.
    header_bytes = len(write_header(header))
    K, J, _ = encode_batch(cfg, X)
    header.coord_bound = bound = int(np.abs(J).max()) if J.size else 0
    blob = encode_stream(header, K, J, lat=lat)
    with open(args.output, "wb") as fh:
        fh.write(blob)
    payload_bits = 8 * (len(blob) - header_bytes)
    print(f"vectors={len(X)} dim={args.dim} lattice={lat.name} "
          f"radius={args.radius:.6g} seed={args.seed}")
    if len(X):
        rate = mean_code_length(lat, K, bound) / args.dim
        hbound = (bd.geometric_entropy(packing_density(lat)) + 1.0
                  + args.dim * coord_width_for_bound(bound)) / args.dim
        lb = bd.rd_lower_max_error(args.dim, args.radius) / args.dim
        print(f"rate_bits_per_dim={rate:.6f}")
        print(f"rate_bound_bits_per_dim={hbound:.6f}")
        print(f"max_error_lb_bits_per_dim={lb:.6f}")
    print(f"stream_bytes={len(blob)} payload_bits={payload_bits}")
    return 0


def cmd_decode(args) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    user = load_lattice(args.lattice) if args.lattice else None
    header, K, J = decode_stream(data, lat=user)
    lat = lattice_for_header(header, user)
    if header.mode == MODE_BALL:
        RsuqConfig(lat, r=header.param, seed=header.seed)  # refuses a bad radius
        # lattice_for_header accepted the stream's gamma within 1e-9 of this
        # lattice's; decoding at the stream's own gamma gives the encoder's bits.
        Y = decode_batch(SimpleNamespace(lat=lat, gamma=header.gamma, seed=header.seed), K, J)
    else:
        noise = GaussianNoise(header.n)
        Y = lrsuq_decode_batch(noise, lat, header.seed, K, J)
    with open(args.output, "wb") as fh:
        fh.write(write_vectors(Y))
    print(f"vectors={len(K)} dim={header.n} lattice={header.lattice_id} "
          f"mode={header.mode} seed={header.seed}")
    return 0


def cmd_simulate(args) -> int:
    X, lat = _read_input(args)
    noise = GaussianNoise(args.dim)
    if len(X):
        K, J, Y = lrsuq_encode_batch(noise, lat, args.seed, X)
        rate = mean_code_length(lat, K, int(np.abs(J).max())) / args.dim
    else:
        Y = np.zeros((0, args.dim))
        rate = 0.0
    with open(args.output, "wb") as fh:
        fh.write(write_vectors(Y))
    print(f"vectors={len(X)} dim={args.dim} lattice={lat.name} "
          f"noise={args.noise} seed={args.seed}")
    print(f"rate_bits_per_dim={rate:.6f}")
    return 0


# -- bounds tables ---------------------------------------------------------------


# Most dimensions one --dims spec may list; each part is counted from its
# bounds before it is listed.
_MAX_DIMS = 10000


def _parse_dims(text: str):
    dims = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        a, dots, b = part.partition("..")
        try:
            lo, hi = (bd.parse_dimension(s.strip()) for s in (a, b if dots else a))
        except ValueError as exc:
            raise ValueError(f"bad dimension range {part!r}: {exc}") from None
        if hi < lo:
            raise ValueError(f"bad dimension range {part!r}: a part is n or a..b with a <= b")
        if len(dims) + hi - lo + 1 > _MAX_DIMS:
            raise ValueError(f"--dims lists more than {_MAX_DIMS} dimensions by {part!r}")
        dims.extend(range(lo, hi + 1))
    if not dims:
        raise ValueError(f"bad dimension range {text!r}")
    return dims


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Reads {csv} (long format: n,quantity,value_bits,equation_tag) and plots
# one log-scale line per quantity.
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

series = defaultdict(list)
with open({csv!r}) as fh:
    for row in csv.DictReader(fh):
        series[row["quantity"]].append((int(row["n"]), float(row["value_bits"])))
fig, ax = plt.subplots(figsize=(7, 4.5))
for name, pts in sorted(series.items()):
    pts.sort()
    ax.plot([p[0] for p in pts], [p[1] for p in pts], marker=".", label=name)
ax.set_xlabel("dimension n")
ax.set_ylabel("bits / dimension")
ax.set_yscale("log")
ax.legend(fontsize=8)
fig.tight_layout()
fig.savefig({png!r}, dpi=150)
"""


def cmd_bounds(args) -> int:
    registry = bd.load_registry(args.registry)
    dims = _parse_dims(args.dims) if args.dims else None
    if args.table == "table1":
        rows, missing = bd.table_layered_gaussian(dims or [*range(1, 9), 24]), []
    elif args.table == "figure2-left":
        rows, missing = bd.table_max_error_redundancy(dims or [*range(1, 49)], registry)
    elif args.table == "figure2-right":
        rows, missing = bd.table_mse_redundancy(dims or [*range(1, 49)], registry)
    else:
        raise ValueError(f"unknown table {args.table!r}")
    Path(args.out).write_text(bd.table_csv(rows), "ascii", newline="\n")
    if missing:
        print("warning: registry has no entries for dimensions "
              + ",".join(str(n) for n in missing), file=sys.stderr)
    print(f"table={args.table} rows={len(rows)} out={args.out}")
    if args.table.startswith("figure2"):
        script = _PLOT_SCRIPT.format(csv=args.out, png=args.out + ".png")
        Path(args.out + ".plot.py").write_text(script, "ascii", newline="\n")
        print(f"plot_script={args.out}.plot.py")
    return 0


# -- selftest ---------------------------------------------------------------------


def _selftest_checks(seed: int, full: bool):
    """Yield (name, TestResult) verification records."""
    n_small = 100000 if full else 20000
    n_big = 200000 if full else 30000
    z2 = builtin_lattice("Zn", 2)
    e8 = builtin_lattice("E8", 8)
    a2 = builtin_lattice("A2", 2)
    d4 = builtin_lattice("Dn", 4)

    # closed-form table reproduction; these comparisons count no samples
    expected = {1: 1.52632, 8: 14.71250, 24: 46.71338}
    for n, want in expected.items():
        name = f"layered-entropy[n={n}]"
        yield name, mc._at_most(name, abs(bd.gaussian_layered_entropy(n) - want), 1e-4, 0)

    name = "redundancy-ordering[n=48]"
    yield name, mc._at_most(name, bd.rsuq_red_per_dim(48), bd.ordentlich_ub(48), 0)

    # ball-error law, MSE, stopping index
    cfg = RsuqConfig(z2, r=0.5, seed=derive_seed(seed, 1))
    X = mc.sample_inputs(2, n_small, 50.0, derive_seed(seed, 2))
    K, _, Y = encode_batch(cfg, X)
    Z = Y - X
    yield ("uniform-ball", mc.test_uniform_ball(Z, 0.5))
    yield ("independence", mc.test_independence(X, Z))
    mse = float(np.einsum("ij,ij->i", Z, Z).mean())
    yield "mse[Z2]", mc._at_most("mse[Z2]", abs(mse - 0.125), 0.00125, n_small)
    mean_k, kres = mc.k_statistics(K, packing_density(z2))
    yield ("stopping-index[Z2]", kres)
    want = 4.0 / math.pi
    yield "mean-k[Z2]", mc._at_most("mean-k[Z2]", abs(mean_k - want) / want, 0.02, n_small)

    # rate bound across lattices
    lats = [z2, a2, d4] if full else [z2]
    for lat in lats:
        cfg_l = RsuqConfig(lat, r=0.5, seed=derive_seed(seed, 3))
        K_l, J_l, _ = encode_batch(cfg_l, mc.sample_inputs(lat.n, n_small, 50.0,
                                                           derive_seed(seed, 4)))
        yield (f"rate-bound[{lat.name}]", mc.rsuq_rate_check(lat, 0.5, 50.0, K_l, J_l))

    if full:
        cfg8 = RsuqConfig(e8, r=e8.packing_radius, seed=derive_seed(seed, 5))
        K8 = encode_batch(cfg8, mc.sample_inputs(8, n_small, 50.0, derive_seed(seed, 6)))[0]
        mean_k8, kres8 = mc.k_statistics(K8, packing_density(e8))
        yield ("stopping-index[E8]", kres8)
        want8 = 384.0 / math.pi ** 4
        yield "mean-k[E8]", mc._at_most("mean-k[E8]", abs(mean_k8 - want8) / want8, 0.02,
                                        n_small)

    # Gaussian channel simulation
    g = GaussianNoise(2)
    Xg = mc.sample_inputs(2, n_big, 50.0, derive_seed(seed, 7))
    Yg = lrsuq_encode_batch(g, z2, derive_seed(seed, 8), Xg)[2]
    yield ("gaussian-sim", mc.test_gaussian(Yg - Xg))

    # coding layer
    code = GolombCode.for_geometric(0.5)
    u = stream_uniforms([derive_seed(seed, 9)], 0, n_small)[0]
    k = np.floor(np.log1p(-u) / math.log(0.5)).astype(np.int64) + 1
    mean_len = float(code.length(k).mean())
    hk = bd.geometric_entropy(0.5)
    yield "golomb-rate[p=0.5]", mc._at_most("golomb-rate[p=0.5]", mean_len, hk + 1.0, n_small)


def _decided_by(res) -> str:
    # The numbers a verdict follows from: the p-value against the threshold
    # where there is one, else the statistic.
    p = "" if res.p_value is None else f" p={res.p_value:.6g}"
    return f"statistic={res.statistic:.6g}{p} threshold={res.threshold:.6g}"


def cmd_selftest(args) -> int:
    results = []
    for name, res in _selftest_checks(args.seed, full=args.full):
        results.append((name, res))
        status = "PASS" if res.verdict else "FAIL"
        print(f"{status} {name} {_decided_by(res)} samples={res.n_samples}")
        for sub in res.subresults:
            print(f"  - {'pass' if sub.verdict else 'fail'} {sub.test} {_decided_by(sub)}")
    if args.out:
        rows = [mc.TestResult.CSV_HEADER] + [res.csv_row(name, args.seed)
                                             for name, res in results]
        Path(args.out).write_text("\n".join(rows) + "\n", "ascii", newline="\n")
    failures = sum(not res.verdict for _, res in results)
    print(f"checks={len(results)} failures={failures}")
    return 1 if failures else 0


# -- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rsuq",
                                description="Rejection-sampled universal quantization toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a VQF1 vector file into an RSQ1 stream")
    enc.add_argument("--input", required=True)
    enc.add_argument("--lattice", required=True, help="builtin id or config path")
    enc.add_argument("--dim", type=int, required=True)
    enc.add_argument("--radius", type=float, required=True)
    enc.add_argument("--seed", type=_seed64, default=0)
    enc.add_argument("--output", required=True)
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="decode an RSQ1 stream back to vectors")
    dec.add_argument("--input", required=True)
    dec.add_argument("--output", required=True)
    dec.add_argument("--lattice", help="config path for non-builtin lattices")
    dec.set_defaults(func=cmd_decode)

    sim = sub.add_parser("simulate", help="one-shot additive-noise channel simulation")
    sim.add_argument("--noise", default="gaussian", choices=("gaussian",))
    sim.add_argument("--dim", type=int, required=True)
    sim.add_argument("--lattice", default="Zn")
    sim.add_argument("--seed", type=_seed64, default=0)
    sim.add_argument("--input", required=True)
    sim.add_argument("--output", required=True)
    sim.set_defaults(func=cmd_simulate)

    bnd = sub.add_parser("bounds", help="emit closed-form bound tables as CSV")
    bnd.add_argument("--table", required=True,
                     choices=("figure2-left", "figure2-right", "table1"))
    bnd.add_argument("--dims", help="range a..b and/or comma list, e.g. 1..8,24")
    bnd.add_argument("--registry", help="extra registry CSV")
    bnd.add_argument("--out", required=True)
    bnd.set_defaults(func=cmd_bounds)

    st = sub.add_parser("selftest", help="run the verification suite")
    mode = st.add_mutually_exclusive_group()
    mode.add_argument("--quick", dest="full", action="store_false")
    mode.add_argument("--full", dest="full", action="store_true")
    st.set_defaults(full=False)
    st.add_argument("--seed", type=_seed64, default=0)
    st.add_argument("--out", help="write TestResult CSV rows here")
    st.set_defaults(func=cmd_selftest)
    return p


def _keep_freed_heap():
    """Let glibc's malloc keep freed heap instead of returning it after each call.

    Sets M_MMAP_THRESHOLD (-3) to 32 MiB, glibc's DEFAULT_MMAP_THRESHOLD_MAX
    on 64-bit, and M_TRIM_THRESHOLD (-1) to 64 MiB, twice that: the ceilings
    glibc's own sliding threshold rule (malloc/malloc.c) would reach.  By
    default glibc trims the freed top of the heap after every call, so the
    next call's numpy temporaries fault in fresh pages: about 950 minor
    faults per warm 4096-row Gaussian E8 simulate, almost none with both
    set.  Either one alone makes it worse.  Does nothing where there is no
    mallopt.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)
    mallopt(-1, 64 << 20)


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _keep_freed_heap()
        _parser = build_parser()  # reused: building it is a visible share of a small job
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

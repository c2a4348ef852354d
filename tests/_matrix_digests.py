"""SHA-256s of outputs that must not depend on the machine, at fixed seeds.

`digests()` returns one "name sha256" line per output: the searched packing
radii of four pinned bases, the RSQ1 stream and decoded VQF1 file of a
4-dim config without packing_radius (gamma comes from its searched radius),
ball encode and decode on Z2, E8 (300 rows) and fcc (2048 rows, so the scan
ranks more than one block), on 64 fcc rows spread over 2^0 ... 2^50 cell
units in one batch (the generic search's widened margin, its per-row
certificate and its whole-box fallback), a Gaussian E8 simulate, and the
CLI's decoded VQF1 file of every version-1 stream in data/v1.
Run as a script, it prints them; test_machine_matrix.py compares the lines
printed under each BLAS kernel and numpy dispatch setting.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

from rsuq import cli
from rsuq.coding import write_vectors
from rsuq.lattices import Lattice, builtin_lattice, lattice_from_config
from rsuq.layered import GaussianNoise, lrsuq_encode_batch
from rsuq.quantizer import RsuqConfig, decode_batch, encode_batch

V1 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "v1")

PINNED = [
    [[1.0, 0.3], [0.2, 1.1]],
    [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
    [[1.3, -0.4, 0.25], [0.1, 0.9, -0.7], [0.35, 0.6, 1.2]],
    [[1.0, 0.1, -0.3, 0.2], [0.4, 1.2, 0.05, -0.5], [-0.2, 0.3, 0.8, 0.6],
     [0.15, -0.25, 0.45, 1.1]],
]


def _config(G):
    return f"{len(G)}\n" + "".join(" ".join(repr(v) for v in row) + "\n" for row in G)


def _sha(*parts):
    return hashlib.sha256(b"".join(np.ascontiguousarray(p).tobytes() for p in parts)).hexdigest()


def _probe():
    # the CLI's encode then decode of 2000 N(0, 1) rows on the pinned 4-dim basis
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        paths = {k: os.path.join(tmp, k) for k in ("probe.cfg", "in.vqf", "out.rsq", "out.vqf")}
        with open(paths["probe.cfg"], "w") as fh:
            fh.write(_config(PINNED[3]))
        with open(paths["in.vqf"], "wb") as fh:
            fh.write(write_vectors(np.random.default_rng(9).standard_normal((2000, 4))))
        assert cli.main(["encode", "--input", paths["in.vqf"], "--lattice", paths["probe.cfg"],
                         "--dim", "4", "--radius", "0.3", "--seed", "9",
                         "--output", paths["out.rsq"]]) == 0
        assert cli.main(["decode", "--input", paths["out.rsq"], "--lattice", paths["probe.cfg"],
                         "--output", paths["out.vqf"]]) == 0
        return [open(paths[k], "rb").read() for k in ("out.rsq", "out.vqf")]


def _corpus():
    # `rsuq decode` of every version-1 stream; the digests are those of its manifest
    lines = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = os.path.join(tmp, "out.vqf")
        for name in sorted(f for f in os.listdir(V1) if f.endswith(".rsq")):
            argv = ["decode", "--input", os.path.join(V1, name), "--output", out]
            if name == "fcc.rsq":
                argv += ["--lattice", os.path.join(V1, "fcc.cfg")]
            assert cli.main(argv) == 0
            with open(out, "rb") as fh:
                lines.append(f"v1/{name} {hashlib.sha256(fh.read()).hexdigest()}")
    return lines


def digests():
    radii = [2.0 * Lattice("pinned", G).packing_radius for G in PINNED]
    lines = [f"radii {_sha(np.array(radii))}"]
    rsq, vqf = _probe()
    lines += [f"probe.rsq {_sha(rsq)}", f"probe.vqf {_sha(vqf)}"]
    X = np.random.default_rng(5).standard_normal((2048, 8))
    # fcc ranks its first 2048-row search in two blocks of the scan
    for name, lat, rows in (("Z2", builtin_lattice("Zn", 2), 300),
                            ("E8", builtin_lattice("E8", 8), 300),
                            ("fcc", lattice_from_config(_config(PINNED[1])), 2048)):
        cfg = RsuqConfig(lat, r=0.4, seed=11)
        K, J, Y = encode_batch(cfg, X[:rows, : lat.n])
        lines.append(f"ball-{name} {_sha(K, J, Y, decode_batch(cfg, K, J))}")
    # one batch whose calls fail the search's certificate on their largest rows
    fcc = lattice_from_config(_config(PINNED[1]))
    cfg = RsuqConfig(fcc, r=0.4, seed=12)
    W = np.random.default_rng(6).uniform(-1, 1, (64, 3))
    W *= cfg.gamma * 2.0 ** np.linspace(0, 50, 64)[:, None] / np.abs(W).max(axis=1)[:, None]
    K, J, Y = encode_batch(cfg, W)
    lines.append(f"ball-fcc-wide {_sha(K, J, Y, decode_batch(cfg, K, J))}")
    gauss = lrsuq_encode_batch(GaussianNoise(8), builtin_lattice("E8", 8), 13, X[:300])
    lines.append(f"gauss-E8 {_sha(*gauss)}")
    return lines + _corpus()


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in digests()))

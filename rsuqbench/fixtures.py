#!/usr/bin/env python3
"""Workload definitions and fixed-seed inputs for the rsuq benchmark.

Inputs are i.i.d. standard normal vectors drawn with numpy's own Generator
and written in the VQF1 layout by this file (magic "VQF1", uint32 dim,
uint64 count, little-endian float64 rows).  Nothing here imports rsuq, so no
change to the package can change what the benchmark feeds it: the program
under test sees only the files written here.

Usage:
    python3 rsuqbench/fixtures.py --workload ball-z2 --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import os
import struct
from dataclasses import dataclass

import numpy as np

# fcc basis (columns 110, 101, 011).  The packing radius is given so the
# config is read without a shortest-vector search; the covering radius is
# left out on purpose, so the generic decoder scans all 7^3 = 343 offsets.
USER3_CONFIG = "3\n1 1 0\n1 0 1\n0 1 1\npacking_radius=0.7071067811865476\n"
USER3_FILE = "user3.cfg"


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a single client issuing one job at a time.

    A job is what a user runs on one input file: `rsuq encode` and then
    `rsuq decode` of the stream it wrote ("roundtrip"), or one `rsuq
    simulate`.  Job i reads input file i % pool and uses its own --seed.
    """

    name: str
    op: str            # "roundtrip" or "simulate"
    lattice: str       # built-in id, or USER3_FILE
    dim: int
    vectors: int       # vectors per input file
    pool: int          # distinct input files
    trace_jobs: int    # jobs in each pass of a traced run
    radius: float | None
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("ball-z2", "roundtrip", "Zn", 2, 4096, 32, 240, 0.05,
             "RSQ1 pack and unpack are most of the time on Z2 (mean K 1.27, nearest point "
             "is rounding): coding changes show, lattice and round changes are bypassed"),
    Workload("gauss-e8", "simulate", "E8", 8, 4096, 16, 120, None,
             "no RSQ1 coding; E8 decoder, embeddings and up to ~45 rejection rounds per "
             "call dominate: E8 paths and blocked draws show, coding changes are bypassed"),
    Workload("ball-user3", "roundtrip", USER3_FILE, 3, 512, 16, 48, 0.05,
             "generic decoder on a user fcc basis scans 343 offsets per round and in the "
             "decode fold: a sphere decoder shows here, the built-in workloads bypass it"),
)}


def _seed_words(seed: int, *parts) -> list[int]:
    digest = hashlib.sha256(":".join(str(p) for p in (seed, *parts)).encode()).digest()
    return [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]


def job_seed(seed: int, name: str, i: int) -> int:
    """The --seed of job i; fits the CLI's unsigned 64-bit seed field."""
    w = _seed_words(seed, name, "job", i)
    return w[0] | (w[1] << 32)


def vqf_bytes(X: np.ndarray) -> bytes:
    count, dim = X.shape
    return b"VQF1" + struct.pack("<IQ", dim, count) + X.astype("<f8").tobytes()


def vqf_read(data: bytes) -> np.ndarray:
    """Independent VQF1 reader used by the output checks."""
    if len(data) < 16 or data[:4] != b"VQF1":
        raise ValueError("not a VQF1 file")
    dim, count = struct.unpack_from("<IQ", data, 4)
    if dim < 1 or len(data) != 16 + 8 * dim * count:
        raise ValueError("VQF1 size mismatch")
    return np.frombuffer(data, dtype="<f8", offset=16).reshape(count, dim)


def write_fixtures(wl: Workload, seed: int, out_dir: str) -> tuple[list[str], list[np.ndarray]]:
    """Write the input files (and the user lattice config) into out_dir.

    Returns the input paths and their (vectors, dim) arrays.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(_seed_words(seed, wl.name, "inputs"))
    arrays = [rng.standard_normal((wl.vectors, wl.dim)) for _ in range(wl.pool)]
    paths = []
    for j, X in enumerate(arrays):
        path = os.path.join(out_dir, f"in-{j:03d}.vqf")
        with open(path, "wb") as fh:
            fh.write(vqf_bytes(X))
        paths.append(path)
    if wl.lattice == USER3_FILE:
        with open(os.path.join(out_dir, USER3_FILE), "w", encoding="ascii") as fh:
            fh.write(USER3_CONFIG)
    return paths, arrays


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    paths, _ = write_fixtures(WORKLOADS[args.workload], args.seed, args.out)
    print(f"wrote {len(paths)} input files to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

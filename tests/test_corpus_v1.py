"""Format version 1 conformance corpus: streams written by the version-1
encoder decode to the same vectors, through the library and through
`rsuq decode`, and the encoder still writes the same bytes.

`tests/data/v1/README.md` lists each stream with its lattice, mode, radius,
seed and the SHA-256 of its decoded VQF1 file; the table there is the
manifest this module reads.
"""

import hashlib
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from rsuq.cli import main
from rsuq.coding import (MODE_BALL, MODE_GAUSSIAN, StreamHeader, decode_stream, encode_stream,
                         lattice_for_header, read_vectors, write_vectors)
from rsuq.lattices import builtin_lattice, load_lattice
from rsuq.layered import GaussianNoise, lrsuq_decode_batch, lrsuq_encode_batch
from rsuq.quantizer import RsuqConfig, decode_batch

DATA = Path(__file__).parent / "data" / "v1"


class Case(NamedTuple):
    stream: str
    lattice: str  # a built-in family, or a config file in DATA
    n: int
    mode: str     # "ball" or "gaussian"
    radius: float
    seed: int
    sha256: str   # of the decoded VQF1 file

    @property
    def config(self):
        return DATA / self.lattice if self.lattice.endswith(".cfg") else None

    def path(self, suffix):
        return DATA / (self.stream[: -len(".rsq")] + suffix)


def _cases():
    cases = []
    for line in (DATA / "README.md").read_text(encoding="ascii").splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if len(cells) == 7 and cells[0].endswith(".rsq"):
            s, lat, n, mode, r, seed, digest = cells
            cases.append(Case(s, lat, int(n), mode, float(r) if r != "-" else 0.0, int(seed), digest))
    return cases


CASES = _cases()


def test_manifest_lists_every_file():
    assert len(CASES) == 8
    listed = {c.stream for c in CASES} | {c.path(".vqf").name for c in CASES}
    listed |= {c.lattice for c in CASES if c.config} | {"README.md"}
    assert listed == {p.name for p in DATA.iterdir()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.stream)
def test_library_decode(case):
    user = load_lattice(case.config) if case.config else None
    header, K, J = decode_stream(case.path(".rsq").read_bytes(), lat=user)
    assert (header.n, header.seed) == (case.n, case.seed)
    assert header.mode == (MODE_BALL if case.mode == "ball" else MODE_GAUSSIAN)
    lat = lattice_for_header(header, user)
    X = read_vectors(case.path(".vqf").read_bytes())
    if not len(K):
        Y = np.zeros((0, case.n))
    elif case.mode == "ball":
        assert header.param == case.radius
        Y = decode_batch(RsuqConfig(lat, r=header.param, seed=header.seed), K, J)
        assert np.all(np.einsum("ij,ij->i", Y - X, Y - X) <= case.radius ** 2)
    else:
        Y = lrsuq_decode_batch(GaussianNoise(case.n), lat, header.seed, K, J)
    assert Y.shape == X.shape
    assert _sha256(write_vectors(Y)) == case.sha256


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.stream)
def test_cli_decode(case, tmp_path):
    out = tmp_path / "out.vqf"
    argv = ["decode", "--input", str(case.path(".rsq")), "--output", str(out)]
    if case.config:
        argv += ["--lattice", str(case.config)]
    assert main(argv) == 0
    assert _sha256(out.read_bytes()) == case.sha256


def _encode(case, out):
    """Write the stream of `case` from its stored input, as the corpus was written."""
    if case.mode == "ball":
        lattice = str(case.config) if case.config else case.lattice
        assert main(["encode", "--input", str(case.path(".vqf")), "--lattice", lattice,
                     "--dim", str(case.n), "--radius", repr(case.radius),
                     "--seed", str(case.seed), "--output", str(out)]) == 0
        return
    lat = builtin_lattice(case.lattice, case.n)
    X = read_vectors(case.path(".vqf").read_bytes())
    K, J, _ = lrsuq_encode_batch(GaussianNoise(case.n), lat, case.seed, X)
    header = StreamHeader(n=case.n, lattice_id=lat.name, gamma=1.0, param=1.0,
                          mode=MODE_GAUSSIAN, seed=case.seed, count=len(X),
                          coord_bound=int(np.abs(J).max()))
    out.write_bytes(encode_stream(header, K, J))


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.stream)
def test_reencode_writes_the_same_bytes(case, tmp_path):
    out = tmp_path / "out.rsq"
    _encode(case, out)
    assert out.read_bytes() == case.path(".rsq").read_bytes()

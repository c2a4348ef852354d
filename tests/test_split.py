"""The row-independent stages run in slices on the calling thread without changing a bit."""

import math
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

import rsuq
from rsuq import lattices, quantizer
from rsuq.dither import stream_uniforms
from rsuq.lattices import Lattice, builtin_lattice, lattice_from_config
from rsuq.layered import GaussianNoise, lrsuq_decode_batch, lrsuq_encode_batch
from rsuq.quantizer import RsuqConfig, batch_seeds, decode_batch, encode_batch

FCC_CONFIG = "3\n1 1 0\n1 0 1\n0 1 1\npacking_radius=0.7071067811865476\n"
E8 = builtin_lattice("E8", 8)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _coders(lat, model):
    if model == "ball":
        cfg = RsuqConfig(lat, r=0.3, seed=505)
        return partial(encode_batch, cfg), partial(decode_batch, cfg)
    noise = GaussianNoise(lat.n)
    return (partial(lrsuq_encode_batch, noise, lat, 505),
            partial(lrsuq_decode_batch, noise, lat, 505))


@pytest.mark.parametrize("model", ["ball", "gaussian"])
@pytest.mark.parametrize("lat", [
    builtin_lattice("Zn", 2), builtin_lattice("Dn", 4), E8, builtin_lattice("A2", 2),
    lattice_from_config(FCC_CONFIG, name="fcc"),
], ids=lambda lat: lat.name + str(lat.n))
def test_split_changes_no_bit(lat, model, monkeypatch):
    # K, J, the encoder's Y and the decoder's output in slices of 7n + 3
    # coordinates or of one row equal the default cut bit for bit, and every
    # slice runs on the calling thread; one-row slices, slow on a large batch,
    # run on the small batches only
    encode, decode = _coders(lat, model)
    n = lat.n
    calls = []
    dithers_at = quantizer._dithers_at

    def recorded(*args):
        calls.append((threading.current_thread(), len(args[1])))
        return dithers_at(*args)

    monkeypatch.setattr(quantizer, "_dithers_at", recorded)
    rng = np.random.default_rng(21)
    for N in (0, 1, 61, 2 ** 16 // n + 5):
        X = rng.standard_normal((N, n)) * 10
        want = None
        for slice_max in (2 ** 16, 7 * n + 3, n)[: 3 if N < 100 else 2]:
            monkeypatch.setattr(quantizer, "_SLICE_MAX", slice_max)
            calls.clear()
            K, J, Y = encode(X)
            Yd = decode(K, J)
            assert np.array_equal(_bits(Yd), _bits(Y)), (N, slice_max)
            got = K, J, _bits(Y), _bits(Yd)
            want = want or got
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), (N, slice_max)
            # the pass at K and the decoder's rebuild, each in its slices
            step = max(1, slice_max // n)
            assert [rows for _, rows in calls] == 2 * [min(step, N - lo) for lo in range(0, N, step)]
            assert all(thread is threading.current_thread() for thread, _ in calls)


def test_split_cuts_consecutive_slices():
    # each slice writes its own rows of the caller's array; nothing is joined
    n = 4
    step = quantizer._SLICE_MAX // n
    N = 3 * step + 5
    seen = []
    out = np.full(N, -1)

    def rows(sl):
        seen.append((sl.start, sl.stop))
        out[sl] = np.arange(N)[sl]

    assert quantizer.split_rows(rows, N, n) is None
    assert np.array_equal(out, np.arange(N))
    assert seen == [(0, step), (step, 2 * step), (2 * step, 3 * step), (3 * step, N)]
    # one slice: one call over every row, on the calling thread
    calls = []
    quantizer.split_rows(lambda sl: calls.append((sl, threading.current_thread())), 1, n)
    assert calls == [(slice(0, 1), threading.current_thread())]


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("n", [4, quantizer._SLICE_MAX + 1])
def test_split_slices_hold_at_most_slice_max_coordinates(n, cpus, monkeypatch):
    # slices of _SLICE_MAX // n rows and one shorter slice at the end, or of
    # one row where a row holds more coordinates, in row order, whatever
    # number of CPUs the machine reports
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    step = max(1, quantizer._SLICE_MAX // n)
    N = 7 * step + 5
    want = [(lo, min(lo + step, N)) for lo in range(0, N, step)]
    seen = []
    quantizer.split_rows(lambda sl: seen.append((sl.start, sl.stop)), N, n)
    assert seen == want


class _RefusingNoise(GaussianNoise):
    """Gaussian noise that refuses the level words of some rows."""

    def __init__(self, n, refused):
        super().__init__(n)
        self.refused = refused

    def sample_level(self, u):
        hit = np.flatnonzero(np.isin(np.asarray(u)[:, 0], self.refused))
        if hit.size:
            raise ValueError(f"refused level word {u[hit[0], 0]!r}")
        return super().sample_level(u)


@pytest.mark.parametrize("rows", [[-1], [0, -1]], ids=["last", "first-and-last"])
def test_slice_exception_reaches_the_caller(rows):
    # the last row lies in the last of several slices; with row 0 refused
    # too, the first slice's message wins
    N = 3 * quantizer._SLICE_MAX // 8
    X = np.random.default_rng(2).standard_normal((N, 8))
    refused = stream_uniforms(batch_seeds(77, N), 0, 1)[rows, 0]
    with pytest.raises(ValueError) as info:
        lrsuq_encode_batch(_RefusingNoise(8, refused), E8, 77, X)
    assert str(info.value) == f"refused level word {refused[0]!r}"


def test_split_stops_at_the_first_failing_slice():
    # one row per slice: the slices after the one that raises never run
    seen = []

    def fn(sl):
        seen.append(sl.start)
        if sl.start == 2:
            raise ValueError("slice 2")

    with pytest.raises(ValueError, match="slice 2"):
        quantizer.split_rows(fn, 5, quantizer._SLICE_MAX)
    assert seen == [0, 1, 2]


def test_threads_build_a_scan_table_once(monkeypatch):
    # callers' threads decoding at once on one fresh user lattice all ask
    # for its scan table; one thread builds it while the others wait
    fcc = [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
    X = np.random.default_rng(8).standard_normal((2000, 3))
    # with packing_radius given, the lattice builds its table on first search
    lam = math.sqrt(0.5)
    K, J, Y = encode_batch(RsuqConfig(Lattice("fcc", fcc, packing_radius=lam), r=0.3, seed=8), X)
    fresh = RsuqConfig(Lattice("fcc", fcc, packing_radius=lam), r=0.3, seed=8)
    builds = []
    box = lattices._box

    def counted(*args):
        # a slow build, so that every thread asks while the first one builds
        builds.append(threading.current_thread().name)
        time.sleep(0.05)
        return box(*args)

    monkeypatch.setattr(lattices, "_box", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            decoded = list(pool.map(lambda _: decode_batch(fresh, K, J), range(4)))
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(_bits(Yd), _bits(Y)) for Yd in decoded)
    assert len(builds) == 1


def test_no_batch_starts_a_thread(tmp_path):
    # Importing the CLI loads no concurrent.futures, and batches that span
    # many slices stay on the calling thread and load no thread pool: a
    # Gaussian E8 encode and decode, a Z2 ball encode and decode, and `rsuq
    # simulate` on E8.  scipy.special, behind the Gaussian level draw, loads
    # concurrent.futures itself, but not its thread pool module.
    src = os.path.dirname(os.path.dirname(rsuq.__file__))
    script = (
        "import contextlib, io, sys, threading\n"
        "import numpy as np\n"
        "import rsuq.cli\n"
        "from rsuq import coding, layered, quantizer\n"
        "from rsuq.lattices import builtin_lattice\n"
        "def check(what):\n"
        "    print(what, threading.active_count() - before,\n"
        "          'concurrent.futures' in sys.modules, 'concurrent.futures.thread' in sys.modules)\n"
        "before = threading.active_count()\n"
        "check('import')\n"
        "rng = np.random.default_rng(0)\n"
        "noise, e8 = layered.GaussianNoise(8), builtin_lattice('E8', 8)\n"
        "K, J, _ = layered.lrsuq_encode_batch(noise, e8, 3, rng.standard_normal((2 ** 15, 8)))\n"
        "layered.lrsuq_decode_batch(noise, e8, 3, K, J)\n"
        "check('gaussian-e8')\n"
        "cfg = quantizer.RsuqConfig(builtin_lattice('Zn', 2), 0.05, 3)\n"
        "K, J, _ = quantizer.encode_batch(cfg, rng.standard_normal((2 ** 17, 2)))\n"
        "quantizer.decode_batch(cfg, K, J)\n"
        "check('ball-z2')\n"
        "d = sys.argv[1]\n"
        "with open(d + '/in.vqf', 'wb') as fh:\n"
        "    fh.write(coding.write_vectors(rng.standard_normal((4096, 8))))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert rsuq.cli.main(['simulate', '--noise', 'gaussian', '--lattice', 'E8',\n"
        "                          '--dim', '8', '--seed', '3', '--input', d + '/in.vqf',\n"
        "                          '--output', d + '/out.vqf']) == 0\n"
        "check('simulate')\n")
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == ["import 0 False False", "gaussian-e8 0 True False",
                                       "ball-z2 0 True False", "simulate 0 True False"]

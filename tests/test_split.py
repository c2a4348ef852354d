"""The row-independent stages split across threads without changing a bit."""

import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import threading
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


@pytest.fixture
def own_pool(monkeypatch):
    # a pool of the test's own, shut down after it, sized by the _CPUS the test sets
    monkeypatch.setattr(quantizer, "_pool", None)
    yield
    if quantizer._pool is not None:
        quantizer._pool.shutdown()


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _coders(lat, model):
    if model == "ball":
        cfg = RsuqConfig(lat, r=0.3, seed=505)
        return partial(encode_batch, cfg), partial(decode_batch, cfg)
    noise = GaussianNoise(lat.n)
    return (partial(lrsuq_encode_batch, noise, lat, 505),
            partial(lrsuq_decode_batch, noise, lat, 505))


def _sizes(n):
    # empty, one row, just below and at the split threshold, an odd size that
    # splits into three shares, and one whose shares each run in two slices
    at = -(-2 * quantizer._SPLIT_MIN // n)
    return [0, 1, at - 1, at, -(-3 * quantizer._SPLIT_MIN // n) | 1,
            3 * (quantizer._SLICE_MAX // n) + 7]


def _slices(N, n, cpus):
    return max(1, min(cpus, N * n // quantizer._SPLIT_MIN))


@pytest.mark.parametrize("model", ["ball", "gaussian"])
@pytest.mark.parametrize("lat", [
    builtin_lattice("Zn", 2), builtin_lattice("Dn", 4), E8, builtin_lattice("A2", 2),
    lattice_from_config(FCC_CONFIG, name="fcc"),
], ids=lambda lat: lat.name + str(lat.n))
def test_split_changes_no_bit(lat, model, monkeypatch, own_pool):
    # K, J, the encoder's Y and the decoder's output on 2 and 3 CPUs equal
    # the one-CPU run bit for bit, and the split slices really run on workers
    encode, decode = _coders(lat, model)
    threads = set()
    dithers_at = quantizer._dithers_at

    def recorded(*args):
        threads.add(threading.current_thread().name)
        return dithers_at(*args)

    monkeypatch.setattr(quantizer, "_dithers_at", recorded)
    rng = np.random.default_rng(21)
    for N in _sizes(lat.n):
        X = rng.standard_normal((N, lat.n)) * 10
        monkeypatch.setattr(quantizer, "_CPUS", 1)
        K, J, Y = encode(X)
        Yd = decode(K, J)
        assert np.array_equal(_bits(Yd), _bits(Y))
        for cpus in (2, 3):
            monkeypatch.setattr(quantizer, "_CPUS", cpus)
            threads.clear()
            Kc, Jc, Yc = encode(X)
            assert np.array_equal(Kc, K) and np.array_equal(Jc, J), (N, cpus)
            assert np.array_equal(_bits(Yc), _bits(Y)), (N, cpus)
            assert np.array_equal(_bits(decode(Kc, Jc)), _bits(Yd)), (N, cpus)
            split = _slices(N, lat.n, cpus) > 1
            assert any(name.startswith("rsuq-split") for name in threads) == split, (N, cpus)


def test_split_cuts_consecutive_slices(monkeypatch, own_pool):
    # each slice writes its own rows of the caller's array; nothing is joined
    monkeypatch.setattr(quantizer, "_CPUS", 3)
    n = 4
    N = 3 * quantizer._SPLIT_MIN // n + 5
    seen = []
    out = np.full(N, -1)

    def rows(sl):
        seen.append((sl.start, sl.stop))
        out[sl] = np.arange(N)[sl]

    assert quantizer.split_rows(rows, N, n) is None
    assert np.array_equal(out, np.arange(N))
    assert sorted(seen) == [(0, N // 3), (N // 3, 2 * N // 3), (2 * N // 3, N)]
    # one slice: one call over every row, on the calling thread
    calls = []
    quantizer.split_rows(lambda sl: calls.append((sl, threading.current_thread())), 1, n)
    assert calls == [(slice(0, 1), threading.current_thread())]


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("n", [4, quantizer._SLICE_MAX + 1])
def test_split_slices_hold_at_most_slice_max_coordinates(cpus, n, monkeypatch, own_pool):
    # every share runs in slices of _SLICE_MAX // n rows and one shorter
    # slice at its end, or of one row where a row holds more coordinates
    monkeypatch.setattr(quantizer, "_CPUS", cpus)
    step = max(1, quantizer._SLICE_MAX // n)
    N = 7 * step + 5
    parts = min(cpus, N * n // quantizer._SPLIT_MIN)
    cuts = [N * i // parts for i in range(parts + 1)]
    want = [(lo, min(lo + step, hi)) for a, hi in zip(cuts, cuts[1:]) for lo in range(a, hi, step)]
    seen = []
    quantizer.split_rows(lambda sl: seen.append((sl.start, sl.stop)), N, n)
    assert sorted(seen) == want
    if cpus == 1:
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


@pytest.mark.parametrize("cpus", [2, 3])
def test_worker_exception_reaches_the_caller(cpus, monkeypatch, own_pool):
    # the last row lies in the last slice, run by a worker thread
    N = 2 * quantizer._SPLIT_MIN // 8
    X = np.random.default_rng(2).standard_normal((N, 8))
    u = stream_uniforms(batch_seeds(77, N), 0, 1)[:, 0]
    # with two refused rows, the lowest refusing slice's error wins
    for refused in (u[-1:], u[[0, -1]]):
        noise = _RefusingNoise(8, refused)
        errors = []
        for c in (1, cpus):
            monkeypatch.setattr(quantizer, "_CPUS", c)
            with pytest.raises(ValueError) as info:
                lrsuq_encode_batch(noise, E8, 77, X)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1] == (ValueError, f"refused level word {refused[0]!r}")


def test_threads_build_a_scan_table_once(monkeypatch, own_pool):
    # every slice of a decode on a fresh user lattice asks for its scan table
    # at once; one thread builds it while the others wait
    fcc = [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
    monkeypatch.setattr(quantizer, "_CPUS", 4)
    N = 4 * quantizer._SPLIT_MIN // 3
    X = np.random.default_rng(8).standard_normal((N, 3))
    # with packing_radius given, the lattice builds its table on first search
    lam = math.sqrt(0.5)
    K, J, Y = encode_batch(RsuqConfig(Lattice("fcc", fcc, packing_radius=lam), r=0.3, seed=8), X)
    fresh = RsuqConfig(Lattice("fcc", fcc, packing_radius=lam), r=0.3, seed=8)
    builds = []
    box = lattices._box

    def counted(*args):
        builds.append(threading.current_thread().name)
        return box(*args)

    monkeypatch.setattr(lattices, "_box", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        Yd = decode_batch(fresh, K, J)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(_bits(Yd), _bits(Y))
    assert len(builds) == 1


def _digest(*arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def _fork_child(conn, X):
    conn.send(_digest(*lrsuq_encode_batch(GaussianNoise(8), E8, 9, X)))
    conn.close()


def test_forked_child_rebuilds_the_pool(monkeypatch, own_pool):
    # the child inherits a pool with no threads; a submit to it would wait forever
    monkeypatch.setattr(quantizer, "_CPUS", 2)
    X = np.random.default_rng(4).standard_normal((2 * quantizer._SPLIT_MIN // 8, 8))
    want = _digest(*lrsuq_encode_batch(GaussianNoise(8), E8, 9, X))
    assert quantizer._pool is not None
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_fork_child, args=(send, X))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "the forked child did not finish its encode"
        assert recv.recv() == want
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)
    assert not child.is_alive() and child.exitcode == 0


def test_small_batches_start_no_thread():
    # Importing the CLI loads no concurrent.futures, and a 4096-row Z2 encode
    # and decode stay on the calling thread whatever the CPU count.
    src = os.path.dirname(os.path.dirname(rsuq.__file__))
    script = (
        "import sys, threading\n"
        "import numpy as np\n"
        "import rsuq.cli\n"
        "from rsuq import quantizer\n"
        "from rsuq.lattices import builtin_lattice\n"
        "loaded = 'concurrent.futures' in sys.modules\n"
        "quantizer._CPUS = 64\n"
        "before = threading.active_count()\n"
        "cfg = quantizer.RsuqConfig(builtin_lattice('Zn', 2), 0.05, 3)\n"
        "X = np.random.default_rng(0).standard_normal((4096, 2))\n"
        "K, J, Y = quantizer.encode_batch(cfg, X)\n"
        "quantizer.decode_batch(cfg, K, J)\n"
        "print(loaded, threading.active_count() - before, 'concurrent.futures' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == ["False", "0", "False"]

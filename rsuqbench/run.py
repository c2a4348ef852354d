#!/usr/bin/env python3
"""Benchmark of the rsuq command line, driven in-process.

One process, one client, closed loop.  Job i of a workload runs
`rsuq.cli.main` on input file i % pool with its own --seed: `encode` and
then `decode` of the stream it wrote on the ball workloads, one `simulate`
on gauss-e8.  The next job starts when the last one returns.  A job's wall
time is what a user of the CLI waits for, minus interpreter start-up,
which `setup_s` reports apart.  Every output is checked; a failed check
counts as a failed operation and does not stop the run.

    python3 rsuqbench/run.py --workload ball-z2 --seed 3 --seconds 25 --trace 0
    python3 rsuqbench/run.py --workload all            # every workload in turn
    python3 rsuqbench/run.py --write-digests           # re-record default-seed digests

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs a fixed
number of jobs, each once untraced and once traced (see spans.py), and
reports per-layer metrics.  A table of every metric with its unit and
sample count comes first; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Run it from the root of a
source checkout: the package is imported from ./src and nowhere else.
"""

import os

# Cap the BLAS/OpenMP pools at the CPUs this process may use; numpy reads
# these when it is first imported, and the set-up children inherit them.
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from fixtures import USER3_FILE, WORKLOADS, job_seed, vqf_read, write_fixtures  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".rsuqbench")
DIGESTS = os.path.join(HERE, "digests.json")

DEFAULT_SEED = 1
DIGEST_JOBS = 8       # default-seed jobs whose output files are pinned by SHA-256
MIN_JOBS = 100        # p90 then has at least ten samples beyond it
SETUP_SPAWNS = 5
MOMENT_Z = 6.0        # gauss-e8 moment check: bound in standard errors
RATE_RE = re.compile(r"^rate_bits_per_dim=(\S+)$", re.M)


def load_cli():
    """Import rsuq.cli from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "rsuq", "__init__.py")):
        raise SystemExit(f"error: no rsuq package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import rsuq.cli
    if not os.path.abspath(rsuq.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported rsuq from {rsuq.cli.__file__}, not {SRC}")
    return rsuq.cli


def measure_setup(wl, work, spawns):
    """Median seconds from starting a fresh interpreter until a call can be issued."""
    if wl.lattice == USER3_FILE:
        make = f"load_lattice({os.path.join(work, USER3_FILE)!r})"
    else:
        make = f"builtin_lattice({wl.lattice!r}, {wl.dim})"
    code = (f"import sys\nsys.path.insert(0, {SRC!r})\nimport rsuq.cli\n"
            f"from rsuq.lattices import builtin_lattice, load_lattice\nlat = {make}\n"
            "sys.stdout.write('ready\\n')\nsys.stdout.flush()\n")
    times = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=work,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
    return float(np.median(times)), len(times)


class Runner:
    """Fixtures, the CLI calls of job i, and the checks of their outputs."""

    def __init__(self, cli, wl, seed, work, pin=True):
        self.cli, self.wl, self.seed, self.work = cli, wl, seed, work
        self.inputs, self.X = write_fixtures(wl, seed, work)
        self.lattice = (os.path.join(work, USER3_FILE) if wl.lattice == USER3_FILE
                        else wl.lattice)
        self.stream = os.path.join(work, "out.rsq")
        self.out = os.path.join(work, "out.vqf")
        self.pinned = None
        if pin and seed == DEFAULT_SEED:
            with open(DIGESTS, encoding="ascii") as fh:
                self.pinned = json.load(fh)[wl.name]
        self.errors = []             # first few failure messages
        self.reset()

    def reset(self):
        """Forget failures and outputs seen so far (after a warm-up job)."""
        self.failed = set()          # failed job indices and failed run-level checks
        self.bits = 0.0              # stream bits, or reported rate times coordinates
        self.vectors = 0
        self.moments = np.zeros((3, self.wl.dim))   # count, sum, sum of squares of Y - X

    def argvs(self, i):
        wl, inp = self.wl, self.inputs[i % self.wl.pool]
        seed = str(job_seed(self.seed, wl.name, i))
        if wl.op == "simulate":
            return [["simulate", "--noise", "gaussian", "--dim", str(wl.dim), "--lattice",
                     self.lattice, "--seed", seed, "--input", inp, "--output", self.out]]
        user = ["--lattice", self.lattice] if wl.lattice == USER3_FILE else []
        return [["encode", "--input", inp, "--lattice", self.lattice, "--dim", str(wl.dim),
                 "--radius", repr(wl.radius), "--seed", seed, "--output", self.stream],
                ["decode", "--input", self.stream, "--output", self.out] + user]

    @staticmethod
    def invoke(main, argv):
        """Run one CLI call; returns (seconds, exit code or None, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = main(argv)
            except Exception as exc:  # a crash is a failed operation, not a stopped run
                rc = None
                err.write(f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
        return dt, rc, out.getvalue(), err.getvalue()

    def job(self, i, main=None):
        """Run job i and check its outputs; returns (seconds, output digests or None)."""
        main = self.cli.main if main is None else main
        for path in (self.stream, self.out):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        total, stdout = 0.0, ""
        for argv in self.argvs(i):
            dt, rc, stdout, err = self.invoke(main, argv)
            total += dt
            if rc != 0:
                self.fail(i, f"{argv[0]} exit {rc}: {err.strip()}")
                return total, None
        try:
            files = [self.stream, self.out] if self.wl.op == "roundtrip" else [self.out]
            blobs = []
            for path in files:
                with open(path, "rb") as fh:
                    blobs.append(fh.read())
            self.check(i, blobs, stdout)
        except (OSError, ValueError) as exc:
            self.fail(i, f"{type(exc).__name__}: {exc}")
            return total, None
        digests = [hashlib.sha256(b).hexdigest() for b in blobs]
        if self.pinned and 0 <= i < DIGEST_JOBS and digests != self.pinned[i]:
            self.fail(i, "output differs from the digest recorded at the default seed")
        return total, digests

    def fail(self, key, msg):
        self.failed.add(key)
        if len(self.errors) < 5:
            self.errors.append(f"job {key}: {msg}")

    def check(self, i, blobs, stdout):
        wl, X = self.wl, self.X[i % self.wl.pool]
        Y = vqf_read(blobs[-1])
        if Y.shape != X.shape or not np.all(np.isfinite(Y)):
            raise ValueError(f"output has shape {Y.shape}, expected {X.shape}")
        E = Y - X
        self.vectors += len(X)
        if wl.op == "simulate":
            rate = RATE_RE.search(stdout)
            if rate is None:
                raise ValueError("simulate printed no rate line")
            self.bits += float(rate.group(1)) * X.size
            self.moments += [np.full(wl.dim, len(E)), E.sum(axis=0), (E * E).sum(axis=0)]
            return
        stream = blobs[0]
        # RSQ1 header: magic, version, n, id length, id, gamma, param, mode, seed, count
        off = 10 + (stream[9] if len(stream) > 9 else 0) + 25
        if stream[:4] != b"RSQ1" or len(stream) < off + 12:
            raise ValueError("encode output is not an RSQ1 stream")
        count = int.from_bytes(stream[off:off + 8], "little")
        if count != len(X):
            raise ValueError(f"stream holds {count} vectors, expected {len(X)}")
        self.bits += 8 * len(stream)
        # The encoder's own acceptance test, with no tolerance.
        if not np.all(np.einsum("ij,ij->i", E, E) <= wl.radius ** 2):
            raise ValueError("a decoded vector lies outside the radius-r ball around its input")

    def check_moments(self):
        """gauss-e8: Y - X has mean 0 and variance 1 per dimension, to MOMENT_Z errors."""
        n, s, ss = self.moments
        if n[0] == 0:
            return
        mean = s / n
        var = ss / n - mean ** 2
        if (np.any(np.abs(mean) > MOMENT_Z / np.sqrt(n))
                or np.any(np.abs(var - 1.0) > MOMENT_Z * np.sqrt(2.0 / n))):
            self.fail("moments", f"Y - X moments off: mean {mean}, variance {var}")

    def bits_per_dim(self):
        return self.bits / (self.vectors * self.wl.dim)


_REF_X = np.random.default_rng(0).standard_normal((4096, 2))


def reference_seconds():
    """Wall time of a fixed kernel: the machine's speed at this moment.

    It mixes a Python integer loop with small numpy array operations, the
    two kinds of work a CLI call does, and touches nothing of rsuq.
    """
    t0 = time.perf_counter()
    acc = 0
    for v in range(6000):
        acc = ((acc << 7) | (v & 127)) & 0xFFFFFFFF
    for _ in range(4):
        Y = np.ceil(_REF_X * 1.5 - 0.5)
        np.einsum("ij,ij->i", Y, Y).sum()
    return time.perf_counter() - t0


def end_to_end(runner, seconds, min_jobs, spawns):
    """Timed loop; returns (metric rows, table-only rows, jobs attempted).

    On a shared machine the wall time of an identical job swings by up to
    ~1.9x with co-tenant load, so the bounded timing metrics divide each
    job's time by the reference kernel's, timed just before and just after
    the job.  The raw wall times are reported in the table as well.
    """
    setup_s, nspawn = measure_setup(runner.wl, runner.work, spawns)
    runner.job(0)                        # warm-up, not counted
    runner.reset()
    times, refs = [], [reference_seconds()]
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # The second test keeps a very slow program within the time limit.
        if ((len(times) >= min_jobs and elapsed >= seconds)
                or (len(times) >= 10 and elapsed >= 4 * seconds)):
            break
        times.append(runner.job(len(times))[0])
        refs.append(reference_seconds())
    runner.check_moments()
    times, refs = np.asarray(times), np.asarray(refs)
    rel = times / (0.5 * (refs[:-1] + refs[1:]))
    n, vectors = len(times), runner.wl.vectors * len(times)
    rows = [
        ("vectors_per_ref", vectors / rel.sum(), "vectors/ref", n),
        ("p50_ref", float(np.percentile(rel, 50)), "ref", n),
        ("p90_ref", float(np.percentile(rel, 90)), "ref", n),
        ("bits_per_dim", runner.bits_per_dim(), "bit", n),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        ("setup_s", setup_s, "s", nspawn),
    ]
    table = [
        ("vps", vectors / times.sum(), "vectors/s", n),
        ("p50_ms", 1e3 * float(np.percentile(times, 50)), "ms", n),
        ("p90_ms", 1e3 * float(np.percentile(times, 90)), "ms", n),
        ("ref_p50_ms", 1e3 * float(np.percentile(refs, 50)), "ms", len(refs)),
    ]
    return rows, table, n


def per_layer(runner, jobs):
    runner.job(0)                        # warm-up, not counted
    runner.reset()
    tracer = spans.Tracer()
    main = tracer.wrap("cli.main", runner.cli.main)
    plain, traced = [], []
    # Untraced and traced runs of each job alternate, so drift in machine
    # speed falls on both sides of the overhead estimate alike.
    for i in range(jobs):
        plain.append(runner.job(i))
        with spans.traced(tracer):
            tracer.request = i
            traced.append(runner.job(i, main))
    runner.check_moments()
    for i, ((_, a), (_, b)) in enumerate(zip(plain, traced)):
        if a != b:
            runner.fail(i, "traced output differs from the untraced one")
    metrics, bad = spans.layer_metrics(tracer, sum(dt for dt, _ in plain))
    if bad:
        runner.fail("spans", f"{bad} inconsistent span counts")
    os.makedirs(OUT, exist_ok=True)
    tracer.save(os.path.join(OUT, f"spans-{runner.wl.name}.npz"))
    rows = [(k, float(v), spans.unit(k), jobs) for k, v in metrics.items()]
    return rows, [], 2 * jobs


def run_workload(name, seed, seconds, trace, min_jobs=MIN_JOBS, spawns=SETUP_SPAWNS,
                 trace_jobs=None):
    """Run one workload; returns (result dict, table rows, failure messages).

    The table rows are the result's metrics followed by table-only rows.
    """
    cli = load_cli()
    wl = WORKLOADS[name]
    work = os.path.join(OUT, f"work-{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(cli, wl, seed, work)
        if trace:
            rows, table, attempted = per_layer(runner, trace_jobs or wl.trace_jobs)
        else:
            rows, table, attempted = end_to_end(runner, seconds, min_jobs, spawns)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = min(attempted, len(runner.failed))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, v, u, _ in rows}}
    table.append(("failure_ratio", failed / attempted, "ratio", attempted))
    return result, rows + table, runner.errors


def print_table(name, seed, seconds, trace, rows, errors):
    blas = " ".join(f"{v}={os.environ[v]}" for v in BLAS_VARS)
    print(f"# workload {name}  seed {seed}  seconds {seconds:g}  trace {trace}  "
          f"nproc {NPROC}  {blas}")
    print(f"# why: {WORKLOADS[name].why}")
    print(f"{'metric':28s} {'value':>16s}  {'unit':10s} {'samples':>8s}")
    for k, v, u, n in rows:
        print(f"{k:28s} {v:16.6g}  {u:10s} {n:8d}")
    for e in errors:
        print(f"# failure: {e}")


def record_digests():
    """Re-record the SHA-256 of the output files of the first default-seed jobs."""
    cli = load_cli()
    pinned = {}
    for name, wl in WORKLOADS.items():
        work = os.path.join(OUT, f"digests-{name}-{os.getpid()}")
        try:
            runner = Runner(cli, wl, DEFAULT_SEED, work, pin=False)
            pinned[name] = [runner.job(i)[1] for i in range(DIGEST_JOBS)]
            if runner.failed:
                raise SystemExit(f"error: {name} failed while recording: {runner.errors}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(DIGESTS, "w", encoding="ascii") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")
    print(f"wrote {DIGESTS}")


def main(argv=None):
    p = argparse.ArgumentParser(description="rsuq CLI benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-digests", action="store_true")
    args = p.parse_args(argv)
    if args.write_digests:
        record_digests()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result, rows, errors = run_workload(name, args.seed, args.seconds, args.trace)
        print_table(name, args.seed, args.seconds, args.trace, rows, errors)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

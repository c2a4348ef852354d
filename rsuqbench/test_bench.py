"""Smoke tests of the benchmark itself: a few jobs per workload.

    python3 -m pytest -q rsuqbench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
from fixtures import WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as _fh:
    SPEC = json.load(_fh)


def _wrapped_now():
    return [vars(owner)[attr] for owner, attr, *_ in spans._targets()]


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _check_rows(result, rows, expected):
    assert result["metrics"].keys() == expected.keys()
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit
    samples = {k: n for k, _, _, n in rows}
    assert set(expected) | {"failure_ratio"} <= set(samples)
    assert all(n >= 1 for n in samples.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_smoke(name):
    result, rows, errors = run.run_workload(name, run.DEFAULT_SEED, 0.0, 0,
                                            min_jobs=3, spawns=1)
    assert result["correct"] and result["failed"] == 0, errors
    assert result["attempted"] == 3
    _check_rows(result, rows, _units("end_to_end"))
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_smoke_restores_and_repeats(name):
    before = _wrapped_now()
    first, rows, errors = run.run_workload(name, run.DEFAULT_SEED, 0.0, 1, trace_jobs=3)
    assert _wrapped_now() == before
    # correct also means every traced job wrote the same bytes as its untraced twin
    assert first["correct"] and first["failed"] == 0, errors
    assert first["attempted"] == 6
    _check_rows(first, rows, _units("per_layer"))
    second, _, _ = run.run_workload(name, run.DEFAULT_SEED, 0.0, 1, trace_jobs=3)
    exact = ("quantizer.rounds", "quantizer.row_draws", "quantizer.k_max", "dither.words",
             "lattices.embed_calls", "coding.header_bits", "coding.golomb_bits",
             "coding.coord_bits", "coding.pad_bits")
    for key in exact:
        assert first["metrics"][key] == second["metrics"][key], key


def test_failed_call_is_counted_not_fatal(tmp_path):
    cli = run.load_cli()
    runner = run.Runner(cli, WORKLOADS["ball-z2"], 5, str(tmp_path))

    def broken(argv):
        if argv[0] == "decode":
            raise RuntimeError("injected")
        return cli.main(argv)

    assert runner.job(0)[1] is not None
    assert runner.job(1, broken)[1] is None
    assert runner.job(2)[1] is not None
    assert runner.failed == {1}


def test_digest_mismatch_is_a_failure(tmp_path):
    runner = run.Runner(run.load_cli(), WORKLOADS["gauss-e8"], run.DEFAULT_SEED,
                        str(tmp_path))
    runner.pinned = [["0" * 64]] * run.DIGEST_JOBS
    runner.job(0)
    assert runner.failed == {0}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "rsuqbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "ball-z2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

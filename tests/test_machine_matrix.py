"""Output bits that do not depend on the machine: `_matrix_digests` prints the
same lines under OpenBLAS's default and Prescott (SSE3-era) kernels, each with
numpy's SIMD dispatch on and off, as in this process."""

import os
import subprocess
import sys

import pytest

import _matrix_digests
import rsuq


def _dispatch_off():
    # numpy's dispatch targets this CPU has; the baseline cannot be disabled,
    # and naming a feature the CPU lacks is an error
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    return " ".join(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f))


def test_outputs_match_across_blas_kernels_and_numpy_dispatch():
    src = os.path.dirname(os.path.dirname(rsuq.__file__))
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    base["PYTHONPATH"] = src
    off = _dispatch_off()
    cells = {}
    for kernel in ("default", "Prescott"):
        for dispatch in ("on", "off"):
            env = cells[kernel, dispatch] = dict(base)
            if kernel == "Prescott":
                env["OPENBLAS_CORETYPE"] = kernel
            if dispatch == "off":
                env["NPY_DISABLE_CPU_FEATURES"] = off
    children = {cell: subprocess.Popen([sys.executable, _matrix_digests.__file__], env=env,
                                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                for cell, env in cells.items()}
    want = _matrix_digests.digests()
    for cell, child in children.items():
        out, err = child.communicate(timeout=60)
        assert child.returncode == 0, (cell, err)
        assert out.splitlines() == want, cell

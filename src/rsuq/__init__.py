"""Rejection-sampled universal quantization toolkit.

Vector quantizers whose error is exactly uniform over a ball (or follows
an arbitrary continuous law via the layered construction), together with
the entropy-coding layer, closed-form redundancy bounds and a Monte-Carlo
verification suite.
"""

from .bounds import (excess_info, gaussian_layered_entropy, load_registry,
                     rd_lower_max_error, rsuq_norment_ub, shannon_lb_mse,
                     zador_lb_mse)
from .coding import (FormatError, GolombCode, StreamHeader, decode_stream,
                     encode_stream, read_vectors, write_vectors)
from .dither import derive_seed
from .lattices import (Lattice, builtin_lattice, covering_density,
                       lattice_from_config, load_lattice, packing_density)
from .layered import (GaussianNoise, NoiseModel, lrsuq_decode_batch,
                      lrsuq_encode_batch)
from .mc import TestResult
from .quantizer import RejectionCapError, RsuqConfig, decode_batch, encode_batch

__version__ = "0.1.0"

__all__ = [
    "FormatError", "GaussianNoise", "GolombCode", "Lattice",
    "NoiseModel", "RejectionCapError", "RsuqConfig", "StreamHeader",
    "TestResult", "builtin_lattice", "covering_density", "decode_batch",
    "decode_stream", "derive_seed", "encode_batch", "encode_stream", "excess_info",
    "gaussian_layered_entropy", "lattice_from_config", "load_lattice",
    "load_registry", "lrsuq_decode_batch", "lrsuq_encode_batch",
    "packing_density", "rd_lower_max_error", "read_vectors",
    "rsuq_norment_ub", "shannon_lb_mse", "write_vectors", "zador_lb_mse",
]

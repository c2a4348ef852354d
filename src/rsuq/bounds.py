"""Closed-form rate-distortion quantities, redundancies and layered entropies.

Everything is in bits (natural-log intermediates converted explicitly).
Conventions:

* kappa_n is the unit n-ball volume, computed through log-Gamma so the
  formulas stay finite up to n = 64 and beyond.
* "Hbar" denotes a normalized entropy: conditional entropy minus the log
  volume of the input support, in the high-resolution limit.
* Redundancies are per dimension, against the maximum-error or the
  Zador-MSE lower bound; they feed the figure-2 tables.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lattices import (_SLACK, LN2, Lattice, builtin_lattice, covering_density,
                       log2_ball_volume, packing_density)

LOG2E = 1.0 / LN2


# -- rate-distortion lower bounds ---------------------------------------------


def rd_lower_max_error(n: int, r: float) -> float:
    """Normalized-entropy lower bound for maximum error at most r."""
    if not r > 0:
        raise ValueError("maximum error must be positive")
    return -n * math.log2(r) - log2_ball_volume(n)


def shannon_lb_mse(n: int, D: float) -> float:
    """Gaussian-entropy lower bound for mean squared error at most D."""
    if not D > 0:
        raise ValueError("distortion must be positive")
    return -(n / 2.0) * math.log2(2.0 * math.pi * math.e * D / n)


def zador_lb_mse(n: int, D: float) -> float:
    """Sphere-comparison lower bound for MSE; tighter than shannon_lb_mse."""
    if not D > 0:
        raise ValueError("distortion must be positive")
    return -(n / 2.0) * math.log2((n + 2) * D / n) - log2_ball_volume(n)


# -- lattice quantizer redundancies -------------------------------------------


def lattice_red_max_error(n: int, theta: float) -> float:
    """Max-error redundancy of a lattice with covering density theta."""
    if not theta >= 1:
        raise ValueError("covering density is at least 1")
    return math.log2(theta) / n


def lattice_zador_red_mse(n: int, nsm: float) -> float:
    """Zador-MSE redundancy of a cell with normalized second moment nsm."""
    return 0.5 * math.log2((n + 2) * nsm) + log2_ball_volume(n) / n


# -- reference bounds on the best achievable redundancy ------------------------


def rogers_bound(n: int) -> float:
    """Covering-density scaling achieved by good lattice coverings."""
    if n < 2:
        raise ValueError("defined for n >= 2")
    return (math.log2(n) / n
            + math.log2(math.sqrt(2.0 * math.pi * math.e)) * math.log2(math.log2(n)) / n)


def zador_ub(n: int) -> float:
    """Existence bound on the Zador-MSE redundancy of some vector quantizer."""
    return 0.5 * (math.log2(n + 2) + math.lgamma(2.0 / n + 1.0) / LN2 - math.log2(n))


def ordentlich_ub(n: int) -> float:
    """Existence bound on the Zador-MSE redundancy of some lattice (n >= 8)."""
    if n < 3:
        raise ValueError("needs n >= 3 (quoted for n >= 8)")
    return 0.5 * math.log2((n + 2) / (n * float(np.sinc(2.0 / n))))


# -- rejection-sampled quantizer bounds ----------------------------------------


def geometric_entropy(p: float) -> float:
    """Entropy in bits of a geometric stopping index with success rate p."""
    return geometric_excess(p) - math.log2(p)


def geometric_excess(p: float) -> float:
    """Entropy of the stopping index beyond -log2(p); decreasing, < log2(e)."""
    if not 0.0 < p <= 1.0:
        raise ValueError("success probability must lie in (0, 1]")
    if p == 1.0:
        return 0.0
    return -(1.0 - p) / p * math.log1p(-p) / LN2


def rsuq_norment_ub(lat: Lattice, r: float) -> float:
    """Normalized-entropy bound of the ball-error rejection quantizer.

    It adds log2(e), the supremum of the stopping index's geometric excess,
    to the max-error floor, so it holds for every lattice.
    """
    return rd_lower_max_error(lat.n, r) + LOG2E


def rsuq_red_per_dim(n: int, delta: float | None = None) -> float:
    """Per-dimension redundancy bound: geometric excess at delta, over n.

    With delta omitted this is the lattice-independent log2(e)/n; both the
    max-error and the Zador-MSE redundancy of the ball quantizer equal it.
    """
    if delta is None:
        return LOG2E / n
    return geometric_excess(delta) / n


def ball_nsm(n: int) -> float:
    """Normalized second moment of the n-ball: 1 / ((n+2) kappa_n^(2/n))."""
    return 2.0 ** (-math.log2(n + 2) - 2.0 * log2_ball_volume(n) / n)


def gaussian_h(n: int) -> float:
    """Differential entropy (bits) of the standard n-dim Gaussian."""
    return (n / 2.0) * math.log2(2.0 * math.pi * math.e)


# -- layered entropy of the Gaussian -------------------------------------------


def gaussian_layered_entropy(n: int) -> float:
    """Layered entropy (bits) of the standard n-dimensional Gaussian.

    Expectation of log2(volume of the sqrt(V)-ball) with V chi-square on
    n + 2 degrees of freedom.  With a = n/2, E[ln V] = ln 2 + psi(a + 1),
    so the value is a log2(2 pi) + (a psi(a + 1) - ln Gamma(a + 1)) / ln 2.
    """
    # scipy.special loads only here and in the level draw and the mc tests:
    # ball encode and decode never pay for its import
    from scipy.special import digamma

    if n < 1:
        raise ValueError("dimension must be >= 1")
    a = n / 2.0
    return a * math.log2(2.0 * math.pi) + (a * float(digamma(a + 1.0))
                                           - math.lgamma(a + 1.0)) / LN2


_EXCESS_VARIANTS = ("lower", "lrsuq", "lspq")


def excess_info(n: int, variant: str) -> float:
    """Per-dimension excess information for exact Gaussian channel simulation.

    variant "lower": information-theoretic floor (h - h_layered)/n for any
    exact scheme; "lrsuq": the layered rejection quantizer's bound, adding
    log2(e)/n except at n = 1 where the rejection step is unnecessary;
    "lspq": the layered shift-periodic construction, whose normalized
    entropy bound is 1.617 n + 4 - h_layered.
    """
    hl = gaussian_layered_entropy(n)
    h = gaussian_h(n)
    if variant == "lower":
        return (h - hl) / n
    if variant == "lrsuq":
        extra = 0.0 if n == 1 else LOG2E / n
        return (h - hl) / n + extra
    if variant == "lspq":
        return (1.617 * n + 4.0 - hl + h) / n
    raise ValueError(f"unknown variant {variant!r}; expected one of {_EXCESS_VARIANTS}")


# -- constants registry ---------------------------------------------------------


@dataclass
class RegistryEntry:
    """Best-known per-dimension lattice constants used by the bound tables."""

    n: int
    delta: float | None
    theta: float | None
    nsm: float | None
    source: str = ""


def _checked(e: RegistryEntry) -> RegistryEntry:
    """`e`, refused if a constant lies outside the range its quantity allows; a
    density within the slack past 1 is rounding and reads as 1, as the tables need."""
    if e.delta is not None:
        if not 0.0 < e.delta <= 1.0 + _SLACK:
            raise ValueError(f"n={e.n}: packing density {e.delta} outside (0, 1]")
        e.delta = min(e.delta, 1.0)
    if e.theta is not None:
        if e.theta < 1.0 - _SLACK:
            raise ValueError(f"n={e.n}: covering density {e.theta} below 1")
        e.theta = max(e.theta, 1.0)
    if e.nsm is not None and e.nsm < ball_nsm(e.n) * (1.0 - _SLACK):
        raise ValueError(f"n={e.n}: second moment {e.nsm} below the ball value")
    return e


def parse_dimension(s: str) -> int:
    """The dimension n written in decimal digits, 1 <= n < 2**32 as the RSQ1
    header holds it; else ValueError naming s."""
    # any n < 2**32 has at most 10 digits; int() refuses over 4300 by a message of its own
    n = int(s) if s.isdecimal() and len(s) <= 10 else 0
    if not 1 <= n < 2 ** 32:
        raise ValueError(f"dimension {s!r} is not an integer in 1..2**32-1")
    return n


def parse_registry(text: str) -> dict[int, RegistryEntry]:
    """Parse registry CSV: columns n, delta, theta, nsm, source; keyed by n,
    a later row of a dimension replacing an earlier one.  ValueError names
    the line of a bad row."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [(reader.line_num, [c.strip() for c in row]) for row in reader]
    except csv.Error as exc:
        raise ValueError(f"malformed registry CSV: {exc}") from exc
    entries = {}
    for line, row in rows:
        if not row or row[0].startswith("#") or row[0] == "n":
            continue
        try:
            if len(row) < 5:
                raise ValueError(f"row needs 5 columns: {row}")
            n = parse_dimension(row[0])
            entries[n] = _checked(RegistryEntry(n, *map(_registry_value, row[1:4]), row[4]))
        except ValueError as exc:
            raise ValueError(f"registry line {line}: {exc}") from exc
    return entries


def _registry_value(s):
    # A registry constant: None for "" or "-", else a finite float.
    try:
        v = None if s in ("", "-") else float(s)
    except ValueError:
        raise ValueError(f"value {s!r} is not a number") from None
    if v is not None and not math.isfinite(v):
        raise ValueError(f"value {s!r} is not finite")
    return v


# The shipped rows: (family, dimension, source tag) of built-in lattices.
_SHIPPED = (("Zn", 1, "Z"), ("A2", 2, "A2"), ("Dn", 4, "D4"), ("E8", 8, "E8"))


def load_registry(path=None) -> dict[int, RegistryEntry]:
    """The shipped rows by dimension, from the built-in lattices' closed-form
    constants, overridden by the rows of the user CSV at `path`, if given."""
    lats = [(builtin_lattice(family, n), tag) for family, n, tag in _SHIPPED]
    reg = {lat.n: RegistryEntry(lat.n, packing_density(lat), covering_density(lat),
                                lat.nsm, tag) for lat, tag in lats}
    if path is not None:
        reg.update(parse_registry(Path(path).read_text("ascii")))
    return reg


# -- report ---------------------------------------------------------------------
#
# A table is a list of (n, quantity, value_bits, equation_tag) rows.


def table_csv(rows) -> str:
    """The rows of a table as long-format CSV, header first."""
    return "".join(["n,quantity,value_bits,equation_tag\n"]
                   + [f"{n},{q},{v:.12g},{tag}\n" for n, q, v, tag in rows])


def table_layered_gaussian(dims) -> list:
    """Layered entropy and the three excess-information columns."""
    rows = []
    for n in dims:
        rows += [(n, "layered_entropy", gaussian_layered_entropy(n), "gaussian-chi2-mixture"),
                 (n, "excess_lower", excess_info(n, "lower"), "excess-floor"),
                 (n, "excess_lrsuq", excess_info(n, "lrsuq"), "excess-rejection-layered"),
                 (n, "excess_lspq", excess_info(n, "lspq"), "excess-shift-periodic")]
    return rows


def table_max_error_redundancy(dims, registry: dict[int, RegistryEntry]):
    """Max-error redundancy rows plus the dimensions missing from the
    registry; those get only the lattice-independent lines."""
    return _redundancy_table(dims, registry, mse=False)


def table_mse_redundancy(dims, registry: dict[int, RegistryEntry]):
    """Zador-MSE redundancy rows plus the dimensions missing from the
    registry; those get only the lattice-independent lines."""
    return _redundancy_table(dims, registry, mse=True)


def _redundancy_table(dims, registry, mse):
    # One figure-2 table: the lattice-independent lines, then the registry's
    # line for the measure (nsm for MSE, theta for max error) and the best packing's.
    rows, missing = [], []
    for n in dims:
        rows.append((n, "rsuq_any_lattice", rsuq_red_per_dim(n), "geometric-excess-cap"))
        if mse:
            rows.append((n, "zador_ub", zador_ub(n), "quantizer-existence"))
            if n >= 8:
                rows.append((n, "ordentlich_ub", ordentlich_ub(n), "lattice-existence"))
        elif n >= 2:
            rows.append((n, "rogers", rogers_bound(n), "covering-existence"))
        e = registry.get(n)
        own = None if e is None else e.nsm if mse else e.theta
        if own is not None and mse:
            rows.append((n, "lattice_zador", lattice_zador_red_mse(n, own), "nsm-zador"))
        elif own is not None:
            rows.append((n, "lattice_covering", lattice_red_max_error(n, own), "log-covering-density"))
        if e is not None and e.delta is not None:
            rows.append((n, "rsuq_best_packing", rsuq_red_per_dim(n, e.delta), "geometric-excess"))
        elif own is None:
            missing.append(n)
    return rows, missing

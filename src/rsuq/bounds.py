"""Closed-form rate-distortion quantities, redundancies and layered entropies.

Everything is in bits (natural-log intermediates converted explicitly).
Conventions:

* kappa_n is the unit n-ball volume, computed through log-Gamma so the
  formulas stay finite up to n = 64 and beyond.
* "Hbar" denotes a normalized entropy: conditional entropy minus the log
  volume of the input support, in the high-resolution limit.
* Redundancies are per dimension: the gap between Hbar/n and the matching
  lower bound (maximum-error, Shannon-MSE or Zador-MSE form).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from importlib import resources

from scipy.special import digamma

from .lattices import LN2, Lattice, log2_ball_volume, packing_density

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


def mse_redundancy_gap(n: int) -> float:
    """Gap between the Shannon and Zador MSE redundancies at dimension n."""
    return 0.5 * math.log2(2.0 * math.pi * math.e / (n + 2)) - log2_ball_volume(n) / n


# -- redundancies of a given normalized entropy -------------------------------


def redundancy_max_error(hbar: float, n: int, r: float) -> float:
    """Per-dimension redundancy of Hbar against the max-error bound at r."""
    return hbar / n + math.log2(r) + log2_ball_volume(n) / n


def shannon_red_mse(hbar: float, n: int, D: float) -> float:
    return hbar / n + 0.5 * math.log2(2.0 * math.pi * math.e * D / n)


def zador_red_mse(hbar: float, n: int, D: float) -> float:
    return hbar / n + 0.5 * math.log2((n + 2) * D / n) + log2_ball_volume(n) / n


# -- lattice quantizer redundancies -------------------------------------------


def lattice_red_max_error(n: int, theta: float) -> float:
    """Max-error redundancy of a lattice with covering density theta."""
    if not theta >= 1:
        raise ValueError("covering density is at least 1")
    return math.log2(theta) / n


def lattice_shannon_red_mse(nsm: float) -> float:
    """Shannon-MSE redundancy of a cell with normalized second moment nsm."""
    return 0.5 * math.log2(2.0 * math.pi * math.e * nsm)


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


def sinc(t: float) -> float:
    """sin(pi t) / (pi t), with sinc(0) = 1."""
    if t == 0.0:
        return 1.0
    return math.sin(math.pi * t) / (math.pi * t)


def ordentlich_ub(n: int) -> float:
    """Existence bound on the Zador-MSE redundancy of some lattice (n >= 8)."""
    if n < 3:
        raise ValueError("needs n >= 3 (quoted for n >= 8)")
    return 0.5 * math.log2((n + 2) / (n * sinc(2.0 / n)))


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


def rsuq_norment_ub(lat: Lattice, r: float, tight: bool = False) -> float:
    """Normalized-entropy bound of the ball-error rejection quantizer.

    The loose form adds log2(e) and holds for every lattice; the tight
    form replaces it with the geometric-excess term of the stopping index
    at the lattice's packing density.
    """
    base = -lat.n * math.log2(r) - log2_ball_volume(lat.n)
    if tight:
        return base + geometric_excess(packing_density(lat))
    return base + LOG2E


def rsuq_red_per_dim(n: int, delta: float | None = None) -> float:
    """Per-dimension redundancy bound: geometric excess at delta, over n.

    With delta omitted this is the lattice-independent log2(e)/n; both the
    max-error and the Zador-MSE redundancy of the ball quantizer equal it.
    """
    if delta is None:
        return LOG2E / n
    return geometric_excess(delta) / n


def universal_bound_terms(n: int, p: float) -> float:
    """Computable part of the universal squared-error rate bound.

    Returns -log2(p) + (n/2) log2(4 pi e G_n(ball)) + log2(e); the caller
    adds the rate-distortion value of its source.  The ball's normalized
    second moment is scale invariant, so no radius enters.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("acceptance probability must lie in (0, 1]")
    c_term = (n / 2.0) * math.log2(4.0 * math.pi * math.e * ball_nsm(n))
    return -math.log2(p) + c_term + LOG2E


def ball_nsm(n: int) -> float:
    """Normalized second moment of the n-ball: 1 / ((n+2) kappa_n^(2/n))."""
    return 2.0 ** (-math.log2(n + 2) - 2.0 * log2_ball_volume(n) / n)


def gaussian_delta_eps(eps: float, sigma_min_eig: float, mean_norm: float) -> float:
    """Smoothness penalty (bits) of a full-rank Gaussian source at scale eps."""
    if eps < 0 or sigma_min_eig <= 0 or mean_norm < 0:
        raise ValueError("need eps >= 0, positive eigenvalue, nonneg mean norm")
    return eps / sigma_min_eig * (mean_norm + eps / 2.0) * LOG2E


def h_inf_bound(f_max: float) -> float:
    """Order-infinity differential entropy: -log2 of the peak density."""
    if not f_max > 0:
        raise ValueError("peak density must be positive")
    return -math.log2(f_max)


def gaussian_h(n: int) -> float:
    """Differential entropy (bits) of the standard n-dim Gaussian."""
    return (n / 2.0) * math.log2(2.0 * math.pi * math.e)


def gaussian_h_inf(n: int) -> float:
    """Order-infinity entropy (bits) of the standard n-dim Gaussian."""
    return (n / 2.0) * math.log2(2.0 * math.pi)


# -- layered entropy of the Gaussian -------------------------------------------


def gaussian_layered_entropy(n: int) -> float:
    """Layered entropy (bits) of the standard n-dimensional Gaussian.

    Expectation of log2(volume of the sqrt(V)-ball) with V chi-square on
    n + 2 degrees of freedom.  With a = n/2, E[ln V] = ln 2 + psi(a + 1),
    so the value is a log2(2 pi) + (a psi(a + 1) - ln Gamma(a + 1)) / ln 2.
    """
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


class ConstantsRegistry:
    """Per-dimension packing/covering densities and second moments."""

    def __init__(self, entries):
        self.entries = {}
        for e in entries:
            self._check(e)
            self.entries[e.n] = e

    @staticmethod
    def _check(e: RegistryEntry):
        if e.delta is not None and not 0.0 < e.delta <= 1.0 + 1e-12:
            raise ValueError(f"n={e.n}: packing density {e.delta} outside (0, 1]")
        if e.theta is not None and e.theta < 1.0 - 1e-12:
            raise ValueError(f"n={e.n}: covering density {e.theta} below 1")
        if e.nsm is not None and e.nsm < ball_nsm(e.n) * (1.0 - 1e-12):
            raise ValueError(f"n={e.n}: second moment {e.nsm} below the ball value")

    def get(self, n: int) -> RegistryEntry | None:
        return self.entries.get(n)

    def dims(self):
        return sorted(self.entries)

    def merge(self, other: "ConstantsRegistry") -> "ConstantsRegistry":
        merged = dict(self.entries)
        merged.update(other.entries)
        return ConstantsRegistry(merged.values())


def parse_registry(text: str) -> ConstantsRegistry:
    """Parse registry CSV: columns n, delta, theta, nsm, source."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ValueError(f"malformed registry CSV: {exc}") from exc
    entries = []
    for row in rows:
        if not row or row[0].strip().startswith("#") or row[0].strip() == "n":
            continue
        row = [c.strip() for c in row]
        if len(row) < 5:
            raise ValueError(f"registry row needs 5 columns: {row}")

        def num(s):
            v = None if s in ("", "-") else float(s)
            if v is not None and not math.isfinite(v):
                raise ValueError(f"registry value {s!r} is not finite")
            return v

        n = int(row[0])
        if not 1 <= n < 2 ** 32:
            raise ValueError(f"registry dimension {n} outside 1..2**32-1")
        entries.append(RegistryEntry(n=n, delta=num(row[1]), theta=num(row[2]),
                                     nsm=num(row[3]), source=row[4]))
    return ConstantsRegistry(entries)


def load_registry(path=None) -> ConstantsRegistry:
    """Shipped analytic registry, optionally merged with a user CSV."""
    text = resources.files("rsuq.data").joinpath("registry.csv").read_text("ascii")
    reg = parse_registry(text)
    if path is not None:
        with open(path, "r", encoding="ascii") as fh:
            reg = reg.merge(parse_registry(fh.read()))
    return reg


# -- report ---------------------------------------------------------------------


@dataclass
class ReportEntry:
    n: int
    quantity: str
    value_bits: float
    equation_tag: str


class BoundsReport:
    """Long-format table of evaluated quantities, keyed by dimension."""

    CSV_HEADER = "n,quantity,value_bits,equation_tag"

    def __init__(self):
        self.rows: list[ReportEntry] = []

    def add(self, n: int, quantity: str, value_bits: float, tag: str):
        self.rows.append(ReportEntry(n, quantity, float(value_bits), tag))

    def value(self, n: int, quantity: str) -> float:
        for row in self.rows:
            if row.n == n and row.quantity == quantity:
                return row.value_bits
        raise KeyError(f"no entry ({n}, {quantity})")

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(f"{r.n},{r.quantity},{r.value_bits:.12g},{r.equation_tag}")
        return "\n".join(lines) + "\n"


def table_layered_gaussian(dims) -> BoundsReport:
    """Layered entropy and the three excess-information columns."""
    rep = BoundsReport()
    for n in dims:
        rep.add(n, "layered_entropy", gaussian_layered_entropy(n), "gaussian-chi2-mixture")
        rep.add(n, "excess_lower", excess_info(n, "lower"), "excess-floor")
        rep.add(n, "excess_lrsuq", excess_info(n, "lrsuq"), "excess-rejection-layered")
        rep.add(n, "excess_lspq", excess_info(n, "lspq"), "excess-shift-periodic")
    return rep


def table_max_error_redundancy(dims, registry: ConstantsRegistry):
    """Max-error redundancy curves plus the dimensions missing from the
    registry; those get only the lattice-independent lines."""
    rep = BoundsReport()
    missing = []
    for n in dims:
        rep.add(n, "rsuq_any_lattice", rsuq_red_per_dim(n), "geometric-excess-cap")
        if n >= 2:
            rep.add(n, "rogers", rogers_bound(n), "covering-existence")
        e = registry.get(n)
        if e is None or (e.theta is None and e.delta is None):
            missing.append(n)
            continue
        if e.theta is not None:
            rep.add(n, "lattice_covering", lattice_red_max_error(n, e.theta),
                    "log-covering-density")
        if e.delta is not None:
            rep.add(n, "rsuq_best_packing", rsuq_red_per_dim(n, e.delta),
                    "geometric-excess")
    return rep, missing


def table_mse_redundancy(dims, registry: ConstantsRegistry):
    """Zador-MSE redundancy curves plus the dimensions missing from the
    registry; those get only the lattice-independent lines."""
    rep = BoundsReport()
    missing = []
    for n in dims:
        rep.add(n, "rsuq_any_lattice", rsuq_red_per_dim(n), "geometric-excess-cap")
        rep.add(n, "zador_ub", zador_ub(n), "quantizer-existence")
        if n >= 8:
            rep.add(n, "ordentlich_ub", ordentlich_ub(n), "lattice-existence")
        e = registry.get(n)
        if e is None or (e.nsm is None and e.delta is None):
            missing.append(n)
            continue
        if e.nsm is not None:
            rep.add(n, "lattice_zador", lattice_zador_red_mse(n, e.nsm), "nsm-zador")
        if e.delta is not None:
            rep.add(n, "rsuq_best_packing", rsuq_red_per_dim(n, e.delta),
                    "geometric-excess")
    return rep, missing

"""Lattice geometry and exact nearest-point (Voronoi) quantization.

Built-in families: the integer lattice Zn (any n), the checkerboard
lattice Dn (n >= 2), the hexagonal lattice A2 and the Gosset lattice E8,
all with closed-form decoders and exact geometric constants.  The Zn, Dn
and E8 decoders (Conway & Sloane 1982) return lattice points in R^n
(`nearest_points`), which the quantizer uses directly; 4 G^-1 and 2 G are
integer matrices there, so coordinates j = (4 G^-1)(2 z) / 8 and
embeddings G j = (2 G) j / 2 are exact int64 products.  User
generator matrices fall back to a search over a box of offsets around the
rounded basis coordinates, the box holding every possible minimizer.  The
search prunes, then rescores: one matrix product per block of rows ranks
all offsets by |G o|^2 - 2 e.G o, with e the row's residual to the rounded
point, and only the offsets within a stated float-error margin of the best
rank are scored with the exact distance formula.  Its cost is one
(rows x offsets x n) product plus exact scores for a few candidates per
row; the box grows exponentially with n, so it gets slow beyond n ~ 10.

Quantizer inputs, in cell units, stay below `Lattice.input_limit` =
min(2**52, 2**53 / max_i sum_k |G^-1_ik|): from 2**52 a float64 no longer
resolves the fraction the search rounds, and the second term keeps every
coordinate below 2**53 (E8: about 2**49.4).

Basis vectors are the *columns* of the generator matrix G, so the lattice
is {G j : j integer vector}.  Voronoi ties are broken toward the
lexicographically smallest integer coordinate vector j; on the boundary
set (measure zero) this is implemented exactly for Zn and by a fixed
deterministic rule for the other decoders.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

LN2 = math.log(2.0)

_BUILTIN_FAMILIES = ("Zn", "Dn", "A2", "E8")

# Sizes above this the generic enumeration decoder refuses to scan.
_MAX_ENUM_CANDIDATES = 4_000_000

# The scan ranks offsets for max(1, _SCAN_BLOCK // offsets) rows at a time,
# which bounds its (rows x offsets) rank matrix near this many entries.
_SCAN_BLOCK = 2 ** 14


def log2_ball_volume(n: int) -> float:
    """log2 of the volume of the unit n-ball, via log-Gamma (no overflow)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return (n / 2.0) * math.log2(math.pi) - math.lgamma(n / 2.0 + 1.0) / LN2


def ball_volume(n: int) -> float:
    """Volume of the unit n-ball."""
    return 2.0 ** log2_ball_volume(n)


@dataclass
class LatticePoint:
    """A lattice point: integer coordinates j and its embedding G j."""

    coords: np.ndarray
    embedding: np.ndarray


class Lattice:
    """Immutable lattice with cached geometric constants.

    Attributes
    ----------
    name : str
    n : int
    G : (n, n) generator matrix, columns are basis vectors
    det : |det G| > 0
    packing_radius : half the minimal nonzero vector norm (searched for if not given)
    covering_radius : optional
    nsm : normalized second moment of the Voronoi cell, where known
    native : True for Zn, Dn and E8, whose decoders return points in R^n
    input_limit : quantizer inputs, in cell units, must stay below this in size
    """

    def __init__(self, name, G, packing_radius=None, covering_radius=None,
                 nsm=None, det=None, family="generic"):
        G = np.array(G, dtype=np.float64)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError("generator matrix must be square")
        if not np.isfinite(G).all():
            raise ValueError("generator matrix entries must be finite")
        n = G.shape[0]
        if det is None:
            det = abs(float(np.linalg.det(G)))
        if not (math.isfinite(det) and det > 0):
            raise ValueError("generator matrix must be full rank with a finite determinant")
        if packing_radius is None:
            packing_radius = 0.5 * _min_nonzero_norm(G)
        for key, value in (("packing_radius", packing_radius),
                           ("covering_radius", covering_radius), ("nsm", nsm)):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be finite and positive, got {value!r}")
        if covering_radius is not None and covering_radius < packing_radius:
            raise ValueError("covering radius cannot be below packing radius")
        self.name = str(name)
        self.n = n
        self.G = G
        self.det = float(det)
        self.packing_radius = float(packing_radius)
        self.covering_radius = None if covering_radius is None else float(covering_radius)
        self.nsm = None if nsm is None else float(nsm)
        self.family = family
        self._invG = np.linalg.inv(G)
        self.input_limit = min(2.0 ** 52, 2.0 ** 53 / float(np.abs(self._invG).sum(axis=1).max()))
        self.native = family in _POINT_DECODERS
        # Exact integer forms of 2 G and 4 G^-1 for the native families.
        self._g2 = np.rint(2.0 * G).astype(np.int64) if self.native else None
        self._inv4 = np.rint(4.0 * self._invG).astype(np.int64) if self.native else None
        # Column/row views used by the fixed-order accumulation loops below.
        self._g_cols = [np.ascontiguousarray(G[:, k]) for k in range(n)]
        self._inv_rows_for_col = [np.ascontiguousarray(self._invG[:, k]) for k in range(n)]
        self._scan_table = None
        self.G.setflags(write=False)
        self._invG.setflags(write=False)

    def __repr__(self):
        return f"Lattice({self.name!r}, n={self.n})"

    # -- embedding / coordinates -------------------------------------------

    def embed_rows(self, J):
        """G j per row: an exact int64 product for integer rows of a native
        lattice, else a column sum in fixed order, so bits do not depend on the batch."""
        J = np.asarray(J)
        if self.native and J.dtype.kind in "iu":
            return (J.astype(np.int64, copy=False) @ self._g2.T) * 0.5
        return _accumulate_columns(J, self._g_cols)

    def coords_rows(self, X):
        return _accumulate_columns(X, self._inv_rows_for_col)

    def point_coords(self, Z):
        """Integer coordinates G^-1 z of the rows of Z, points of a native lattice."""
        return ((2.0 * Z).astype(np.int64) @ self._inv4.T) // 8

    # -- nearest point ------------------------------------------------------

    def nearest_points(self, X):
        """Nearest lattice points of the finite rows of X: embed_rows(nearest_rows(X)) bit for bit."""
        if not self.native:
            return self.embed_rows(self.nearest_rows(X))
        z = _POINT_DECODERS[self.family](X)
        z += 0.0  # ceil gives -0.0 where embed_rows gives +0.0
        return z

    def nearest_rows(self, X):
        """Nearest-point integer coordinates for each row of X."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n:
            raise ValueError(f"expected dimension {self.n}, got {X.shape[1]}")
        check_rows(X)
        if self.native:
            return self.point_coords(self.nearest_points(X))
        if self.family == "A2":
            # |c - j| <= covering_radius / sigma_min(G) < 1 per coordinate, so
            # the four corners of the basis-coordinate cell cover every minimizer.
            return _scan(self, X, np.floor(self.coords_rows(X)).astype(np.int64))
        # Bounded enumeration: the nearest point satisfies |x - G j| <= R,
        # hence |c_i - j_i| <= |row_i(G^-1)| * R in basis coordinates.
        return _scan(self, X, _round_half_down(self.coords_rows(X)))

    def _offset_table(self):
        # The scan's offsets with their embeddings, built once per lattice.
        if self._scan_table is None:
            if self.family == "A2":
                box = ((0, 0), (0, 1), (1, 0), (1, 1))
            else:
                box = _box(self._invG, _covering_radius_bound(self), 0.5,
                           "supply covering_radius in the lattice config or use a built-in family")
            self._scan_table = _ScanTable.build(self.G, list(box))
        return self._scan_table

    # -- sanity -------------------------------------------------------------

    def validate(self):
        """Check the cached constants against their defining inequalities."""
        if self.covering_radius is not None and self.packing_radius > self.covering_radius:
            raise ValueError("packing radius exceeds covering radius")
        dens = packing_density(self)
        if not 0.0 < dens <= 1.0:
            raise ValueError(f"packing density {dens} outside (0, 1]")
        if self.covering_radius is not None and covering_density(self) < 1.0 - 1e-12:
            raise ValueError("covering density below 1")
        return self


def _covering_radius_bound(lat) -> float:
    """Covering radius, or sqrt(n) times the longest basis column if unknown."""
    if lat.covering_radius is not None:
        return lat.covering_radius
    return math.sqrt(lat.n) * max(np.linalg.norm(c) for c in lat._g_cols)


def _accumulate_columns(X, cols):
    # sum_k X[:, k] * cols[k], one column at a time: every row sees the same
    # float operations whatever the batch size, so single-vector and batched
    # paths stay bit-identical.
    X = np.asarray(X, dtype=np.float64)
    out = np.zeros_like(X)
    for k, col in enumerate(cols):
        out += X[:, k : k + 1] * col
    return out


def _box(invG, radius, pad, hint):
    # Offsets |j_i| <= ceil(|row_i(G^-1)| * radius + pad) in lexicographic
    # order; `hint` tells the user how to avoid a box above the cap.
    extent = [np.linalg.norm(row) * radius + pad for row in invG]
    if not all(math.isfinite(h) for h in extent):
        raise ValueError(f"enumeration box is unbounded; {hint}")
    half = [int(math.ceil(h)) for h in extent]
    total = math.prod(2 * h + 1 for h in half)
    if total > _MAX_ENUM_CANDIDATES:
        raise ValueError(f"enumeration would scan {total} candidates; {hint}")
    return itertools.product(*[range(-h, h + 1) for h in half])


class _ScanTable(NamedTuple):
    """Scan offsets O in lexicographic order with their embeddings GO = O G^T."""

    O: np.ndarray
    GOm2: np.ndarray  # -2 GO^T: e @ GOm2 is -2 e.G o for every offset
    GO2: np.ndarray   # |G o|^2
    reach: float      # max_i sum_k |G_ik| max|O_k|: no offset moves a coordinate further

    @classmethod
    def build(cls, G, offsets):
        O = np.array(offsets, dtype=np.int64).reshape(-1, G.shape[0])
        GO = O @ G.T
        return cls(O, -2.0 * GO.T, np.einsum("ij,ij->i", GO, GO),
                   float((np.abs(G) @ np.abs(O).max(axis=0)).max()))


def _scan(lat, X, base):
    # Nearest of the candidates base + o per row, o running over the offset
    # table in lexicographic order; exact ties go to the first offset, which
    # is the lexicographically smallest j.
    #
    # Prune: with e = x - G base, |x - G(base + o)|^2 = |e|^2 + q_o where
    # q_o = |G o|^2 - 2 e.G o, so one matmul ranks every offset of a block
    # of rows.  Rescore: offsets with q_o <= min q + margin get the exact
    # score _sqnorm_rows(x - embed_rows(base + o)); the first smallest wins.
    # Every coordinate in either formula is at most S = |x|_inf +
    # |(|G| |base|)|_inf + reach in size, so in float arithmetic (unit
    # roundoff u = 2^-53) q_o is within 12 n (n+1) u S^2 of d_o - |e|^2 and
    # the exact score within 3 n (n+1) u S^2 of d_o, d_o the true distance.
    # The winner of the full exact scan thus ranks within 30 n (n+1) u S^2
    # of the best q; the margin, 64 n (n+2) u S^2 plus a floor of n 2^-1060
    # for subnormal rounding, is over twice that, so the result equals
    # scoring every offset.  A row whose ranking is not finite (S^2
    # overflows) keeps every offset.
    if not len(X):
        return base
    t, n = lat._offset_table(), lat.n
    e = X - lat.embed_rows(base)
    S = np.abs(X).max(axis=1) + (np.abs(base) @ np.abs(lat.G).T).max(axis=1) + t.reach
    margin = 64.0 * n * (n + 2) * 2.0 ** -53 * S * S + n * 2.0 ** -1060
    step = max(1, _SCAN_BLOCK // len(t.O))
    kept = []
    for lo in range(0, len(X), step):
        q = e[lo : lo + step] @ t.GOm2
        q += t.GO2
        # NaN compares false, so a row without a finite rank keeps every offset
        kept.append(np.flatnonzero(~(q > (q.min(axis=1) + margin[lo : lo + step])[:, None]))
                    + lo * len(t.O))
    r, o = np.divmod(np.concatenate(kept), len(t.O))
    J = base[r] + t.O[o]
    d = _sqnorm_rows(X[r] - lat.embed_rows(J))
    # r is sorted and every row keeps its best-ranked offset, so the runs of
    # equal r start at the same places after a stable sort by (r, d).
    first = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
    return J[np.lexsort((d, r))[first]]


def check_rows(X, limit=math.inf, why="is not finite"):
    """Raise ValueError naming the first row of X with an entry that is NaN or not below `limit` in size."""
    # A NaN fails both comparisons of the fast path too.
    if X.size and X.max() < limit and X.min() > -limit:
        return
    bad = np.flatnonzero(~(np.abs(X) < limit).all(axis=1))
    if bad.size:
        raise ValueError(f"input row {bad[0]} {why}")


def _sqnorm_rows(X):
    # pairwise-accumulated sum of squares: tie comparisons between candidate
    # distances use exact float ordering (no epsilon), so accumulation noise
    # is kept down rather than absorbed by a tolerance
    return (X * X).sum(axis=1)


def _round_half_down(X):
    # Half-integer ties round toward the smaller integer, which realizes the
    # lexicographically-smallest minimizer rule coordinate by coordinate.
    return np.ceil(np.asarray(X) - 0.5).astype(np.int64)


def _nearest_zn_points(X):
    """Nearest integer point of each row; ties go to the smaller integer."""
    return np.ceil(X - 0.5)


def _nearest_dn_points(X):
    """Nearest point of {z integer : sum z even} for each row, in Z^n coords."""
    f = np.ceil(X - 0.5)
    e = X - f
    # an int64 sum: a float sum of n coordinates near the input limit can
    # pass 2**53 and round away the parity
    odd = (f.astype(np.int64).sum(axis=1) & 1) == 1
    rows = np.arange(X.shape[0])
    k = np.argmax(np.abs(e), axis=1)
    step = np.where(e[rows, k] > 0, 1.0, -1.0)
    g = f.copy()
    g[rows, k] += step
    return np.where(odd[:, None], g, f)


def _nearest_e8_points(X):
    """Nearest E8 point via the D8 / D8 + (1/2)^8 coset decomposition."""
    y0 = _nearest_dn_points(X)
    y1 = _nearest_dn_points(X - 0.5) + 0.5
    d0 = _sqnorm_rows(X - y0)
    d1 = _sqnorm_rows(X - y1)
    return np.where((d0 <= d1)[:, None], y0, y1)


# Closed-form decoders that return lattice points in R^n ("native" families).
_POINT_DECODERS = {"Zn": _nearest_zn_points, "Dn": _nearest_dn_points, "E8": _nearest_e8_points}


# -- public operations -------------------------------------------------------


def nearest_point(lat: Lattice, x) -> LatticePoint:
    """Exact nearest lattice point of x, ties to lexicographically least j."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (lat.n,):
        raise ValueError(f"expected vector of dimension {lat.n}, got shape {x.shape}")
    j = lat.nearest_rows(x[None, :])[0]
    return LatticePoint(coords=j, embedding=lat.embed_rows(j[None, :])[0])


def packing_density(lat: Lattice) -> float:
    """Fraction of space filled by disjoint packing balls of radius lambda_min."""
    return _packing_density(lat.n, lat.packing_radius, lat.det)


def builtin_packing_density(name: str, n: int) -> float:
    """Closed-form packing density of a built-in family, without building its G."""
    c = _builtin_constants(name, n)
    return _packing_density(n, c["packing_radius"], c["det"])


def _packing_density(n, packing_radius, det):
    d = 2.0 ** (n * math.log2(packing_radius) + log2_ball_volume(n) - math.log2(det))
    # Absorb log-space rounding only (Z1 reads 1 + 2**-52): validate refuses the rest.
    return 1.0 if 1.0 < d <= 1.0 + 1e-12 else d


def covering_density(lat: Lattice) -> float:
    """Average covering multiplicity of balls with the covering radius."""
    if lat.covering_radius is None:
        raise ValueError(f"lattice {lat.name} has no covering radius recorded")
    return 2.0 ** (lat.n * math.log2(lat.covering_radius)
                   + log2_ball_volume(lat.n) - math.log2(lat.det))


def builtin_lattice(name: str, n: int) -> Lattice:
    """Construct a built-in lattice with exact analytic constants.

    Families: "Zn" (any n >= 1), "Dn" (n >= 2), "A2" (n = 2), "E8" (n = 8).
    """
    constants = _builtin_constants(name, n)
    if name == "Zn":
        G = np.eye(n)
    elif name == "Dn":
        G = np.zeros((n, n))
        for i in range(n - 1):
            G[i, i] = 1.0
            G[i + 1, i] = -1.0
        G[n - 2, n - 1] = 1.0
        G[n - 1, n - 1] = 1.0
    elif name == "A2":
        G = np.array([[1.0, 0.5], [0.0, math.sqrt(3.0) / 2.0]])
    else:
        G = np.zeros((8, 8))
        G[0, 0] = 2.0
        for i in range(1, 7):
            G[i - 1, i] = -1.0
            G[i, i] = 1.0
        G[:, 7] = 0.5
    return Lattice(name, G, family=name, **constants)


def _builtin_constants(name, n):
    # Exact constants of a built-in family; ValueError for an unknown family or dimension.
    if name == "Zn":
        if n < 1:
            raise ValueError("Zn needs n >= 1")
        return dict(packing_radius=0.5, covering_radius=math.sqrt(n) / 2.0,
                    nsm=1.0 / 12.0, det=1.0)
    if name == "Dn":
        if n < 2:
            raise ValueError("Dn needs n >= 2")
        return dict(packing_radius=math.sqrt(2.0) / 2.0,
                    covering_radius=1.0 if n <= 4 else math.sqrt(n) / 2.0,
                    nsm=13.0 / (120.0 * math.sqrt(2.0)) if n == 4 else None, det=2.0)
    if name == "A2":
        if n != 2:
            raise ValueError("A2 is two-dimensional")
        return dict(packing_radius=0.5, covering_radius=1.0 / math.sqrt(3.0),
                    nsm=5.0 / (36.0 * math.sqrt(3.0)), det=math.sqrt(3.0) / 2.0)
    if name == "E8":
        if n != 8:
            raise ValueError("E8 is eight-dimensional")
        return dict(packing_radius=math.sqrt(2.0) / 2.0, covering_radius=1.0,
                    nsm=929.0 / 12960.0, det=1.0)
    raise ValueError(f"unknown lattice family {name!r}; expected one of {_BUILTIN_FAMILIES}")


def lattice_from_config(text: str, name: str = "user") -> Lattice:
    """Parse a user lattice from its text config.

    Format: first line n, then n rows of n reals (row-major G), then
    optional "packing_radius=", "covering_radius=", "nsm=" lines.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty lattice config")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"first config line must be the dimension: {lines[0]!r}") from exc
    if n < 1 or len(lines) < 1 + n:
        raise ValueError("config does not contain a full generator matrix")
    rows = []
    for ln in lines[1 : 1 + n]:
        vals = [float(v) for v in ln.replace(",", " ").split()]
        if len(vals) != n:
            raise ValueError(f"expected {n} entries per generator row, got {len(vals)}")
        rows.append(vals)
    G = np.array(rows, dtype=np.float64)
    opts = {}
    for ln in lines[1 + n :]:
        if "=" not in ln:
            raise ValueError(f"unrecognized config line: {ln!r}")
        key, val = (s.strip() for s in ln.split("=", 1))
        if key not in ("packing_radius", "covering_radius", "nsm"):
            raise ValueError(f"unknown config key: {key!r}")
        opts[key] = float(val)
    lat = Lattice(name, G, packing_radius=opts.get("packing_radius"),
                  covering_radius=opts.get("covering_radius"),
                  nsm=opts.get("nsm"), family="generic").validate()
    # Every generator column is a nonzero lattice vector, so no packing radius
    # exceeds half the shortest one (slack for float noise only).
    if lat.packing_radius > 0.5 * float(np.linalg.norm(G, axis=0).min()) * (1.0 + 1e-12):
        raise ValueError(f"packing_radius {lat.packing_radius!r} exceeds half the "
                         "shortest generator column")
    return lat


def load_lattice(path) -> Lattice:
    """Load a user lattice config file."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    return lattice_from_config(text, name=os.path.basename(str(path)))


def _min_nonzero_norm(G):
    # Shortest-vector search over the box that must contain any vector no
    # longer than the shortest generator column.  Exponential in n.  Each
    # candidate keeps its own G @ j: a batched product can differ in the
    # last bit, and this value fixes gamma for configs without packing_radius.
    s = min(np.linalg.norm(G[:, k]) for k in range(G.shape[0]))
    best = s
    for j in _box(np.linalg.inv(G), s, 0.0, "supply packing_radius"):
        if not any(j):
            continue
        v = G @ np.array(j, dtype=np.float64)
        norm = math.sqrt(float(v @ v))
        if norm < best:
            best = norm
    return best

"""Lattice geometry and exact nearest-point (Voronoi) quantization.

Built-in families: the integer lattice Zn (any n), the checkerboard
lattice Dn (n >= 2), the hexagonal lattice A2 and the Gosset lattice E8,
all with closed-form decoders and exact geometric constants.  The Zn, Dn
and E8 decoders (Conway & Sloane 1982) return lattice points in R^n
(`nearest_points`), which the quantizer uses directly; 4 G^-1 and 2 G are
integer matrices there, so coordinates j = (4 G^-1)(2 z) / 8 and
embeddings G j = (2 G) j / 2 are exact int64 products.  A2 and user bases
go through `_scan`: offsets o around the rounded basis coordinates with
|G o| <= R + rho, R a covering-radius bound (Babai's if none is configured),
rho the largest residual; fcc keeps 55, A2 7, growing exponentially with n.

Quantizer inputs, in cell units, stay below `Lattice.input_limit` =
min(2**52, 2**53 / max_i sum_k |G^-1_ik|): from 2**52 a float64 no longer
resolves the fraction the search rounds, and the second term keeps every
coordinate below 2**53 (E8: about 2**49.4).

Basis vectors are the *columns* of the generator matrix G, so the lattice
is {G j : j integer vector}.  Voronoi ties (a set of measure zero) go to
the lexicographically smallest integer coordinate vector j for Zn, A2 and
user bases.  Dn and E8 follow a fixed rule instead, and since the dither
fold decodes every draw, every dither depends on it bit for bit:
  - each coordinate rounds half down;
  - a row whose rounded sum is odd moves its first coordinate of largest
    |x - f| one step toward x, downward when that residual is 0;
  - E8 takes the D8 point unless its squared distance, summed as the
    pairwise tree ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)), exceeds that of
    the D8 + (1/2)^8 point.
"""

from __future__ import annotations

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

    Refuses a packing density outside (0, 1] and a packing radius above half
    the shortest generator column: the quantizer's ball must fit the cell.

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
        # Huge entries overflow here; the checks below refuse them by name.
        with np.errstate(over="ignore", invalid="ignore"):
            if det is None:
                det = abs(float(np.linalg.det(G)))
            if not (math.isfinite(det) and det > 0):
                raise ValueError("generator matrix must be full rank with a finite determinant")
            if packing_radius is None:
                packing_radius = 0.5 * _min_nonzero_norm(G)
            self._invG = np.linalg.inv(G)
        for key, value in (("packing_radius", packing_radius),
                           ("covering_radius", covering_radius), ("nsm", nsm)):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be finite and positive, got {value!r}")
        if covering_radius is not None and covering_radius < packing_radius:
            raise ValueError("covering radius cannot be below packing radius")
        density = _packing_density(n, packing_radius, det)
        if not 0.0 < density <= 1.0:
            raise ValueError(f"packing density {density} outside (0, 1]")
        # Every generator column is a nonzero lattice vector, so no packing radius
        # exceeds half the shortest one (slack for float noise only).
        with np.errstate(over="ignore"):
            shortest = float(np.linalg.norm(G, axis=0).min())
        if packing_radius > 0.5 * shortest * (1.0 + 1e-12):
            raise ValueError(f"packing_radius {packing_radius!r} exceeds half the "
                             "shortest generator column")
        self.name = str(name)
        self.n = n
        self.G = G
        self.det = float(det)
        self.packing_radius = float(packing_radius)
        self.covering_radius = None if covering_radius is None else float(covering_radius)
        self.nsm = None if nsm is None else float(nsm)
        self.family = family
        self.input_limit = min(2.0 ** 52, 2.0 ** 53 / float(np.abs(self._invG).sum(axis=1).max()))
        self.native = family in _POINT_DECODERS
        # Exact integer forms of 2 G and 4 G^-1 for the native families.
        self._g2 = np.rint(2.0 * G).astype(np.int64) if self.native else None
        self._inv4 = np.rint(4.0 * self._invG).astype(np.int64) if self.native else None
        # Column/row views used by the fixed-order accumulation loops below.
        self._g_cols = [np.ascontiguousarray(G[:, k]) for k in range(n)]
        self._inv_rows_for_col = [np.ascontiguousarray(self._invG[:, k]) for k in range(n)]
        self._scan_tables = {}
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
        return _scan(self, X, _round_half_down(self.coords_rows(X)))

    def _offset_table(self, full=False):
        # The scan's certified offsets (or the whole box), built once per lattice.
        if full not in self._scan_tables:
            self._scan_tables[full] = _ScanTable.build(self, full)
        return self._scan_tables[full]


def _covering_radius_bound(lat, babai=True) -> float:
    """Covering radius, else sqrt(n) max |g_k| or, if smaller and `babai`, Babai's 1/2 |diag R|
    for G = QR, widened for QR's backward error (c n u |g_k| per column, times |G^-1|)."""
    if lat.covering_radius is not None:
        return lat.covering_radius
    with np.errstate(over="ignore"):
        crude = math.sqrt(lat.n) * max(np.linalg.norm(c) for c in lat._g_cols)
    if not babai:
        return crude
    slack = 1.0 + 32.0 * lat.n * 2.0 ** -53 * float(np.linalg.norm(lat.G) * np.linalg.norm(lat._invG))
    return min(crude, 0.5 * float(np.linalg.norm(np.linalg.qr(lat.G, mode="r").diagonal())) * slack)


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
    # The (m, n) offsets |j_i| <= ceil(|row_i(G^-1)| * radius + pad) in
    # lexicographic order; `hint` tells the user how to avoid a box above the cap.
    with np.errstate(over="ignore", invalid="ignore"):
        extent = [np.linalg.norm(row) * radius + pad for row in invG]
    if not all(math.isfinite(h) for h in extent):
        raise ValueError(f"enumeration box is unbounded; {hint}")
    half = np.array([math.ceil(h) for h in extent], dtype=np.int64)
    total = math.prod(2 * int(h) + 1 for h in half)
    if total > _MAX_ENUM_CANDIDATES:
        raise ValueError(f"enumeration would scan {total} candidates; {hint}")
    return np.indices(2 * half + 1).reshape(len(half), -1).T - half


def _margin(n, S):
    # Rank margin (see _scan) for n-dim squared norms of coordinates up to S, plus a subnormal floor.
    return 64.0 * n * (n + 2) * 2.0 ** -53 * S * S + n * 2.0 ** -1060


class _ScanTable(NamedTuple):
    """Scan offsets O in lexicographic order with their embeddings GO = O G^T."""

    O: np.ndarray
    GOm2: np.ndarray  # -2 GO^T: e @ GOm2 is -2 e.G o for every offset
    GO2: np.ndarray   # |G o|^2
    reach: float      # max_i sum_k |G_ik| max|O_k| over the box: no offset moves a coordinate further
    rho: float        # the residual norm |e| the offsets are certified for

    @classmethod
    def build(cls, lat, full):
        # Unless `full`, keep |G o| <= R + rho plus the float error of GO.  rho
        # is max |G d| over the vertices d ~ -d of [-1/2, 1/2]^n (at most 2^12:
        # the box cap keeps n <= 13), widened by 2^-20 for the guard in _scan.
        G, n = lat.G, lat.n
        O = _box(lat._invG, _covering_radius_bound(lat, babai=False), 0.5,
                 "supply covering_radius in the lattice config or use a built-in family")
        GO = O @ G.T
        GO2 = np.einsum("ij,ij->i", GO, GO)
        reach = float((np.abs(G) @ np.abs(O).max(axis=0)).max())
        D = ((np.arange(2 ** (n - 1))[:, None] >> np.arange(n)) & 1) - 0.5
        rho = math.inf if full else float(np.sqrt(_sqnorm_rows(D @ G.T).max())) * (1.0 + 2.0 ** -20)
        limit = _covering_radius_bound(lat) + rho
        keep = np.sqrt(GO2) <= limit + 4.0 * n * (n + 2) * 2.0 ** -53 * (reach + limit)
        return cls(O[keep], -2.0 * GO[keep].T, GO2[keep], reach, rho)


def _scan(lat, X, base):
    # Nearest of the candidates base + o per row, o running over the offset
    # table in lexicographic order; exact ties go to the first offset, which
    # is the lexicographically smallest j.
    #
    # Prune: with e = x - G base, |x - G(base + o)|^2 = |e|^2 + q_o, q_o =
    # |G o|^2 - 2 e.G o, so one matmul ranks every offset of a block of rows.
    # Rescore: offsets with q_o <= min q + margin get the exact score
    # _sqnorm_rows(x - embed_rows(base + o)); the first smallest wins.  Every
    # coordinate in either formula is at most S = |x|_inf + |(|G| |base|)|_inf
    # + reach in size, so (u = 2^-53) q_o is within 12 n (n+1) u S^2 of d_o -
    # |e|^2 and the exact score within 3 n (n+1) u S^2 of d_o, the true
    # distance: the exact winner ranks within 30 n (n+1) u S^2 of the best q,
    # under half of _margin.  A row without a finite rank keeps every offset.
    #
    # Certify: the box holds a j* with |x - G j*| <= R; square roots of exact
    # scores and |e| are within 2 n (n+2) u S of the truth, so the box's
    # winner w has |G(w - base)| <= |e| + R + 8 n (n+2) u S.  If that is at
    # most R + rho for every row, w is in the certified table and wins it.
    if not len(X):
        return base
    t, n = lat._offset_table(), lat.n
    e = X - base @ lat.G.T
    S = np.abs(X).max(axis=1) + (np.abs(base) @ np.abs(lat.G).T).max(axis=1) + t.reach
    if not (np.sqrt(_sqnorm_rows(e)) + 8.0 * n * (n + 2) * 2.0 ** -53 * S <= t.rho).all():
        t = lat._offset_table(full=True)
    step = max(1, _SCAN_BLOCK // len(t.O))
    J = np.empty_like(base)
    for lo in range(0, len(X), step):
        q = e[lo : lo + step] @ t.GOm2
        q += t.GO2
        # NaN compares false, so a row without a finite rank keeps every offset
        keep = np.flatnonzero(~(q > (q.min(axis=1) + _margin(n, S[lo : lo + step]))[:, None]))
        r, o = np.divmod(keep, len(t.O))
        r += lo
        C = base[r] + t.O[o]
        if len(r) == len(q):  # one candidate per row: the winner
            J[lo : lo + step] = C
            continue
        d = _sqnorm_rows(X[r] - lat.embed_rows(C))
        # r is sorted and every row keeps its best-ranked offset, so the runs of
        # equal r start at the same places after a stable sort by (r, d).
        J[lo : lo + step] = C[np.lexsort((d, r))[np.searchsorted(r, np.arange(lo, lo + len(q)))]]
    return J


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
    """Nearest point of {z integer : sum z even} for each row, in Z^n coords.

    Each coordinate rounds half down; a row whose rounded sum is odd then
    moves its first coordinate of largest |x - f| one step toward x,
    downward when that residual is 0.
    """
    f = X - 0.5
    np.ceil(f, out=f)
    # an int64 row sum: a float sum of n coordinates near the input limit can
    # pass 2**53 and round away the parity
    odd = np.flatnonzero((f.astype(np.int64) @ np.ones(X.shape[1], dtype=np.int64)) & 1)
    e = np.take(X, odd, axis=0)
    e -= np.take(f, odd, axis=0)
    k = np.argmax(np.abs(e), axis=1)
    f[odd, k] += np.where(e[np.arange(odd.size), k] > 0, 1.0, -1.0)
    return f


def _coset_sqnorm(D):
    # |d|^2 of 8-column rows as the pairwise tree ((s0+s1)+(s2+s3)) +
    # ((s4+s5)+(s6+s7)), s_i = d_i^2: the order numpy's sum uses for
    # 8 contiguous values, written out so no reduction internals decide it.
    s = D * D
    s = s[..., 0::2] + s[..., 1::2]
    s = s[..., 0::2] + s[..., 1::2]
    return s[..., 0] + s[..., 1]


def _nearest_e8_points(X):
    """Nearest E8 point via the D8 / D8 + (1/2)^8 coset decomposition.

    Both cosets go through one D8 pass over the stacked rows [X; X - 1/2]
    (the Dn tie rule applies to each); the D8 point wins unless its
    distance from x, summed by `_coset_sqnorm`, exceeds the other coset's.
    """
    m = X.shape[0]
    Y = np.empty((2 * m, 8))
    Y[:m] = X
    np.subtract(X, 0.5, out=Y[m:])
    Y = _nearest_dn_points(Y)
    Y[m:] += 0.5
    Y = Y.reshape(2, m, 8)
    d = _coset_sqnorm(X - Y)
    np.copyto(Y[0], Y[1], where=(d[0] > d[1])[:, None])
    return Y[0]


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
    # Absorb log-space rounding only (Z1 reads 1 + 2**-52): Lattice refuses the rest.
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
                  nsm=opts.get("nsm"), family="generic")
    if lat.covering_radius is not None and covering_density(lat) < 1.0 - 1e-12:
        raise ValueError("covering density below 1")
    return lat


def load_lattice(path) -> Lattice:
    """Load a user lattice config file."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    return lattice_from_config(text, name=os.path.basename(str(path)))


def _min_nonzero_norm(G):
    # Shortest-vector search over the box that must contain any vector no
    # longer than the shortest generator column.  Exponential in n.  One
    # product ranks the box by |G j|^2; candidates within _margin of the best
    # rank keep their own G @ j: a batched product can differ in the last
    # bit, and this value fixes gamma for configs without packing_radius.
    s = min(np.linalg.norm(G[:, k]) for k in range(G.shape[0]))
    O = _box(np.linalg.inv(G), s, 0.0, "supply packing_radius")
    rank = _sqnorm_rows(O @ G.T)
    rank[len(O) // 2] = np.inf  # the centre of the box is j = 0
    S = float((np.abs(G) @ np.abs(O).max(axis=0)).max())
    near = O[~(rank > rank.min() + _margin(G.shape[0], S))].astype(np.float64)
    return min([s] + [math.sqrt(float(v @ v)) for v in (G @ j for j in near)])

"""Lattice geometry and exact nearest-point (Voronoi) quantization.

Built-in families: the integer lattice Zn (any n), the checkerboard
lattice Dn (n >= 2), the hexagonal lattice A2 and the Gosset lattice E8,
all with closed-form decoders and exact geometric constants.  The Zn, Dn
and E8 decoders (Conway & Sloane 1982) return lattice points in R^n
(`nearest_points`), which the quantizer uses directly; 4 G^-1 and 2 G are
integer matrices there, so coordinates j = (4 G^-1)(2 z) / 8 and
embeddings G j = (2 G) j / 2 are exact int64 products.  Their squared
distances to the lattice (`sqdist_rows`, one per draw in the quantizer's
screen) are closed forms in the round-half-down residuals r, with no point
built: sum r^2 on Zn, plus 1 - 2 max |r| for an odd rounded sum on Dn,
and on E8 the smaller of the D8 and D8 + (1/2)^8 forms.  They work on
X.T, one row per coordinate, as the quantizer lays out its draws, so each
reduction over a row's coordinates combines whole rows elementwise; the
decoders stay row-major (a coordinate-major E8 one measured slower).  A2
and user bases search through `_scan`: offsets o around the rounded basis
coordinates with |G o| <= R + rho, R a covering-radius bound (Babai's if
none is configured), rho the largest residual; fcc keeps 55, A2 7, growing
exponentially with n.  A row takes its argmin rank's offset unless another
ranks within a float-error margin, when exact distances decide; its squared
distance is |e|^2 plus the least rank.  `nearest_points` trusts its rows to
be finite on every family, as the fold's are; `nearest_rows` checks them.
`Lattice.screen_limits` bounds the rounding between `sqdist_rows` and the
quantizer's exact test, so the rejection loop asks no family question.

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

import functools
import math
import os
import threading
from typing import NamedTuple

import numpy as np

LN2 = math.log(2.0)

_BUILTIN_FAMILIES = ("Zn", "Dn", "A2", "E8")

# Sizes above this the generic enumeration decoder refuses to scan.
_MAX_ENUM_CANDIDATES = 4_000_000

# Relative slack for float noise in every rule on a lattice constant.
_SLACK = 1e-12

_U = 2.0 ** -53  # the unit roundoff u of float64 in every rounding proof
_SUBNORMAL = 2.0 ** -1060  # a floor for subnormal squares
_WIDEN = 2.0 ** -20  # the relative widening of a box's extents and of rho

# The scan ranks offsets for max(1, _SCAN_BLOCK // offsets) rows at a time,
# which bounds its (rows x offsets) rank matrix near this many entries.  Much
# of a block's cost is fixed, so a 512-row fcc call (55 offsets) is one block.
_SCAN_BLOCK = 2 ** 16

# The rejection screen's band is this many units of 2**-53 times the scale
# of `Lattice.screen_limits`; raising it sends more draws to the exact test.
_BAND_ULPS = 64.0

# Held while a scan table is looked up or built.
_TABLE_LOCK = threading.Lock()

# Built-in lattices and parsed configs are kept, least recently used first
# out, up to this many of each: a lattice holds its scan tables, and a
# whole-box table can take tens of MB.
_LATTICE_CACHE = 4


def log2_ball_volume(n: int) -> float:
    """log2 of the volume of the unit n-ball, via log-Gamma (no overflow)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return (n / 2.0) * math.log2(math.pi) - math.lgamma(n / 2.0 + 1.0) / LN2


class Lattice:
    """Immutable lattice with cached geometric constants.

    Refuses a packing density outside (0, 1], a packing radius above half the
    shortest generator column and a covering density below 1: the quantizer's
    ball must fit the cell, and the generic search must cover it.

    `builtin_lattice` and `lattice_from_config` (keyed by the config's text
    and name) build each lattice once per process and return the same shared
    instance, with its scan tables, to every caller; each keeps at most
    `_LATTICE_CACHE` lattices.  Every array a lattice holds is read-only.

    Attributes
    ----------
    name : str
    n : int
    G : (n, n) generator matrix, columns are basis vectors
    det : |det G| > 0, always computed from G
    packing_radius : half the minimal nonzero vector norm (searched for if not given)
    covering_radius : optional
    nsm : normalized second moment of the Voronoi cell, where known
    family : "generic", or the built-in family ("Zn", "Dn", "A2", "E8") whose
        generator matrix G must be; Zn, Dn and E8 select closed-form decoders
    native : True for Zn, Dn and E8, whose decoders return points in R^n
    input_limit : quantizer inputs, in cell units, must stay below this in size
    """

    def __init__(self, name, G, packing_radius=None, covering_radius=None,
                 nsm=None, family="generic"):
        G = np.array(G, dtype=np.float64)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError("generator matrix must be square")
        if not np.isfinite(G).all():
            raise ValueError("generator matrix entries must be finite")
        n = G.shape[0]
        if family != "generic":
            _builtin_constants(family, n)  # ValueError for an unknown family or dimension
            if not np.array_equal(G, _builtin_generator(family, n)):
                raise ValueError(f"family {family!r} needs the built-in generator matrix "
                                 f"of {family} at n = {n}; use family='generic'")
        # Huge entries overflow here; the checks below refuse them by name.
        with np.errstate(over="ignore", invalid="ignore"):
            det = abs(float(np.linalg.det(G)))
            if not (math.isfinite(det) and det > 0):
                raise ValueError("generator matrix must be full rank with a finite determinant")
            self._invG = np.linalg.inv(G)
            shortest = min(np.linalg.norm(G[:, k]) for k in range(n))
        for key, value in (("packing_radius", packing_radius),
                           ("covering_radius", covering_radius), ("nsm", nsm)):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be finite and positive, got {value!r}")
        theta = math.inf if covering_radius is None else _density(n, covering_radius, det)
        if theta < 1.0 - _SLACK:
            raise ValueError(f"covering density {theta} below 1")
        self.name = str(name)
        self.n = n
        self.G = G
        self.covering_radius = None if covering_radius is None else float(covering_radius)
        # The nonzero row spans of G's and G^-1's columns, for _accumulate_columns.
        self._g_spans = _column_spans(G)
        self._inv_spans = _column_spans(self._invG)
        self._scan_tables = {}
        if packing_radius is None:  # a shortest vector is in the certified scan table
            packing_radius = 0.5 * self._offset_table().shortest
        density = _density(n, packing_radius, det)
        if not 0.0 < density <= 1.0:
            raise ValueError(f"packing density {density} outside (0, 1]")
        # Every generator column is a nonzero lattice vector: none is below 2 packing_radius.
        if packing_radius > 0.5 * shortest * (1.0 + _SLACK):
            raise ValueError(f"packing_radius {packing_radius!r} exceeds half the "
                             "shortest generator column")
        self.det = float(det)
        self.packing_radius = float(packing_radius)
        self.nsm = None if nsm is None else float(nsm)
        self.family = family
        self.input_limit = min(2.0 ** 52, 2.0 ** 53 / float(np.abs(self._invG).sum(axis=1).max()))
        self.native = family in _POINT_DECODERS
        # Exact integer forms of 2 G and 4 G^-1 for the native families.
        self._g2 = np.rint(2.0 * G).astype(np.int64) if self.native else None
        self._inv4 = np.rint(4.0 * self._invG).astype(np.int64) if self.native else None
        _freeze(self.G, self._invG, self._g2, self._inv4)

    def __repr__(self):
        return f"Lattice({self.name!r}, n={self.n})"

    # -- embedding / coordinates -------------------------------------------

    def embed_rows(self, J):
        """G j per row: an exact int64 product for integer rows of a native
        lattice, else a column sum in fixed order that skips G's zero entries,
        so bits do not depend on the batch.  For finite rows the skip is exact:
        the sum equals the dense sum_k j_k G[:, k] bit for bit.  A row with a
        NaN or inf stays non-finite but may differ from the dense sum, where
        inf * 0 is NaN."""
        J = np.asarray(J)
        if self.native and J.dtype.kind in "iu":
            return (J.astype(np.int64, copy=False) @ self._g2.T) * 0.5
        return _accumulate_columns(J, self._g_spans)

    def coords_rows(self, X):
        """G^-1 x per row by the same zero-skipping column sum as `embed_rows`,
        with the same caveat for rows holding a NaN or inf."""
        return _accumulate_columns(X, self._inv_spans)

    def point_coords(self, Z):
        """Integer coordinates G^-1 z of the rows of Z, points of a native lattice."""
        return ((2.0 * Z).astype(np.int64) @ self._inv4.T) // 8

    # -- nearest point ------------------------------------------------------

    def nearest_points(self, X):
        """Nearest lattice points of the rows of X, trusted finite and (N, n) on every
        family: embed_rows(nearest_rows(X)) bit for bit; nearest_rows is the checked entry."""
        if not self.native:
            return self.embed_rows(_scan(self, X))
        z = _POINT_DECODERS[self.family](X)
        z += 0.0  # ceil gives -0.0 where embed_rows gives +0.0
        return z

    def sqdist_rows(self, X):
        """Squared distance of each finite row of X to the lattice, to within
        rounding, with no point built: for Zn, Dn and E8 a closed form in the
        residuals of round half down, else |e|^2 + min_o q_o, the smallest of
        `_scan`'s ranks around the base X G^-T (one product) rounded half down.
        The closed forms run fastest on X = Y.T for a C-contiguous (n, rows)
        array Y, and their bits depend neither on the batch nor on the layout."""
        if self.native:
            return _SQDIST[self.family](X)
        d = np.empty(len(X))
        base = _nearest_zn_points(X @ self._invG.T).astype(np.int64)
        for _, rows, q, e2, _ in _ranks(self, X, base):
            # the first minimum's value, NaN for a NaN row: q.min(axis=1), read faster
            d[rows] = e2 + q[np.arange(len(q)), q.argmin(axis=1)]
        return d

    def screen_limits(self, XgT, gamma, r2):
        """Per-row (lo, hi) in cell units for the rejection screen, which accepts
        a draw whose sqdist_rows(p - W), p = x / gamma a column of the (n, N)
        array XgT, is below lo, rejects it above hi and leaves the rest to the
        exact test, |gamma (M + V) - x|^2 <= r2 (gamma and r2 per row)."""
        # With u = 2**-53, |p|_inf <= P, |G u|_inf <= a = max_i sum_k |G_ik|,
        # kappa = a max_i sum_k |G^-1_ik|, R1 one more than the covering-radius
        # bound R and S = P + a + 2 R1, every vector either test is formed from
        # stays below S in size.  Let W be the exact test's G u, a column sum
        # within n u a of G u, and F <= R the distance of p - W, and so of p - V,
        # to the lattice.  The exact error over gamma differs from F by at most
        # 12 n^1.5 kappa u S in norm, and its search may return a point up to
        # tau^2 <= 15 n^1.5 kappa u S R1 farther in squared distance (the scan's
        # rescore; E8's coset comparison is far tighter).  The screened W is one
        # product, also within n u a of G u, and y = fl(p - W) adds u S per
        # coordinate, so the distance of y is within 3 n^1.5 u S of F.  On Zn, Dn
        # and E8 sqdist_rows(y) is that distance squared in closed form, from
        # exact residuals of size <= 1/2, to within (n + 4) u relative: its sums
        # of n nonnegative squares, formed over axis 0 of the coordinate-major
        # residuals in a fixed pairwise order, round by at most (n - 1) u
        # relative in any order, so the bound does not depend on the order or
        # the layout, and each square and the parity step add a few u.  On other
        # bases it is |e|^2 + min_o q_o over the scan's table, certified to hold
        # the nearest point of e = fl(y - G base): e is within 2 n^1.5 kappa u S
        # of a translate of y, the table's G o within 2 n^2 kappa u S of lattice
        # points, and the sums of the ranks near the minimum, over vectors below
        # R1 + 2 rho with rho^2 <= n a^2 / 4 and a <= 2 kappa R1, round by
        # 6 n (n + 2) kappa u S R1.  Neither screen searches, so neither has a
        # tau, and every term is linear in S.  Each |err|^2 sum rounds by (n + 1)
        # u relative.  So the screened sum and the exact one over gamma^2 lie
        # within h (R1 + h) of each other, h = 64 n (n + 2) kappa u S (64 is
        # _BAND_ULPS), plus a floor for subnormal squares of the exact test, and
        # r2 / gamma^2 rounds by 2 u relative.  The bound needs tau below R1,
        # which holds while the band is below R1^2; the screen decides a row only
        # while its band is also below r2 / gamma^2, and a wider band leaves
        # every draw of the row to the exact test.
        n = self.n
        a, kappa, R1 = self._screen_constants
        # A gamma whose square underflows gives an infinite band, or with r2 = 0
        # a NaN limit: the comparison below leaves such rows to the exact test.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            P = np.maximum.reduce(np.abs(XgT), 0)
            h = _BAND_ULPS * _U * n * (n + 2) * kappa * (P + a + 2.0 * R1)
            g2 = np.square(gamma)
            band = h * (R1 + h)
            # The floor, a slow subnormal quotient, can move band only on these rows;
            # elsewhere it is below 2**-60 band.  An underflow or a NaN takes it too.
            low = ~(g2 * band > n * 2.0 ** -1000)
            band[low] += n * _SUBNORMAL / np.broadcast_to(g2, band.shape)[low]
            r2 = r2 / g2
            decides = band < np.minimum(r2, R1 * R1)
        return np.where(decides, r2 - band, -np.inf), np.where(decides, r2 + band, np.inf)

    def nearest_rows(self, X):
        """Nearest-point integer coordinates for each row of X, ties to the
        lexicographically least j; the checked entry."""
        X = as_rows(X, self.n)
        check_rows(X)
        return self.point_coords(self.nearest_points(X)) if self.native else _scan(self, X)

    def nearest_rows_and_points(self, X):
        """(J, M) = (nearest_rows(X), embed_rows(J)) bit for bit, for finite (N, n)
        rows X; on Zn, Dn and E8 the points come first, then their coordinates."""
        if self.native:
            M = self.nearest_points(X)
            return self.point_coords(M), M
        J = self.nearest_rows(X)
        return J, self.embed_rows(J)

    def _offset_table(self, full=False):
        # The scan's certified offsets (or the whole box), built once per
        # lattice, also when callers' threads ask for it at once.
        with _TABLE_LOCK:
            if full not in self._scan_tables:
                self._scan_tables[full] = _ScanTable.build(self, full)
            return self._scan_tables[full]

    @functools.cached_property
    def _screen_constants(self):
        # (a, kappa, R1) of screen_limits, computed on first use
        with np.errstate(over="ignore", invalid="ignore"):
            a = float(np.abs(self.G).sum(axis=1).max())
            kappa = a * float(np.abs(self._invG).sum(axis=1).max())
        return a, kappa, _covering_radius_bound(self) + 1.0


def _covering_radius_bound(lat, babai=True) -> float:
    """Covering radius, else sqrt(n) max |g_k| or, if smaller and `babai`, Babai's 1/2 |diag R|
    for G = QR, widened for QR's backward error (c n u |g_k| per column, times |G^-1|)."""
    if lat.covering_radius is not None:
        return lat.covering_radius
    with np.errstate(over="ignore"):
        crude = math.sqrt(lat.n) * float(np.linalg.norm(lat.G, axis=0).max())
    if not babai:
        return crude
    slack = 1.0 + 32.0 * lat.n * _U * float(np.linalg.norm(lat.G) * np.linalg.norm(lat._invG))
    return min(crude, 0.5 * float(np.linalg.norm(np.linalg.qr(lat.G, mode="r").diagonal())) * slack)


def _freeze(*arrays):
    # Mark arrays read-only: a lattice and its tables are shared by every caller.
    for a in arrays:
        if a is not None:
            a.setflags(write=False)


def _column_spans(A):
    # Per column k of the nonsingular A: (lo, hi, A[lo:hi, k] as a column),
    # [lo, hi) the rows that hold its nonzeros.
    spans = []
    for col in A.T:
        nz = np.flatnonzero(col)
        lo, hi = int(nz[0]), int(nz[-1]) + 1
        span = col[lo:hi, None].copy()
        _freeze(span)
        spans.append((lo, hi, span))
    return spans


def _accumulate_columns(X, spans):
    # sum_k X[:, k] * A[:, k] for k = 0..n-1 in order, on transposed rows and
    # only over each column's nonzero span: every row sees the same float
    # operations whatever the batch size, so single-vector and batched paths
    # stay bit-identical.  For finite X this equals the dense sum bit for bit:
    # a skipped term is an exact +-0, and adding +-0 changes no accumulator,
    # which starts at +0.0 and never becomes -0.0 (x + -x rounds to +0.0).
    # A NaN or inf in X differs, since the dense sum's inf * 0 is NaN.
    XT = np.asarray(X, dtype=np.float64).T
    out = np.zeros(XT.shape)
    for k, (lo, hi, col) in enumerate(spans):
        out[lo:hi] += col * XT[k]
    return np.ascontiguousarray(out.T)


def _box(invG, radius, pad, hint):
    # The (m, n) offsets |j_i| <= ceil(|row_i(G^-1)| * radius + pad) in
    # lexicographic order; `hint` tells the user how to avoid a box above the cap.
    with np.errstate(over="ignore", invalid="ignore"):
        extent = [np.linalg.norm(row) * radius + pad for row in invG]
    if not all(math.isfinite(h) for h in extent):
        raise ValueError(f"enumeration box is unbounded; {hint}")
    total = math.prod(2 * math.ceil(h) + 1 for h in extent)
    if total > _MAX_ENUM_CANDIDATES:
        raise ValueError(f"enumeration would scan {total} candidates; {hint}")
    half = np.array([math.ceil(h) for h in extent], dtype=np.int64)
    return np.indices(2 * half + 1).reshape(len(half), -1).T - half


def _margin(n, S):
    # Rank margin (see _scan) for n-dim squared norms of coordinates up to S, plus a subnormal floor.
    return 64.0 * n * (n + 2) * _U * S * S + n * _SUBNORMAL


class _ScanTable(NamedTuple):
    """Scan offsets O in lexicographic order with their embeddings GO = O G^T; arrays read-only."""

    O: np.ndarray
    GOm2: np.ndarray  # -2 GO^T: e @ GOm2 is -2 e.G o for every offset
    GO2: np.ndarray   # |G o|^2
    reach: float      # max_i sum_k |G_ik| max|O_k| over the box: no offset moves a coordinate further
    rho: float        # the residual norm |e| the offsets are certified for
    # 2 lambda_min, the least |G o| over o != 0: offsets ranked within _margin of it are
    # measured again without BLAS (G o by _accumulate_columns, math.fsum of the squares), so
    # no machine moves its bits.  The whole box holds every |G o| <= sqrt(n) max |g_k|, the
    # certified table every |G o| <= R + rho, both >= lambda_min: rho >= mu >= lambda_min / 2
    # (mu the covering radius; G [-1/2, 1/2]^n lies within rho of 0), and a computed R is at
    # least mu, a supplied one at least the volume radius (covering density >= 1), which is
    # at least lambda_min / 2 as the packing density is at most 1.
    shortest: float

    @classmethod
    def build(cls, lat, full):
        # `full` is the whole box, the fallback.  Else keep |G o| <= R + rho plus the float
        # error of GO, from the box |o_i| <= |row_i(G^-1)| |G o| that holds them, its extents
        # widened for their float error; rho is max |G d| over the vertices d ~ -d of
        # [-1/2, 1/2]^n, widened for the guard in _scan.  Either box holds >= 3^n offsets.
        G, n = lat.G, lat.n
        hint = "use a built-in family or, for n <= 13, supply covering_radius in the config"
        if 3 ** n > _MAX_ENUM_CANDIDATES:
            raise ValueError(f"enumeration would scan at least 3^{n} = {3 ** n} candidates; {hint}")
        # Huge entries overflow here; _box refuses the unbounded box by name.
        with np.errstate(over="ignore", invalid="ignore"):
            if full:
                rho = limit = math.inf
                radius, pad = _covering_radius_bound(lat, babai=False), 0.5
            else:
                D = ((np.arange(2 ** (n - 1))[:, None] >> np.arange(n)) & 1) - 0.5
                rho = float(np.sqrt(_sqnorm_rows(D @ G.T).max())) * (1.0 + _WIDEN)
                limit = _covering_radius_bound(lat) + rho
                radius, pad = limit * (1.0 + _WIDEN), 0.0
            O = _box(lat._invG, radius, pad, hint)
            GO = O @ G.T
            GO2 = np.einsum("ij,ij->i", GO, GO)
            reach = float((np.abs(G) @ np.abs(O).max(axis=0)).max())
            keep = np.sqrt(GO2) <= limit + 4.0 * n * (n + 2) * _U * (reach + limit)
        O, GO, GO2 = O[keep], GO[keep], GO2[keep]
        rank = np.where(O.any(axis=1), GO2, np.inf)
        near = O[~(rank > rank.min() + _margin(n, reach))]
        shortest = min(math.sqrt(math.fsum(v * v)) for v in _accumulate_columns(near, lat._g_spans))
        table = cls(O, -2.0 * GO.T, GO2, reach, rho, shortest)
        _freeze(table.O, table.GOm2, table.GO2)
        return table


def _scan(lat, X):
    # Nearest of the candidates base + o per row, base = G^-1 x rounded half
    # down, o over the offset table in lexicographic order; exact ties go to
    # the first offset, which is the lexicographically smallest j.
    #
    # Scale: with a = max_i sum_k |G_ik| and kappa = a max_i sum_k |G^-1_ik|
    # (Lattice._screen_constants), either caller's base, coords_rows(x) here
    # and x G^-T in sqdist_rows rounded half down, has |base_k| <= |c_k| + 1/2
    # and |c_k| <= (1 + n u) sum_j |G^-1_kj| |x_j| (u = 2^-53), so |G base|
    # and every G base rounded on the way stay below 2 kappa |x|_inf + a.  Every
    # coordinate in q_o and in the exact score _sqnorm_rows(x - embed_rows(base
    # + o)) is then at most S = (1 + 2 kappa) |x|_inf + a + reach in size,
    # reach that of the table the row ranks against: S needs the input alone.
    #
    # Settle: with e = x - G base, |x - G(base + o)|^2 = |e|^2 + q_o, q_o =
    # |G o|^2 - 2 e.G o, so one matmul ranks every offset of a block of rows.
    # q_o is within 12 n (n+1) u S^2 of d_o - |e|^2 and the exact score within
    # 3 n (n+1) u S^2 of d_o, the true distance: the exact winner ranks within
    # 30 n (n+1) u S^2 of the argmin, under half of _margin.  A block whose
    # rows rank no other offset within _margin of their argmin takes the
    # argmins; else those offsets get the exact score, the first smallest
    # winning, and a row with a NaN rank keeps them all.
    #
    # Certify: the box holds a j* with |x - G j*| <= R; square roots of exact
    # scores and |e| are within 2 n (n+2) u S of the truth, so the box's
    # winner w has |G(w - base)| <= |e| + R + 8 n (n+2) u S.  If that is at
    # most R + rho for every row, w is in the certified table and wins it.
    # _ranks tests that once per call, at the largest |e| and S, and row by
    # row only when the call fails it.
    base = _nearest_zn_points(lat.coords_rows(X)).astype(np.int64)
    J = np.empty_like(base)
    for t, rows, q, _, S in _ranks(lat, X, base):
        best = q.argmin(axis=1)
        # NaN compares false: a row with a NaN rank (argmin picks it) keeps every offset
        far = q > (q[np.arange(len(q)), best] + _margin(lat.n, S))[:, None]
        if np.count_nonzero(far) == far.size - len(q):  # each row keeps one offset, its argmin
            J[rows] = base[rows] + t.O[best]
            continue
        r, o = np.divmod(np.flatnonzero(~far), len(t.O))  # r indexes the block's rows
        C = base[rows][r] + t.O[o]
        d = _sqnorm_rows(X[rows][r] - lat.embed_rows(C))
        # r is sorted and every row keeps its best-ranked offset, so the runs of
        # equal r start at the same places after a stable sort by (r, d).
        J[rows] = C[np.lexsort((d, r))[np.searchsorted(r, np.arange(len(q)))]]
    return J


def _ranks(lat, X, base):
    # _scan's prologue, shared with sqdist_rows: yields (t, rows, q, |e|^2, S)
    # for blocks of max(1, _SCAN_BLOCK // offsets) rows, `rows` a slice or
    # index array of X, with e = x - G base, t the table of those rows, q
    # their rank matrix and S their scale (see _scan).  A call whose largest
    # |e| and S pass the certificate ranks every row against the certified
    # table; else each row that fails it ranks against the whole box.
    t, n = lat._offset_table(), lat.n
    a, kappa, _ = lat._screen_constants
    B = base.astype(np.float64)  # the cast each int64-by-float product would make
    e = X - B @ lat.G.T
    e2 = _sqnorm_rows(e)
    P = _row_max(np.abs(X))
    P *= 1.0 + 2.0 * kappa
    S = P + (a + t.reach)
    guard = 8.0 * n * (n + 2) * _U
    # The call's test is the row test at the largest |e|^2 and S, and the row
    # test is monotone in both, so a call that passes it passes every row's; a
    # NaN fails both.  An empty call passes.
    if not len(X) or math.sqrt(e2.max()) + guard * S.max() <= t.rho:
        groups = [(t, None, S)]  # the common case: slices, no gathers
    else:
        certified = np.sqrt(e2) + guard * S <= t.rho
        full = lat._offset_table(full=True)
        groups = [(t, np.flatnonzero(certified), S),
                  (full, np.flatnonzero(~certified), P + (a + full.reach))]
    for t, index, S in groups:
        step = max(1, _SCAN_BLOCK // len(t.O))
        for lo in range(0, len(X) if index is None else len(index), step):
            rows = slice(lo, lo + step) if index is None else index[lo : lo + step]
            q = e[rows] @ t.GOm2
            q += t.GO2
            yield t, rows, q, e2[rows], S[rows]


def _row_max(A):
    # max over each row of A, one np.maximum per column: on rows of a few
    # entries that is several times faster than A.max(axis=1), and as exact.
    out = A[:, 0].copy()
    for k in range(1, A.shape[1]):
        np.maximum(out, A[:, k], out=out)
    return out


def as_rows(X, n):
    """X as float64 rows of shape (N, n); a vector of shape (n,) is one row.
    Else ValueError naming both shapes."""
    X = np.asarray(X, dtype=np.float64)
    rows = np.atleast_2d(X)
    if rows.shape[1:] != (n,):
        raise ValueError(f"expected shape (N, {n}), got {X.shape}")
    return rows


def check_rows(X, limit=math.inf, why="is not finite"):
    """Raise ValueError naming the first row of X with an entry that is NaN or not below `limit` in size."""
    # A NaN fails both comparisons of the fast path too.
    if X.size and X.max() < limit and X.min() > -limit:
        return
    bad = np.flatnonzero(~(np.abs(X) < limit).all(axis=1))
    if bad.size:
        raise ValueError(f"input row {bad[0]} {why}")


def _sqnorm_rows(X):
    # pairwise-accumulated sum of squares: ties between candidate distances compare exact
    # floats (no epsilon), so accumulation noise is kept down rather than absorbed
    return (X * X).sum(axis=1)


def _nearest_zn_points(X):
    """Nearest integer point of each row; ties go to the smaller integer."""
    # Rounding half-integer ties down, ceil(x - 1/2), realizes the
    # lexicographically-smallest minimizer rule coordinate by coordinate.
    f = X - 0.5
    return np.ceil(f, out=f)


def _nearest_dn_points(X):
    """Nearest point of {z integer : sum z even} for each row, in Z^n coords.

    Each coordinate rounds half down; a row whose rounded sum is odd then
    moves its first coordinate of largest |x - f| one step toward x,
    downward when that residual is 0.
    """
    f = _nearest_zn_points(X)
    odd = np.flatnonzero(_odd_sum(f.T))
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


def _odd_sum(F):
    # 1 for each column of the integers F, one row per coordinate, whose sum is odd,
    # else 0.  An int64 sum: a float sum of n coordinates near the input limit can pass
    # 2**53 and round away the parity.  The cast lays F out in C order, which makes the
    # sum add whole rows also for the transposed rows of a decoder.
    return np.add.reduce(F.astype(np.int64, order="C"), 0) & 1


# The squared distances below work on X.T, one row per coordinate; their
# residuals r = x - f to the nearest integers f are exact, since each f is an
# integer within 1/2 of x.


def _sum_of_squares(R):
    # sum over axis 0 of R * R in an order fixed by n alone: the last h rows
    # are added onto the first h, h = floor(rows / 2), until one row is left.
    # einsum adds the rows of a batch in sequence but a single column in SIMD
    # lanes, so its bits would depend on the batch.
    S = R * R
    m = len(S)
    while m > 1:
        h = m // 2
        S[:h] += S[m - h : m]
        m -= h
    return S[0]


def _zn_sqdist(X):
    r = _nearest_zn_points(X.T)
    np.subtract(X.T, r, out=r)
    return _sum_of_squares(r)


def _dn_sqdist(X):
    """Squared distance to Dn: sum r^2 over the rounded residuals, plus, for
    an odd rounded sum, the step of the largest |r|, which turns r^2 into
    (1 - |r|)^2 and so costs 1 - 2 max |r|."""
    r = _nearest_zn_points(X.T)
    odd = _odd_sum(r)
    np.subtract(X.T, r, out=r)
    np.abs(r, out=r)
    d = _sum_of_squares(r)
    d += odd * (1.0 - 2.0 * np.maximum.reduce(r, 0))
    return d


def _e8_sqdist(X):
    """Squared distance to E8: the smaller of the distances to D8, as in
    `_dn_sqdist`, and to D8 + (1/2)^8.  The nearest half-integers are f - 1/2
    where r < 0, else f + 1/2, with residuals 1/2 - |r|; their integer parts
    sum to sum f - #{r < 0}, and an odd sum steps the largest residual,
    1/2 - min |r|, which costs 2 min |r|."""
    r = _nearest_zn_points(X.T)
    odd = _odd_sum(r)
    np.subtract(X.T, r, out=r)
    half_odd = odd ^ np.logical_xor.reduce(r < 0, 0)
    np.abs(r, out=r)
    d = _sum_of_squares(r)
    d += odd * (1.0 - 2.0 * np.maximum.reduce(r, 0))
    step = 2.0 * np.minimum.reduce(r, 0)
    np.subtract(0.5, r, out=r)
    d_half = _sum_of_squares(r)
    d_half += half_odd * step
    return np.minimum(d, d_half, out=d)


# Closed-form decoders that return lattice points in R^n ("native" families),
# and the squared distances to them.
_POINT_DECODERS = {"Zn": _nearest_zn_points, "Dn": _nearest_dn_points, "E8": _nearest_e8_points}
_SQDIST = {"Zn": _zn_sqdist, "Dn": _dn_sqdist, "E8": _e8_sqdist}


# -- public operations -------------------------------------------------------


def packing_density(lat: Lattice) -> float:
    """Fraction of space filled by disjoint packing balls of radius lambda_min."""
    return _density(lat.n, lat.packing_radius, lat.det)


def covering_density(lat: Lattice) -> float:
    """Average covering multiplicity of balls with the covering radius."""
    if lat.covering_radius is None:
        raise ValueError(f"lattice {lat.name} has no covering radius recorded")
    return _density(lat.n, lat.covering_radius, lat.det)


def _density(n, radius, det):
    # Volume of the n-ball of this radius per lattice point, in log space.
    e = n * math.log2(radius) + log2_ball_volume(n) - math.log2(det)
    d = 2.0 ** e if e < 1024 else math.inf  # 2.0 ** e raises OverflowError from 1024
    # Absorb log-space rounding only (Z1 reads 1 + 2**-52): Lattice refuses the rest.
    return 1.0 if 1.0 < d <= 1.0 + _SLACK else d


@functools.lru_cache(maxsize=_LATTICE_CACHE)
def builtin_lattice(name: str, n: int) -> Lattice:
    """The built-in lattice with exact analytic constants, shared per (name, n).

    Families: "Zn" (any n >= 1), "Dn" (n >= 2), "A2" (n = 2), "E8" (n = 8).
    Refuses a closed-form packing density outside (0, 1] (Zn from n = 340, Dn
    from n = 389) before G is built, which at a huge n asks for n^2 floats.
    """
    constants = _builtin_constants(name, n)
    density = _density(n, constants["packing_radius"], constants.pop("det"))
    if not 0.0 < density <= 1.0:
        raise ValueError(f"{name} at n = {n} has packing density {density} outside (0, 1]")
    return Lattice(name, _builtin_generator(name, n), family=name, **constants)


def _builtin_generator(name, n):
    # G of a built-in family at a dimension _builtin_constants accepts.
    if name == "Zn":
        return np.eye(n)
    if name == "A2":
        return np.array([[1.0, 0.5], [0.0, math.sqrt(3.0) / 2.0]])
    G = np.zeros((n, n))
    if name == "Dn":
        for i in range(n - 1):
            G[i, i] = 1.0
            G[i + 1, i] = -1.0
        G[n - 2, n - 1] = 1.0
        G[n - 1, n - 1] = 1.0
    else:
        G[0, 0] = 2.0
        for i in range(1, 7):
            G[i - 1, i] = -1.0
            G[i, i] = 1.0
        G[:, 7] = 0.5
    return G


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


@functools.lru_cache(maxsize=_LATTICE_CACHE)
def lattice_from_config(text: str, name: str = "user") -> Lattice:
    """Parse a user lattice from its text config, shared per (text, name).

    Format: first line n, then n rows of n reals (row-major G), then
    optional "packing_radius=", "covering_radius=", "nsm=" lines.  Blank
    lines and lines whose first non-blank character is "#" are skipped.
    """
    lines = [s for s in (ln.strip() for ln in text.splitlines()) if s and not s.startswith("#")]
    if not lines:
        raise ValueError("empty lattice config")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"first config line must be the dimension: {lines[0]!r}") from exc
    if n < 1 or len(lines) < 1 + n:
        raise ValueError("config does not contain a full generator matrix")
    rows = []
    for i, ln in enumerate(lines[1 : 1 + n]):
        try:
            vals = [float(v) for v in ln.replace(",", " ").split()]
        except ValueError as exc:
            raise ValueError(f"generator row {i} is not numeric: {ln!r}") from exc
        if len(vals) != n:
            raise ValueError(f"expected {n} entries per generator row, got {len(vals)}")
        rows.append(vals)
    opts = {}
    for ln in lines[1 + n :]:
        if "=" not in ln:
            raise ValueError(f"unrecognized config line: {ln!r}")
        key, val = (s.strip() for s in ln.split("=", 1))
        if key not in ("packing_radius", "covering_radius", "nsm"):
            raise ValueError(f"unknown config key: {key!r}")
        if key in opts:
            raise ValueError(f"repeated config key: {key!r}")
        try:
            opts[key] = float(val)
        except ValueError as exc:
            raise ValueError(f"{key} is not numeric: {val!r}") from exc
    return Lattice(name, rows, **opts)


def load_lattice(path) -> Lattice:
    """Load a user lattice config file."""
    with open(path, encoding="ascii") as fh:
        return lattice_from_config(fh.read(), name=os.path.basename(path))


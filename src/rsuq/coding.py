"""Entropy coding of descriptions and the bit-exact container formats.

The stopping index K (geometric) gets the optimal Golomb code: unary
quotient (ones then a zero) followed by a truncated-binary remainder, with
the parameter m chosen by the classic optimality condition
(1-p)^m + (1-p)^(m+1) <= 1 < (1-p)^(m-1) + (1-p)^m.  When m = 2^b, as for
every built-in lattice up to n = 6, A2, E8 and fcc (m = 1, 2, 4 or 8), every
remainder takes b bits: the codec splits K by a shift and a mask and keeps no
short-remainder bookkeeping.  Zn and Dn from n = 7 (m = 18, 3, ...) take the
general path.  Lattice points are coded per coordinate in offset binary with
a shared bound B.

Container "RSQ1": header (magic, version, n, lattice id, scale, parameter,
mode, seed, count, coordinate bound), then per vector Golomb(K) and n
fixed-width coordinates, padded to a byte boundary at stream end only.
The reader finds the records of a window with whole-array operations and
reads their coordinate fields word-major, through an (n, records) index,
into the (count, n) rows it returns.
Vector files use "VQF1": magic, uint32 dim, uint64 count, float64 data,
all little-endian.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .lattices import _BUILTIN_FAMILIES, Lattice, builtin_lattice, packing_density
from .quantizer import description_arrays

MAGIC = b"RSQ1"
VQF_MAGIC = b"VQF1"
VERSION = 1
MODE_BALL = 0
MODE_GAUSSIAN = 1


class FormatError(ValueError):
    """Malformed or truncated coded data."""


# -- Golomb coding -----------------------------------------------------------


def optimal_golomb_parameter(p: float) -> int:
    """Smallest m with (1-p)^m (1 + (1-p)) <= 1, optimal for Geometric(p)."""
    if not 0.0 < p < 1.0:
        if p == 1.0:
            return 1
        raise ValueError("success probability must lie in (0, 1]")
    q = 1.0 - p
    if q == 1.0:
        raise ValueError(f"success probability (packing density) {p:.3g} is too small "
                         "for a Golomb code: 1 - p rounds to 1")
    m = max(1, int(math.ceil(-math.log1p(q) / math.log(q))))
    while q ** m + q ** (m + 1) > 1.0:
        m += 1
    while m > 1 and q ** (m - 1) + q ** m <= 1.0:
        m -= 1
    return m


@dataclass
class GolombCode:
    """Golomb code over k = 1, 2, ... with parameter m.

    Codeword: unary floor((k-1)/m), then the remainder in truncated binary
    so non-power-of-two m stays optimal.
    """

    m: int

    def __post_init__(self):
        try:
            self.m = operator.index(self.m)  # a numpy integer becomes an int
        except TypeError:
            self.m = 0
        if not 1 <= self.m <= 2 ** 56:
            raise ValueError("Golomb parameter must be an integer in [1, 2**56]")
        self._b = (self.m - 1).bit_length()
        self._threshold = (1 << self._b) - self.m

    @classmethod
    def for_geometric(cls, p: float) -> "GolombCode":
        return cls(m=optimal_golomb_parameter(p))

    def fields(self, k):
        """(quotient, remainder field, remainder field width), vectorized over k.

        When m = 2^b every remainder takes b bits, and the width is the
        scalar b; otherwise it is an array like k.
        """
        k1 = np.asarray(k, dtype=np.int64) - 1
        if not self._threshold:
            return k1 >> self._b, k1 & (self.m - 1), self._b
        q, r = np.divmod(k1, self.m)
        short = r < self._threshold
        return q, np.where(short, r, r + self._threshold), self._b - short

    def length(self, k) -> np.ndarray:
        """Codeword lengths in bits, vectorized over k."""
        q, _, width = self.fields(k)
        return q + 1 + width


def golomb_for_lattice(lat: Lattice) -> GolombCode:
    """Code for the stopping index of the inscribed-ball quantizer on lat; the
    one check that lat can be coded.  ValueError names lat and its density."""
    try:
        return GolombCode.for_geometric(packing_density(lat))
    except ValueError as exc:
        raise ValueError(f"{lat.name} at n = {lat.n}: {exc}") from exc


def mean_code_length(lat: Lattice, K, coord_bound: int) -> float:
    """Mean RSQ1 payload bits per vector: Golomb(K) plus n fixed-width coordinates."""
    code = golomb_for_lattice(lat)
    return float(code.length(K).mean()) + lat.n * coord_width_for_bound(coord_bound)


# -- RSQ1 container ----------------------------------------------------------


@dataclass
class StreamHeader:
    """Self-describing stream parameters; all fields little-endian on disk."""

    n: int
    lattice_id: str
    gamma: float
    param: float  # ball radius for MODE_BALL, noise scale for MODE_GAUSSIAN
    mode: int
    seed: int
    count: int
    coord_bound: int


def coord_width_for_bound(bound: int) -> int:
    """Bits per offset-binary coordinate for values in [-bound, bound]."""
    return int(2 * bound).bit_length()


# The fixed fields around the lattice id: magic, version, n and the id's
# length before it; gamma, param, mode, seed, count and the bound after it.
_HEAD = struct.Struct("<4sBIB")
_TAIL = struct.Struct("<ddBQQI")


def write_header(header: StreamHeader) -> bytes:
    try:
        name = header.lattice_id.encode("ascii")
    except UnicodeEncodeError:
        raise ValueError(f"lattice id {header.lattice_id!r} is not ASCII") from None
    if len(name) > 255:
        raise ValueError("lattice id too long")
    if not 0 < header.n < 2 ** 32:
        raise ValueError("dimension must fit an unsigned 32-bit field")
    if not 0 <= header.coord_bound < 2 ** 32:
        raise ValueError("coordinate bound must fit an unsigned 32-bit field")
    if not 0 <= header.seed < 2 ** 64 or not 0 <= header.count < 2 ** 64:
        raise ValueError("seed and count must fit unsigned 64-bit fields")
    return (_HEAD.pack(MAGIC, VERSION, header.n, len(name)) + name
            + _TAIL.pack(header.gamma, header.param, header.mode, header.seed,
                         header.count, header.coord_bound))


def read_header(data: bytes) -> tuple[StreamHeader, int]:
    """Parse a header; returns (header, payload byte offset)."""
    if len(data) < 4 or data[:4] != MAGIC:
        raise FormatError("bad magic; not an RSQ1 stream")
    # A short head unpacks zero-padded: the version is checked once byte 5 is
    # there, n once byte 9 is, in the order of the layout.
    _, version, n, name_len = _HEAD.unpack(bytes(data[:_HEAD.size]).ljust(_HEAD.size, b"\0"))
    if len(data) >= 5 and version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if len(data) >= 9 and n == 0:
        raise FormatError("header dimension must be at least 1, got 0")
    pos = _HEAD.size + name_len
    try:
        name = data[_HEAD.size : pos].decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError("lattice id is not ASCII") from exc
    if len(data) < pos + _TAIL.size or len(name) != name_len:
        raise FormatError("truncated header")
    gamma, param, mode, seed, count, bound = _TAIL.unpack_from(data, pos)
    if mode not in (MODE_BALL, MODE_GAUSSIAN):
        raise FormatError(f"unknown mode {mode}")
    return StreamHeader(n=n, lattice_id=name, gamma=gamma, param=param,
                        mode=mode, seed=seed, count=count, coord_bound=bound), pos + _TAIL.size


def lattice_for_header(header: StreamHeader, lat: Lattice | None = None) -> Lattice:
    """The lattice that codes a stream with this header; FormatError if none can.

    A built-in id (Zn, Dn, A2, E8) is reserved for the built-in lattice of
    that family, since a decoder given no lattice uses it: that lattice is
    returned if it admits a Golomb code, and a supplied `lat` that differs
    from it in family or packing radius (the family fixes G, G the det) is
    refused.  Any other id needs `lat`.  A ball stream's gamma must fit it.
    """
    if lat is not None and lat.n != header.n:
        raise FormatError("supplied lattice dimension does not match stream")
    if header.lattice_id in _BUILTIN_FAMILIES:
        # A supplied lattice of another family is refused before the built-in
        # is built, which at a dimension the family lacks would blame the header.
        if lat is not None and lat.family != header.lattice_id:
            raise _reserved(header, lat)
        try:
            builtin = builtin_lattice(header.lattice_id, header.n)
            golomb_for_lattice(builtin)
        except ValueError as exc:
            raise FormatError(f"header dimension {header.n} does not fit: {exc}") from exc
        if lat is not None and lat.packing_radius != builtin.packing_radius:
            raise _reserved(header, lat)
        lat = builtin
    elif lat is None:
        raise FormatError(f"stream uses non-builtin lattice {header.lattice_id!r}; "
                          "pass its config to decode")
    if header.mode == MODE_BALL and not math.isclose(
            header.gamma, header.param / lat.packing_radius, rel_tol=1e-9):
        raise FormatError(f"stream scale {header.gamma!r} does not match lattice "
                          f"{lat.name!r} at radius {header.param!r}")
    return lat


def _reserved(header, lat):
    return FormatError(f"lattice id {header.lattice_id!r} is reserved for the built-in "
                       f"{header.lattice_id} lattice, which {lat!r} is not")


def _msb_bits(values, width: int) -> np.ndarray:
    """MSB-first bits of non-negative integers below 2**width, in a new last axis."""
    nbytes = (width + 7) // 8
    be = np.asarray(values, dtype=">u8").view(np.uint8).reshape(-1, 8)[:, 8 - nbytes:]
    bits = np.unpackbits(be.ravel()).reshape(*np.shape(values), 8 * nbytes)
    return bits[..., 8 * nbytes - width:]


def _fields_at(words: np.ndarray, pos, width: int) -> np.ndarray:
    """MSB-first `width`-bit fields (width <= 57) at bit positions `pos`.

    words[i] holds buffer bytes i..i+7 as one big-endian integer.
    """
    top = np.take(words, pos >> 3)
    np.left_shift(top, (pos & 7).astype(np.uint8), out=top)
    top >>= 64 - width
    return top.view(np.int64)


def encode_stream(header: StreamHeader, K, J, lat: Lattice | None = None) -> bytes:
    """Header, then per vector Golomb(K) and n offset-binary coordinates; bit-exact.

    K has shape (count,) with integers >= 1, J shape (count, n) with
    integers in [-coord_bound, coord_bound].  The header and `lat` must
    pass `lattice_for_header`.
    """
    lat = lattice_for_header(header, lat)
    code = golomb_for_lattice(lat)
    B, n = header.coord_bound, header.n
    width = coord_width_for_bound(B)
    K, J = description_arrays(K, J, header.count, n)
    outside = (J < -B) | (J > B)
    if outside.any():
        raise ValueError(f"coordinate {J[outside][0]} outside [-B, B] with B={B}")
    q, rem, rwidth = code.fields(K)
    b = code._b
    # A record is q ones, then a tail: the terminating zero, the remainder
    # left-aligned in b bits and the coordinates.  The ones are inserted
    # before each tail.
    tail = np.zeros((len(K), 1 + b + n * width), dtype=np.uint8)
    tail[:, 1 + b:].reshape(len(K), n, width)[...] = _msb_bits(J + B, width)
    if code._threshold:  # a short remainder leaves column b unused
        tail[:, 1:1 + b] = _msb_bits(rem << (b - rwidth), b)
        used = np.ones(tail.shape, dtype=bool)
        used[:, b] = rwidth == b
        tail_len = 1 + rwidth + n * width
        tail, starts = tail[used], np.cumsum(tail_len) - tail_len
    else:  # m = 2^b: every tail is a whole row
        if b:
            tail[:, 1:1 + b] = _msb_bits(rem, b)
        tail, starts = tail.ravel(), np.arange(0, tail.size, tail.shape[1])
    bits = np.insert(tail, np.repeat(starts, q), 1)
    return write_header(header) + np.packbits(bits).tobytes()


# Payload bits in one decoding window, a multiple of 8.  Its chain tables take
# 15-25 bytes per bit, so this bounds the decoder's memory beyond K and J.
_WINDOW_BITS = 1 << 20
# The chain walk visits every 2^_STRIDE_LOG2-th record in Python and fills in
# the records between them with gathers.
_STRIDE_LOG2 = 3
# The largest stopping index K an int64 holds.
_K_MAX = 2 ** 63 - 1


def decode_stream(data: bytes, lat: Lattice | None = None):
    """Parse a stream; returns (header, K array, coords array).

    The payload is read in windows of _WINDOW_BITS bits, so the working
    memory beyond K and J does not grow with the stream.
    """
    header, pos = read_header(data)
    lat = lattice_for_header(header, lat)
    code = golomb_for_lattice(lat)
    B, n, count = header.coord_bound, header.n, header.count
    width = coord_width_for_bound(B)
    # Every Golomb codeword takes at least one bit: bound the count by the
    # payload before allocating for it.
    nbits = 8 * (len(data) - pos)
    if count * (1 + n * width) > nbits:
        raise FormatError(f"header claims {count} vectors but the payload "
                          f"holds only {nbits} bits")
    m, b, thr = code.m, code._b, code._threshold
    payload = np.frombuffer(data, dtype=np.uint8, offset=pos)
    K = np.empty(count, dtype=np.int64)
    J = np.empty((count, n), dtype=np.int64)
    # Each window tables the bits [lo, hi) and opens where the next record
    # starts (lo = start).  If no unary run ends inside it, the window grows
    # by the next _WINDOW_BITS bits (lo = hi) and the record still starts
    # at `start`.
    done = start = lo = 0
    bad_k = bad_coord = False
    while done < count:
        if lo >= nbits:
            raise FormatError("truncated bitstream")
        base = lo & ~7
        hi = min(base + _WINDOW_BITS, nbits)
        # The window's bytes, then room for the tail of a record whose run
        # ends inside it and for the 8-byte words; past the payload, zeros.
        buf = np.zeros((hi - base + b + n * width) // 8 + 10, dtype=np.uint8)
        part = payload[base // 8:base // 8 + len(buf)]
        buf[:len(part)] = part
        words = np.ndarray((len(buf) - 7,), dtype=">u8", buffer=buf,
                           strides=(1,)).astype(np.uint64)
        # Records are chained through the zero bits that end their unary
        # runs: after a run ending at zeros[i], the next record starts at
        # nxt[i] and its run ends at zeros[jump[i]].  Index S is a run that
        # does not end inside the window.  Bit positions count from base.
        is_zero = np.unpackbits(~buf[:(hi - base) // 8]).view(bool)
        is_zero[:lo - base] = False  # the previous record's last bits
        zeros = np.flatnonzero(is_zero).astype(np.int32)
        S = len(zeros)
        if S == 0:
            lo = hi
            continue
        rank = np.empty(len(is_zero) + 1, dtype=np.int32)  # rank[p]: zero bits before p
        rank[0] = 0
        np.cumsum(is_zero, out=rank[1:])
        del is_zero
        nxt = zeros + np.int64(b + 1 + n * width)  # a record's tail may pass 2^31 bits
        if thr:  # int64 positions: np.take gathers several times slower by int32
            nxt -= _fields_at(words, zeros + np.int64(1), b - 1) < thr
        jump = np.empty(S + 1, dtype=np.int32)
        np.take(rank, nxt, out=jump[:-1], mode="clip")  # past the window: no run
        jump[-1] = S
        del nxt, rank
        # The window's first run is zeros[0].  Walk the chain in Python in
        # strides of 2^d records, with jump applied 2^d times (each squaring
        # frees the last), then fill in each stride by gathers from jump.
        # Every index is in [0, S]: "clip" changes no value, but spares the
        # bounds checks and the buffered `out` of numpy's default mode.
        hop = jump
        for _ in range(_STRIDE_LOG2):
            hop = np.take(hop, hop, mode="clip")
        a, anchors = 0, [0]
        for _ in range(-(-(count - done) >> _STRIDE_LOG2) - 1):
            if (a := hop.item(a)) == S:
                break
            anchors.append(a)
        del hop
        chain = np.empty((1 << _STRIDE_LOG2, len(anchors)), dtype=np.int32)
        chain[0] = anchors
        for row in range(1, len(chain)):
            np.take(jump, chain[row - 1], out=chain[row], mode="clip")
        del jump
        t = chain.T.ravel()
        t = t[:min(count - done, np.searchsorted(t, S))]
        z = zeros[t].astype(np.int64)  # each record's zero bit, from base
        del zeros, chain, t
        ends = z + (1 + b + n * width)
        rem = _fields_at(words, z + 1, b) if b else 0
        if thr:  # a short remainder is its first b-1 bits
            short = (rem >> 1) < thr
            ends -= short
            rem = np.where(short, rem >> 1, rem - thr)
        got = slice(done, done + len(z))
        np.subtract(z, np.concatenate([[start - base], ends[:-1]]), out=K[got])
        # K = q m + rem + 1 must stay at most _K_MAX: a longer unary run q
        # would wrap in the multiply below.
        bad_k = bad_k or bool(np.any(K[got] > (_K_MAX - 1 - rem) // m))
        K[got] *= m
        K[got] += rem + 1
        np.subtract(_fields_at(words, width * np.arange(n)[:, None] + (ends - n * width),
                               width).T, B, out=J[got])
        bad_coord = bad_coord or bool(np.any(J[got] > B))
        done += len(z)
        start = lo = base + int(ends[-1])
    if start > nbits:
        raise FormatError("truncated bitstream")
    if bad_k:
        raise FormatError(f"stopping index above 2**63 - 1 with m={m}")
    if bad_coord:
        raise FormatError(f"coordinate offset above 2B with B={B}")
    if nbits - start >= 8:
        raise FormatError("trailing bytes after payload")
    return header, K, J


# -- VQF1 vector files --------------------------------------------------------


def write_vectors(X) -> bytes:
    """Serialize an (N, n) float array as a VQF1 byte string."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.ndim != 2:
        raise ValueError(f"VQF1 holds (N, n) rows, got shape {X.shape}")
    count, dim = X.shape
    if dim < 1:
        raise ValueError("VQF1 dimension must be at least 1, got 0")
    head = VQF_MAGIC + struct.pack("<I", dim) + struct.pack("<Q", count)
    body = X.astype("<f8").tobytes(order="C")
    return head + body


def read_vectors(data: bytes) -> np.ndarray:
    """Parse a VQF1 byte string into an (N, n) float array."""
    if len(data) < 16 or data[:4] != VQF_MAGIC:
        raise FormatError("bad magic; not a VQF1 file")
    (dim,) = struct.unpack_from("<I", data, 4)
    (count,) = struct.unpack_from("<Q", data, 8)
    if dim < 1:
        raise FormatError("VQF1 dimension must be at least 1, got 0")
    need = 16 + 8 * dim * count
    if len(data) != need:
        raise FormatError(f"VQF1 payload size mismatch (expected {need} bytes, got {len(data)})")
    X = np.frombuffer(data, dtype="<f8", offset=16).astype(np.float64)
    return X.reshape(count, dim)

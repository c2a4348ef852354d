"""Entropy coding of descriptions and the bit-exact container formats.

The stopping index K (geometric) gets the optimal Golomb code: unary
quotient (ones then a zero) followed by a truncated-binary remainder, with
the parameter m chosen by the classic optimality condition
(1-p)^m + (1-p)^(m+1) <= 1 < (1-p)^(m-1) + (1-p)^m.  Lattice points are
coded per coordinate in offset binary with a shared bound B.

Container "RSQ1": header (magic, version, n, lattice id, scale, parameter,
mode, seed, count, coordinate bound), then per vector Golomb(K) and n
fixed-width coordinates, padded to a byte boundary at stream end only.
Vector files use "VQF1": magic, uint32 dim, uint64 count, float64 data,
all little-endian.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .lattices import (_BUILTIN_FAMILIES, Lattice, builtin_lattice, builtin_packing_density,
                       packing_density)
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
        if not 1 <= self.m <= 2 ** 56:
            raise ValueError("Golomb parameter must be an integer in [1, 2**56]")
        self._b = (self.m - 1).bit_length()
        self._threshold = (1 << self._b) - self.m

    @classmethod
    def for_geometric(cls, p: float) -> "GolombCode":
        return cls(m=optimal_golomb_parameter(p))

    def fields(self, k):
        """(quotient, remainder field, remainder field width), vectorized over k."""
        q, r = np.divmod(np.asarray(k, dtype=np.int64) - 1, self.m)
        short = r < self._threshold
        return q, np.where(short, r, r + self._threshold), self._b - short

    def length(self, k) -> np.ndarray:
        """Codeword lengths in bits, vectorized over k."""
        q, _, width = self.fields(k)
        return q + 1 + width


def golomb_for_lattice(lat: Lattice) -> GolombCode:
    """Code for the stopping index of the inscribed-ball quantizer on lat."""
    return GolombCode.for_geometric(packing_density(lat))


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
    name = header.lattice_id.encode("ascii")
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
    """Coding lattice (`lat`, else the built-in id); a ball stream's gamma must fit it."""
    if lat is None:
        if header.lattice_id not in _BUILTIN_FAMILIES:
            raise FormatError(f"stream uses non-builtin lattice {header.lattice_id!r}; "
                              "pass its config to decode")
        try:
            density = builtin_packing_density(header.lattice_id, header.n)
        except ValueError as exc:
            raise FormatError(f"header dimension {header.n} does not fit: {exc}") from exc
        # Checked before G is built: a corrupt n would ask for n^2 floats.
        try:
            optimal_golomb_parameter(density)
        except ValueError as exc:
            raise FormatError(f"{header.lattice_id} at n = {header.n} has packing density "
                              f"{density:.3g}: {exc}") from exc
        lat = builtin_lattice(header.lattice_id, header.n)
    elif lat.n != header.n:
        raise FormatError("supplied lattice dimension does not match stream")
    if header.mode == MODE_BALL and not math.isclose(
            header.gamma, header.param / lat.packing_radius, rel_tol=1e-9):
        raise FormatError(f"stream scale {header.gamma!r} does not match lattice "
                          f"{lat.name!r} at radius {header.param!r}")
    return lat


def _msb_bits(values, width: int) -> np.ndarray:
    """MSB-first bits of non-negative integers below 2**width, in a new last axis."""
    nbytes = (width + 7) // 8
    be = np.asarray(values, dtype=">u8").view(np.uint8).reshape(*np.shape(values), 8)
    return np.unpackbits(be[..., 8 - nbytes:], axis=-1)[..., 8 * nbytes - width:]


def _fields_at(words: np.ndarray, pos, width: int) -> np.ndarray:
    """MSB-first `width`-bit fields (width <= 57) at bit positions `pos`.

    words[i] holds payload bytes i..i+7 as one big-endian integer.
    """
    top = np.take(words, pos >> 3)
    np.left_shift(top, (pos & 7).astype(np.uint8), out=top)
    top >>= 64 - width
    return top.view(np.int64)


def encode_stream(header: StreamHeader, K, J, lat: Lattice | None = None) -> bytes:
    """Header, then per vector Golomb(K) and n offset-binary coordinates; bit-exact.

    K has shape (count,) with integers >= 1, J shape (count, n) with
    integers in [-coord_bound, coord_bound].
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
    # left-aligned in b bits (a short one leaves column b unused) and the
    # coordinates.  The ones are inserted before each tail.
    tail = np.zeros((len(K), 1 + b + n * width), dtype=np.uint8)
    tail[:, 1:1 + b] = _msb_bits(rem << (b - rwidth), b)
    tail[:, 1 + b:] = _msb_bits(J + B, width).reshape(len(K), n * width)
    used = np.ones(tail.shape, dtype=bool)
    used[:, b] = rwidth == b
    tail_len = 1 + rwidth + n * width
    bits = np.insert(tail[used], np.repeat(np.cumsum(tail_len) - tail_len, q), 1)
    return write_header(header) + np.packbits(bits).tobytes()


def decode_stream(data: bytes, lat: Lattice | None = None):
    """Parse a stream; returns (header, K array, coords array)."""
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
    dt = np.int32 if nbits < 2 ** 29 else np.int64  # fits a position plus a record length
    # Bytes past the payload read as zero; a record that needs them is truncated.
    buf = np.zeros(nbits // 8 + 16, dtype=np.uint8)
    buf[:nbits // 8] = np.frombuffer(data, dtype=np.uint8, offset=pos)
    words = np.ndarray((nbits // 8 + 9,), dtype=">u8", buffer=buf, strides=(1,)).astype(np.uint64)
    # Records are chained through the zero bits that end their unary runs:
    # after a run ending at zeros[i], the next record starts at nxt[i] and its
    # run ends at zeros[jump[i]].  Index len(zeros) is a run that never ends.
    is_zero = np.unpackbits(buf[:nbits // 8]) == 0
    zeros = np.flatnonzero(is_zero).astype(dt)
    rank = np.empty(nbits + 2, dtype=dt)  # rank[p]: zero bits before p
    rank[0], rank[-1] = 0, len(zeros)
    np.cumsum(is_zero, out=rank[1:-1])
    del is_zero
    nxt = np.empty(len(zeros) + 1, dtype=dt)
    # (n * width exceeds nbits only in a stream of count 0.)
    nxt[:-1] = zeros + (b + 1 + min(n * width, nbits))
    for lo in range(0, len(zeros) if b > 1 else 0, 1 << 20):  # in slices, to bound temporaries
        z = zeros[lo:lo + (1 << 20)]
        nxt[lo:lo + len(z)] -= _fields_at(words, z + 1, b - 1) < thr
    nxt[-1] = nbits + 1
    jump = np.take(rank, nxt, mode="clip")  # past the payload: no run
    del nxt, rank
    # Pointer doubling: t[i] is the run of record i.  After level j, t covers
    # records 0..2^j-1 and jump maps a run to the run 2^j records later.
    t = np.zeros(min(count, 1), dtype=dt)
    while len(t) < count:
        t = np.concatenate([t, np.take(jump, t)])[:count]
        if len(t) < count:
            jump = np.take(jump, jump)
    del jump
    if count and t[-1] == len(zeros):
        raise FormatError("truncated bitstream")
    zs = zeros[t].astype(np.int64)
    rem = _fields_at(words, zs + 1, b)  # a short remainder is its first b-1 bits
    short = (rem >> 1) < thr
    ends = zs + 1 + b - short + n * width
    end = int(ends[-1]) if count else 0
    if end > nbits:
        raise FormatError("truncated bitstream")
    K = (zs - np.concatenate([[0], ends[:-1]])) * m + np.where(short, rem >> 1, rem - thr) + 1
    J = _fields_at(words, (ends - n * width)[:, None] + width * np.arange(n), width) - B
    if np.any(J > B):
        raise FormatError(f"coordinate offset above 2B with B={B}")
    if nbits - end >= 8:
        raise FormatError("trailing bytes after payload")
    return header, K, J


# -- VQF1 vector files --------------------------------------------------------


def write_vectors(X) -> bytes:
    """Serialize an (N, n) float array as a VQF1 byte string."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    count, dim = X.shape
    head = VQF_MAGIC + struct.pack("<I", dim) + struct.pack("<Q", count)
    body = X.astype("<f8").tobytes(order="C")
    return head + body


def read_vectors(data: bytes) -> np.ndarray:
    """Parse a VQF1 byte string into an (N, n) float array."""
    if len(data) < 16 or data[:4] != VQF_MAGIC:
        raise FormatError("bad magic; not a VQF1 file")
    (dim,) = struct.unpack_from("<I", data, 4)
    (count,) = struct.unpack_from("<Q", data, 8)
    need = 16 + 8 * dim * count
    if dim < 1 or len(data) != need:
        raise FormatError(f"VQF1 payload size mismatch (expected {need} bytes, got {len(data)})")
    X = np.frombuffer(data, dtype="<f8", offset=16).astype(np.float64)
    return X.reshape(count, dim)

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

from .lattices import Lattice, builtin_lattice, packing_density

MAGIC = b"RSQ1"
VQF_MAGIC = b"VQF1"
VERSION = 1
MODE_BALL = 0
MODE_GAUSSIAN = 1


class FormatError(ValueError):
    """Malformed or truncated coded data."""


# -- bit I/O -----------------------------------------------------------------


class BitWriter:
    """MSB-first bit accumulator; the final byte is zero-padded."""

    def __init__(self):
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write_bits(self, value: int, width: int):
        if width < 0 or (width < value.bit_length()):
            raise ValueError("value does not fit in width")
        self._acc = (self._acc << width) | value
        self._nbits += width
        while self._nbits >= 8:
            self._nbits -= 8
            self._out.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def write_unary(self, q: int):
        # q ones then a zero
        self.write_bits(((1 << q) - 1) << 1, q + 1)

    def getvalue(self) -> bytes:
        out = bytes(self._out)
        if self._nbits:
            out += bytes([(self._acc << (8 - self._nbits)) & 0xFF])
        return out

    @property
    def bit_length(self) -> int:
        return 8 * len(self._out) + self._nbits


class BitReader:
    """MSB-first bit reader over a bytes payload."""

    def __init__(self, data: bytes, bit_offset: int = 0):
        self._data = data
        self._pos = bit_offset

    def read_bits(self, width: int) -> int:
        end = self._pos + width
        if end > 8 * len(self._data):
            raise FormatError("truncated bitstream")
        val = 0
        pos = self._pos
        while width > 0:
            byte = self._data[pos >> 3]
            avail = 8 - (pos & 7)
            take = min(avail, width)
            shift = avail - take
            val = (val << take) | ((byte >> shift) & ((1 << take) - 1))
            pos += take
            width -= take
        self._pos = pos
        return val

    def read_unary(self) -> int:
        q = 0
        while True:
            if self.read_bits(1) == 0:
                return q
            q += 1

    @property
    def bit_position(self) -> int:
        return self._pos


# -- Golomb coding -----------------------------------------------------------


def optimal_golomb_parameter(p: float) -> int:
    """Smallest m with (1-p)^m (1 + (1-p)) <= 1, optimal for Geometric(p)."""
    if not 0.0 < p < 1.0:
        if p == 1.0:
            return 1
        raise ValueError("success probability must lie in (0, 1]")
    q = 1.0 - p
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
    p: float | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("Golomb parameter must be a positive integer")
        self._b = (self.m - 1).bit_length()
        self._threshold = (1 << self._b) - self.m

    @classmethod
    def for_geometric(cls, p: float) -> "GolombCode":
        return cls(m=optimal_golomb_parameter(p), p=p)

    def write(self, out: BitWriter, k: int):
        k = int(k)
        if k < 1:
            raise ValueError("index must be >= 1")
        q, r = divmod(k - 1, self.m)
        out.write_unary(q)
        if r < self._threshold:
            out.write_bits(r, self._b - 1)
        else:
            out.write_bits(r + self._threshold, self._b)

    def read(self, src: BitReader) -> int:
        q = src.read_unary()
        if self._b == 0:
            return q * self.m + 1
        r = src.read_bits(self._b - 1)
        if r >= self._threshold:
            r = (r << 1) | src.read_bits(1)
            r -= self._threshold
        return q * self.m + r + 1

    def length(self, k) -> np.ndarray:
        """Codeword lengths in bits, vectorized over k."""
        k = np.asarray(k, dtype=np.int64)
        q, r = np.divmod(k - 1, self.m)
        return q + 1 + np.where(r < self._threshold, self._b - 1, self._b)

    def encode(self, k: int) -> str:
        """Codeword as a bit string (diagnostics and tests)."""
        w = BitWriter()
        self.write(w, k)
        bits = w.bit_length
        val = int.from_bytes(w.getvalue(), "big") >> (8 * len(w.getvalue()) - bits)
        return format(val, f"0{bits}b") if bits else ""

    def decode(self, bits: str) -> int:
        if set(bits) - {"0", "1"}:
            raise FormatError("bit string must contain only 0 and 1")
        nbytes = (len(bits) + 7) // 8
        padded = bits + "0" * (8 * nbytes - len(bits))
        data = int(padded, 2).to_bytes(nbytes, "big") if nbytes else b""
        r = BitReader(data)
        k = self.read(r)
        if r.bit_position != len(bits):
            raise FormatError("bit string is not a single codeword")
        return k


def golomb_encode(code: GolombCode, k: int) -> str:
    """Prefix-free codeword for k as a bit string."""
    return code.encode(k)


def golomb_decode(code: GolombCode, bits: str) -> int:
    """Inverse of golomb_encode; raises FormatError on malformed input."""
    return code.decode(bits)


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
    out = bytearray()
    out += MAGIC
    out += struct.pack("<B", VERSION)
    out += struct.pack("<I", header.n)
    out += struct.pack("<B", len(name)) + name
    out += struct.pack("<d", header.gamma)
    out += struct.pack("<d", header.param)
    out += struct.pack("<B", header.mode)
    out += struct.pack("<Q", header.seed)
    out += struct.pack("<Q", header.count)
    out += struct.pack("<I", header.coord_bound)
    return bytes(out)


def read_header(data: bytes) -> tuple[StreamHeader, int]:
    """Parse a header; returns (header, payload byte offset)."""
    if len(data) < 4 or data[:4] != MAGIC:
        raise FormatError("bad magic; not an RSQ1 stream")
    pos = 4
    try:
        (version,) = struct.unpack_from("<B", data, pos); pos += 1
        if version != VERSION:
            raise FormatError(f"unsupported version {version}")
        (n,) = struct.unpack_from("<I", data, pos); pos += 4
        (name_len,) = struct.unpack_from("<B", data, pos); pos += 1
        name = data[pos : pos + name_len].decode("ascii"); pos += name_len
        if len(name) != name_len:
            raise FormatError("truncated header")
        (gamma,) = struct.unpack_from("<d", data, pos); pos += 8
        (param,) = struct.unpack_from("<d", data, pos); pos += 8
        (mode,) = struct.unpack_from("<B", data, pos); pos += 1
        (seed,) = struct.unpack_from("<Q", data, pos); pos += 8
        (count,) = struct.unpack_from("<Q", data, pos); pos += 8
        (bound,) = struct.unpack_from("<I", data, pos); pos += 4
    except struct.error as exc:
        raise FormatError("truncated header") from exc
    except UnicodeDecodeError as exc:
        raise FormatError("lattice id is not ASCII") from exc
    if mode not in (MODE_BALL, MODE_GAUSSIAN):
        raise FormatError(f"unknown mode {mode}")
    return StreamHeader(n=n, lattice_id=name, gamma=gamma, param=param,
                        mode=mode, seed=seed, count=count, coord_bound=bound), pos


def lattice_for_header(header: StreamHeader, lat: Lattice | None = None) -> Lattice:
    """Coding lattice (`lat`, else the built-in id); a ball stream's gamma must fit it."""
    if lat is None:
        try:
            lat = builtin_lattice(header.lattice_id, header.n)
        except ValueError as exc:
            raise FormatError(
                f"stream uses non-builtin lattice {header.lattice_id!r}; "
                "pass its config to decode") from exc
    elif lat.n != header.n:
        raise FormatError("supplied lattice dimension does not match stream")
    if header.mode == MODE_BALL and not math.isclose(
            header.gamma, header.param / lat.packing_radius, rel_tol=1e-9):
        raise FormatError(f"stream scale {header.gamma!r} does not match lattice "
                          f"{lat.name!r} at radius {header.param!r}")
    return lat


def encode_stream(header: StreamHeader, descriptions, lat: Lattice | None = None) -> bytes:
    """Serialize (K, coords) pairs after the header; bit-exact round trip.

    `descriptions` yields (k, coords) with integer coords in
    [-coord_bound, coord_bound].
    """
    lat = lattice_for_header(header, lat)
    code = golomb_for_lattice(lat)
    width = coord_width_for_bound(header.coord_bound)
    w = BitWriter()
    count = 0
    for k, coords in descriptions:
        count += 1
        code.write(w, int(k))
        for c in np.asarray(coords, dtype=np.int64):
            off = int(c) + header.coord_bound
            if off < 0 or off > 2 * header.coord_bound:
                raise ValueError(f"coordinate {int(c)} outside [-B, B] with B={header.coord_bound}")
            w.write_bits(off, width)
    if count != header.count:
        raise ValueError(f"header promises {header.count} vectors, got {count}")
    return write_header(header) + w.getvalue()


def decode_stream(data: bytes, lat: Lattice | None = None):
    """Parse a stream; returns (header, K array, coords array)."""
    header, pos = read_header(data)
    lat = lattice_for_header(header, lat)
    code = golomb_for_lattice(lat)
    width = coord_width_for_bound(header.coord_bound)
    # Every Golomb codeword takes at least one bit: bound the count by the
    # payload before allocating for it.
    payload_bits = 8 * (len(data) - pos)
    if header.count * (1 + header.n * width) > payload_bits:
        raise FormatError(f"header claims {header.count} vectors but the payload "
                          f"holds only {payload_bits} bits")
    r = BitReader(data[pos:])
    K = np.empty(header.count, dtype=np.int64)
    J = np.empty((header.count, header.n), dtype=np.int64)
    for i in range(header.count):
        K[i] = code.read(r)
        for c in range(header.n):
            J[i, c] = r.read_bits(width) - header.coord_bound
    if np.any(J > header.coord_bound):
        raise FormatError(f"coordinate offset above 2B with B={header.coord_bound}")
    tail_bits = 8 * len(data[pos:]) - r.bit_position
    if tail_bits >= 8:
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

"""Scalar reference for the RSQ1 coder, used as a test oracle.

A bit-serial writer and reader, Golomb codewords as bit strings, and a
record-by-record stream encoder and decoder.  The library packs and unpacks
whole arrays at once; these one-bit-at-a-time versions are what its bytes
and its refusals are compared with.  The Golomb code is rebuilt here from m
alone.
"""

import numpy as np

from rsuq.coding import (FormatError, GolombCode, coord_width_for_bound, read_header,
                         write_header)


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


def _remainder_code(code: GolombCode):
    b = (code.m - 1).bit_length()
    return b, (1 << b) - code.m


def write_golomb(code: GolombCode, out: BitWriter, k: int):
    """Unary floor((k-1)/m), then the remainder in truncated binary."""
    k = int(k)
    if k < 1:
        raise ValueError("index must be >= 1")
    b, threshold = _remainder_code(code)
    q, r = divmod(k - 1, code.m)
    out.write_unary(q)
    if r < threshold:
        out.write_bits(r, b - 1)
    else:
        out.write_bits(r + threshold, b)


def read_golomb(code: GolombCode, src: BitReader) -> int:
    b, threshold = _remainder_code(code)
    q = src.read_unary()
    if b == 0:
        return q * code.m + 1
    r = src.read_bits(b - 1)
    if r >= threshold:
        r = (r << 1) | src.read_bits(1)
        r -= threshold
    return q * code.m + r + 1


def golomb_encode(code: GolombCode, k: int) -> str:
    """Prefix-free codeword for k as a bit string."""
    w = BitWriter()
    write_golomb(code, w, k)
    bits = w.bit_length
    val = int.from_bytes(w.getvalue(), "big") >> (8 * len(w.getvalue()) - bits)
    return format(val, f"0{bits}b") if bits else ""


def golomb_decode(code: GolombCode, bits: str) -> int:
    """Inverse of golomb_encode; raises FormatError on malformed input."""
    if set(bits) - {"0", "1"}:
        raise FormatError("bit string must contain only 0 and 1")
    nbytes = (len(bits) + 7) // 8
    padded = bits + "0" * (8 * nbytes - len(bits))
    data = int(padded, 2).to_bytes(nbytes, "big") if nbytes else b""
    r = BitReader(data)
    k = read_golomb(code, r)
    if r.bit_position != len(bits):
        raise FormatError("bit string is not a single codeword")
    return k


def encode_stream_ref(header, K, J, code: GolombCode) -> bytes:
    """RSQ1 stream written one record, and one bit field, at a time."""
    width = coord_width_for_bound(header.coord_bound)
    w = BitWriter()
    for k, coords in zip(K, np.asarray(J, dtype=np.int64).reshape(len(K), header.n)):
        write_golomb(code, w, k)
        for c in coords:
            w.write_bits(int(c) + header.coord_bound, width)
    return write_header(header) + w.getvalue()


def decode_stream_ref(data: bytes, code: GolombCode):
    """RSQ1 stream read one record, and one bit field, at a time.

    Returns (header, K, J), or raises the FormatError the library raises,
    checked in the library's order: the count guard, truncation (of a unary
    run or of a record), a stopping index above 2**63 - 1, a coordinate
    offset above 2B, trailing bytes.
    """
    header, pos = read_header(data)
    B, n, count = header.coord_bound, header.n, header.count
    width = coord_width_for_bound(B)
    nbits = 8 * (len(data) - pos)
    if count * (1 + n * width) > nbits:
        raise FormatError(f"header claims {count} vectors but the payload "
                          f"holds only {nbits} bits")
    r = BitReader(data, 8 * pos)
    K, J = [], []
    for _ in range(count):
        K.append(read_golomb(code, r))
        J.append([r.read_bits(width) - B for _ in range(n)])
    if any(k > 2 ** 63 - 1 for k in K):
        raise FormatError(f"stopping index above 2**63 - 1 with m={code.m}")
    if any(c > B for row in J for c in row):
        raise FormatError(f"coordinate offset above 2B with B={B}")
    if 8 * len(data) - r.bit_position >= 8:
        raise FormatError("trailing bytes after payload")
    return header, np.array(K, dtype=np.int64), np.array(J, dtype=np.int64).reshape(count, n)

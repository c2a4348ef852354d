"""Golomb code optimality/prefix-freeness and container round trips."""

import contextlib
import dataclasses
import io
import itertools
import math
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _golomb_ref import (BitReader, BitWriter, decode_stream_ref, encode_stream_ref,
                         golomb_decode, golomb_encode)
from rsuq import coding
from rsuq.bounds import geometric_entropy
from rsuq.coding import (MAGIC, MODE_BALL, MODE_GAUSSIAN, VERSION, FormatError, GolombCode,
                         StreamHeader, coord_width_for_bound, decode_stream,
                         encode_stream, golomb_for_lattice,
                         optimal_golomb_parameter, read_header, read_vectors,
                         write_header, write_vectors)
from rsuq.dither import stream_uniforms
from rsuq.lattices import builtin_lattice
from rsuq.quantizer import RsuqConfig, encode_batch


def test_unary_example():
    assert golomb_encode(GolombCode(m=1), 3) == "110"


def test_optimal_parameter_examples():
    assert optimal_golomb_parameter(math.pi / 4) == 1
    assert optimal_golomb_parameter(0.5) == 1
    assert optimal_golomb_parameter(0.2) == 3
    assert optimal_golomb_parameter(1.0) == 1
    # the vectorized coder reads a remainder in one 64-bit window
    with pytest.raises(ValueError):
        GolombCode(m=2 ** 56 + 1)
    # optimality condition holds exactly at the returned m
    for p in (0.05, 0.2, 0.37, 0.5, math.pi / 4, 0.99):
        m = optimal_golomb_parameter(p)
        q = 1.0 - p
        assert q ** m + q ** (m + 1) <= 1.0
        if m > 1:
            assert q ** (m - 1) + q ** m > 1.0


def test_golomb_parameter_may_be_any_integral_type():
    # a numpy integer (as an array element reads) codes as the int of equal value
    k = np.arange(1, 40)
    for m in (1, 3, 4, 18):
        want = GolombCode(m).fields(k)
        for typed in (np.int64(m), np.uint8(m), np.int32(m)):
            code = GolombCode(typed)
            assert type(code.m) is int
            got = code.fields(k)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
    for bad in (2.5, "3", None, 0, np.int64(2 ** 56 + 1)):
        with pytest.raises(ValueError, match=re.escape("an integer in [1, 2**56]")):
            GolombCode(bad)


def test_optimal_parameter_rejects_vanishing_success_probability():
    # 1 - p rounds to 1, so no m satisfies the optimality condition
    for p in (1e-300, 2.0 ** -60, 4.6e-17):
        with pytest.raises(ValueError, match="packing density"):
            optimal_golomb_parameter(p)


def test_round_trip_all_small():
    for m in range(1, 17):
        code = GolombCode(m=m)
        for k in range(1, 200):
            bits = golomb_encode(code, k)
            assert golomb_decode(code, bits) == k
            assert len(bits) == int(code.length(k))


def _fields_ref(m, k):
    """(quotient, remainder field, width) of Golomb(m) for one k, in Python ints."""
    b = (m - 1).bit_length()
    threshold = (1 << b) - m
    q, r = divmod(k - 1, m)
    return (q, r, b - 1) if r < threshold else (q, r + threshold, b)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 9, 107, 2 ** 56])
def test_fields_and_length_equal_divmod_reference(m):
    # k = 1..4m+3 where that is small; else the first and last remainders of
    # quotients 0..4 and the short/long edge.  Then large k near 2^63.
    b = (m - 1).bit_length()
    if m <= 1024:
        ks = list(range(1, 4 * m + 4))
    else:
        edge = (1 << b) - m
        ks = [q * m + r + 1 for q in range(5) for r in (0, 1, edge - 1, edge, m - 2, m - 1)
              if 0 <= r < m]
    ks += [2 ** 40 + 3, 2 ** 62 - 1, 2 ** 63 - 1 - m, 2 ** 63 - 1]
    code = GolombCode(m)
    q, rem, width = code.fields(np.array(ks, dtype=np.int64))
    want = np.array([_fields_ref(m, k) for k in ks], dtype=np.int64)
    assert np.array_equal(q, want[:, 0]) and np.array_equal(rem, want[:, 1])
    assert np.array_equal(np.broadcast_to(width, q.shape), want[:, 2])
    # m = 2^b: every remainder is b bits wide, and the width is that scalar
    assert (np.ndim(width) == 0) == (m & (m - 1) == 0)
    assert np.array_equal(code.length(ks), want[:, 0] + 1 + want[:, 2])


def test_prefix_freeness_exhaustive():
    for m in range(1, 17):
        code = GolombCode(m=m)
        words = sorted(golomb_encode(code, k) for k in range(1, 1001))
        for a, b in zip(words, words[1:]):
            assert not b.startswith(a), (m, a, b)


def test_malformed_codeword_rejected():
    code = GolombCode(m=3)
    with pytest.raises(FormatError):
        golomb_decode(code, "111")  # runs past the end
    with pytest.raises(FormatError):
        golomb_decode(code, "0101")  # trailing bits beyond one codeword
    with pytest.raises(FormatError):
        golomb_decode(code, "01x")


def test_mean_length_within_one_bit_of_entropy():
    # 10^6 geometric draws per rate, via the inverse CDF on stream uniforms
    for p in (0.2, 0.5, math.pi / 4):
        code = GolombCode.for_geometric(p)
        u = stream_uniforms([int(p * 1e6)], 0, 10 ** 6)[0]
        k = np.floor(np.log1p(-u) / math.log1p(-p)).astype(np.int64) + 1
        mean_len = float(code.length(k).mean())
        assert mean_len <= geometric_entropy(p) + 1.0


def test_geometric_entropy_value():
    assert geometric_entropy(0.5) == pytest.approx(2.0, abs=1e-12)


def exact_expected_length(m, p, kmax=20000):
    code = GolombCode(m=m)
    ks = np.arange(1, kmax + 1)
    pmf = p * (1.0 - p) ** (ks - 1)
    return float((pmf * code.length(ks)).sum())


@pytest.mark.parametrize("p", [0.05, 0.2, 0.5, math.pi / 4])
def test_optimal_parameter_beats_neighbors(p):
    # the chosen m minimizes the exact expected codeword length
    m = optimal_golomb_parameter(p)
    best = exact_expected_length(m, p)
    if m > 1:
        assert best <= exact_expected_length(m - 1, p) + 1e-12
    assert best <= exact_expected_length(m + 1, p) + 1e-12
    assert best <= geometric_entropy(p) + 1.0


def test_bit_writer_reader_round_trip():
    w = BitWriter()
    w.write_bits(0b1011, 4)
    w.write_unary(3)
    w.write_bits(0, 0)
    w.write_bits(0x5A5, 12)
    data = w.getvalue()
    r = BitReader(data)
    assert r.read_bits(4) == 0b1011
    assert r.read_unary() == 3
    assert r.read_bits(12) == 0x5A5
    with pytest.raises(FormatError):
        BitReader(b"").read_bits(1)


def test_header_round_trip():
    h = StreamHeader(n=4, lattice_id="Dn", gamma=0.70710678, param=0.5,
                     mode=MODE_BALL, seed=123456789, count=42, coord_bound=63)
    data = write_header(h)
    h2, pos = read_header(data)
    assert pos == len(data)
    assert h2 == h


def test_header_errors():
    with pytest.raises(FormatError):
        read_header(b"NOPE" + bytes(30))
    h = StreamHeader(n=2, lattice_id="Zn", gamma=1.0, param=0.5,
                     mode=MODE_BALL, seed=1, count=1, coord_bound=1)
    data = write_header(h)
    with pytest.raises(FormatError):
        read_header(data[:10])


def test_write_header_refuses_fields_past_their_widths():
    # the lattice id's length is one byte, n and the coordinate bound are
    # 32-bit fields: the widest values are written and read back, one more
    # is refused by name
    h = StreamHeader(n=2 ** 32 - 1, lattice_id="x" * 255, gamma=1.0, param=0.5,
                     mode=MODE_BALL, seed=1, count=1, coord_bound=2 ** 32 - 1)
    assert read_header(write_header(h))[0] == h
    for change, why in ((dict(lattice_id="x" * 256), "lattice id too long"),
                        (dict(n=2 ** 32), "dimension must fit an unsigned 32-bit field"),
                        (dict(coord_bound=2 ** 32),
                         "coordinate bound must fit an unsigned 32-bit field")):
        with pytest.raises(ValueError, match=why):
            write_header(dataclasses.replace(h, **change))


def test_container_hand_assembled_payload():
    # one vector, K=1, M=(0,0), B=7 -> bits "0" + "0111" + "0111", zero-padded
    h = StreamHeader(n=2, lattice_id="Zn", gamma=1.0, param=0.5, mode=MODE_BALL,
                     seed=3, count=1, coord_bound=7)
    blob = encode_stream(h, [1], [[0, 0]])
    _, pos = read_header(blob)
    bits = "".join(format(b, "08b") for b in blob[pos:])
    assert bits.startswith("0" + "0111" + "0111")
    assert len(blob) - pos == 2  # 9 bits padded to 2 bytes


def test_container_empty_stream():
    h = StreamHeader(n=2, lattice_id="Zn", gamma=1.0, param=0.5, mode=MODE_BALL,
                     seed=3, count=0, coord_bound=0)
    blob = encode_stream(h, [], np.zeros((0, 2), dtype=np.int64))
    h2, K, J = decode_stream(blob)
    assert h2.count == 0 and K.size == 0 and J.shape == (0, 2)


def test_container_random_round_trip():
    rng = np.random.default_rng(17)
    K = rng.geometric(0.6, size=1000)
    J = rng.integers(-55, 56, size=(1000, 2))
    h = StreamHeader(n=2, lattice_id="Zn", gamma=1.0, param=0.5, mode=MODE_BALL,
                     seed=3, count=1000, coord_bound=int(np.abs(J).max()))
    blob = encode_stream(h, K, J)
    h2, K2, J2 = decode_stream(blob)
    assert np.array_equal(K, K2)
    assert np.array_equal(J, J2)
    # byte determinism
    assert blob == encode_stream(h, K, J)


def test_container_gaussian_mode_uses_lattice_code():
    h = StreamHeader(n=2, lattice_id="A2", gamma=1.0, param=1.0,
                     mode=MODE_GAUSSIAN, seed=9, count=2, coord_bound=3)
    blob = encode_stream(h, [2, 1], [[1, -3], [0, 2]])
    h2, K2, J2 = decode_stream(blob)
    assert K2.tolist() == [2, 1]
    assert J2.tolist() == [[1, -3], [0, 2]]


def test_container_coordinate_bound_enforced():
    h = StreamHeader(n=2, lattice_id="Zn", gamma=1.0, param=0.5, mode=MODE_BALL,
                     seed=3, count=1, coord_bound=2)
    with pytest.raises(ValueError):
        encode_stream(h, [1], [[3, 0]])


def test_container_truncation_detected():
    rng = np.random.default_rng(19)
    K = rng.geometric(0.6, size=50)
    J = rng.integers(-9, 10, size=(50, 2))
    h = StreamHeader(n=2, lattice_id="Zn", gamma=1.0, param=0.5, mode=MODE_BALL,
                     seed=3, count=50, coord_bound=9)
    blob = encode_stream(h, K, J)
    with pytest.raises(FormatError):
        decode_stream(blob[:-3])


def test_container_nonbuiltin_lattice_requires_config():
    h = StreamHeader(n=2, lattice_id="custom.lat", gamma=1.0, param=0.5,
                     mode=MODE_BALL, seed=3, count=0, coord_bound=0)
    with pytest.raises(FormatError):
        encode_stream(h, [], np.zeros((0, 2), dtype=np.int64))
    lat = builtin_lattice("A2", 2)
    blob = encode_stream(h, [], np.zeros((0, 2), dtype=np.int64), lat=lat)
    h2, K, J = decode_stream(blob, lat=lat)
    assert h2.lattice_id == "custom.lat"


def test_coord_width():
    assert coord_width_for_bound(0) == 0
    assert coord_width_for_bound(1) == 2
    assert coord_width_for_bound(7) == 4
    assert coord_width_for_bound(8) == 5


def test_vqf_round_trip_and_errors():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(37, 5))
    data = write_vectors(X)
    assert np.array_equal(read_vectors(data), X)
    assert np.array_equal(read_vectors(write_vectors(np.zeros((0, 3)))),
                          np.zeros((0, 3)))
    with pytest.raises(FormatError):
        read_vectors(data[:-1])
    with pytest.raises(FormatError):
        read_vectors(b"WHAT" + data[4:])
    # dimension 0 was written, then refused on reading as a "payload size
    # mismatch (expected 16 bytes, got 16)"
    for X in (np.zeros(0), np.zeros((3, 0))):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            write_vectors(X)
    with pytest.raises(FormatError, match="^VQF1 dimension must be at least 1, got 0$"):
        read_vectors(b"VQF1" + struct.pack("<IQ", 0, 3))


def test_write_vectors_refuses_a_third_axis():
    with pytest.raises(ValueError, match=re.escape("VQF1 holds (N, n) rows, got shape (2, 2, 2)")):
        write_vectors(np.zeros((2, 2, 2)))


def _ball_header(lat, **fields):
    # gamma exactly as the encoder writes it: radius / packing radius
    return StreamHeader(n=lat.n, lattice_id=lat.name, gamma=0.5 / lat.packing_radius,
                        param=0.5, mode=MODE_BALL, **fields)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(
    st.binary(max_size=40),
    st.builds(lambda dim, count, body: b"VQF1" + struct.pack("<IQ", dim, count) + body,
              st.one_of(st.integers(0, 3), st.integers(0, 2 ** 32 - 1)),
              st.one_of(st.integers(0, 3), st.integers(0, 2 ** 64 - 1)),
              st.binary(max_size=72))))
def test_fuzz_read_vectors(data):
    # untrusted VQF1 bytes may fail only with FormatError (a ValueError)
    try:
        X = read_vectors(data)
    except FormatError:
        return
    assert X.dtype == np.float64 and X.ndim == 2 and X.shape[1] >= 1
    assert write_vectors(X) == data


def test_ball_stream_scale_must_match_lattice():
    from rsuq.lattices import lattice_from_config

    fcc = lattice_from_config("3\n1 1 0\n1 0 1\n0 1 1\n", name="fcc")
    cube = lattice_from_config("3\n1 0 0\n0 1 0\n0 0 1\n", name="fcc")
    blob = encode_stream(_ball_header(fcc, seed=1, count=1, coord_bound=1),
                         [1], [[1, 0, -1]], lat=fcc)
    assert decode_stream(blob, lat=fcc)[2].tolist() == [[1, 0, -1]]
    with pytest.raises(FormatError, match="does not match"):
        decode_stream(blob, lat=cube)
    # a last-bit difference in gamma (another BLAS deriving the radius) still decodes
    nudged = _ball_header(fcc, seed=1, count=1, coord_bound=1)
    nudged.gamma = math.nextafter(nudged.gamma, 2.0)
    assert decode_stream(write_header(nudged) + blob[len(write_header(nudged)):],
                         lat=fcc)[2].tolist() == [[1, 0, -1]]
    # the encoder refuses the same mismatch before writing a byte
    with pytest.raises(FormatError, match="does not match"):
        encode_stream(_ball_header(fcc, seed=1, count=0, coord_bound=0), [],
                      np.zeros((0, 3), dtype=np.int64), lat=cube)
    # Gaussian-mode streams carry no scale to check
    h = StreamHeader(n=3, lattice_id="fcc", gamma=1.0, param=1.0,
                     mode=MODE_GAUSSIAN, seed=1, count=0, coord_bound=0)
    decode_stream(encode_stream(h, [], np.zeros((0, 3), dtype=np.int64), lat=fcc), lat=cube)


def test_coordinate_offset_above_2b_rejected():
    # B=7: K=1 ("0"), then offsets 15 (coordinate 8) and 7 (coordinate 0)
    h = StreamHeader(n=2, lattice_id="Zn", gamma=1.0, param=0.5, mode=MODE_BALL,
                     seed=3, count=1, coord_bound=7)
    bits = "0" + "1111" + "0111"
    payload = int(bits + "0" * 7, 2).to_bytes(2, "big")
    with pytest.raises(FormatError, match="above 2B"):
        decode_stream(write_header(h) + payload)


def _hand_built_header(version=1, n=2, name=b"Zn", mode=MODE_BALL):
    return (b"RSQ1" + struct.pack("<BIB", version, n, len(name)) + name
            + struct.pack("<ddBQQI", 1.0, 0.5, mode, 3, 1, 1))


# read_header's message at every cut point of each 49-byte header, as runs of
# (message, cut points), recorded from the field-by-field parser.
_CUT_MESSAGES = {
    "non-ascii": (_hand_built_header(name=b"Z\xff"), [
        ("bad magic; not an RSQ1 stream", 4), ("truncated header", 8),
        ("lattice id is not ASCII", 38)]),
    "version-2": (_hand_built_header(version=2), [
        ("bad magic; not an RSQ1 stream", 4), ("truncated header", 1),
        ("unsupported version 2", 45)]),
    "n-0": (_hand_built_header(n=0), [
        ("bad magic; not an RSQ1 stream", 4), ("truncated header", 5),
        ("header dimension must be at least 1, got 0", 41)]),
    "mode-9": (_hand_built_header(mode=9), [
        ("bad magic; not an RSQ1 stream", 4), ("truncated header", 45), ("unknown mode 9", 1)]),
    "valid": (_hand_built_header(), [
        ("bad magic; not an RSQ1 stream", 4), ("truncated header", 45), ("ok", 1)]),
}


@pytest.mark.parametrize("case", sorted(_CUT_MESSAGES))
def test_read_header_message_at_every_cut_point(case):
    blob, runs = _CUT_MESSAGES[case]
    got = []
    for cut in range(len(blob) + 1):
        try:
            read_header(blob[:cut])
            got.append("ok")
        except FormatError as exc:
            got.append(str(exc))
    assert [(msg, len(list(g))) for msg, g in itertools.groupby(got)] == runs


def test_non_ascii_lattice_id_is_a_format_error():
    data = bytearray(write_header(StreamHeader(n=2, lattice_id="Zn", gamma=1.0, param=0.5,
                                               mode=MODE_BALL, seed=3, count=0,
                                               coord_bound=0)))
    data[10] = 0xFF  # first byte of the lattice id
    with pytest.raises(FormatError, match="ASCII"):
        read_header(bytes(data))


@pytest.mark.parametrize("name,n", [("Zn", 34), ("Zn", 2 ** 24), ("Dn", 43),
                                    ("Dn", 2 ** 32 - 1)])
def test_undecodable_dimension_is_a_format_error(name, n):
    # 1 - packing density rounds to 1 from Zn34 and Dn43 on; the header is
    # refused before an n x n generator is built (2^24 asked for 2 PiB)
    h = StreamHeader(n=n, lattice_id=name, gamma=1.0, param=0.5, mode=MODE_GAUSSIAN,
                     seed=0, count=0, coord_bound=0)
    with pytest.raises(FormatError, match="packing density"):
        decode_stream(write_header(h))


def test_largest_decodable_dimensions_still_decode():
    for name, n in (("Zn", 33), ("Dn", 42)):
        h = StreamHeader(n=n, lattice_id=name, gamma=1.0, param=0.5, mode=MODE_GAUSSIAN,
                         seed=0, count=0, coord_bound=0)
        assert decode_stream(write_header(h))[0] == h


@settings(derandomize=True, deadline=None, max_examples=300)
@given(n=st.one_of(st.integers(0, 48), st.integers(0, 2 ** 32 - 1)),
       name=st.sampled_from(["Zn", "Dn", "A2", "E8", "", "fcc"]),
       gamma=st.floats(), param=st.floats(), mode=st.integers(0, 255),
       seed=st.integers(0, 2 ** 64 - 1),
       count=st.one_of(st.integers(0, 8), st.integers(0, 2 ** 64 - 1)),
       bound=st.one_of(st.integers(0, 8), st.integers(0, 2 ** 32 - 1)),
       payload=st.binary(max_size=24), cut=st.integers(0, 80))
def test_fuzz_header_fields(n, name, gamma, param, mode, seed, count, bound, payload, cut):
    # every header field is untrusted: decoding fails only with ValueError
    # (FormatError is one), whatever the fields or where the stream is cut
    blob = (MAGIC + struct.pack("<BIB", VERSION, n, len(name)) + name.encode("ascii")
            + struct.pack("<ddBQQI", gamma, param, mode, seed, count, bound) + payload)
    for data in (blob, blob[:cut]):
        try:
            decode_stream(data)
        except ValueError:
            pass


# Golomb parameters m = 1, 2, 4, 8, 2, 3, 5, 9 in turn.
ROUND_TRIP_LATTICES = [builtin_lattice("Zn", n) for n in (2, 5, 6)] + [
    builtin_lattice("E8", 8)] + [builtin_lattice("Dn", n) for n in range(6, 10)]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_container_round_trip_property(data):
    lat = data.draw(st.sampled_from(ROUND_TRIP_LATTICES))
    bound = data.draw(st.integers(0, 300))
    count = data.draw(st.integers(0, 12))
    K = data.draw(st.lists(st.integers(1, 200), min_size=count, max_size=count))
    J = data.draw(st.lists(st.lists(st.integers(-bound, bound), min_size=lat.n,
                                    max_size=lat.n), min_size=count, max_size=count))
    h = _ball_header(lat, seed=5, count=count, coord_bound=bound)
    h2, K2, J2 = decode_stream(encode_stream(h, K, np.reshape(J, (count, lat.n))))
    assert h2 == h
    assert K2.tolist() == K and J2.reshape(count, lat.n).tolist() == J


# Window sizes the stream fuzzers decode at: the library's, and a few dozen
# bits so that a 48-byte payload spans many windows.
FUZZ_WINDOWS = [coding._WINDOW_BITS, 24]


def _decodes_like_the_reference(blob):
    """At every window size, decode_stream refuses what the bit-serial reader
    refuses, with its message, and otherwise returns its K and J, in range."""
    header = read_header(blob)[0]
    code = golomb_for_lattice(builtin_lattice(header.lattice_id, header.n))
    try:
        want = decode_stream_ref(blob, code)
    except FormatError as exc:
        want = exc
    for window in FUZZ_WINDOWS:
        with mock.patch.object(coding, "_WINDOW_BITS", window):
            if isinstance(want, FormatError):
                with pytest.raises(FormatError) as refused:
                    decode_stream(blob)
                assert str(refused.value) == str(want)
                continue
            header, K, J = decode_stream(blob)
        assert np.array_equal(K, want[1]) and np.array_equal(J, want[2])
        assert np.all(K >= 1)
        assert np.all(np.abs(J) <= header.coord_bound)


# Golomb parameters m = 1, 4 and 8 (every remainder b bits wide) and 3.
FUZZ_LATTICES = [builtin_lattice("Zn", n) for n in (2, 5, 6)] + [builtin_lattice("Dn", 7)]
_FUZZ_HEADER = st.builds(lambda lat, count, bound: _ball_header(lat, seed=7, count=count,
                                                                coord_bound=bound),
                         st.sampled_from(FUZZ_LATTICES), st.integers(0, 16), st.integers(0, 20))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_FUZZ_HEADER, st.binary(max_size=48))
def test_fuzz_random_payload(header, payload):
    _decodes_like_the_reference(write_header(header) + payload)


def _valid_stream(header, data):
    B, n = header.coord_bound, header.n
    K = data.draw(st.lists(st.integers(1, 40), min_size=header.count, max_size=header.count))
    J = data.draw(st.lists(st.integers(-B, B), min_size=n * header.count,
                           max_size=n * header.count))
    return encode_stream(header, K, np.reshape(J, (header.count, n)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_FUZZ_HEADER, st.data())
def test_fuzz_truncated_payload(header, data):
    blob = _valid_stream(header, data)
    cut = data.draw(st.integers(len(write_header(header)), len(blob)))
    _decodes_like_the_reference(blob[:cut])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_FUZZ_HEADER.filter(lambda h: h.count > 0), st.data())
def test_fuzz_one_bit_flipped(header, data):
    blob = bytearray(_valid_stream(header, data))
    start = len(write_header(header))
    bit = data.draw(st.integers(8 * start, 8 * len(blob) - 1))
    blob[bit >> 3] ^= 0x80 >> (bit & 7)
    _decodes_like_the_reference(bytes(blob))


# -- golden bytes ---------------------------------------------------------------
#
# SHA-256 of whole RSQ1 streams (header and payload).  The descriptions are
# plain integer arithmetic, so the bytes depend only on the coder.  The
# lattices give Golomb m = 1 (Zn2, A2, Dn4), 2 (E8, Dn6), 3 (Dn7), 4 (Zn5),
# 5 (Dn8), 8 (Zn6) and 9 (Dn9); K runs over 1..23, so where m is not a power
# of two every remainder is written at both the b-1 and the b bit width.


def _golden_stream(family, n, count, bound, mode=MODE_BALL, K=None):
    lat = builtin_lattice(family, n)
    i = np.arange(count)
    if K is None:
        K = 1 + (7 * i + i // 3) % 23
    cols = np.arange(lat.n)
    J = (5 * i[:, None] + 3 * cols + i[:, None] * cols) % (2 * bound + 1) - bound
    if mode == MODE_BALL:
        h = _ball_header(lat, seed=11, count=count, coord_bound=bound)
    else:
        h = StreamHeader(n=lat.n, lattice_id=lat.name, gamma=1.0, param=1.0,
                         mode=mode, seed=11, count=count, coord_bound=bound)
    return encode_stream(h, K, J, lat=lat)


GOLDEN_STREAMS = {
    "Zn2": (("Zn", 2, 40, 1), {}),
    "A2": (("A2", 2, 40, 7), {}),
    "Dn4": (("Dn", 4, 40, 8), {}),
    "E8": (("E8", 8, 40, 300), {}),
    "Dn6": (("Dn", 6, 40, 5), {}),
    "Dn7": (("Dn", 7, 40, 63), {}),
    "Dn8": (("Dn", 8, 40, 64), {}),
    "Dn9": (("Dn", 9, 40, 2 ** 20), {}),
    "Zn5": (("Zn", 5, 40, 9), {}),
    "Zn6": (("Zn", 6, 40, 3), {}),
    "count0": (("Dn", 8, 0, 0), {}),
    "B0": (("Zn", 3, 17, 0), {}),
    "K200": (("Zn", 2, 3, 3), {"K": [200, 1, 200]}),
    "gaussian-Dn7": (("Dn", 7, 25, 6), {"mode": MODE_GAUSSIAN}),
}

GOLDEN_SHA256 = {
    "A2": "5711a5c2d31afc48bbad1603b3ab37f9e633e33c1c68ccd6b506056a20c3b7ea",
    "B0": "795217f6950002d44b9c62e1c511bd53f8606b56d833f293833cd6445ce2798e",
    "Dn4": "9f2f36baa3415051e535fa97281163b8593eab661e11b67282031a0c2df372d2",
    "Dn6": "6aa1fd8bc3608fbe5a8a0cc150ff1d7a1f56e41dc49615c2839534ad901ee00b",
    "Dn7": "8dc6778d05baf730c5fd7e78501a055bc536afee4ed87034936a72009d68440e",
    "Dn8": "0517829c6dd190621127767ef7a5e49e24917bf65cfb358ace37b47d7ef17260",
    "Dn9": "cc65b44e169d368e55167aa5d1af7a5560c4d6a3321a48e60898f1515fbcfcd4",
    "E8": "834898f8ebf322162cf380d6ed56b72e2163e3bff0df426b4df14c26d2452f83",
    "K200": "7c5ac3760d970f83de21b19b0dd4f5da9b42065cba8d9b865127ba9fee70f93c",
    "Zn2": "9ac2059fce97c03c2ba1a665ddbd6a2a976b73fd0cf85db4c59d2310088c6bae",
    "Zn5": "cbf783dd8a28dbc305bae70371ad74df916fdc11e1d15352e667f5a54573ab16",
    "Zn6": "1de6d2000339ed11bee37e06b1feafc3f2e4edbfb79fb1bbf811c5db6e8b32f6",
    "count0": "f517a11ec9411be9b749564b8b21a17fae6dab8f142bb455e4d40c261737c9ed",
    "gaussian-Dn7": "7346cee2cee015d5975f120772b0ef32ef924a1768628365e09e620f240c735c",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STREAMS))
def test_golden_stream_bytes(name):
    import hashlib

    args, kwargs = GOLDEN_STREAMS[name]
    blob = _golden_stream(*args, **kwargs)
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256[name]
    h, K, J = decode_stream(blob)
    assert h.count == len(K) == len(J) == args[2]


# -- vectorized coder against the scalar reference ---------------------------------


@contextlib.contextmanager
def _cube_for_golomb(m, n):
    """Z^n, whose stopping-index code is Golomb(m) while the block runs.

    No lattice may claim a packing radius above its true one, so the codec's
    packing density is patched to one whose optimal parameter is m.
    """
    grid = [p for p in np.linspace(0.999, 0.01, 990) if optimal_golomb_parameter(p) == m]
    with mock.patch("rsuq.coding.packing_density", lambda lat: grid[len(grid) // 2]):
        yield builtin_lattice("Zn", n)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.data())
def test_stream_bytes_equal_scalar_reference(data):
    m, n = data.draw(st.integers(1, 16)), data.draw(st.integers(1, 9))
    bound = data.draw(st.sampled_from([0, 1, 7, 2 ** 20]))
    count = data.draw(st.sampled_from([0, 1, 2, 3, 5, 63, 64, 65]))
    K = data.draw(st.lists(st.integers(1, 300), min_size=count, max_size=count))
    J = np.reshape(data.draw(st.lists(st.integers(-bound, bound), min_size=count * n,
                                      max_size=count * n)), (count, n))
    with _cube_for_golomb(m, n) as lat:
        code = golomb_for_lattice(lat)
        assert code.m == m
        h = _ball_header(lat, seed=5, count=count, coord_bound=bound)
        blob = encode_stream(h, K, J, lat=lat)
        assert blob == encode_stream_ref(h, K, J, code)
        h2, K2, J2 = decode_stream(blob, lat=lat)
    assert h2 == h and K2.tolist() == K and np.array_equal(J2, J)


# An offset-binary coordinate is never 1 bit wide (2B is even), so width 1 is
# pinned by the remainder field of Golomb(2); every other width is both a
# coordinate and a remainder width here.
@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 16, 17, 32, 33])
def test_stream_bytes_equal_scalar_reference_at_byte_edges(width):
    m = max(1, (1 << width) - 1)  # remainder fields of width-1 and width bits
    bound = ((1 << width) - 1) // 2
    rng = np.random.default_rng(width)
    K = rng.integers(1, 3 * m + 1, size=9)
    J = rng.integers(-bound, bound + 1, size=(9, 3))
    J[0], J[1] = -bound, bound
    lat = builtin_lattice("Zn", 3)
    h = _ball_header(lat, seed=5, count=9, coord_bound=bound)
    with mock.patch("rsuq.coding.golomb_for_lattice", lambda lat: GolombCode(m)):
        blob = encode_stream(h, K, J, lat=lat)
        assert blob == encode_stream_ref(h, K, J, GolombCode(m))
        _, K2, J2 = decode_stream(blob, lat=lat)
    assert coord_width_for_bound(bound) == (width if width != 1 else 0)
    assert np.array_equal(K2, K) and np.array_equal(J2, J)


# Window sizes (bits) the windowed reader is run at against the bit-serial one:
# shorter and longer than one record, and the library's own.
SMALL_WINDOWS = [8, 16, 24, 32, 40, 64]


@pytest.mark.parametrize("m", [1, 2, 3, 5, 9])
@pytest.mark.parametrize("bound", [0, 2 ** 32 - 1])  # coordinate widths 0 and 33
@pytest.mark.parametrize("count", [0, 1, 2, 37])
def test_windowed_decode_equals_scalar_reference(m, bound, count):
    # Records of a few bits (width 0) or of 100 bits and more (width 33) put
    # the window edges inside records at many offsets; one unary run of 199
    # ones spans several windows.
    rng = np.random.default_rng(1000 * m + count)
    K = rng.integers(1, 3 * m + 1, size=count)
    K[count // 2:count // 2 + 1] = 200 * m
    J = rng.integers(-bound, bound + 1, size=(count, 3))
    with _cube_for_golomb(m, 3) as lat:
        code = golomb_for_lattice(lat)
        h = _ball_header(lat, seed=5, count=count, coord_bound=bound)
        blob = encode_stream(h, K, J, lat=lat)
        _, K_ref, J_ref = decode_stream_ref(blob, code)
        assert np.array_equal(K_ref, K) and np.array_equal(J_ref, J)
        for window in SMALL_WINDOWS + [coding._WINDOW_BITS]:
            with mock.patch.object(coding, "_WINDOW_BITS", window):
                h2, K2, J2 = decode_stream(blob, lat=lat)
            assert h2 == h and np.array_equal(K2, K) and np.array_equal(J2, J), window
            assert J2.dtype == np.int64 and J2.flags.c_contiguous, window
            # a cut stream is refused as the scalar reader refuses it
            for cut in (len(blob) - 1, len(blob) - 9):
                if cut < len(write_header(h)) or count == 0:
                    continue
                with pytest.raises(FormatError, match="truncated bitstream"):
                    decode_stream_ref(blob[:cut], code)
                with mock.patch.object(coding, "_WINDOW_BITS", window), \
                        pytest.raises(FormatError, match="truncated bitstream"):
                    decode_stream(blob[:cut], lat=lat)


def _zn33_stream(q):
    # One Zn, n = 33 record (Golomb m = 3121657384082678, remainders of 51
    # or 52 bits) at bound 0: q ones, the zero, then the 52-bit field of the
    # largest remainder, m - 1
    lat = builtin_lattice("Zn", 33)
    w = BitWriter()
    w.write_unary(q)
    w.write_bits(2 ** 52 - 1, 52)
    return write_header(_ball_header(lat, seed=0, count=1, coord_bound=0)) + w.getvalue()


@pytest.mark.parametrize("q", [2954, 6000])
def test_stopping_index_past_int64_is_refused(tmp_path, q):
    # K = (q + 1) m reads 9.22e18 at q = 2954, just past 2**63 - 1, and 1.87e19
    # at q = 6000: an int64 K would wrap, negative or to a plausible 2.86e17
    from rsuq.cli import main

    code = golomb_for_lattice(builtin_lattice("Zn", 33))
    assert code.m * 2954 < 2 ** 63 - 1 < code.m * 2955
    blob = _zn33_stream(q)
    with pytest.raises(FormatError, match=r"stopping index above 2\*\*63 - 1") as want:
        decode_stream_ref(blob, code)
    for window in FUZZ_WINDOWS:
        with mock.patch.object(coding, "_WINDOW_BITS", window), \
                pytest.raises(FormatError) as got:
            decode_stream(blob)
        assert str(got.value) == str(want.value)
    # the same record cut inside its remainder is truncated, to both readers
    for cut in (blob[:-1], blob[:-5]):
        for decode in (lambda b: decode_stream_ref(b, code), decode_stream):
            with pytest.raises(FormatError, match="truncated bitstream"):
                decode(cut)
    path = tmp_path / "k.rsq"
    path.write_bytes(blob)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["decode", "--input", str(path), "--output", str(tmp_path / "k.vqf")]) == 2
    assert "stopping index above" in err.getvalue()
    assert not (tmp_path / "k.vqf").exists()


@pytest.fixture(scope="module")
def z2_stream_200k():
    """200,000 N(0, 1) vectors coded on Z2 at r = 0.05 (about 382 KB)."""
    lat = builtin_lattice("Zn", 2)
    cfg = RsuqConfig(lat, r=0.05, seed=1)
    K, J, _ = encode_batch(cfg, np.random.default_rng(1).normal(size=(200_000, 2)))
    h = StreamHeader(n=2, lattice_id="Zn", gamma=cfg.gamma, param=0.05, mode=MODE_BALL,
                     seed=1, count=len(K), coord_bound=int(np.abs(J).max()))
    return encode_stream(h, K, J, lat=lat), K, J


@pytest.mark.parametrize("window", [1 << 16, coding._WINDOW_BITS])
def test_decode_memory_is_bounded_by_the_window(z2_stream_200k, window):
    blob, K, J = z2_stream_200k
    assert 8 * len(blob) > 2 * window  # the stream spans several windows
    with mock.patch.object(coding, "_WINDOW_BITS", window):
        tracemalloc.start()
        try:
            _, K2, J2 = decode_stream(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert np.array_equal(K2, K) and np.array_equal(J2, J)
    # The chain tables take 15-25 bytes per window bit.
    assert peak <= K2.nbytes + J2.nbytes + 32 * window


def test_non_integer_descriptions_rejected():
    h = StreamHeader(n=2, lattice_id="Zn", gamma=1.0, param=0.5, mode=MODE_BALL,
                     seed=3, count=1, coord_bound=3)
    with pytest.raises(ValueError, match="integers"):
        encode_stream(h, [2.7], [[1, -2]])
    with pytest.raises(ValueError, match="integers"):
        encode_stream(h, [2], [[1.9, -2.6]])
    with pytest.raises(ValueError, match="integers"):
        encode_stream(h, [np.nan], [[1, -2]])
    with pytest.raises(ValueError, match=">= 1"):
        encode_stream(h, [0], [[1, -2]])
    # integral floats are integers
    assert decode_stream(encode_stream(h, [2.0], [[1.0, -2.0]]))[2].tolist() == [[1, -2]]


def test_wrong_description_shapes_rejected():
    h = StreamHeader(n=2, lattice_id="Zn", gamma=1.0, param=0.5, mode=MODE_BALL,
                     seed=3, count=1, coord_bound=3)
    for rows in ([[1]], [[1, -3, 0]], [1, -3]):
        with pytest.raises(ValueError, match=r"shape \(1, 2\)"):
            encode_stream(h, [1], rows)
    with pytest.raises(ValueError, match=r"shape \(1,\)"):
        encode_stream(h, [1, 1], [[1, -3]])

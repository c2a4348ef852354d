"""Golomb code optimality/prefix-freeness and container round trips."""

import contextlib
import itertools
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _golomb_ref import (BitReader, BitWriter, encode_stream_ref, golomb_decode,
                         golomb_encode)
from rsuq.bounds import geometric_entropy
from rsuq.coding import (MAGIC, MODE_BALL, MODE_GAUSSIAN, VERSION, FormatError, GolombCode,
                         StreamHeader, coord_width_for_bound, decode_stream,
                         encode_stream, golomb_for_lattice,
                         optimal_golomb_parameter, read_header, read_vectors,
                         write_header, write_vectors)
from rsuq.dither import stream_uniforms
from rsuq.lattices import builtin_lattice


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


# Golomb parameters m = 1, 2, 2, 3, 5, 9 in turn.
ROUND_TRIP_LATTICES = [builtin_lattice("Zn", 2), builtin_lattice("E8", 8)] + [
    builtin_lattice("Dn", n) for n in range(6, 10)]


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


def _decodes_in_range_or_format_error(blob):
    try:
        header, K, J = decode_stream(blob)
    except FormatError:
        return
    assert np.all(K >= 1)
    assert np.all(np.abs(J) <= header.coord_bound)


_FUZZ_HEADER = st.builds(lambda count, bound: _ball_header(builtin_lattice("Zn", 2), seed=7,
                                                           count=count, coord_bound=bound),
                         st.integers(0, 16), st.integers(0, 20))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_FUZZ_HEADER, st.binary(max_size=48))
def test_fuzz_random_payload(header, payload):
    _decodes_in_range_or_format_error(write_header(header) + payload)


def _valid_stream(header, data):
    B, lat = header.coord_bound, builtin_lattice("Zn", 2)
    K = data.draw(st.lists(st.integers(1, 20), min_size=header.count, max_size=header.count))
    J = data.draw(st.lists(st.integers(-B, B), min_size=2 * header.count,
                           max_size=2 * header.count))
    return encode_stream(header, K, np.reshape(J, (header.count, 2)), lat=lat)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_FUZZ_HEADER, st.data())
def test_fuzz_truncated_payload(header, data):
    blob = _valid_stream(header, data)
    cut = data.draw(st.integers(len(write_header(header)), len(blob)))
    _decodes_in_range_or_format_error(blob[:cut])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_FUZZ_HEADER.filter(lambda h: h.count > 0), st.data())
def test_fuzz_one_bit_flipped(header, data):
    blob = bytearray(_valid_stream(header, data))
    start = len(write_header(header))
    bit = data.draw(st.integers(8 * start, 8 * len(blob) - 1))
    blob[bit >> 3] ^= 0x80 >> (bit & 7)
    _decodes_in_range_or_format_error(bytes(blob))


# -- golden bytes ---------------------------------------------------------------
#
# SHA-256 of whole RSQ1 streams (header and payload).  The descriptions are
# plain integer arithmetic, so the bytes depend only on the coder.  The
# lattices give Golomb m = 1 (Zn2, A2, Dn4), 2 (E8, Dn6), 3 (Dn7), 5 (Dn8) and
# 9 (Dn9); K runs over 1..23, so every remainder is written at both the b-1
# and the b bit width.


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

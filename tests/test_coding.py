"""Golomb code optimality/prefix-freeness and container round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsuq.bounds import geometric_entropy
from rsuq.coding import (MODE_BALL, MODE_GAUSSIAN, BitReader, BitWriter,
                         FormatError, GolombCode, StreamHeader,
                         coord_width_for_bound, decode_stream, encode_stream,
                         golomb_decode, golomb_encode,
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
    # optimality condition holds exactly at the returned m
    for p in (0.05, 0.2, 0.37, 0.5, math.pi / 4, 0.99):
        m = optimal_golomb_parameter(p)
        q = 1.0 - p
        assert q ** m + q ** (m + 1) <= 1.0
        if m > 1:
            assert q ** (m - 1) + q ** m > 1.0


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
        words = sorted(code.encode(k) for k in range(1, 1001))
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
    blob = encode_stream(h, [(1, np.array([0, 0]))])
    _, pos = read_header(blob)
    bits = "".join(format(b, "08b") for b in blob[pos:])
    assert bits.startswith("0" + "0111" + "0111")
    assert len(blob) - pos == 2  # 9 bits padded to 2 bytes


def test_container_empty_stream():
    h = StreamHeader(n=2, lattice_id="Zn", gamma=1.0, param=0.5, mode=MODE_BALL,
                     seed=3, count=0, coord_bound=0)
    blob = encode_stream(h, [])
    h2, K, J = decode_stream(blob)
    assert h2.count == 0 and K.size == 0 and J.shape == (0, 2)


def test_container_random_round_trip():
    rng = np.random.default_rng(17)
    K = rng.geometric(0.6, size=1000)
    J = rng.integers(-55, 56, size=(1000, 2))
    h = StreamHeader(n=2, lattice_id="Zn", gamma=1.0, param=0.5, mode=MODE_BALL,
                     seed=3, count=1000, coord_bound=int(np.abs(J).max()))
    blob = encode_stream(h, zip(K, J))
    h2, K2, J2 = decode_stream(blob)
    assert np.array_equal(K, K2)
    assert np.array_equal(J, J2)
    # byte determinism
    assert blob == encode_stream(h, zip(K, J))


def test_container_gaussian_mode_uses_lattice_code():
    h = StreamHeader(n=2, lattice_id="A2", gamma=1.0, param=1.0,
                     mode=MODE_GAUSSIAN, seed=9, count=2, coord_bound=3)
    blob = encode_stream(h, [(2, np.array([1, -3])), (1, np.array([0, 2]))])
    h2, K2, J2 = decode_stream(blob)
    assert K2.tolist() == [2, 1]
    assert J2.tolist() == [[1, -3], [0, 2]]


def test_container_coordinate_bound_enforced():
    h = StreamHeader(n=2, lattice_id="Zn", gamma=1.0, param=0.5, mode=MODE_BALL,
                     seed=3, count=1, coord_bound=2)
    with pytest.raises(ValueError):
        encode_stream(h, [(1, np.array([3, 0]))])


def test_container_truncation_detected():
    rng = np.random.default_rng(19)
    K = rng.geometric(0.6, size=50)
    J = rng.integers(-9, 10, size=(50, 2))
    h = StreamHeader(n=2, lattice_id="Zn", gamma=1.0, param=0.5, mode=MODE_BALL,
                     seed=3, count=50, coord_bound=9)
    blob = encode_stream(h, zip(K, J))
    with pytest.raises(FormatError):
        decode_stream(blob[:-3])


def test_container_nonbuiltin_lattice_requires_config():
    h = StreamHeader(n=2, lattice_id="custom.lat", gamma=1.0, param=0.5,
                     mode=MODE_BALL, seed=3, count=0, coord_bound=0)
    with pytest.raises(FormatError):
        encode_stream(h, [])
    lat = builtin_lattice("A2", 2)
    blob = encode_stream(h, [], lat=lat)
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


def test_ball_stream_scale_must_match_lattice():
    from rsuq.lattices import lattice_from_config

    fcc = lattice_from_config("3\n1 1 0\n1 0 1\n0 1 1\n", name="fcc")
    cube = lattice_from_config("3\n1 0 0\n0 1 0\n0 0 1\n", name="fcc")
    blob = encode_stream(_ball_header(fcc, seed=1, count=1, coord_bound=1),
                         [(1, np.array([1, 0, -1]))], lat=fcc)
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
        encode_stream(_ball_header(fcc, seed=1, count=0, coord_bound=0), [], lat=cube)
    # Gaussian-mode streams carry no scale to check
    h = StreamHeader(n=3, lattice_id="fcc", gamma=1.0, param=1.0,
                     mode=MODE_GAUSSIAN, seed=1, count=0, coord_bound=0)
    decode_stream(encode_stream(h, [], lat=fcc), lat=cube)


def test_coordinate_offset_above_2b_rejected():
    # B=7: K=1 ("0"), then offsets 15 (coordinate 8) and 7 (coordinate 0)
    h = StreamHeader(n=2, lattice_id="Zn", gamma=1.0, param=0.5, mode=MODE_BALL,
                     seed=3, count=1, coord_bound=7)
    bits = "0" + "1111" + "0111"
    payload = int(bits + "0" * 7, 2).to_bytes(2, "big")
    with pytest.raises(FormatError, match="above 2B"):
        decode_stream(write_header(h) + payload)


def test_non_ascii_lattice_id_is_a_format_error():
    data = bytearray(write_header(StreamHeader(n=2, lattice_id="Zn", gamma=1.0, param=0.5,
                                               mode=MODE_BALL, seed=3, count=0,
                                               coord_bound=0)))
    data[10] = 0xFF  # first byte of the lattice id
    with pytest.raises(FormatError, match="ASCII"):
        read_header(bytes(data))


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
    h2, K2, J2 = decode_stream(encode_stream(h, zip(K, J)))
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
    desc = data.draw(st.lists(st.tuples(st.integers(1, 20),
                                        st.lists(st.integers(-B, B), min_size=2, max_size=2)),
                              min_size=header.count, max_size=header.count))
    return encode_stream(header, desc, lat=lat)


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

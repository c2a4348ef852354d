"""End-to-end CLI behavior: round trips, determinism, exit codes, tables."""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import rsuq
from rsuq.cli import main
from rsuq.coding import read_vectors, write_vectors


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def vec_file(tmp_path):
    rng = np.random.default_rng(1)
    X = rng.uniform(-30, 30, size=(400, 2))
    path = tmp_path / "in.vqf"
    path.write_bytes(write_vectors(X))
    return path, X


def test_encode_decode_round_trip(tmp_path, vec_file):
    path, X = vec_file
    rsq = tmp_path / "out.rsq"
    rec = tmp_path / "rec.vqf"
    code, out, _ = run_cli("encode", "--input", str(path), "--lattice", "Zn",
                           "--dim", "2", "--radius", "0.5", "--seed", "7",
                           "--output", str(rsq))
    assert code == 0
    assert "rate_bits_per_dim=" in out
    code, _, _ = run_cli("decode", "--input", str(rsq), "--output", str(rec))
    assert code == 0
    Y = read_vectors(rec.read_bytes())
    assert np.linalg.norm(Y - X, axis=1).max() <= 0.5
    # achieved rate stays above the max-error lower bound per dimension
    rate = float(out.split("rate_bits_per_dim=")[1].splitlines()[0])
    lb = float(out.split("max_error_lb_bits_per_dim=")[1].splitlines()[0])
    assert rate >= lb


def test_encode_decode_reproduces_reconstructions(tmp_path, vec_file):
    # the decoder output must match the encoder-side reconstructions bit-exactly
    from rsuq.lattices import builtin_lattice
    from rsuq.quantizer import RsuqConfig, encode_batch

    path, X = vec_file
    rsq = tmp_path / "out.rsq"
    rec = tmp_path / "rec.vqf"
    run_cli("encode", "--input", str(path), "--lattice", "Zn", "--dim", "2",
            "--radius", "0.5", "--seed", "7", "--output", str(rsq))
    run_cli("decode", "--input", str(rsq), "--output", str(rec))
    cfg = RsuqConfig(builtin_lattice("Zn", 2), r=0.5, seed=7)
    _, _, Y_enc = encode_batch(cfg, X)
    assert np.array_equal(read_vectors(rec.read_bytes()), Y_enc)


def test_cli_determinism_all_subcommands(tmp_path, vec_file):
    # identical command lines (same seeds, same paths) run twice must produce
    # byte-identical files and stdout
    path, _ = vec_file
    rsq = tmp_path / "o.rsq"
    rec = tmp_path / "r.vqf"
    sim = tmp_path / "s.vqf"
    csv1 = tmp_path / "t.csv"
    csv2 = tmp_path / "f.csv"
    commands = [
        ("encode", "--input", str(path), "--lattice", "A2", "--dim", "2",
         "--radius", "0.4", "--seed", "99", "--output", str(rsq)),
        ("decode", "--input", str(rsq), "--output", str(rec)),
        ("simulate", "--noise", "gaussian", "--dim", "2", "--lattice", "Zn",
         "--seed", "41", "--input", str(path), "--output", str(sim)),
        ("bounds", "--table", "table1", "--dims", "1..4", "--out", str(csv1)),
        ("bounds", "--table", "figure2-right", "--dims", "2..9", "--out", str(csv2)),
        ("selftest", "--quick", "--seed", "5"),
    ]
    outputs = {}
    for run in (1, 2):
        logs = [run_cli(*cmd) for cmd in commands]
        assert all(code == 0 for code, _, _ in logs)
        outputs[run] = (rsq.read_bytes(), rec.read_bytes(), sim.read_bytes(),
                        csv1.read_bytes(), csv2.read_bytes(),
                        (tmp_path / "f.csv.plot.py").read_bytes(),
                        [o for _, o, _ in logs])
    assert outputs[1] == outputs[2]


def test_simulate_output_is_input_plus_gaussian(tmp_path):
    rng = np.random.default_rng(2)
    X = rng.uniform(-20, 20, size=(30000, 2))
    path = tmp_path / "in.vqf"
    path.write_bytes(write_vectors(X))
    sim = tmp_path / "sim.vqf"
    code, out, _ = run_cli("simulate", "--noise", "gaussian", "--dim", "2",
                           "--lattice", "Zn", "--seed", "17", "--input",
                           str(path), "--output", str(sim))
    assert code == 0
    rate = float(out.split("rate_bits_per_dim=")[1].splitlines()[0])
    assert rate >= 0.0
    Y = read_vectors(sim.read_bytes())
    from rsuq.mc import test_gaussian

    assert test_gaussian(Y - X).verdict


def test_decode_gaussian_stream_round_trip(tmp_path, vec_file):
    # simulate writes Y; encoding the same X through the container and
    # decoding must give the same Y (mode 1 container path)
    from rsuq.coding import MODE_GAUSSIAN, StreamHeader, encode_stream
    from rsuq.lattices import builtin_lattice
    from rsuq.layered import GaussianNoise, lrsuq_encode_batch

    path, X = vec_file
    lat = builtin_lattice("Zn", 2)
    noise = GaussianNoise(2)
    K, J, Y = lrsuq_encode_batch(noise, lat, 314, X)
    h = StreamHeader(n=2, lattice_id="Zn", gamma=1.0, param=1.0,
                     mode=MODE_GAUSSIAN, seed=314, count=len(X),
                     coord_bound=int(np.abs(J).max()))
    rsq = tmp_path / "g.rsq"
    rsq.write_bytes(encode_stream(h, K, J))
    rec = tmp_path / "g.vqf"
    code, _, _ = run_cli("decode", "--input", str(rsq), "--output", str(rec))
    assert code == 0
    assert np.array_equal(read_vectors(rec.read_bytes()), Y)


def test_empty_input_round_trip(tmp_path):
    path = tmp_path / "e.vqf"
    path.write_bytes(write_vectors(np.zeros((0, 2))))
    rsq = tmp_path / "e.rsq"
    rec = tmp_path / "e.vqf.out"
    assert run_cli("encode", "--input", str(path), "--lattice", "Zn", "--dim",
                   "2", "--radius", "0.5", "--seed", "1", "--output",
                   str(rsq))[0] == 0
    assert run_cli("decode", "--input", str(rsq), "--output", str(rec))[0] == 0
    assert read_vectors(rec.read_bytes()).shape == (0, 2)


def _empty_stream(path, mode, radius):
    from rsuq.coding import StreamHeader, encode_stream

    h = StreamHeader(n=8, lattice_id="E8", gamma=radius * math.sqrt(2.0), param=radius,
                     mode=mode, seed=4, count=0, coord_bound=0)
    path.write_bytes(encode_stream(h, [], np.zeros((0, 8))))


def test_empty_streams_decode_through_the_batch_decoders(tmp_path):
    # an empty stream takes the path of any other: the Gaussian decoder
    # returns (0, n) rows with no warning, and a ball stream's header radius
    # goes through RsuqConfig even with no record to decode
    from rsuq.coding import MODE_BALL, MODE_GAUSSIAN

    rsq, rec = tmp_path / "e.rsq", tmp_path / "e.vqf"
    _empty_stream(rsq, MODE_GAUSSIAN, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("decode", "--input", str(rsq), "--output", str(rec))
    assert code == 0, err
    assert "vectors=0 dim=8 lattice=E8 mode=1" in out
    assert read_vectors(rec.read_bytes()).shape == (0, 8)
    rec.unlink()
    _empty_stream(rsq, MODE_BALL, -0.5)
    code, _, err = run_cli("decode", "--input", str(rsq), "--output", str(rec))
    assert code == 2 and "ball radius must be positive" in err, err
    assert not rec.exists()


def test_user_lattice_config_encode_decode(tmp_path, vec_file):
    path, X = vec_file
    cfg_path = tmp_path / "hex.lat"
    cfg_path.write_text("2\n1 0.5\n0 %.17g\npacking_radius=0.5\n"
                        "covering_radius=%.17g\n"
                        % (math.sqrt(3) / 2, 1 / math.sqrt(3)))
    rsq = tmp_path / "u.rsq"
    rec = tmp_path / "u.vqf"
    assert run_cli("encode", "--input", str(path), "--lattice", str(cfg_path),
                   "--dim", "2", "--radius", "0.3", "--seed", "6", "--output",
                   str(rsq))[0] == 0
    # decode without the config: exit 2 with a clear error
    code, _, err = run_cli("decode", "--input", str(rsq), "--output", str(rec))
    assert code == 2 and "non-builtin" in err
    code, _, _ = run_cli("decode", "--input", str(rsq), "--output", str(rec),
                         "--lattice", str(cfg_path))
    assert code == 0
    Y = read_vectors(rec.read_bytes())
    assert np.linalg.norm(Y - X, axis=1).max() <= 0.3


@pytest.mark.parametrize("toward", [math.inf, 0.0], ids=["up", "down"])
def test_ball_stream_decodes_with_the_header_gamma(tmp_path, toward):
    # a decoder whose packing radius is one ulp off the encoder's passes the
    # 1e-9 header check; it must decode with the stream's gamma and give the
    # encoder's bits, not rebuild gamma from its own radius
    from rsuq.lattices import Lattice
    from rsuq.quantizer import RsuqConfig, encode_batch

    fcc = [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
    p = math.sqrt(0.5)
    X = np.random.default_rng(12).standard_normal((500, 3)) * 4
    inp, rsq, rec = tmp_path / "in.vqf", tmp_path / "out.rsq", tmp_path / "rec.vqf"
    inp.write_bytes(write_vectors(X))
    cfgs = {}
    for name, radius in (("enc", p), ("dec", math.nextafter(p, toward))):
        cfgs[name] = tmp_path / f"{name}.cfg"
        cfgs[name].write_text(f"3\n1 1 0\n1 0 1\n0 1 1\npacking_radius={radius!r}\n")
    assert 0.3 / p != 0.3 / math.nextafter(p, toward)
    assert run_cli("encode", "--input", str(inp), "--lattice", str(cfgs["enc"]), "--dim", "3",
                   "--radius", "0.3", "--seed", "6", "--output", str(rsq))[0] == 0
    assert run_cli("decode", "--input", str(rsq), "--lattice", str(cfgs["dec"]),
                   "--output", str(rec))[0] == 0
    _, _, Y = encode_batch(RsuqConfig(Lattice("fcc", fcc, packing_radius=p), r=0.3, seed=6), X)
    assert rec.read_bytes() == write_vectors(Y)


def test_builtin_lattice_ids_are_reserved(tmp_path, vec_file, monkeypatch):
    # a config named A2 that holds Z^2 used to be written as an A2 stream,
    # which decodes without --lattice on the built-in A2 to wrong vectors
    from rsuq import cli

    path, X = vec_file
    fake = tmp_path / "A2"
    fake.write_text("2\n1 0\n0 1\n")
    rsq = tmp_path / "a.rsq"

    def no_quantizer_work(*args, **kwargs):
        raise AssertionError("the reserved id is refused before the rejection loop")

    with monkeypatch.context() as m:
        m.setattr(cli, "encode_batch", no_quantizer_work)
        code, _, err = run_cli("encode", "--input", str(path), "--lattice", str(fake), "--dim",
                               "2", "--radius", "0.3", "--output", str(rsq))
    assert code == 2 and "reserved for the built-in A2 lattice" in err
    assert not rsq.exists()
    # the built-in lattice itself still writes A2 streams
    assert run_cli("encode", "--input", str(path), "--lattice", "A2", "--dim", "2",
                   "--radius", "0.3", "--output", str(rsq))[0] == 0


@pytest.mark.parametrize("lattice_id, config", [("E8", "3\n1 0 0\n0 1 0\n0 0 1\n"),
                                                ("Dn", "1\n1\n")], ids=["E8-3", "Dn-1"])
def test_reserved_id_at_a_dimension_its_family_lacks(tmp_path, lattice_id, config):
    # a user config saved as E8 at n = 3 (or Dn at n = 1) was refused for a
    # header dimension the built-in family lacks, not for taking its id
    n = int(config.split()[0])
    path = tmp_path / "in.vqf"
    path.write_bytes(write_vectors(np.random.default_rng(4).standard_normal((20, n))))
    fake = tmp_path / lattice_id
    fake.write_text(config)
    rsq = tmp_path / "a.rsq"
    code, _, err = run_cli("encode", "--input", str(path), "--lattice", str(fake), "--dim",
                           str(n), "--radius", "0.3", "--output", str(rsq))
    assert code == 2 and f"reserved for the built-in {lattice_id} lattice" in err
    assert "does not fit" not in err and not rsq.exists()


def test_non_ascii_lattice_id_is_refused_before_the_rejection_loop(tmp_path, vec_file,
                                                                   monkeypatch):
    # the config's file name is the stream's lattice id, which RSQ1 holds in
    # ASCII; the header used to be refused only after the whole encode
    from rsuq import cli

    path, _ = vec_file
    cfg = tmp_path / "gitter-\xe4.cfg"
    cfg.write_text("2\n1 0\n0 1\n")
    rsq = tmp_path / "g.rsq"

    def no_quantizer_work(*args, **kwargs):
        raise AssertionError("the lattice id is refused before the rejection loop")

    monkeypatch.setattr(cli, "encode_batch", no_quantizer_work)
    code, _, err = run_cli("encode", "--input", str(path), "--lattice", str(cfg), "--dim", "2",
                           "--radius", "0.3", "--output", str(rsq))
    assert code == 2 and "lattice id 'gitter-\xe4.cfg' is not ASCII" in err
    assert not rsq.exists()


def test_builtin_lattice_ids_are_reserved_on_decode(tmp_path):
    # a Zn stream decoded with a config of A2's generator, whose packing
    # radius is also 0.5, passed the scale check and decoded to wrong vectors
    from rsuq.coding import FormatError, decode_stream
    from rsuq.lattices import load_lattice

    X = np.random.default_rng(3).standard_normal((50, 2))
    src = tmp_path / "in.vqf"
    src.write_bytes(write_vectors(X))
    hexagonal = tmp_path / "hex.cfg"
    hexagonal.write_text("2\n1 0.5\n0 0.8660254037844386\n")
    rsq = tmp_path / "z.rsq"
    rec = tmp_path / "z.vqf"
    assert run_cli("encode", "--input", str(src), "--lattice", "Zn", "--dim", "2",
                   "--radius", "0.3", "--output", str(rsq))[0] == 0
    code, _, err = run_cli("decode", "--input", str(rsq), "--output", str(rec),
                           "--lattice", str(hexagonal))
    assert code == 2 and "reserved for the built-in Zn lattice" in err
    assert not rec.exists()
    with pytest.raises(FormatError, match="reserved for the built-in Zn lattice"):
        decode_stream(rsq.read_bytes(), lat=load_lattice(str(hexagonal)))
    assert run_cli("decode", "--input", str(rsq), "--output", str(rec))[0] == 0
    assert np.linalg.norm(read_vectors(rec.read_bytes()) - X, axis=1).max() <= 0.3


def test_wrong_user_lattice_config_is_a_format_error(tmp_path, vec_file):
    # the ball stream's scale pins the packing radius of the encoding lattice
    path, X = vec_file
    X3 = np.hstack([X, X[:, :1]])
    path.write_bytes(write_vectors(X3))
    fcc = tmp_path / "fcc.lat"
    fcc.write_text("3\n1 1 0\n1 0 1\n0 1 1\n")
    cube = tmp_path / "cube.lat"
    cube.write_text("3\n1 0 0\n0 1 0\n0 0 1\n")
    rsq = tmp_path / "f.rsq"
    rec = tmp_path / "f.vqf"
    assert run_cli("encode", "--input", str(path), "--lattice", str(fcc), "--dim",
                   "3", "--radius", "0.05", "--output", str(rsq))[0] == 0
    code, _, err = run_cli("decode", "--input", str(rsq), "--output", str(rec),
                           "--lattice", str(cube))
    assert code == 2 and "does not match" in err
    assert run_cli("decode", "--input", str(rsq), "--output", str(rec),
                   "--lattice", str(fcc))[0] == 0
    assert np.linalg.norm(read_vectors(rec.read_bytes()) - X3, axis=1).max() <= 0.05


def test_lattice_config_of_another_dimension_is_refused(tmp_path, vec_file):
    # a config whose dimension differs from --dim on encode, or from the
    # stream's on decode, exits 2 naming the mismatch and writes nothing
    path, _ = vec_file
    fcc = tmp_path / "fcc.lat"
    fcc.write_text("3\n1 1 0\n1 0 1\n0 1 1\n")
    square = tmp_path / "square.lat"
    square.write_text("2\n1 0\n0 1\n")
    rsq, rec = tmp_path / "s.rsq", tmp_path / "s.vqf"
    code, _, err = run_cli("encode", "--input", str(path), "--lattice", str(fcc), "--dim", "2",
                           "--radius", "0.3", "--output", str(rsq))
    assert code == 2 and "lattice config has dimension 3, expected 2" in err, err
    assert not rsq.exists()
    assert run_cli("encode", "--input", str(path), "--lattice", str(square), "--dim", "2",
                   "--radius", "0.3", "--output", str(rsq))[0] == 0
    code, _, err = run_cli("decode", "--input", str(rsq), "--output", str(rec),
                           "--lattice", str(fcc))
    assert code == 2 and "supplied lattice dimension does not match stream" in err, err
    assert not rec.exists()


def _run_twice(commands, outputs):
    # Run the commands twice in this process, the first time with empty
    # lattice caches; returns the bytes of the output files after each run.
    from rsuq import lattices

    lattices.builtin_lattice.cache_clear()
    lattices.lattice_from_config.cache_clear()
    runs = []
    for _ in range(2):
        for cmd in commands:
            assert run_cli(*cmd)[0] == 0
        runs.append([p.read_bytes() for p in outputs])
    return runs


def _write_input(tmp_path, dim, seed):
    inp = tmp_path / "in.vqf"
    inp.write_bytes(write_vectors(np.random.default_rng(seed).uniform(-20, 20, size=(300, dim))))
    return inp


@pytest.mark.parametrize("lat,dim", [("Zn", 3), ("A2", 2), ("E8", 8)])
def test_warm_calls_write_the_cold_bytes(tmp_path, lat, dim):
    # The second encode and decode reuse the cached lattice (and A2's scan
    # table); they must write the bytes of the first, cold calls.
    inp, rsq, rec = _write_input(tmp_path, dim, 3), tmp_path / "out.rsq", tmp_path / "rec.vqf"
    cold, warm = _run_twice(
        [("encode", "--input", str(inp), "--lattice", lat, "--dim", str(dim),
          "--radius", "0.3", "--seed", "11", "--output", str(rsq)),
         ("decode", "--input", str(rsq), "--output", str(rec))], [rsq, rec])
    assert cold == warm


def test_warm_simulate_writes_the_cold_bytes(tmp_path):
    inp, sim = _write_input(tmp_path, 8, 4), tmp_path / "sim.vqf"
    cold, warm = _run_twice(
        [("simulate", "--noise", "gaussian", "--dim", "8", "--lattice", "E8",
          "--seed", "5", "--input", str(inp), "--output", str(sim))], [sim])
    assert cold == warm


def test_edited_lattice_config_is_loaded_again(tmp_path):
    # A config is cached by its text: the second call reuses the lattice and
    # writes the same bytes.  Once the file changes, the next call must parse
    # the new basis (the unit cube: gamma = 0.3 / 0.5, other points).
    from rsuq.coding import read_header

    inp, rsq, rec = _write_input(tmp_path, 3, 5), tmp_path / "out.rsq", tmp_path / "rec.vqf"
    cfg = tmp_path / "fcc.cfg"
    cfg.write_text("3\n1 1 0\n1 0 1\n0 1 1\n")
    commands = [("encode", "--input", str(inp), "--lattice", str(cfg), "--dim", "3",
                 "--radius", "0.3", "--seed", "11", "--output", str(rsq)),
                ("decode", "--input", str(rsq), "--output", str(rec), "--lattice", str(cfg))]
    cold, warm = _run_twice(commands, [rsq, rec])
    assert cold == warm
    cfg.write_text("3\n1 0 0\n0 1 0\n0 0 1\n")
    for cmd in commands:
        assert run_cli(*cmd)[0] == 0
    (old, old_end), (new, new_end) = read_header(cold[0]), read_header(rsq.read_bytes())
    assert old.gamma == pytest.approx(0.3 / math.sqrt(0.5)) and new.gamma == pytest.approx(0.6)
    assert rsq.read_bytes()[new_end:] != cold[0][old_end:]
    X = read_vectors(inp.read_bytes())
    assert np.linalg.norm(read_vectors(rec.read_bytes()) - X, axis=1).max() <= 0.3


@pytest.mark.parametrize("line,key", [("covering_radius=inf", "covering_radius"),
                                      ("nsm=nan", "nsm"), ("0 nan 1", "generator matrix")])
def test_nonfinite_lattice_config_is_a_usage_error(tmp_path, vec_file, line, key):
    # covering_radius=inf used to pass the config check and crash encode with
    # an OverflowError traceback (exit 1)
    path, X = vec_file
    path.write_bytes(write_vectors(np.hstack([X, X[:, :1]])))
    rows = ["1 1 0", "1 0 1", "0 1 1"]
    if line[0].isdigit():
        rows[2] = line
    else:
        rows.append(line)
    cfg = tmp_path / "bad.lat"
    cfg.write_text("3\n" + "\n".join(rows) + "\n")
    code, _, err = run_cli("encode", "--input", str(path), "--lattice", str(cfg), "--dim",
                           "3", "--radius", "0.05", "--output", str(tmp_path / "f.rsq"))
    assert code == 2 and key in err


def test_huge_lattice_config_is_refused_without_warnings(tmp_path, vec_file):
    # numpy's overflow warnings used to reach stderr ahead of the exit-2 message
    path, X = vec_file
    path.write_bytes(write_vectors(np.hstack([X, X[:, :1]])))
    cfg = tmp_path / "huge.lat"
    cfg.write_text("3\n1e200 0 0\n0 1e200 0\n0 0 1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli("encode", "--input", str(path), "--lattice", str(cfg), "--dim",
                               "3", "--radius", "0.05", "--output", str(tmp_path / "f.rsq"))
    assert code == 2 and "determinant" in err and not caught


def test_uncovering_lattice_config_is_a_usage_error(tmp_path, vec_file):
    # covering radius 0.55 leaves Z2's cell uncovered: covering density 0.95
    path, _ = vec_file
    cfg = tmp_path / "thin.lat"
    cfg.write_text("2\n1 0\n0 1\ncovering_radius=0.55\n")
    code, _, err = run_cli("encode", "--input", str(path), "--lattice", str(cfg), "--dim",
                           "2", "--radius", "0.05", "--output", str(tmp_path / "f.rsq"))
    assert code == 2 and "covering density 0.95" in err


def test_oversized_lattice_config_is_a_quick_usage_error(tmp_path):
    # a 33-dim basis asked the generic decoder for a 2^32-row residual table
    # (32 GiB) before it checked the size cap
    path = tmp_path / "zero.vqf"
    path.write_bytes(write_vectors(np.zeros((1, 33))))
    cfg = tmp_path / "z33.lat"
    cfg.write_text("33\n" + "".join(" ".join("1" if j == i else "0" for j in range(33)) + "\n"
                                     for i in range(33)) + "packing_radius=0.5\n")
    start = time.perf_counter()
    code, _, err = run_cli("encode", "--input", str(path), "--lattice", str(cfg), "--dim",
                           "33", "--radius", "0.5", "--output", str(tmp_path / "f.rsq"))
    assert code == 2 and "at least 3^33" in err
    assert time.perf_counter() - start < 1.0


def test_scalar_lattice_z1(tmp_path, vec_file):
    # Z1 has packing density exactly 1: every draw is accepted
    path, X = vec_file
    path.write_bytes(write_vectors(X[:, :1]))
    rsq = tmp_path / "z1.rsq"
    rec = tmp_path / "z1.vqf"
    sim = tmp_path / "z1s.vqf"
    assert run_cli("encode", "--input", str(path), "--lattice", "Zn", "--dim", "1",
                   "--radius", "0.3", "--output", str(rsq))[0] == 0
    assert run_cli("decode", "--input", str(rsq), "--output", str(rec))[0] == 0
    assert np.abs(read_vectors(rec.read_bytes()) - X[:, :1]).max() <= 0.3
    code, out, _ = run_cli("simulate", "--lattice", "Zn", "--dim", "1",
                           "--input", str(path), "--output", str(sim))
    assert code == 0 and "rate_bits_per_dim=" in out
    assert read_vectors(sim.read_bytes()).shape == (len(X), 1)


def test_negative_seed_wraps_to_uint64(tmp_path, vec_file):
    # seeds are 64-bit unsigned end to end; negative CLI input wraps
    path, X = vec_file
    rsq = tmp_path / "n.rsq"
    rec = tmp_path / "n.vqf"
    assert run_cli("encode", "--input", str(path), "--lattice", "Zn", "--dim",
                   "2", "--radius", "0.5", "--seed", "-5", "--output",
                   str(rsq))[0] == 0
    assert run_cli("decode", "--input", str(rsq), "--output", str(rec))[0] == 0
    Y = read_vectors(rec.read_bytes())
    assert np.linalg.norm(Y - X, axis=1).max() <= 0.5


def test_usage_and_io_errors(tmp_path, vec_file):
    path, _ = vec_file
    # corrupt magic
    bad = tmp_path / "bad.rsq"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert run_cli("decode", "--input", str(bad), "--output",
                   str(tmp_path / "x.vqf"))[0] == 2
    # truncated payload
    rsq = tmp_path / "o.rsq"
    run_cli("encode", "--input", str(path), "--lattice", "Zn", "--dim", "2",
            "--radius", "0.5", "--seed", "7", "--output", str(rsq))
    (tmp_path / "trunc.rsq").write_bytes(rsq.read_bytes()[:-4])
    assert run_cli("decode", "--input", str(tmp_path / "trunc.rsq"),
                   "--output", str(tmp_path / "y.vqf"))[0] == 2
    # missing file
    assert run_cli("decode", "--input", str(tmp_path / "nope.rsq"),
                   "--output", str(tmp_path / "z.vqf"))[0] == 2
    # wrong dimension flag
    assert run_cli("encode", "--input", str(path), "--lattice", "Zn", "--dim",
                   "3", "--radius", "0.5", "--seed", "7", "--output",
                   str(rsq))[0] == 2
    # bad subcommand argument parse
    assert run_cli("encode", "--nope", "x")[0] == 2
    # unknown noise model
    assert run_cli("simulate", "--noise", "laplace", "--dim", "2", "--input",
                   str(path), "--output", str(tmp_path / "s.vqf"))[0] == 2


@pytest.mark.parametrize("radius", ["inf", "1e200"])
def test_nonfinite_or_overflowing_radius_is_a_usage_error(tmp_path, vec_file, radius):
    # inf used to write a stream that decodes to +-inf with exit 0, and 1e200
    # died in cfg.r ** 2 with an OverflowError traceback (exit 1)
    path, _ = vec_file
    rsq = tmp_path / "r.rsq"
    code, _, err = run_cli("encode", "--input", str(path), "--lattice", "Zn", "--dim", "2",
                           "--radius", radius, "--output", str(rsq))
    assert code == 2 and "ball radius" in err and not rsq.exists()


def test_subnormal_radius_is_a_usage_error_without_warnings(tmp_path, vec_file):
    # x / gamma overflowed, and numpy's warning reached stderr ahead of the
    # exit-2 message
    path, _ = vec_file
    rsq = tmp_path / "r.rsq"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli("encode", "--input", str(path), "--lattice", "Dn", "--dim", "2",
                               "--radius", "1e-320", "--output", str(rsq))
    assert code == 2 and "not finite or too large" in err and not rsq.exists()
    assert not caught and "Warning" not in err


def test_inf_radius_stream_is_a_usage_error(tmp_path):
    # gamma = param = inf passes the header's scale check (isclose(inf, inf))
    from rsuq.coding import MODE_BALL, StreamHeader, encode_stream

    header = StreamHeader(n=2, lattice_id="Zn", gamma=math.inf, param=math.inf,
                          mode=MODE_BALL, seed=0, count=1, coord_bound=0)
    path = tmp_path / "inf.rsq"
    path.write_bytes(encode_stream(header, [1], [[0, 0]]))
    out = tmp_path / "inf.vqf"
    code, _, err = run_cli("decode", "--input", str(path), "--output", str(out))
    assert code == 2 and "ball radius" in err and not out.exists()


def test_oversized_stream_count_is_a_format_error(tmp_path):
    # a 50-byte stream claiming 2**40 Z2 vectors must fail before allocating
    from rsuq.coding import (MODE_BALL, FormatError, StreamHeader,
                             decode_stream, write_header)

    header = StreamHeader(n=2, lattice_id="Zn", gamma=1.0, param=0.5,
                          mode=MODE_BALL, seed=0, count=2 ** 40, coord_bound=3)
    blob = write_header(header) + b"\xff"
    assert len(blob) == 50
    with pytest.raises(FormatError, match="claims"):
        decode_stream(blob)
    path = tmp_path / "huge.rsq"
    path.write_bytes(blob)
    code, _, err = run_cli("decode", "--input", str(path), "--output",
                           str(tmp_path / "h.vqf"))
    assert code == 2 and "claims" in err


def test_vanishing_packing_density_is_a_usage_error(tmp_path):
    # 1 - packing density rounds to 1 for Zn34 (4.6e-17), not yet for Zn33
    from rsuq.coding import MODE_BALL, StreamHeader, write_header

    for n, want in ((33, 0), (34, 2)):
        header = StreamHeader(n=n, lattice_id="Zn", gamma=1.0, param=0.5,
                              mode=MODE_BALL, seed=0, count=0, coord_bound=0)
        path = tmp_path / f"z{n}.rsq"
        path.write_bytes(write_header(header))
        code, _, err = run_cli("decode", "--input", str(path), "--output",
                               str(tmp_path / "z.vqf"))
        assert code == want, err
    assert "packing density" in err


def test_underflowing_packing_density_is_a_usage_error(tmp_path):
    # the density of Z400 underflows to 0: refused with exit 2, not a traceback
    path = tmp_path / "z400.vqf"
    path.write_bytes(write_vectors(np.zeros((1, 400))))
    code, _, err = run_cli("encode", "--input", str(path), "--lattice", "Zn", "--dim", "400",
                           "--radius", "0.5", "--output", str(tmp_path / "z.rsq"))
    assert code == 2 and "packing density" in err


def test_uncodable_packing_density_is_refused_before_the_loop(tmp_path):
    # Zn40 has density 3.3e-21: 1 - p rounds to 1, and the rejection loop
    # would run about 1e21 rounds before the stream could refuse it; the
    # refusal names the lattice, a built-in or the config file
    src = os.path.dirname(os.path.dirname(rsuq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    path = tmp_path / "z40.vqf"
    path.write_bytes(write_vectors(np.zeros((1, 40))))
    config = tmp_path / "id40.txt"
    config.write_text("40\n" + "".join(" ".join("1" if j == i else "0" for j in range(40)) + "\n"
                                       for i in range(40)) + "packing_radius=0.5\n")
    for lattice, name in (("Zn", "Zn"), (str(config), "id40.txt")):
        common = ["--input", str(path), "--lattice", lattice, "--dim", "40",
                  "--output", str(tmp_path / "out")]
        for argv in (["encode", "--radius", "0.5"] + common, ["simulate"] + common):
            out = subprocess.run([sys.executable, "-m", "rsuq.cli"] + argv, env=env,
                                 capture_output=True, text=True, timeout=60)
            assert out.returncode == 2, out.stderr
            assert f"{name} at n = 40: success probability (packing density) 3.28e-21" \
                in out.stderr, out.stderr
            assert "1 - p rounds to 1" in out.stderr


def test_huge_builtin_dimension_is_refused_before_its_generator(tmp_path):
    # A 16-byte VQF1 file (no rows, dimension 2^20) must not make encode or
    # simulate build the 2^20 x 2^20 generator (8 TiB) before the density
    # check.  The child's address space is capped, so a regression fails fast.
    src = os.path.dirname(os.path.dirname(rsuq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    path = tmp_path / "empty.vqf"
    path.write_bytes(write_vectors(np.zeros((0, 2 ** 20))))
    assert path.stat().st_size == 16
    script = ("import resource, sys, rsuq.cli\n"
              "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
              "sys.exit(rsuq.cli.main(sys.argv[1:]))\n")
    for family in ("Zn", "Dn"):
        common = ["--input", str(path), "--lattice", family, "--dim", str(2 ** 20),
                  "--output", str(tmp_path / "out")]
        for argv in (["encode", "--radius", "0.5"] + common, ["simulate"] + common):
            out = subprocess.run([sys.executable, "-c", script] + argv, env=env,
                                 capture_output=True, text=True, timeout=60)
            assert out.returncode == 2, out.stderr
            assert f"{family} at n = 1048576 has packing density 0" in out.stderr


def test_ball_encode_decode_loads_no_scipy(tmp_path):
    # scipy is a slow import that only the Gaussian level draw, the layered
    # entropy and the mc tests need
    src = os.path.dirname(os.path.dirname(rsuq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    (tmp_path / "in.vqf").write_bytes(write_vectors(np.linspace(-3, 3, 12).reshape(6, 2)))
    script = (
        "import sys, rsuq.cli\n"
        "d = sys.argv[1]\n"
        "assert rsuq.cli.main(['encode', '--input', d + '/in.vqf', '--lattice', 'Zn', '--dim', '2',\n"
        "                      '--radius', '0.5', '--seed', '3', '--output', d + '/o.rsq']) == 0\n"
        "assert rsuq.cli.main(['decode', '--input', d + '/o.rsq', '--output', d + '/o.vqf']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "o.vqf").exists()


def _has_mallopt():
    import ctypes

    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt (not glibc)")
def test_warm_gaussian_e8_simulate_faults_in_few_pages(tmp_path):
    # glibc trims the freed top of the heap after every call unless the CLI
    # raises its thresholds; then each warm call faulted in about 950 pages.
    src = os.path.dirname(os.path.dirname(rsuq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    X = np.random.default_rng(5).standard_normal((4096, 8))
    (tmp_path / "in.vqf").write_bytes(write_vectors(X))
    script = (
        "import contextlib, io, resource, sys\n"
        "import rsuq.cli\n"
        "d = sys.argv[1]\n"
        "argv = ['simulate', '--noise', 'gaussian', '--lattice', 'E8', '--dim', '8',\n"
        "        '--seed', '3', '--input', d + '/in.vqf', '--output', d + '/o.vqf']\n"
        "def call():\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert rsuq.cli.main(argv) == 0\n"
        "for _ in range(3):\n"
        "    call()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(5):\n"
        "    call()\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)\n")
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    faults = float(out.stdout.splitlines()[-1])
    assert faults < 100, f"{faults} minor faults per warm call"


@pytest.mark.parametrize("cdll", ["raises", "no-mallopt"])
def test_cli_runs_without_mallopt(tmp_path, vec_file, monkeypatch, cdll):
    # a C library that cannot be opened, or has no mallopt, changes nothing
    import ctypes

    from rsuq import cli

    path, X = vec_file
    argv = [["encode", "--input", str(path), "--lattice", "Zn", "--dim", "2", "--radius",
             "0.5", "--seed", "4", "--output", str(tmp_path / "a.rsq")],
            ["decode", "--input", str(tmp_path / "a.rsq"), "--output", str(tmp_path / "a.vqf")]]
    for cmd in argv:
        assert run_cli(*cmd)[0] == 0
    want = [(tmp_path / name).read_bytes() for name in ("a.rsq", "a.vqf")]

    loads = []

    def fake_cdll(name, *args, **kwargs):
        loads.append(name)
        if cdll == "raises":
            raise OSError("no C library")
        return object()

    monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
    monkeypatch.setattr(cli, "_parser", None)  # so main sets the heap up again
    for cmd in argv:
        assert run_cli(*cmd)[0] == 0
    assert loads == [None]
    assert [(tmp_path / name).read_bytes() for name in ("a.rsq", "a.vqf")] == want


@pytest.mark.parametrize("lattice_id, n, rule", [
    ("E8", 3, "E8 is eight-dimensional"), ("A2", 4, "A2 is two-dimensional"),
    ("Dn", 1, "Dn needs n >= 2"), ("Zn", 0, "header dimension must be at least 1")])
def test_bad_header_dimension_names_the_rule(tmp_path, lattice_id, n, rule):
    from rsuq.coding import MODE_BALL, StreamHeader, write_header

    header = StreamHeader(n=max(n, 1), lattice_id=lattice_id, gamma=1.0, param=0.5,
                          mode=MODE_BALL, seed=0, count=0, coord_bound=0)
    blob = bytearray(write_header(header))
    blob[5:9] = n.to_bytes(4, "little")  # write_header refuses n = 0
    path = tmp_path / "bad.rsq"
    path.write_bytes(bytes(blob))
    code, _, err = run_cli("decode", "--input", str(path), "--output", str(tmp_path / "o.vqf"))
    assert code == 2 and rule in err and "non-builtin" not in err


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
def test_nonfinite_or_huge_input_is_a_usage_error(tmp_path, bad):
    X = np.zeros((4, 2))
    X[2, 1] = bad
    path = tmp_path / "bad.vqf"
    path.write_bytes(write_vectors(X))
    code, _, err = run_cli("encode", "--input", str(path), "--lattice", "Zn",
                           "--dim", "2", "--radius", "0.5", "--output",
                           str(tmp_path / "b.rsq"))
    assert code == 2 and "row 2" in err
    code, _, err = run_cli("simulate", "--dim", "2", "--input", str(path),
                           "--output", str(tmp_path / "b.vqf"))
    assert code == 2 and "row 2" in err


def test_bounds_tables(tmp_path):
    t1 = tmp_path / "t1.csv"
    code, out, _ = run_cli("bounds", "--table", "table1", "--out", str(t1))
    assert code == 0
    text = t1.read_text()
    assert text.splitlines()[0] == "n,quantity,value_bits,equation_tag"
    rows = {}
    for line in text.splitlines()[1:]:
        n, q, v, _ = line.split(",")
        rows[(int(n), q)] = float(v)
    assert rows[(1, "layered_entropy")] == pytest.approx(1.52632, abs=1e-4)
    assert rows[(24, "layered_entropy")] == pytest.approx(46.71338, abs=1e-4)
    assert rows[(2, "excess_lrsuq")] == pytest.approx(1.13772, abs=1e-4)

    f2 = tmp_path / "f2.csv"
    code, out, err = run_cli("bounds", "--table", "figure2-left", "--dims",
                             "1..10,24", "--out", str(f2))
    assert code == 0
    assert "warning: registry has no entries" in err
    assert "3" in err and "24" in err
    # the plot script references only the CSV
    script = (tmp_path / "f2.csv.plot.py").read_text()
    assert str(f2) in script
    rows = {}
    for line in f2.read_text().splitlines()[1:]:
        n, q, v, _ = line.split(",")
        rows[(int(n), q)] = float(v)
    assert rows[(24, "rsuq_any_lattice")] == pytest.approx(
        math.log2(math.e) / 24, abs=1e-9)
    assert run_cli("bounds", "--table", "what", "--out", str(t1))[0] == 2
    assert run_cli("bounds", "--table", "table1", "--dims", "0..2",
                   "--out", str(t1))[0] == 2


def test_bounds_with_user_registry(tmp_path):
    extra = tmp_path / "extra.csv"
    extra.write_text("n,delta,theta,nsm,source\n3,0.74048,1.4635,0.078543,fcc\n")
    out = tmp_path / "fr.csv"
    code, _, err = run_cli("bounds", "--table", "figure2-right", "--dims",
                           "2..4", "--registry", str(extra), "--out", str(out))
    assert code == 0
    assert "registry has no entries" not in err  # 2, 3, 4 all covered now
    rows = {}
    for line in out.read_text().splitlines()[1:]:
        n, q, v, _ = line.split(",")
        rows[(int(n), q)] = float(v)
    assert (3, "lattice_zador") in rows
    assert (3, "rsuq_best_packing") in rows


def test_registry_slack_reads_as_the_bound(tmp_path):
    # a density within the registry's 1e-12 slack on the far side of 1 is
    # rounding and reads as 1; one beyond the slack exits 2 naming its n
    reg, out = tmp_path / "r.csv", tmp_path / "t.csv"
    args = ("bounds", "--table", "figure2-left", "--dims", "1..4", "--registry", str(reg),
            "--out", str(out))
    for row, want in (("3,1.0000000000005,,,x", "3,rsuq_best_packing,0,geometric-excess"),
                      ("3,0.5,0.9999999999995,,x", "3,lattice_covering,0,log-covering-density")):
        reg.write_text(row + "\n")
        code, _, err = run_cli(*args)
        assert code == 0, err
        assert want in out.read_text().splitlines()
    for row in ("3,1.000000000002,,,x", "3,0.5,0.999999999998,,x"):
        reg.write_text(row + "\n")
        code, _, err = run_cli(*args)
        assert code == 2 and "n=3" in err, err


def test_bounds_dims_refused_before_listing(tmp_path):
    # a reversed range, also beside a valid part, a spec past the cap on
    # listed dimensions and a dimension from 2**32 (refused by the rule of a
    # registry row's n) exit 2 naming the part, before any table is written
    import rsuq.cli as cli

    out = tmp_path / "t.csv"
    for spec, part in (("5..3,8", "'5..3'"), ("5..3", "'5..3'"),
                       ("1..10000000000", "'1..10000000000'"),
                       ("2,4294967296", "'4294967296': dimension '4294967296' is not an "
                                        "integer in 1..2**32-1")):
        code, _, err = run_cli("bounds", "--table", "figure2-left", "--dims", spec,
                               "--out", str(out))
        assert code == 2 and part in err, (spec, err)
    assert not out.exists()
    cap = cli._MAX_DIMS
    with pytest.raises(ValueError, match=f"'{cap + 1}'"):
        cli._parse_dims(f"1..{cap},{cap + 1}")
    assert cli._parse_dims(f"1..{cap}") == list(range(1, cap + 1))
    assert cli._parse_dims("1..8,24") == [*range(1, 9), 24]


def test_bounds_dims_must_be_integers(tmp_path):
    # a bound that is not an integer exits 2 naming its part, as a reversed range does
    out = tmp_path / "t.csv"
    # a bound past int()'s 4300 digits is refused by its length, not by int()
    for spec in ("a..3", "2..b", "..3", "1.5", "1" * 5000, "2.." + "1" * 5000):
        code, _, err = run_cli("bounds", "--table", "table1", "--dims", spec, "--out", str(out))
        assert code == 2 and f"bad dimension range {spec!r}" in err, (spec, err)
    assert not out.exists()


@pytest.mark.parametrize("row,why", [
    ("3.5,0.5,,,x", "dimension '3.5' is not an integer"),
    ("3,abc,,,x", "value 'abc' is not a number"),
    ("3,0.5,,0.05,x", "n=3: second moment 0.05 below the ball value"),
    pytest.param("1" * 5000 + ",0.5,,,x",
                 f"dimension '{'1' * 5000}' is not an integer in 1..2**32-1", id="5000-digit-n"),
    ("4294967296,0.5,,,x", "dimension '4294967296' is not an integer in 1..2**32-1"),
])
def test_bad_registry_row_names_its_line(tmp_path, row, why):
    # not a bare int()/float() error: exit 2 naming the CSV line (a comment counts)
    reg, out = tmp_path / "r.csv", tmp_path / "t.csv"
    reg.write_text("n,delta,theta,nsm,source\n# note\n" + row + "\n")
    code, _, err = run_cli("bounds", "--table", "figure2-left", "--dims", "1..4",
                           "--registry", str(reg), "--out", str(out))
    assert code == 2 and f"error: registry line 3: {why}" in err, err
    assert not out.exists()


_BOUNDS_SHA256 = {
    "table1": "fddc74635ccb600ed12f246431eb5bebb8df759e9175c51170ec7eeb6b115d81",
    "figure2-left": "8a768a5355743ae150c0bbab37e976f70afe904248d7ca0fe3552df336f32669",
    "figure2-right": "15f3fe079d4d7b62a5be1595c2e30c2105103331674bf3f67550c42a4377d78c",
    "figure2-left+fcc": "9aaa1fd7e64ff03067aa8b77853b824bdc0c1638aa42a8bbb704a5ead86b9c08",
}


@pytest.mark.parametrize("name", sorted(_BOUNDS_SHA256))
def test_bounds_csv_digests(tmp_path, name):
    # the tables at --dims 1..48 are pinned byte for byte, also with a user row
    import hashlib

    table, _, user = name.partition("+")
    extra = []
    if user:
        reg = tmp_path / "reg.csv"
        reg.write_text("n,delta,theta,nsm,source\n3,0.74048,1.4635,0.078543,fcc\n")
        extra = ["--registry", str(reg)]
    out = tmp_path / "t.csv"
    code, _, err = run_cli("bounds", "--table", table, "--dims", "1..48", *extra,
                           "--out", str(out))
    assert code == 0, err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _BOUNDS_SHA256[name]


def test_selftest_exit_codes():
    code, out, _ = run_cli("selftest", "--quick", "--seed", "5")
    assert code == 0
    assert "failures=0" in out
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 10


def _check_printed_verdicts(out):
    # Every check line's verdict must follow from the numbers it prints: the
    # p-value against the threshold where it shows one, else the statistic.
    lines = [ln for ln in out.splitlines() if not ln.startswith("checks=")]
    assert lines
    for line in lines:
        m = re.match(r"(PASS|FAIL|  - pass|  - fail) \S+ statistic=(\S+)(?: p=(\S+))? "
                     r"threshold=(\S+)", line)
        assert m, line
        passed = m[1] in ("PASS", "  - pass")
        threshold = float(m[4])
        if m[3] is None:
            value, holds = float(m[2]), float(m[2]) <= threshold
        else:
            value, holds = float(m[3]), float(m[3]) >= threshold
        assert passed == holds or value == threshold, line


def test_selftest_lines_show_what_decided_them(monkeypatch):
    import rsuq.cli as cli
    from rsuq import mc

    _check_printed_verdicts(run_cli("selftest", "--quick", "--seed", "5")[1])

    def failing(seed, full):
        Z = mc.sample_inputs(2, 5000, 1.0, seed)
        Z[:500, 0] = np.abs(Z[:500, 0])  # norms kept: the radial KS passes, the mean fails
        yield ("ball-mean", mc.test_uniform_ball(Z, 1.0))
        yield ("gaussian-wide", mc.test_gaussian(2.0 * Z))
        yield ("closed-form", mc.TestResult(test="closed-form", statistic=2.0, threshold=1.0,
                                            verdict=False, n_samples=0))

    monkeypatch.setattr(cli, "_selftest_checks", failing)
    code, out, _ = run_cli("selftest", "--quick", "--seed", "1")
    assert code == 1 and "failures=3" in out
    assert "  - pass uniform-ball[radial-ks]" in out and "  - fail uniform-ball[mean]" in out
    _check_printed_verdicts(out)


def test_selftest_failure_exit_code(monkeypatch):
    import rsuq.cli as cli
    from rsuq.mc import TestResult

    def failing(seed, full):
        yield ("forced", TestResult(test="forced", statistic=1.0, threshold=0.0,
                                    verdict=False, n_samples=1))

    monkeypatch.setattr(cli, "_selftest_checks", failing)
    code, out, _ = run_cli("selftest", "--quick", "--seed", "1")
    assert code == 1
    assert "FAIL forced" in out and "failures=1" in out


def test_selftest_csv_output(tmp_path):
    out_csv = tmp_path / "checks.csv"
    code, _, _ = run_cli("selftest", "--quick", "--seed", "5", "--out", str(out_csv))
    assert code == 0
    text = out_csv.read_text()
    assert text.splitlines()[0] == "test,statistic,threshold,verdict,samples,seed,p_value"
    assert all(",pass," in ln or ",fail," in ln for ln in text.splitlines()[1:])


def test_selftest_csv_rows_are_the_printed_checks(tmp_path):
    # one record per printed check, under its printed name, at the run's
    # --seed, with the p-value its line prints
    out_csv = tmp_path / "checks.csv"
    code, out, _ = run_cli("selftest", "--full", "--seed", "5", "--out", str(out_csv))
    assert code == 0
    printed = [re.match(r"(?:PASS|FAIL) (\S+) statistic=\S+(?: p=(\S+))? threshold=",
                        ln).groups("") for ln in out.splitlines()
               if ln.startswith(("PASS", "FAIL"))]
    rows = [ln.split(",") for ln in out_csv.read_text().splitlines()[1:]]
    assert len(rows) == 16 and len({r[0] for r in rows}) == 16
    assert [(r[0], r[6]) for r in rows] == printed
    assert all(r[5] == "5" for r in rows)

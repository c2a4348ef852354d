"""End-to-end CLI behavior: round trips, determinism, exit codes, tables."""

import contextlib
import io
import math
import os
import subprocess
import sys
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

    assert test_gaussian(Y - X, 2).verdict


def test_decode_gaussian_stream_round_trip(tmp_path, vec_file):
    # simulate writes Y; encoding the same X through the container and
    # decoding must give the same Y (mode 1 container path)
    from rsuq.coding import MODE_GAUSSIAN, StreamHeader, encode_stream
    from rsuq.lattices import builtin_lattice
    from rsuq.layered import GaussianNoise, lrsuq_encode_batch

    path, X = vec_file
    lat = builtin_lattice("Zn", 2)
    noise = GaussianNoise(2, lat)
    K, J, Y, _ = lrsuq_encode_batch(noise, lat, 314, X)
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
    # would run about 1e21 rounds before the stream could refuse it
    src = os.path.dirname(os.path.dirname(rsuq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    path = tmp_path / "z40.vqf"
    path.write_bytes(write_vectors(np.zeros((1, 40))))
    common = ["--input", str(path), "--lattice", "Zn", "--dim", "40",
              "--output", str(tmp_path / "out")]
    for argv in (["encode", "--radius", "0.5"] + common, ["simulate"] + common):
        out = subprocess.run([sys.executable, "-m", "rsuq.cli"] + argv, env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 2, out.stderr
        assert "1 - p rounds to 1" in out.stderr


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


def test_selftest_exit_codes():
    code, out, _ = run_cli("selftest", "--quick", "--seed", "5")
    assert code == 0
    assert "failures=0" in out
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 10


def test_selftest_failure_exit_code(monkeypatch):
    import rsuq.cli as cli
    from rsuq.mc import TestResult

    def failing(seed, full):
        yield ("forced", TestResult(test="forced", statistic=1.0, threshold=0.0,
                                    verdict=False, n_samples=1, seed=seed))

    monkeypatch.setattr(cli, "_selftest_checks", failing)
    code, out, _ = run_cli("selftest", "--quick", "--seed", "1")
    assert code == 1
    assert "FAIL forced" in out and "failures=1" in out


def test_selftest_csv_output(tmp_path):
    out_csv = tmp_path / "checks.csv"
    code, _, _ = run_cli("selftest", "--quick", "--seed", "5", "--out", str(out_csv))
    assert code == 0
    text = out_csv.read_text()
    assert text.splitlines()[0] == "test,statistic,threshold,verdict,samples,seed"
    assert all(",pass," in ln or ",fail," in ln for ln in text.splitlines()[1:])

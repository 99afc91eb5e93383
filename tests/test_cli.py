import contextlib
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridpolar import cli, decoder
from hybridpolar.analysis import brute_force_weights
from hybridpolar.channel import MAX_LLR_SCALE, ChannelConfig
from hybridpolar.codespec import (MAX_FRAME_SAMPLES, CodeSpec, default_frozen_set, load_spec,
                                  save_spec)

BASE_CONFIG = """\
scheme = hybrid
n = 16
k = 6
t = 2
r = 4
list_size = 4
crc_poly = 0x43
crc_len = 0
channel = awgn
fading_blocks = 0
design_snr = 2.0
ebn0_list = 8.0
seed = 123
max_frames = 50
target_errors = 0
encoder_variant = flat
pin_coefficients = false
"""


def write_config(tmp_path, text=BASE_CONFIG, name="sim.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def strip_wall(csv_text: str) -> str:
    lines = csv_text.strip().splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


def edit_config(text, **kv):
    lines = []
    for line in text.splitlines():
        key = line.split("=")[0].strip()
        if key in kv:
            lines.append(f"{key} = {kv.pop(key)}")
        else:
            lines.append(line)
    for key, value in kv.items():
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# --- config parsing ---------------------------------------------------------------

def test_parse_config_roundtrip(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path))
    assert cfg.code.scheme == "hybrid" and cfg.code.n == 16 and cfg.seed == 123
    assert cfg.ebn0_list == (8.0,)
    assert cfg.pin_coefficients is False


def test_missing_design_snr_names_key(tmp_path):
    text = "\n".join(line for line in BASE_CONFIG.splitlines()
                     if not line.startswith("design_snr"))
    with pytest.raises(ValueError, match="design_snr"):
        cli.parse_config(write_config(tmp_path, text))


def test_unknown_config_key_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown config key"):
        cli.parse_config(write_config(tmp_path, BASE_CONFIG + "turbo_mode = on\n"))


@pytest.mark.parametrize("key,value", [("n", "x"), ("seed", "1.5"), ("fading_blocks", "z"),
                                       ("ebn0_list", "1,a"), ("design_snr", "abc")])
def test_unreadable_config_value_names_its_key_and_file(tmp_path, capsys, key, value):
    cfg_path = write_config(tmp_path, edit_config(BASE_CONFIG, **{key: value}))
    bad = repr(value.split(",")[-1])
    with pytest.raises(ValueError, match=re.escape(f"{cfg_path}: {key} = {bad} is not a valid")):
        cli.parse_config(cfg_path)
    assert cli.main(["construct", str(cfg_path), "-o", str(tmp_path / "x.spec")]) == 1
    assert_one_error_line(capsys, str(cfg_path), key)


def test_repeated_config_key_rejected(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "seed = 2\n")
    lines = BASE_CONFIG.count("\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{lines + 1}: repeated key 'seed'")):
        cli.parse_config(path)


REPO = Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = [*sorted(REPO.glob("demos/configs/*.cfg")),
                   *sorted(REPO.glob("perfbench/specs/*.cfg"))]


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_shipped_configs_parse_and_match_their_specs(path):
    cfg = cli.parse_config(path)
    if path.parent.name == "specs":    # perfbench/specs ships each code's config with its spec
        cli.check_config_matches_spec(cfg, load_spec(path.with_suffix(".spec")))


def assert_one_error_line(capsys, *words):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    for word in words:
        assert word in err


@pytest.mark.parametrize("kv,word", [(dict(channel="rayleigh"), "rayleigh"),
                                     (dict(channel="rayleigh_block", fading_blocks=0),
                                      "fading_blocks"),
                                     (dict(channel="rayleigh_block", fading_blocks=3),
                                      "fading_blocks = 3 does not divide N = 64")])
def test_construct_rejects_bad_channel(tmp_path, capsys, kv, word):
    cfg_path = write_config(tmp_path, edit_config(BASE_CONFIG, **kv))
    out = tmp_path / "x.spec"
    assert cli.main(["construct", str(cfg_path), "-o", str(out)]) == 1
    assert_one_error_line(capsys, word)
    assert not out.exists()


@pytest.mark.parametrize("kv,word", [(dict(k=-3), "'k': -3 is negative"),
                                     (dict(crc_len=-2), "'p': -2 is negative")])
def test_construct_rejects_negative_lengths(tmp_path, capsys, kv, word):
    cfg_path = write_config(tmp_path, edit_config(BASE_CONFIG, **kv))
    out = tmp_path / "x.spec"
    assert cli.main(["construct", str(cfg_path), "-o", str(out)]) == 1
    assert_one_error_line(capsys, word)
    assert not out.exists()


# A k = 0 code whose p = n CRC bits fill every position: no frozen bit to rank, no rate.
K0_FULL_CRC = dict(scheme="polar_repetition", n=4, t=1, r=2, k=0, crc_len=4, crc_poly="0x13")


@pytest.mark.parametrize("kv,word", [
    (dict(seed=-1), "seed must be >= 0, got -1"),
    (dict(ebn0_list="1.0,nan"), "ebn0_list entry nan"),
    (dict(ebn0_list="inf"), "ebn0_list entry inf"),
    (dict(ebn0_list="2.0,-inf"), "ebn0_list entry -inf"),
    (dict(ebn0_list="1505"), "Eb/N0 = 1505.0 dB"),     # 2/sigma^2 past MAX_LLR_SCALE at k/N = 6/64
    (dict(crc_poly="-0x43"), "'crc_poly': -67 is negative"),
    (dict(crc_poly="-0x43", crc_len=6), "'crc_poly': -67 is negative"),
    (dict(n=512, k=80, t=4, r=16, crc_len=6, list_size=2 ** 40), "list size 1099511627776"),
    (K0_FULL_CRC, "code rate must be positive")])
def test_construct_rejects_what_simulate_would(tmp_path, capsys, kv, word):
    # Each of these configs used to construct a spec that simulate then refused.
    cfg_path = write_config(tmp_path, edit_config(BASE_CONFIG, **kv))
    out = tmp_path / "x.spec"
    assert cli.main(["construct", str(cfg_path), "-o", str(out), "--trials", "4"]) == 1
    assert_one_error_line(capsys, word)
    assert not out.exists()


def test_construct_accepts_an_empty_ebn0_list(tmp_path):
    # With no Eb/N0 point there is nothing to simulate, so even k = 0 constructs.
    cfg_path = write_config(tmp_path, edit_config(BASE_CONFIG, ebn0_list="", **K0_FULL_CRC))
    out = tmp_path / "x.spec"
    assert cli.main(["construct", str(cfg_path), "-o", str(out), "--trials", "4"]) == 0
    assert load_spec(out).k == 0


# --- construct ----------------------------------------------------------------------

def test_construct_writes_spec_and_is_deterministic(tmp_path):
    cfg_path = write_config(tmp_path)
    out1, out2 = tmp_path / "a.spec", tmp_path / "b.spec"
    assert cli.main(["construct", str(cfg_path), "-o", str(out1), "--trials", "50"]) == 0
    assert cli.main(["construct", str(cfg_path), "-o", str(out2), "--trials", "50"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    spec = load_spec(out1)
    assert len(spec.frozen_set) == 10


def test_construct_counts_csv_leaves_the_frozen_set_unchanged(tmp_path, capsys):
    # --counts writes each position's first-error count and frozen flag and prints the
    # counts either side of the freeze boundary; the spec is byte-identical without it.
    cfg_path = write_config(tmp_path)
    plain, counted, csv_path = tmp_path / "a.spec", tmp_path / "b.spec", tmp_path / "c.csv"
    assert cli.main(["construct", str(cfg_path), "-o", str(plain), "--trials", "50"]) == 0
    capsys.readouterr()
    assert cli.main(["construct", str(cfg_path), "-o", str(counted), "--trials", "50",
                     "--counts", str(csv_path)]) == 0
    assert counted.read_bytes() == plain.read_bytes()
    spec = load_spec(counted)
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "position,first_errors,frozen" and len(rows) == spec.n + 1
    table = np.array([[int(v) for v in row.split(",")] for row in rows[1:]])
    assert np.array_equal(table[:, 0], np.arange(spec.n))
    assert np.array_equal(table[:, 2], spec.frozen_mask())
    assert 0 < table[:, 1].sum() <= 50
    low, high = table[table[:, 2] == 1, 1].min(), table[table[:, 2] == 0, 1].max()
    assert f"lowest frozen count {low}, highest unfrozen count {high}" in capsys.readouterr().out


def test_construct_full_rate_empty_frozen(tmp_path):
    text = edit_config(BASE_CONFIG, k=16, crc_len=0)
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "full.spec"
    assert cli.main(["construct", str(cfg_path), "-o", str(out), "--trials", "5"]) == 0
    assert load_spec(out).frozen_set == ()


def test_construct_missing_key_exit_code(tmp_path, capsys):
    text = "\n".join(line for line in BASE_CONFIG.splitlines()
                     if not line.startswith("design_snr"))
    cfg_path = write_config(tmp_path, text)
    assert cli.main(["construct", str(cfg_path), "-o", str(tmp_path / "x.spec")]) == 1
    assert "design_snr" in capsys.readouterr().err


# --- simulate -----------------------------------------------------------------------

@pytest.fixture()
def constructed(tmp_path):
    cfg_path = write_config(tmp_path)
    spec_path = tmp_path / "code.spec"
    cli.main(["construct", str(cfg_path), "-o", str(spec_path), "--trials", "200"])
    return cfg_path, spec_path


def test_simulate_noiseless_point_zero_fer(tmp_path, constructed):
    cfg_path, spec_path = constructed
    text = edit_config(BASE_CONFIG, ebn0_list="60.0", max_frames=30)
    cfg2 = write_config(tmp_path, text, name="hi.cfg")
    out = tmp_path / "out.csv"
    assert cli.main(["simulate", str(cfg2), "--spec", str(spec_path),
                     "-o", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == ("scheme,n,N,k,t,r,L,channel,B,ebn0_db,seed,frames,"
                       "frame_errors,bit_errors,fer,ber,wall_seconds")
    record = rows[1].split(",")
    assert record[rows[0].split(",").index("frame_errors")] == "0"
    assert record[rows[0].split(",").index("fer")] == "0.0"


def test_simulate_target_zero_runs_max_frames(tmp_path, constructed):
    cfg_path, spec_path = constructed
    text = edit_config(BASE_CONFIG, ebn0_list="-20.0", max_frames=37, target_errors=0)
    cfg2 = write_config(tmp_path, text, name="t0.cfg")
    out = tmp_path / "out.csv"
    cli.main(["simulate", str(cfg2), "--spec", str(spec_path), "-o", str(out)])
    frames = out.read_text().strip().splitlines()[1].split(",")[11]
    assert frames == "37"


def test_simulate_stop_rule_honoured(tmp_path, constructed):
    cfg_path, spec_path = constructed
    text = edit_config(BASE_CONFIG, ebn0_list="-20.0", max_frames=500,
                       target_errors=5)
    cfg2 = write_config(tmp_path, text, name="stop.cfg")
    out = tmp_path / "out.csv"
    cli.main(["simulate", str(cfg2), "--spec", str(spec_path), "-o", str(out)])
    row = out.read_text().strip().splitlines()[1].split(",")
    frames, errors = int(row[11]), int(row[12])
    assert errors == 5 or frames == 500


def test_simulate_csv_reproducible(tmp_path, constructed):
    cfg_path, spec_path = constructed
    text = edit_config(BASE_CONFIG, ebn0_list="2.0,4.0", max_frames=40)
    cfg2 = write_config(tmp_path, text, name="rep.cfg")
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    cli.main(["simulate", str(cfg2), "--spec", str(spec_path), "-o", str(out1)])
    cli.main(["simulate", str(cfg2), "--spec", str(spec_path), "-o", str(out2)])
    assert strip_wall(out1.read_text()) == strip_wall(out2.read_text())


# CodeSpec field -> a config edit, valid on its own, that changes that field of the code.
MISMATCHES = {"scheme": dict(scheme="polar_repetition", t=1), "n": dict(n=32), "k": dict(k=7),
              "t": dict(t=4), "r": dict(r=2), "p": dict(crc_len=6),
              "crc_poly": dict(crc_poly="0x45"),
              "encoder_variant": dict(encoder_variant="recursive")}


@pytest.mark.parametrize("field", MISMATCHES)
def test_simulate_detects_spec_config_mismatch(tmp_path, constructed, capsys, field):
    cfg_path, spec_path = constructed
    cfg2 = write_config(tmp_path, edit_config(BASE_CONFIG, **MISMATCHES[field]), name="bad.cfg")
    assert cli.main(["simulate", str(cfg2), "--spec", str(spec_path)]) == 1
    assert_one_error_line(capsys, f"spec/config mismatch on {field}:")


def test_simulate_baseline_scheme(tmp_path):
    text = edit_config(BASE_CONFIG, scheme="polar_repetition", t=1,
                       ebn0_list="40.0", max_frames=20)
    cfg_path = write_config(tmp_path, text, name="base.cfg")
    spec_path = tmp_path / "base.spec"
    assert cli.main(["construct", str(cfg_path), "-o", str(spec_path),
                     "--trials", "100"]) == 0
    out = tmp_path / "base.csv"
    assert cli.main(["simulate", str(cfg_path), "--spec", str(spec_path),
                     "-o", str(out)]) == 0
    assert out.read_text().strip().splitlines()[1].split(",")[12] == "0"


@pytest.mark.parametrize("scheme,t", [("hybrid", 2), ("polar_repetition", 1)])
def test_simulate_point_does_not_depend_on_the_chunk(monkeypatch, scheme, t):
    # Chunks of 3 frames against the default single chunk; the error stop at
    # -2 dB falls inside a chunk of 3.
    spec = CodeSpec(scheme, n=16, k=6, t=t, r=2, p=3, crc_poly=0b1011,
                    frozen_set=default_frozen_set(16, 6, 3), design_snr=2.0)

    def records():
        return [dataclasses.replace(cli.simulate_point(spec, ebn0, 4, seed=7, max_frames=40,
                                                       target_errors=target),
                                    wall_seconds=0.0)
                for ebn0, target in ((-2.0, 8), (2.0, 0))]

    default = records()
    monkeypatch.setattr(decoder, "frame_batch", lambda spec, list_size, pinned: 3)
    assert records() == default
    assert default[0].frame_errors == 8 and default[0].frames % 3 and default[1].frames == 40


@pytest.mark.parametrize("max_frames", [0, -3])
def test_simulate_point_rejects_nonpositive_max_frames(tmp_path, max_frames):
    text = edit_config(BASE_CONFIG, scheme="polar_repetition", n=32, t=1)
    spec = cli.parse_config(write_config(tmp_path, text)).code
    with pytest.raises(ValueError, match="max_frames"):
        cli.simulate_point(spec, 2.0, 1, 1, max_frames=max_frames, target_errors=0)


@pytest.mark.parametrize("key,value", [("max_frames", 0), ("max_frames", -1),
                                       ("target_errors", -1), ("list_size", 0),
                                       ("list_size", -4)])
def test_out_of_range_counts_rejected(tmp_path, constructed, capsys, key, value):
    cfg_path, spec_path = constructed
    cfg_bad = write_config(tmp_path, edit_config(BASE_CONFIG, **{key: value}), "bad.cfg")
    with pytest.raises(ValueError, match=key):
        cli.parse_config(cfg_bad)
    for argv in (["simulate", str(cfg_bad), "--spec", str(spec_path)],
                 ["construct", str(cfg_bad), "-o", str(tmp_path / "x.spec")]):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and err.count("\n") == 1


def test_roundtrip_zero_frames_is_diagnosed(constructed, capsys):
    cfg_path, spec_path = constructed
    assert cli.main(["roundtrip", "--spec", str(spec_path), "--frames", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("ebn0", ["4000", "nan", "-4000", "3080"])
def test_unusable_snr_is_diagnosed(tmp_path, constructed, capsys, ebn0):
    cfg_path, spec_path = constructed
    cfg_sim = write_config(tmp_path, edit_config(BASE_CONFIG, ebn0_list=ebn0), "snr.cfg")
    assert cli.main(["simulate", str(cfg_sim), "--spec", str(spec_path)]) == 1
    assert_one_error_line(capsys, "Eb/N0")
    cfg_con = write_config(tmp_path, edit_config(BASE_CONFIG, design_snr=ebn0), "des.cfg")
    assert cli.main(["construct", str(cfg_con), "-o", str(tmp_path / "x.spec")]) == 1
    assert_one_error_line(capsys, "Eb/N0")
    assert cli.main(["roundtrip", "--spec", str(spec_path), "--ebn0", ebn0]) == 1
    assert_one_error_line(capsys, "Eb/N0")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scheme,t", [("hybrid", 2), ("hybrid", 4), ("polar_repetition", 1)])
def test_largest_accepted_snr_decodes_cleanly(scheme, t):
    # The largest Eb/N0 that ChannelConfig accepts puts 2/sigma^2 just under
    # MAX_LLR_SCALE (about 1504.26 dB for this code): the repetition sums, the
    # Stage-2 spans and the path metrics must all stay finite.
    n, k, p, r = 16, 6, 3, 4
    spec = CodeSpec(scheme, n=n, k=k, t=t, r=r, p=p, crc_poly=0b1011,
                    frozen_set=default_frozen_set(n, k, p), design_snr=2.0)
    ebn0 = 10.0 * math.log10(MAX_LLR_SCALE / (4.0 * spec.rate))
    while True:
        try:
            cfg = ChannelConfig("awgn", ebn0, spec.rate)
            break
        except ValueError:
            ebn0 = float(np.nextafter(ebn0, -np.inf))
    assert 2.0 / cfg.sigma2 > MAX_LLR_SCALE * (1 - 1e-12)
    rec = cli.simulate_point(spec, ebn0, list_size=4, seed=5, max_frames=20, target_errors=0)
    assert rec.frames == 20 and rec.frame_errors == 0


# --- complexity ------------------------------------------------------------------------

def test_complexity_all_table1(capsys):
    assert cli.main(["complexity", "--all-table1"]) == 0
    out = capsys.readouterr().out
    for total in ("19200", "13056", "10304", "42240", "25408", "17920",
                  "260160", "129152", "71792"):
        assert total in out


def test_complexity_single(capsys):
    assert cli.main(["complexity", "--scheme", "hybrid", "-n", "512",
                     "-r", "16", "-t", "4"]) == 0
    assert "260160" in capsys.readouterr().out


def test_complexity_unknown_scheme_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["complexity", "--scheme", "viterbi"])
    assert exc.value.code == 2


# --- weights and roundtrip ---------------------------------------------------------------

def test_weights_match_brute_force(tmp_path, constructed):
    cfg_path, spec_path = constructed
    out = tmp_path / "w.csv"
    assert cli.main(["weights", "--spec", str(spec_path), "--list-size", "64",
                     "--snr", "40.0", "--seed", "7", "-o", str(out)]) == 0
    spec = load_spec(spec_path)
    exact = brute_force_weights(spec, seed=7)
    got = {}
    for line in out.read_text().strip().splitlines()[1:]:
        w, c = line.split(",")
        got[int(w)] = int(c)
    assert got == exact.counts


def test_roundtrip_smoke(tmp_path, constructed, capsys):
    cfg_path, spec_path = constructed
    assert cli.main(["roundtrip", "--spec", str(spec_path), "--frames", "20",
                     "--ebn0", "30.0", "--seed", "1"]) == 0
    assert "0 frame errors" in capsys.readouterr().out


def test_a_baseline_over_a_larger_field_fails_with_one_line(capsys, tmp_path):
    # The polar repetition scheme is binary; a config with t = 4 must not write a
    # spec, or a CSV row, that reports a field its frames never used.
    cfg_path = write_config(tmp_path, edit_config(BASE_CONFIG, scheme="polar_repetition", t=4))
    spec_path = tmp_path / "code.spec"
    assert cli.main(["construct", str(cfg_path), "-o", str(spec_path), "--trials", "4"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: invalid CodeSpec field 't'"), err
    assert not spec_path.exists()


def test_missing_file_is_diagnosed(capsys, tmp_path):
    assert cli.main(["simulate", str(tmp_path / "nope.cfg"),
                     "--spec", str(tmp_path / "nope.spec")]) == 1
    assert "error:" in capsys.readouterr().err


# A child process with this address-space cap: an unchecked list size then ends
# in a MemoryError instead of filling the host's memory.
CHILD_MEMORY_CAP = 1 << 30
CAPPED_MAIN = ("import resource, sys\n"
               f"resource.setrlimit(resource.RLIMIT_AS, ({CHILD_MEMORY_CAP}, {CHILD_MEMORY_CAP}))\n"
               "from hybridpolar import cli\n"
               "sys.exit(cli.main(sys.argv[1:]))\n")


def run_capped(args):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", CAPPED_MAIN, *args], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("command", ["weights", "simulate"])
@pytest.mark.parametrize("list_size", [1024, 2**40])
def test_list_size_is_bounded_by_the_path_budget(tmp_path, command, list_size):
    # Paths double on every unfrozen bit until they reach L, so an L whose path
    # arrays exceed the decoder's budget is refused with one error line.  The
    # weights default L = 1024 stays accepted at the paper's GF(16), n = 512 size.
    text = edit_config(BASE_CONFIG, n=512, k=80, t=4, r=16, crc_len=6, list_size=list_size,
                       ebn0_list="1.5", max_frames=8)
    cfg_path = write_config(tmp_path, text)
    spec_path = tmp_path / "code.spec"
    save_spec(cli.parse_config(cfg_path).code, spec_path)
    args = {"weights": ["weights", "--spec", str(spec_path), "--list-size", str(list_size),
                        "--snr", "40.0", "--seed", "3", "-o", str(tmp_path / "w.csv")],
            "simulate": ["simulate", str(cfg_path), "--spec", str(spec_path),
                         "-o", str(tmp_path / "s.csv")]}[command]
    proc = run_capped(args)
    if list_size == 1024:
        assert proc.returncode == 0, proc.stderr
        return
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: list size") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("command", ["construct", "simulate"])
@pytest.mark.parametrize("key,field", [("k", "k"), ("crc_len", "p")])
def test_a_huge_negative_length_fails_with_one_line(tmp_path, constructed, command, key, field):
    # Reading a config builds its code, placeholder frozen set included, before
    # CodeSpec.validate runs; that set must not grow with -k or -p.
    cfg_path, spec_path = constructed
    bad = write_config(tmp_path, edit_config(BASE_CONFIG, **{key: -2**40}), "bad.cfg")
    args = {"construct": ["construct", str(bad), "-o", str(tmp_path / "x.spec")],
            "simulate": ["simulate", str(bad), "--spec", str(spec_path)]}[command]
    proc = run_capped(args)
    assert proc.returncode == 1 and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith(f"error: invalid CodeSpec field '{field}': -{2**40} is negative")


@pytest.mark.parametrize("command", ["construct", "simulate"])
@pytest.mark.parametrize("n,word", [(2**40, f"{2**40} exceeds the decoder's"),
                                    (2**40 + 1, f"{2**40 + 1} is not a power of two")],
                         ids=["power_of_two", "other"])
def test_a_huge_length_fails_with_one_line(tmp_path, constructed, command, n, word):
    # n is checked before the placeholder frozen set of about n indices is built.
    cfg_path, spec_path = constructed
    bad = write_config(tmp_path, edit_config(BASE_CONFIG, n=n), "bad.cfg")
    args = {"construct": ["construct", str(bad), "-o", str(tmp_path / "x.spec")],
            "simulate": ["simulate", str(bad), "--spec", str(spec_path)]}[command]
    proc = run_capped(args)
    assert proc.returncode == 1 and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith(f"error: invalid CodeSpec field 'n': {word}")


def test_the_widest_decodable_length_is_a_valid_code():
    n = decoder.MAX_PATH_ENTRIES
    assert CodeSpec("polar_repetition", n, n, 1, 1, 0, 0x43, (), 0.0).n == n
    assert default_frozen_set(2 * n, 0, 0) == default_frozen_set(n + 1, 0, 0) == ()
    with pytest.raises(ValueError, match=f"'n': {2 * n} exceeds the decoder's"):
        CodeSpec("polar_repetition", 2 * n, 2 * n, 1, 1, 0, 0x43, (), 0.0)


PAPER_CONFIG = edit_config(BASE_CONFIG, n=512, k=80, r=16, list_size=8, crc_len=6,
                           ebn0_list="1.5", max_frames=64)


@pytest.mark.parametrize("command", ["construct", "simulate", "weights", "roundtrip"])
@pytest.mark.parametrize("scheme,t", [("hybrid", 2), ("polar_repetition", 1)])
@pytest.mark.parametrize("r", [2**40, 2**16])
def test_a_huge_repetition_fails_with_one_line(tmp_path, command, scheme, t, r):
    # N = n*r is bounded before any coefficient array or N-sample buffer is built,
    # in a config and in a hand-written spec alike.
    text = edit_config(PAPER_CONFIG, scheme=scheme, t=t)
    spec_path = tmp_path / "code.spec"
    save_spec(cli.parse_config(write_config(tmp_path, text)).code, spec_path)
    spec_text = "".join(f"r = {r}\n" if line.startswith("r =") else line
                        for line in spec_path.read_text().splitlines(True)
                        if not line.startswith("N ="))
    spec_path.write_text(spec_text)
    cfg_path = write_config(tmp_path, edit_config(text, r=r))
    args = {"construct": ["construct", str(cfg_path), "-o", str(tmp_path / "x.spec"),
                          "--trials", "4"],
            "simulate": ["simulate", str(cfg_path), "--spec", str(spec_path)],
            "weights": ["weights", "--spec", str(spec_path), "--list-size", "4"],
            "roundtrip": ["roundtrip", "--spec", str(spec_path), "--frames", "4"]}[command]
    proc = run_capped(args)
    assert proc.returncode == 1 and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith(f"error: invalid CodeSpec field 'r': N = n*r = {512 * r} "
                                  f"exceeds {MAX_FRAME_SAMPLES}")


@pytest.mark.parametrize("command,scheme,t,r", [
    pytest.param("construct", "polar_repetition", 1, 4096, id="construct-polar_repetition-1"),
    pytest.param("simulate", "hybrid", 2, 4096, id="simulate-hybrid-2"),
    pytest.param("construct", "polar_repetition", 1, 32768,
                 id="construct-polar_repetition-1-r32768"),
    pytest.param("construct", "hybrid", 2, 32768, id="construct-hybrid-2-r32768"),
])
def test_a_long_frame_runs_under_the_memory_cap(tmp_path, command, scheme, t, r):
    # N = 2^21: baseline trials hold no (trials, N) array, and an unpinned hybrid
    # chunk is sized by its per-frame coefficients and keys (a 64-frame chunk of
    # them would need about 1.5 GiB).  N = 2^24, the longest frame a spec accepts:
    # the channel's noise ring holds one N-sample buffer, not four.
    text = edit_config(PAPER_CONFIG, scheme=scheme, t=t, r=r)
    cfg_path = write_config(tmp_path, text)
    spec_path = tmp_path / "code.spec"
    if command == "simulate":
        save_spec(cli.parse_config(cfg_path).code, spec_path)
    trials = "64" if r == 4096 else "4"
    args = {"construct": ["construct", str(cfg_path), "-o", str(spec_path), "--trials", trials],
            "simulate": ["simulate", str(cfg_path), "--spec", str(spec_path),
                         "-o", str(tmp_path / "s.csv")]}[command]
    proc = run_capped(args)
    assert proc.returncode == 0, proc.stderr
    if command == "construct":
        assert load_spec(spec_path).N == 512 * r
    else:
        assert (tmp_path / "s.csv").read_text().splitlines()[1].split(",")[11] == "64"


# --- any config: it runs, or it fails with one error line ------------------------------

# Values the property below swaps into an otherwise valid config.
EDGE_VALUES = {
    "scheme": ["turbo", ""], "n": ["1", "3", "0", "-8", "x"], "k": ["0", "-1", "64", "70"],
    "t": ["3", "0", "8"], "r": ["0", "-2", "9", str(2**24 + 1), str(2**40)],
    "list_size": ["0", "-1", "3", str(2 ** 40)],
    "crc_poly": ["0", "0x1", "z", "-0x43", "0x10000"], "crc_len": ["-1", "7", "64"],
    "channel": ["rayleigh", ""], "fading_blocks": ["0", "3", "1000", "-1"],
    "design_snr": ["nan", "inf", "-inf", "1e300", "abc", "1500"],
    "ebn0_list": ["", "nan", "inf", "1e300", "1,,2", "a", "1500"],
    "seed": ["-1", str(2 ** 70)], "max_frames": ["0", "-1"], "target_errors": ["-1", "1000"],
    "encoder_variant": ["other"], "pin_coefficients": ["maybe"],
}


@st.composite
def cli_configs(draw):
    """A valid config with n <= 64, then up to two edge values and now and then a dropped key.

    max_frames is never dropped: its default is a million frames.
    """
    scheme = draw(st.sampled_from(["hybrid", "polar_repetition"]))
    t = draw(st.sampled_from([1, 2, 4])) if scheme == "hybrid" else 1
    n = t << draw(st.integers(0, (64 // t).bit_length() - 1))
    p, poly = draw(st.sampled_from([(0, 0x43), (3, 0xB), (6, 0x43)]).filter(lambda c: c[0] < n))
    channel = draw(st.sampled_from(["awgn", "rayleigh_block"]))
    fields = {
        "scheme": scheme, "n": n, "k": draw(st.integers(1, n - p)), "t": t,
        "r": draw(st.integers(1, 4)), "list_size": draw(st.sampled_from([1, 2, 4, 8])),
        "crc_poly": hex(poly), "crc_len": p, "channel": channel,
        "fading_blocks": draw(st.sampled_from([1, 2, 4])) if channel != "awgn" else 0,
        "design_snr": draw(st.floats(-10, 30)),
        "ebn0_list": ",".join(map(str, draw(st.lists(st.floats(-10, 30), min_size=1,
                                                     max_size=2)))),
        "seed": draw(st.integers(0, 1000)), "max_frames": draw(st.integers(1, 5)),
        "target_errors": draw(st.integers(0, 3)),
        "encoder_variant": draw(st.sampled_from(["flat", "recursive"])),
        "pin_coefficients": draw(st.sampled_from(["true", "false"])),
    }
    for key in draw(st.lists(st.sampled_from(sorted(EDGE_VALUES)), max_size=2)):
        fields[key] = draw(st.sampled_from(EDGE_VALUES[key]))
    if draw(st.integers(0, 9)) == 0:
        del fields[draw(st.sampled_from(sorted(set(fields) - {"max_frames"})))]
    return "".join(f"{key} = {value}\n" for key, value in fields.items())


@settings(max_examples=50, deadline=None)
@given(text=cli_configs())
def test_any_config_runs_or_prints_one_error_line(text):
    # construct --trials 4, then simulate on the spec it wrote: each exits 0, or
    # exits 1 after exactly one "error:" line.  An escaping exception fails the test.
    # Once construct has exited 0, simulate may fail only for want of an Eb/N0.
    with tempfile.TemporaryDirectory() as tmp:
        cfg, spec = os.path.join(tmp, "fuzz.cfg"), os.path.join(tmp, "fuzz.spec")
        with open(cfg, "w") as fh:
            fh.write(text)
        for argv in (["construct", cfg, "-o", spec, "--trials", "4"],
                     ["simulate", cfg, "--spec", spec, "-o", os.path.join(tmp, "out.csv")]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code == 0:
                continue
            assert code == 1 and err.getvalue().startswith("error:"), (argv[0], code, err.getvalue())
            assert err.getvalue().count("\n") == 1, err.getvalue()
            assert argv[0] == "construct" or not cli.parse_config(cfg).ebn0_list, \
                err.getvalue()
            break

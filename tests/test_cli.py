import math
import re

import numpy as np
import pytest

from hybridpolar import cli
from hybridpolar.analysis import brute_force_weights, pinned_coefficients
from hybridpolar.channel import MAX_LLR_SCALE, ChannelConfig
from hybridpolar.codespec import CodeSpec, default_frozen_set, load_spec

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
    assert cfg.scheme == "hybrid" and cfg.n == 16 and cfg.seed == 123
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


def test_repeated_config_key_rejected(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "seed = 2\n")
    lines = BASE_CONFIG.count("\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{lines + 1}: repeated key 'seed'")):
        cli.parse_config(path)


def assert_one_error_line(capsys, *words):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    for word in words:
        assert word in err


@pytest.mark.parametrize("kv,word", [(dict(channel="rayleigh"), "rayleigh"),
                                     (dict(channel="rayleigh_block", fading_blocks=0),
                                      "fading_blocks")])
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


# --- construct ----------------------------------------------------------------------

def test_construct_writes_spec_and_is_deterministic(tmp_path):
    cfg_path = write_config(tmp_path)
    out1, out2 = tmp_path / "a.spec", tmp_path / "b.spec"
    assert cli.main(["construct", str(cfg_path), "-o", str(out1), "--trials", "50"]) == 0
    assert cli.main(["construct", str(cfg_path), "-o", str(out2), "--trials", "50"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    spec = load_spec(out1)
    assert len(spec.frozen_set) == 10


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
    assert rows[0] == cli.CSV_HEADER
    record = rows[1].split(",")
    assert record[cli.CSV_HEADER.split(",").index("frame_errors")] == "0"
    assert record[cli.CSV_HEADER.split(",").index("fer")] == "0.0"


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


def test_simulate_sc_mode_matches_l1(tmp_path, constructed):
    cfg_path, spec_path = constructed
    text = edit_config(BASE_CONFIG, ebn0_list="0.0", max_frames=60, list_size=1)
    cfg2 = write_config(tmp_path, text, name="sc.cfg")
    out1, out2 = tmp_path / "scl.csv", tmp_path / "sc.csv"
    cli.main(["simulate", str(cfg2), "--spec", str(spec_path), "-o", str(out1)])
    cli.main(["simulate", str(cfg2), "--spec", str(spec_path), "-o", str(out2),
              "--decoder", "sc"])
    assert strip_wall(out1.read_text()) == strip_wall(out2.read_text())


def test_simulate_detects_spec_config_mismatch(tmp_path, constructed, capsys):
    cfg_path, spec_path = constructed
    text = edit_config(BASE_CONFIG, k=7)
    cfg2 = write_config(tmp_path, text, name="bad.cfg")
    assert cli.main(["simulate", str(cfg2), "--spec", str(spec_path)]) == 1
    assert "mismatch" in capsys.readouterr().err


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


@pytest.mark.parametrize("max_frames", [0, -3])
def test_simulate_point_rejects_nonpositive_max_frames(tmp_path, max_frames):
    text = edit_config(BASE_CONFIG, scheme="polar_repetition", n=32, t=1)
    spec = cli.spec_from_config(cli.parse_config(write_config(tmp_path, text)))
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
    exact = brute_force_weights(spec, coefficients=pinned_coefficients(spec, 7))
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


def test_missing_file_is_diagnosed(capsys, tmp_path):
    assert cli.main(["simulate", str(tmp_path / "nope.cfg"),
                     "--spec", str(tmp_path / "nope.spec")]) == 1
    assert "error:" in capsys.readouterr().err

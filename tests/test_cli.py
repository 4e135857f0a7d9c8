import json

import pytest

import gainswitch.cli as cli
from gainswitch.metrics import METRICS_CSV_HEADER
from gainswitch.oracle import ORACLE_CSV_HEADER
from gainswitch.profiles import DEFAULT_PROFILE, default_profile, parse_profile
from gainswitch.sweeps import CYCLE_CSV_HEADER

FAST_PULSE = ["--dt", "1e-13", "--horizon", "3e-10"]


def run(argv):
    return cli.main(argv)


def test_pulse_writes_outputs(tmp_path, capsys):
    rc = run(["pulse", "--out", str(tmp_path), "--temps", "25"] + FAST_PULSE)
    assert rc == 0
    out = capsys.readouterr().out
    assert "t_on=" in out
    traj = (tmp_path / "pulse_25C_signal.csv").read_text().splitlines()
    assert traj[0] == "time_s,n_m3,s_m3"
    assert len(traj) == 3002
    metrics = (tmp_path / "metrics_signal.csv").read_text().splitlines()
    assert metrics[0] == METRICS_CSV_HEADER
    assert len(metrics) == 2


def test_pulse_decimation(tmp_path):
    rc = run(["pulse", "--out", str(tmp_path), "--temps", "25",
              "--decimate", "10"] + FAST_PULSE)
    assert rc == 0
    traj = (tmp_path / "pulse_25C_signal.csv").read_text().splitlines()
    assert len(traj) == 302


def test_pulse_json_marks_unrecovered(tmp_path):
    rc = run(["pulse", "--out", str(tmp_path), "--temps", "25",
              "--state", "decoy", "--format", "json"] + FAST_PULSE)
    assert rc == 0
    rows = json.loads((tmp_path / "metrics_decoy.json").read_text())
    assert len(rows) == 1
    assert rows[0]["t_re_ns"] is None
    assert rows[0]["recovered"] is False
    assert rows[0]["t_on_ps"] > 0.0


def test_pulse_byte_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run(["pulse", "--out", str(out), "--temps", "25"]
                   + FAST_PULSE) == 0
    assert (a / "pulse_25C_signal.csv").read_bytes() == \
        (b / "pulse_25C_signal.csv").read_bytes()
    assert (a / "metrics_signal.csv").read_bytes() == \
        (b / "metrics_signal.csv").read_bytes()


def test_pulse_divergence_exit_code(tmp_path, capsys):
    rc = run(["pulse", "--out", str(tmp_path), "--temps", "25",
              "--dt", "5e-11", "--horizon", "1e-9"])
    assert rc == 3
    assert "divergence" in capsys.readouterr().err


def test_bad_temperature_list(tmp_path, capsys):
    rc = run(["pulse", "--out", str(tmp_path), "--temps", "abc"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_profile_names_key(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(DEFAULT_PROFILE.replace("tau_p = 5.0 ps",
                                           "tau_p = 5.0 lightyears"))
    rc = run(["pulse", "--out", str(tmp_path), "--profile", str(bad),
              "--temps", "25"] + FAST_PULSE)
    assert rc == 2
    assert "tau_p" in capsys.readouterr().err


def test_flag_validation(tmp_path, capsys):
    base = ["pulse", "--out", str(tmp_path), "--temps", "25"]
    assert run(base + ["--band", "0.5"] + FAST_PULSE) == 2
    assert run(base + ["--dt=-1e-13"]) == 2
    assert run(base + ["--decimate", "-2"] + FAST_PULSE) == 2
    assert run(base + ["--jobs", "-1"] + FAST_PULSE) == 2
    assert run(base + ["--dt", "1e-10", "--horizon", "1e-11"]) == 2
    capsys.readouterr()
    # a zero or non-finite value is rejected, not replaced by the default
    for flag, value in (("dt", "0"), ("band", "0"), ("jobs", "0"),
                        ("decimate", "0"), ("horizon", "0"), ("dt", "nan"),
                        ("horizon", "inf")):
        assert run(base + [f"--{flag}", value]) == 2, flag
        assert flag in capsys.readouterr().err


def test_train_flags_unrecovered_cycles(tmp_path, capsys):
    rc = run(["train", "--out", str(tmp_path), "--temps", "45",
              "--dt", "2e-13"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FLAGGED" in out
    assert "2 of 3 cycles flagged" in out
    lines = (tmp_path / "train_8e+08Hz_45C.csv").read_text().splitlines()
    assert lines[0] == CYCLE_CSV_HEADER
    assert len(lines) == 4


def test_train_json(tmp_path):
    rc = run(["train", "--out", str(tmp_path), "--temps", "45",
              "--dt", "2e-13", "--pulses", "2", "--format", "json"])
    assert rc == 0
    rows = json.loads((tmp_path / "train_8e+08Hz_45C.json").read_text())
    assert [r["cycle"] for r in rows] == [0, 1]
    assert rows[1]["flagged"] is True


def test_train_validation(tmp_path):
    base = ["train", "--out", str(tmp_path), "--temps", "45", "--dt", "2e-13"]
    assert run(base + ["--pulses", "1"]) == 2
    assert run(base + ["--freq", "0"]) == 2


def test_table2_single_temperature(tmp_path, capsys):
    rc = run(["table2", "--out", str(tmp_path), "--temps", "25"] + FAST_PULSE)
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("quantity")
    report = (tmp_path / "table2.txt").read_text()
    assert report == out
    assert (tmp_path / "metrics_signal.csv").exists()
    assert (tmp_path / "metrics_decoy.csv").exists()


def test_table2_parallel(tmp_path):
    rc = run(["table2", "--out", str(tmp_path), "--temps", "20,30",
              "--jobs", "2", "--dt", "2e-13", "--horizon", "3e-10"])
    assert rc == 0
    lines = (tmp_path / "metrics_signal.csv").read_text().splitlines()
    assert len(lines) == 3


def test_attack_scan_and_summary(tmp_path, capsys):
    rc = run(["attack", "--out", str(tmp_path), "--lmin", "60",
              "--lmax", "62", "--step", "1"])
    assert rc == 0
    assert "min_feasible_distance_km" in capsys.readouterr().out
    scan = (tmp_path / "attack_scan.csv").read_text().splitlines()
    assert len(scan) == 4
    summary = json.loads((tmp_path / "attack_summary.json").read_text())
    assert summary["points"] == 3
    assert summary["feasible_region_empty"] is False
    assert abs(summary["min_feasible_distance_km"] - 48.6) <= 0.1
    assert 0.714 < summary["p_block_min"] <= summary["p_block_max"] < 0.716


def test_attack_empty_region(tmp_path):
    text = (DEFAULT_PROFILE
            .replace("alpha = 0.8", "alpha = 0.999")
            .replace("beta_d = 0.4", "beta_d = 0.05")
            .replace("p_dis = 0.8", "p_dis = 0.01"))
    prof = tmp_path / "weak.ini"
    prof.write_text(text)
    rc = run(["attack", "--out", str(tmp_path), "--profile", str(prof),
              "--lmin", "1", "--lmax", "100", "--step", "5"])
    assert rc == 0
    summary = json.loads((tmp_path / "attack_summary.json").read_text())
    assert summary["feasible_points"] == 0
    assert summary["feasible_region_empty"] is True
    assert summary["eta_ratio_min"] is None


def test_attack_degenerate_input_exits_2(tmp_path, capsys):
    # eta underflows to 0 past about 15,345 km
    rc = run(["attack", "--out", str(tmp_path), "--lmax", "20000"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("attack error: channel transmittance underflows")
    assert "km" in err and err.count("\n") == 1
    # the multiphoton fraction 1 - (mu'+1) exp(-mu') rounds to 0
    tiny = tmp_path / "tiny.ini"
    tiny.write_text(DEFAULT_PROFILE.replace("mu = 0.48", "mu = 1e-9")
                    .replace("nu = 0.05", "nu = 1e-10"))
    rc = run(["attack", "--out", str(tmp_path), "--profile", str(tiny)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("attack error: multiphoton fraction")
    assert "mu'" in err and err.count("\n") == 1


def test_attack_non_finite_profile_exits_2(tmp_path, capsys):
    bad = tmp_path / "inf.ini"
    bad.write_text(DEFAULT_PROFILE.replace("mu = 0.48", "mu = inf"))
    rc = run(["attack", "--out", str(tmp_path), "--profile", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "[attack] mu must be finite" in err


def test_verify_quick(tmp_path, capsys):
    rc = run(["verify", "--quick", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == ORACLE_CSV_HEADER
    assert all(line.endswith("true") for line in lines[1:])
    assert (tmp_path / "verify.csv").read_text() == out


def test_dump_config_round_trip(tmp_path, capsys):
    assert run(["dump-config"]) == 0
    text = capsys.readouterr().out
    assert parse_profile(text) == default_profile()
    path = tmp_path / "copy.ini"
    path.write_text(text)
    assert run(["dump-config", "--profile", str(path)]) == 0
    assert capsys.readouterr().out == text

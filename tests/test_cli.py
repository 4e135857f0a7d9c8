import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gainswitch.cli as cli
from gainswitch.dynamics import Trajectory
from gainswitch.metrics import METRICS_COLUMNS, PulseMetrics
from gainswitch.oracle import ORACLE_COLUMNS, OracleReport
from gainswitch.profiles import DEFAULT_PROFILE, default_profile, parse_profile
from gainswitch.rows import header, write_array_csv, write_csv
from gainswitch.sweeps import CYCLE_COLUMNS, CycleRow

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
    assert len(traj) == 1670
    metrics = (tmp_path / "metrics_signal.csv").read_text().splitlines()
    assert metrics[0] == header(METRICS_COLUMNS)
    assert len(metrics) == 2


def test_pulse_decimation(tmp_path):
    rc = run(["pulse", "--out", str(tmp_path), "--temps", "25",
              "--decimate", "10"] + FAST_PULSE)
    assert rc == 0
    traj = (tmp_path / "pulse_25C_signal.csv").read_text().splitlines()
    assert len(traj) == 168


def test_pulse_json_marks_unrecovered(tmp_path):
    rc = run(["pulse", "--out", str(tmp_path), "--temps", "25",
              "--state", "decoy", "--format", "json"] + FAST_PULSE)
    assert rc == 0
    rows = json.loads((tmp_path / "metrics_decoy.json").read_text())
    assert len(rows) == 1
    assert rows[0]["t_re_ns"] is None
    assert rows[0]["recovered"] is False
    assert rows[0]["t_on_ps"] > 0.0


def test_metrics_and_cycles_json_bytes(tmp_path, monkeypatch):
    """Exact --format json text for hand-made metrics and cycle records."""
    traj = Trajectory(dt=1e-13, n=np.full(3, 3.6e23), s=np.zeros(3),
                      thermal=None, drive=None, stats=None,
                      index=np.arange(3), plan=None)

    def fake_pulse(profile, temp_c, state, **kwargs):
        recovered = temp_c < 30.0
        return None, traj, PulseMetrics(
            t_on=50e-12, t_peak=100e-12, s_max=1e23, pulse_energy=1e12,
            t_re=1.3e-9 if recovered else math.nan, n_initial=3.6e23,
            recovered=recovered, recovery_band=0.01)

    def fake_train(profile, temp_c, freq, pulses, **kwargs):
        return None, traj, [CycleRow(0, 1.5e23, 3.6e23, False),
                            CycleRow(1, 1.25e23, 0.1 + 0.2, True)]

    monkeypatch.setattr(cli, "run_pulse_scenario", fake_pulse)
    monkeypatch.setattr(cli, "run_train_scenario", fake_train)
    assert run(["pulse", "--out", str(tmp_path), "--temps", "25,45",
                "--format", "json"]) == 0
    assert run(["train", "--out", str(tmp_path), "--temps", "45",
                "--pulses", "2", "--format", "json"]) == 0
    metric = ('  {{\n    "temp_C": {},\n    "t_on_ps": 50.0,\n'
              '    "t_peak_ps": 100.0,\n    "smax_m3": 1e+23,\n'
              '    "energy_m3s": 1000000000000.0,\n    "t_re_ns": {},\n'
              '    "n_initial_m3": 3.6e+23,\n    "recovered": {}\n  }}')
    assert (tmp_path / "metrics_signal.json").read_text() == (
        "[\n" + metric.format("25.0", "1.3", "true") + ",\n"
        + metric.format("45.0", "null", "false") + "\n]\n")
    assert (tmp_path / "train_8e+08Hz_45C.json").read_text() == (
        '[\n  {\n    "cycle": 0,\n    "smax_m3": 1.5e+23,\n'
        '    "n_initial_m3": 3.6e+23,\n    "flagged": false\n  },\n'
        '  {\n    "cycle": 1,\n    "smax_m3": 1.25e+23,\n'
        '    "n_initial_m3": 0.30000000000000004,\n    "flagged": true\n'
        '  }\n]\n')


def test_csv_cells_by_column_type():
    """A numpy bool column is written as true/false, a numpy int column
    of 0/1 as 0/1, and a list of Python bools (a train's flagged) as
    true/false."""
    buf = io.StringIO()
    write_array_csv((("flag", itemgetter(0)), ("count", itemgetter(1)),
                     ("x", itemgetter(2))),
                    (np.array([True, False]), np.array([0, 1]),
                     np.array([0.5, math.nan])), buf)
    assert buf.getvalue() == "flag,count,x\ntrue,0,0.5\nfalse,1,nan\n"
    buf = io.StringIO()
    write_csv(CYCLE_COLUMNS, [CycleRow(0, 1.5e23, 3.6e23, False),
                              CycleRow(1, 1.25e23, 0.1 + 0.2, True)], buf)
    assert buf.getvalue() == (header(CYCLE_COLUMNS)
                              + "\n0,1.5e+23,3.6e+23,false\n"
                              "1,1.25e+23,0.30000000000000004,true\n")


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
    for temps, start in (
            ("", "config error: temperature list is empty"),
            ("25,25", "config error: temperature 25 repeats in '25,25'"),
            ("30,25,25.0", "config error: temperature 25 repeats"),
            ("0,-0", "config error: temperature 0 repeats in '0,-0'"),
            ("2000", "operating point error: carrier density stayed below"),
            ("-300", "operating point error: j_dc="),
            ("1e5", "operating point error: the scaling laws"),
            ("-1e5", "operating point error: the scaling laws")):
        rc = run(["pulse", "--out", str(tmp_path), f"--temps={temps}"]
                 + FAST_PULSE)
        assert rc == 2, temps
        err = capsys.readouterr().err
        assert err.startswith(start) and err.count("\n") == 1, err
    # the repeated temperature is refused before any file is written
    assert not (tmp_path / "pulse_25C_signal.csv").exists()


@pytest.mark.parametrize("temps", ["nan", "25,inf", "-inf"])
def test_non_finite_temperature_exits_2(tmp_path, capsys, temps):
    rc = run(["table2", "--out", str(tmp_path), f"--temps={temps}"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"config error: temperature must lie in (-inf, inf), got "
        f"{float(temps.split(',')[-1])!r}\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["pulse", "table2", "train", "attack",
                                     "verify", "dump-config"])
def test_missing_profile_exits_2(tmp_path, capsys, command):
    """Every subcommand reads --profile before anything else: a missing
    file is one config error line, and nothing is written."""
    out = tmp_path / "out"
    argv = [command, "--profile", str(tmp_path / "missing.ini")]
    if command != "dump-config":
        argv += ["--out", str(out)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot read profile "), \
        captured.err
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_negative_zero_is_the_temperature_0(tmp_path):
    """-0 is the temperature 0, written as 0 in file names and as 0.0,
    not -0.0, in cells (test_bad_temperature_list: 0,-0 repeats 0)."""
    assert math.copysign(1.0, cli.parse_temps("-0")[0]) == 1.0
    assert run(["pulse", "--out", str(tmp_path), "--temps=-0"]
               + FAST_PULSE) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "metrics_signal.csv", "pulse_0C_signal.csv"]
    rows = (tmp_path / "metrics_signal.csv").read_text().splitlines()
    assert rows[1].split(",")[0] == "0.0"


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
    table2 = ["table2", "--out", str(tmp_path), "--temps", "25"]
    assert run(base + ["--band", "0.5"] + FAST_PULSE) == 2
    assert run(base + ["--dt=-1e-13"]) == 2
    assert run(base + ["--decimate", "-2"] + FAST_PULSE) == 2
    assert run(table2 + ["--jobs", "-1"] + FAST_PULSE) == 2
    assert run(base + ["--dt", "1e-10", "--horizon", "1e-11"]) == 2
    assert run(base + ["--dt", "1e-13", "--horizon", "2e-13"]) == 2
    capsys.readouterr()
    # a zero or non-finite value is rejected, not replaced by the default
    for argv, flag, value in ((base, "dt", "0"), (base, "band", "0"),
                              (table2, "jobs", "0"), (base, "decimate", "0"),
                              (base, "horizon", "0"), (base, "dt", "nan"),
                              (base, "horizon", "inf")):
        assert run(argv + [f"--{flag}", value]) == 2, flag
        assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["table2", "train", "verify"])
def test_ignored_jobs_flag_is_still_checked(tmp_path, capsys, command):
    assert run([command, "--out", str(tmp_path), "--jobs", "0"]) == 2
    assert capsys.readouterr().err == \
        "config error: jobs must lie in {1, 2, ...}, got 0\n"
    assert list(tmp_path.iterdir()) == []


def test_unusable_out_exits_2(tmp_path, capsys):
    """An --out under a regular file, or one that is a regular file, is
    bad input: exit 2 and one stderr line, not a traceback."""
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    for argv in (["attack", "--out", str(blocker / "sub")],
                 ["pulse", "--out", str(blocker)] + FAST_PULSE):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write '{blocker}"), err
        assert err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "kept\n"


def test_failed_writer_leaves_no_file(tmp_path, capsys, monkeypatch):
    """A writer that fails part way removes its file, and its OSError is
    reported as a config error naming the file."""
    def full_disk(traj, fh, decimate):
        fh.write("time_s,n_m3,s_m3\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_trajectory_csv", full_disk)
    assert run(["pulse", "--out", str(tmp_path)] + FAST_PULSE) == 2
    path = tmp_path / "pulse_25C_signal.csv"
    assert capsys.readouterr().err == (
        f"config error: cannot write {str(path)!r}: [Errno 28] No space "
        f"left on device\n")
    assert list(tmp_path.iterdir()) == []


def subcommand_options():
    """{subcommand: its option strings in declaration order, minus -h}."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return {name: [opt for action in p._actions
                   for opt in action.option_strings
                   if opt not in ("-h", "--help")]
            for name, p in commands.items()}


def test_each_subcommand_takes_only_its_flags():
    shared = ["--profile", "--out"]
    pulse = ["--format", "--temps", "--dt", "--band"]
    assert subcommand_options() == {
        "pulse": shared + pulse + ["--horizon", "--decimate", "--state"],
        "table2": shared + pulse + ["--horizon", "--jobs"],
        "train": shared + pulse[:3] + ["--freq", "--pulses", "--state",
                                       "--settle", "--jobs"],
        "attack": shared + ["--lmin", "--lmax", "--step"],
        "verify": shared + ["--quick", "--jobs"],
        "dump-config": ["--profile"]}


@pytest.mark.parametrize("argv", [
    ["attack", "--dt", "1"], ["attack", "--temps", "25,25"],
    ["attack", "--format", "json"], ["verify", "--temps", "25"],
    ["verify", "--dt", "0"], ["train", "--horizon", "1e-9"],
    ["train", "--decimate", "2"], ["table2", "--decimate", "2"],
    ["table2", "--state", "decoy"], ["pulse", "--jobs", "2"],
    ["pulse", "--freq", "8e8"], ["dump-config", "--out", "."],
    ["attack", "--resolution", "0.01"], ["train", "--band", "0.01"]])
def test_dropped_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in \
        capsys.readouterr().err


def load_bench_module(stem):
    """perfbench/<stem>.py, loaded from its file, as its own module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_harness_command_lines_parse(tmp_path):
    """Every command line the bench harness runs parses, so a change that
    drops a flag it passes (--jobs, --quick) fails here, not in every
    bench run. The workloads are built as perfbench/run.py builds them."""
    wl = load_bench_module("workloads")
    reference = wl.load_reference()
    train = wl.PulseTrain(tmp_path, reference)
    try:
        workloads = (wl.Table2(tmp_path, reference), train,
                     wl.Verify(tmp_path), wl.Verify(tmp_path, quick=True))
        argvs = [argv for w in workloads for argv in w.argvs()]
    finally:
        train.close()
    parser = cli.build_parser()
    assert [parser.parse_args(argv).command for argv in argvs] == \
        ["table2", "train", "train", "verify", "verify"]


def test_bench_tracer_targets_stay_where_it_looks():
    """The bench tracer patches module-level names (cli.run_table_sweep
    and the like); one that moves reads 0 in the per-layer metrics with no
    error, so the set it cannot find is pinned. The seven name functions
    the program no longer has, until the tracer's targets are updated."""
    tracer = load_bench_module("tracer")
    absent = {f"{module.removeprefix('gainswitch.')}.{path}"
              for module, path, *_ in (*tracer.TARGETS, tracer.LEAF)
              if tracer._resolve(module, path) is None}
    assert absent == {"cli.write_metrics_csv", "cli.write_cycles_csv",
                      "cli.write_oracle_csv", "dynamics.DriveWaveform.current",
                      "sweeps.simulate_train",
                      "oracle.euler_reference_trajectory", "attack.brentq"}


def test_train_flags_unrecovered_cycles(tmp_path, capsys):
    rc = run(["train", "--out", str(tmp_path), "--temps", "45",
              "--dt", "2e-13"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FLAGGED" in out
    assert "2 of 3 cycles flagged" in out
    lines = (tmp_path / "train_8e+08Hz_45C.csv").read_text().splitlines()
    assert lines[0] == header(CYCLE_COLUMNS)
    assert len(lines) == 4


def test_train_json(tmp_path):
    rc = run(["train", "--out", str(tmp_path), "--temps", "45",
              "--dt", "2e-13", "--pulses", "2", "--format", "json"])
    assert rc == 0
    rows = json.loads((tmp_path / "train_8e+08Hz_45C.json").read_text())
    assert [r["cycle"] for r in rows] == [0, 1]
    assert rows[1]["flagged"] is True


def test_train_validation(tmp_path, capsys):
    base = ["train", "--out", str(tmp_path), "--temps", "45", "--dt", "2e-13"]
    for flags, field in ((["--pulses", "1"], "n_pulses"),
                         (["--pulses", "0"], "n_pulses"),
                         (["--freq", "0"], "frequency"),
                         (["--freq=-5"], "frequency"),
                         (["--freq", "nan"], "frequency"),
                         # a period at or under the 100 ps pulse
                         (["--freq", "1e10"], "period"),
                         (["--freq", "inf"], "frequency"),
                         (["--settle=-1"], "settle_cycles")):
        assert run(base + flags) == 2, flags
        err = capsys.readouterr().err
        assert err.startswith("drive error: ") and field in err, (flags, err)
        assert err.count("\n") == 1, err
    # a step that does not fit 3 times into the 1.25 ns period
    for dt in ("1e-8", "1e-9"):
        assert run(["train", "--out", str(tmp_path), "--dt", dt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("drive error: period") and "dt=" in err, err
        assert err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


def test_table2_single_temperature(tmp_path, capsys):
    rc = run(["table2", "--out", str(tmp_path), "--temps", "25"] + FAST_PULSE)
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("quantity")
    report = (tmp_path / "table2.txt").read_text()
    assert report == out
    assert (tmp_path / "metrics_signal.csv").exists()
    assert (tmp_path / "metrics_decoy.csv").exists()


TABLE2_FILES = ("table2.txt", "metrics_signal.csv", "metrics_decoy.csv")


def test_table2_parallel(tmp_path):
    """--jobs has no effect: --jobs 2 writes the bytes --jobs 1 writes."""
    for jobs in ("1", "2"):
        assert run(["table2", "--out", str(tmp_path / jobs), "--temps",
                    "20,30", "--jobs", jobs, "--dt", "2e-13",
                    "--horizon", "3e-10"]) == 0
    for name in TABLE2_FILES:
        assert (tmp_path / "2" / name).read_bytes() == \
            (tmp_path / "1" / name).read_bytes(), name
    lines = (tmp_path / "2" / "metrics_signal.csv").read_text().splitlines()
    assert len(lines) == 3


# sha256 of TABLE2_FILES from a default table2 run: table2.txt as taken
# before the sweep lost its process pool, the metrics files re-taken when
# the energy became the end-corrected integral over 1.2 ps tail steps,
# again when the ladder's 0.2 and 0.4 ps steps came before the tail,
# again when the floor stage's 1.6-1.8 ps steps came after it, again
# when RK4 came to step the scaled state (last digits only), again
# when the tail stages came to start from the threshold crossing, again
# when each pulse came to take a coarse head before turn-on and again when
# RK4 came to step the photon density shifted by its spontaneous source
# (last digits only)
TABLE2_DIGESTS = (
    "1afdc72ecc3d981fdb6ba18f038ba2ba5caee1073fc83bbb48fc16741fdba62a",
    "24f990cd938c7c10dbc31e0c7d62036ec83b4652ce142460f6d6f149defb0e97",
    "273f1e7a648ec65514bdebcf40de98b655cf954e01b9836aa7199d7f4720989a")


def test_table2_byte_determinism(tmp_path, capsys):
    assert run(["table2", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (tmp_path / "table2.txt").read_text()
    assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in TABLE2_FILES) == TABLE2_DIGESTS


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


# sha256 of the attack outputs, taken before scans became columnar
ATTACK_DIGESTS = {
    (): ("604c70ebb909c9d4b24cd66fc3271c09948e731a4e9feca1a931f81180f77562",
         "a7c97452ba32f101b0401a19e40e6244e1856ce2b11986442ba65d1a220742bd"),
    ("--lmin", "0", "--lmax", "600", "--step", "0.37"):
        ("9a41d527e5d6d91c3daad74e954cb70ab1653f9da8291e6da51a87604d8c429a",
         "a775d8c1fd1eab61872d06311c12550bfbfb7db34fb9f7910a48d735a5a865af"),
}


@pytest.mark.parametrize("flags", list(ATTACK_DIGESTS),
                         ids=("default", "fine"))
def test_attack_byte_determinism(tmp_path, flags):
    assert run(["attack", "--out", str(tmp_path), *flags]) == 0
    assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in ("attack_scan.csv", "attack_summary.json")) \
        == ATTACK_DIGESTS[flags]


# sha256 of every file a default pulse or train run writes, re-taken when
# the ladder's 0.2 and 0.4 ps steps came before the DC tail, when the
# floor stage's steps came after it, when RK4 came to step the scaled
# state (last digits only), when the tail stages came to start from the
# threshold crossing, when each pulse came to take a coarse head and when
# RK4 came to step the shifted photon density (last digits only)
PULSE_TRAIN_DIGESTS = {
    ("pulse", "--temps", "25"): {
        "pulse_25C_signal.csv":
            "b9e711ae8621d0a0c5f08c11eba289788b81b04722222fcdd3b11af50d4d5b28",
        "metrics_signal.csv":
            "12b305e4b194d8da0acaf37bf254a3a9c9bb53c2618795a9967ec6f5756ab510"},
    ("pulse", "--temps", "25", "--format", "json"): {
        "pulse_25C_signal.csv":
            "b9e711ae8621d0a0c5f08c11eba289788b81b04722222fcdd3b11af50d4d5b28",
        "metrics_signal.json":
            "72491a95ce10c69bb86a7601b51320a04e1e1b50124395d88b40ff8476997782"},
    ("train",): {
        "train_8e+08Hz_25C.csv":
            "c2f9a131675868510f3f1df583b2e43086144ebc88079ab9a673ce5faaa5037e"},
    ("train", "--format", "json"): {
        "train_8e+08Hz_25C.json":
            "9097b251a32bbbf159f01db4fb1a8f2b37220fd416e2e388943fccd866b16d66"},
}


@pytest.mark.parametrize("argv", list(PULSE_TRAIN_DIGESTS),
                         ids=("pulse", "pulse_json", "train", "train_json"))
def test_pulse_and_train_bytes(tmp_path, argv):
    assert run([*argv, "--out", str(tmp_path)]) == 0
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == PULSE_TRAIN_DIGESTS[argv]


# sha256 of every file written by runs whose steps off-grid edges cut: at
# dt = 0.3 ps the 100 ps fall edge, the 800 MHz rising edges at 1.25 and
# 2.5 ns and the fall at 2.6 ns lie between grid points (split_steps is 1
# for each pulse, 4 for the train); re-taken when the ladder's 0.6 and
# 1.2 ps steps came before the DC tail, when the floor stage's steps
# came after it, when RK4 came to step the scaled state (last digits
# only), when the tail stages came to start from the threshold crossing,
# when each pulse came to take a coarse head and when RK4 came to step
# the shifted photon density (last digits only)
CUT_STEP_DIGESTS = {
    ("pulse", "--temps", "15,45", "--dt", "3e-13", "--horizon", "1e-9"): {
        "pulse_15C_signal.csv":
            "eab49edff2155e4607111c5cc5bc0200a32c0e641b3d2cda71611f34427d43a3",
        "pulse_45C_signal.csv":
            "9b48bfa8bf51959ae01e01e6e0d76d63d99447a9301815ba7a96cfcb2462e6fd",
        "metrics_signal.csv":
            "e353c527ef8e435ff688cc5908fa42798b6be79d9c658bf990d927b9a205105f"},
    ("train", "--temps", "45", "--dt", "3e-13"): {
        "train_8e+08Hz_45C.csv":
            "83b3958709f22c7bec775fd32b6876e830f8dbba0281990b2633be3b763ac50e"},
}


@pytest.mark.parametrize("argv", list(CUT_STEP_DIGESTS),
                         ids=("pulse", "train"))
def test_cut_step_bytes(tmp_path, argv):
    assert run([*argv, "--out", str(tmp_path)]) == 0
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == CUT_STEP_DIGESTS[argv]


def test_attack_grid_cap_exits_2(tmp_path, capsys):
    # 10**9 points: refused before the grid is allocated
    rc = run(["attack", "--out", str(tmp_path), "--lmin", "0", "--lmax", "1e6",
              "--step", "1e-3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("attack error: a scan from 0.0 to 1000000.0 km")
    assert "more than MAX_SCAN_POINTS = 10000000 points" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "attack_scan.csv").exists()


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


def test_attack_boundary_past_500_km_is_null(tmp_path, capsys):
    """With p_dis = 1e-10 the feasibility boundary lies past the 500 km
    that min_feasible_distance searches: the summary reports no minimum
    distance and no feasible point, and the command succeeds."""
    prof = tmp_path / "rare.ini"
    prof.write_text(DEFAULT_PROFILE.replace("p_dis = 0.8", "p_dis = 1e-10"))
    rc = run(["attack", "--out", str(tmp_path), "--profile", str(prof)])
    assert rc == 0
    summary = json.loads((tmp_path / "attack_summary.json").read_text())
    assert summary["min_feasible_distance_km"] is None
    assert summary["feasible_points"] == 0
    assert summary["feasible_region_empty"] is True
    assert '"min_feasible_distance_km": null' in capsys.readouterr().out


def test_attack_degenerate_input_exits_2(tmp_path, capsys):
    # the decoy photon term is lost in rounding against y0 past 608.4 km,
    # long before eta underflows to 0 (about 15,345 km)
    for lmax in ("1000", "20000"):
        rc = run(["attack", "--out", str(tmp_path), "--lmax", lmax])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("attack error: decoy photon term")
        assert "L = 608.5 km" in err and err.count("\n") == 1
    # a scan that starts past the underflow of eta reaches that check first
    rc = run(["attack", "--out", str(tmp_path), "--lmin", "16000",
              "--lmax", "20000"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("attack error: channel transmittance underflows")
    assert "L = 16000.0 km" in err and err.count("\n") == 1
    # the multiphoton fraction 1 - (mu'+1) exp(-mu') rounds to 0
    tiny = tmp_path / "tiny.ini"
    tiny.write_text(DEFAULT_PROFILE.replace("mu = 0.48", "mu = 1e-9")
                    .replace("nu = 0.05", "nu = 1e-10"))
    rc = run(["attack", "--out", str(tmp_path), "--profile", str(tiny)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("attack error: multiphoton fraction")
    assert "mu'" in err and err.count("\n") == 1


@pytest.mark.parametrize("change, boundary", [
    (("delta_db_per_km = 0.21", "delta_db_per_km = 0.3"), 33.98137699287826),
    (("delta_db_per_km = 0.21", "delta_db_per_km = 0.35"), 29.126894565324225),
    (("y0 = 1.7e-6", "y0 = 1e-2"), 48.54482427554037)],
    ids=("delta_0.3", "delta_0.35", "y0_1e-2"))
def test_attack_boundary_past_rounding_limit(tmp_path, capsys, change,
                                             boundary):
    # these profiles lose the signal photon term in rounding against y0 at
    # l_max = 500 km; the boundary's closed form never forms that term
    prof = tmp_path / "lossy.ini"
    prof.write_text(DEFAULT_PROFILE.replace(*change))
    rc = run(["attack", "--out", str(tmp_path), "--profile", str(prof)])
    assert rc == 0
    summary = json.loads((tmp_path / "attack_summary.json").read_text())
    assert summary["min_feasible_distance_km"] == boundary
    assert f'"min_feasible_distance_km": {boundary!r}' in capsys.readouterr().out


def test_attack_flag_validation(tmp_path, capsys):
    base = ["attack", "--out", str(tmp_path)]
    for flags, key in ((["--lmin=-1"], "l_min"),
                       (["--lmin", "5", "--lmax", "5"], "l_min < l_max"),
                       (["--lmax", "inf"], "l_max"),
                       (["--lmin", "nan"], "l_min"), (["--step", "0"], "step"),
                       (["--step", "inf"], "step")):
        assert run(base + flags) == 2, flags
        err = capsys.readouterr().err
        assert err.startswith("attack error: ") and key in err and \
            err.count("\n") == 1, err


def test_attack_non_finite_profile_exits_2(tmp_path, capsys):
    bad = tmp_path / "inf.ini"
    bad.write_text(DEFAULT_PROFILE.replace("mu = 0.48", "mu = inf"))
    rc = run(["attack", "--out", str(tmp_path), "--profile", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "[attack] mu must lie in" in err


def test_verify_quick(tmp_path, capsys):
    rc = run(["verify", "--quick", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == header(ORACLE_COLUMNS)
    assert all(line.endswith("true") for line in lines[1:])
    assert (tmp_path / "verify.csv").read_text() == out


# sha256 of the full verify.csv, re-taken when the ladder's steps came
# before the DC tail and when the floor stage's steps came after it (each
# time only the dt_halving_pulse_energy row moved), and when RK4 came to
# step the scaled state (the last digits of the fine-step and dt-halving
# rows), when the tail stages came to start from the threshold crossing
# (the dt_halving_pulse_energy row), and when each pulse came to take a
# coarse head (the last digits of the fine-step and dt-halving rows)
VERIFY_DIGEST = \
    "f19d166beff90dd0357dc760cada214b2ede02447af18ff02f3141d6986cf05e"


def test_verify_byte_determinism(tmp_path, capsys):
    assert run(["verify", "--out", str(tmp_path)]) == 0
    data = (tmp_path / "verify.csv").read_bytes()
    assert capsys.readouterr().out.encode() == data
    assert hashlib.sha256(data).hexdigest() == VERIFY_DIGEST


def test_step_cap_exits_2(tmp_path, capsys):
    """A grid of more than MAX_STEPS steps is refused before it is built."""
    for argv in (["pulse", "--horizon", "1"], ["table2", "--horizon", "1"],
                 ["train", "--freq", "1e3"]):
        assert run(argv[:1] + ["--out", str(tmp_path)] + argv[1:]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("drive error: t_end=") and \
            err.endswith(" more than 10000000 steps\n") and \
            err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


def test_verify_failed_check_exits_4(tmp_path, capsys, monkeypatch):
    reports = [OracleReport("ok", 1.0, 1.0, 0.0, 1e-12, True),
               OracleReport("off", 1.0, 2.0, 1.0, 1e-12, False)]
    monkeypatch.setattr(cli, "run_verification_suite",
                        lambda profile, quick: reports)
    assert run(["verify", "--out", str(tmp_path)]) == 4
    captured = capsys.readouterr()
    assert captured.err == "1 of 2 checks failed\n"
    lines = captured.out.splitlines()
    assert lines[0] == header(ORACLE_COLUMNS)
    assert lines[1].endswith("true") and lines[2].endswith("false")
    assert (tmp_path / "verify.csv").read_text() == captured.out


def test_verify_large_mean_photon_number_exits_2(tmp_path, capsys):
    """mu = 50 is a valid scenario, but verify's Poisson sums to n = 60
    cannot hold its tail."""
    prof = tmp_path / "bright.ini"
    prof.write_text(DEFAULT_PROFILE.replace("mu = 0.48", "mu = 50.0"))
    assert run(["verify", "--profile", str(prof), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("attack error: Poisson tail bound 8.514e-02 "
                            "exceeds 1e-15 (mean 50.0, n_max 60)\n")


@pytest.mark.parametrize("argv,files", [
    (["dump-config"], []),
    (["attack", "--lmax", "50"], ["attack_scan.csv", "attack_summary.json"]),
    (["verify", "--quick"], ["verify.csv"]),
    (["pulse", "--temps", "25,45"] + FAST_PULSE,
     ["pulse_25C_signal.csv", "pulse_45C_signal.csv", "metrics_signal.csv"]),
    (["table2", "--temps", "25"] + FAST_PULSE,
     ["table2.txt", "metrics_signal.csv", "metrics_decoy.csv"]),
    (["train", "--temps", "15,45", "--dt", "2e-13"],
     ["train_8e+08Hz_15C.csv", "train_8e+08Hz_45C.csv"]),
])
def test_closed_stdout_exits_141(tmp_path, argv, files):
    """With stdout's reader gone before the run starts, every subcommand
    still writes all its files, prints no traceback and exits 141.
    Unbuffered, the first print already meets the closed pipe."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = [] if argv[0] == "dump-config" else ["--out", str(tmp_path)]
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "gainswitch.cli"] + argv + out,
            stdout=write, stderr=subprocess.PIPE, env=env, text=True,
            timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


ODD_VALUES = ("0", "-1", "inf", "-inf", "nan", "1e308", "1e-320")


def flag_values(low, high):
    """A flag value as text: an odd one, or a float in [low, high]."""
    return st.one_of(st.sampled_from(ODD_VALUES),
                     st.floats(low, high).map(repr))


def usual_or_odd(draw, usual, odd):
    """{name: value} from the usual strategies, except that one run in four
    takes one value from its odd strategy, which mostly rejects the run."""
    bad = draw(st.sampled_from((None,) * (3 * len(odd)) + tuple(odd)))
    return {name: draw(odd[name] if name == bad else usual[name])
            for name in usual}


def fit_step(dt, span, steps):
    """dt, widened to cover span in at most steps steps when it is usable."""
    if 0.0 < float(dt) < math.inf and span > steps * float(dt):
        return repr(span / steps)
    return dt


# (key, default value) of every profile entry, by section
PROFILE_ENTRIES = {
    section: [tuple(line.split()[:3:2]) for line in body.splitlines()[1:]
              if line]
    for section, body in (part.split("]", 1)
                          for part in DEFAULT_PROFILE.split("[")[1:])}


def profile_with(key, value):
    """The default profile text with key's value replaced, its unit kept."""
    return "".join(
        re.sub(r"= \S+", f"= {value}", line, count=1)
        if line.startswith(f"{key} = ") else line
        for line in DEFAULT_PROFILE.splitlines(keepends=True))


@st.composite
def cli_runs(draw):
    """(argv after --out, profile text or None) for main().

    An attack run with generated flags; a run under a profile with one
    generated [attack], [laser] or [drive] value (attack, or a short
    pulse); pulses or a table2 sweep at generated temperatures with a
    generated --dt and --horizon; or a train with generated flags. Three
    runs in four of every kind but the profile runs take usable values
    only, so they scan or integrate; every scan takes at most 10^4 points
    and every run that integrates at most 2*10^4 steps.
    """
    kind = draw(st.sampled_from(("attack", "profile", "pulse", "table2",
                                 "train")))
    if kind == "train":
        # a period past the 100 ps pulse, 2-4 recorded pulses after 0-2
        # settle cycles, a step that fits
        flags = usual_or_odd(draw, {
            "freq": st.floats(2.5e8, 9e9).map(repr),
            "pulses": st.integers(2, 4).map(str),
            "settle": st.integers(0, 2).map(str),
            "dt": st.floats(1e-14, 1e-12).map(repr)}, {
            "freq": flag_values(1e8, 2e10),
            "pulses": st.integers(-2, 1).map(str),
            "settle": st.integers(-2, -1).map(str),
            "dt": flag_values(1e-14, 1e-8)})
        freq = float(flags["freq"])
        cycles = int(flags["pulses"]) + int(flags["settle"])
        if 0.0 < freq < math.inf and cycles > 0:
            flags["dt"] = fit_step(flags["dt"], cycles / freq, 2e4)
        return (["train", "--temps", "45"]
                + [f"--{k}={v}" for k, v in flags.items()], None)
    if kind in ("pulse", "table2"):
        # temperatures in the operating range, named apart, a step that fits
        # and a horizon past the turn-on delay
        flags = usual_or_odd(draw, {
            "temps": st.lists(st.floats(0.0, 60.0), min_size=1, max_size=4,
                              unique_by=lambda t: f"{t:g}"),
            "dt": st.floats(1e-15, 1e-11).map(repr),
            "horizon": st.floats(3e-10, 3e-9).map(repr)}, {
            "temps": st.lists(
                st.one_of(st.sampled_from((2000.0, -300.0, 25.0)),
                          st.floats(-1e5, 1e5)), min_size=1, max_size=4),
            "dt": flag_values(1e-15, 1e-11),
            "horizon": flag_values(1e-13, 3e-9)})
        temps = flags.pop("temps")
        # table2 integrates a signal and a decoy pulse per temperature
        pulses = len(temps) * (2 if kind == "table2" else 1)
        horizon = float(flags["horizon"])
        if 3 * float(flags["dt"]) <= horizon < math.inf:
            flags["dt"] = fit_step(flags["dt"], horizon, 2e4 / pulses)
        if kind == "pulse":
            flags["state"] = draw(st.sampled_from(("signal", "decoy")))
        return ([kind, "--temps=" + ",".join(map(repr, temps))]
                + [f"--{k}={v}" for k, v in flags.items()], None)
    if kind == "profile":
        section = draw(st.sampled_from(tuple(PROFILE_ENTRIES)))
        key, default = draw(st.sampled_from(PROFILE_ENTRIES[section]))
        value = draw(st.one_of(
            st.sampled_from(ODD_VALUES),
            st.floats(0.5, 2.0).map(lambda f: repr(f * float(default)))))
        argv = ["attack"] if section == "attack" else ["pulse"] + FAST_PULSE
        return argv, profile_with(key, value)
    # a scan of at most 1200 points inside the 608 km decoy limit
    flags = usual_or_odd(draw, {
        "lmin": st.floats(0.0, 299.0).map(repr),
        "lmax": st.floats(300.0, 600.0).map(repr),
        "step": st.floats(0.5, 100.0).map(repr)}, {
        "lmin": flag_values(0.0, 1000.0),
        "lmax": flag_values(0.0, 2000.0),
        "step": flag_values(1e-3, 100.0)})
    lmin, lmax, step = (float(flags[k]) for k in ("lmin", "lmax", "step"))
    # a scan of more than 10^4 points only costs memory and time
    if 0.0 <= lmin < lmax < math.inf and 0.0 < step < (lmax - lmin) / 1e4:
        flags["step"] = repr((lmax - lmin) / 1e4)
    return ["attack"] + [f"--{k}={v}" for k, v in flags.items()], None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cli_runs())
@example((["attack", "--lmax=1000"], None))
@example((["attack", "--lmin=0", "--lmax=1e-320", "--step=1e-320"], None))
@example((["pulse", "--temps=25,25"] + FAST_PULSE, None))
@example((["pulse", "--temps=2000"] + FAST_PULSE, None))
@example((["pulse", "--temps=-300"] + FAST_PULSE, None))
@example((["pulse", "--temps=1e5"] + FAST_PULSE, None))
@example((["pulse", "--temps=-1e5"] + FAST_PULSE, None))
@example((["train", "--dt", "2e-13", "--freq=inf"], None))
@example((["train", "--dt", "2e-13", "--freq=nan", "--pulses=0"], None))
@example((["train", "--dt=1e-8"], None))
@example((["train", "--dt=1e308"], None))
@example((["pulse", "--dt=1e308", "--horizon=1e308"], None))
@example((["pulse", "--dt=5e-324", "--horizon=1e-318"], None))
@example((["pulse", "--temps=", "--dt=1e-13"], None))
@example((["pulse", "--horizon=1"], None))
@example((["train", "--freq=1e3"], None))
@example((["pulse"] + FAST_PULSE, profile_with("j_dc", "1e308")))
@example((["table2", "--temps=25,2000"] + FAST_PULSE, None))
def test_main_ends_in_documented_exit_code(run_args):
    argv, profile_text = run_args
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        extra = ["--out", out]
        if profile_text is not None:
            path = f"{out}/profile.ini"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(profile_text)
            extra += ["--profile", path]
        rc = run(argv[:1] + extra + argv[1:])
    assert rc in (0, 2, 3), (argv, rc)
    assert "Traceback" not in err.getvalue()
    if rc:
        assert err.getvalue().count("\n") == 1, err.getvalue()


def test_dump_config_round_trip(tmp_path, capsys):
    assert run(["dump-config"]) == 0
    text = capsys.readouterr().out
    assert parse_profile(text) == default_profile()
    path = tmp_path / "copy.ini"
    path.write_text(text)
    assert run(["dump-config", "--profile", str(path)]) == 0
    assert capsys.readouterr().out == text


# sha256 of dump-config's stdout for the default profile and for a profile
# of the default [laser] section alone, taken before the profile's unit
# tables became one table per section
DUMP_DIGESTS = {
    "default": "f00d2de429eb907f3cd8e4b0a2fec9ccb47dd712951226acf48bcfa4916e7242",
    "laser only":
        "b74ff0cc4e79874898ff1ffa9ba8143419990756b5910d119d630ea123b61a86"}


@pytest.mark.parametrize("name", DUMP_DIGESTS)
def test_dump_config_digest(tmp_path, capsys, name):
    argv = ["dump-config"]
    if name == "laser only":
        path = tmp_path / "laser.ini"
        path.write_text(DEFAULT_PROFILE.split("[drive]")[0])
        argv += ["--profile", str(path)]
    assert run(argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == DUMP_DIGESTS[name]


@pytest.mark.parametrize("data, line", [
    (b"[laser]\n\xff\n", "config error: cannot read profile "),
    (profile_with("alpha", "80%").encode(),
     "config error: [attack] alpha: not a number: '80%'"),
    (profile_with("g0_ref", "%(x)s").encode(),
     "config error: [laser] g0_ref: not a number: '%(x)s'"),
    (b"x = 1\n", "config error: {path}:1: no section header before 'x = 1'"),
    (b"[laser]\ngarbage line\nmore garbage\n",
     "config error: {path}:2: cannot parse 'garbage line'"),
    ((DEFAULT_PROFILE + "\n[DEFAULT]\nmu = 1\n").encode(),
     "config error: {path}: unknown section [DEFAULT]")],
    ids=["not UTF-8", "percent", "interpolation", "no header", "bad line",
         "DEFAULT"])
def test_unparsable_profile_exits_2(tmp_path, capsys, data, line):
    """A profile that is not UTF-8, holds a '%', has no section header, has
    a line that is neither a header nor an entry or has a [DEFAULT] section
    is a config error on one stderr line, not a traceback from the decoder
    or from configparser's interpolation, nor configparser's own message
    over two or three lines."""
    path = tmp_path / "profile.ini"
    path.write_bytes(data)
    assert run(["dump-config", "--profile", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(line.format(path=path))
    assert captured.err.count("\n") == 1


README = Path(__file__).resolve().parent.parent / "README.md"

# (argv, profile entry replaced or None, exit code, stderr line's start) of
# each stderr example under README "Exit codes"; the text after the label
# is quoted there word for word, with {path}, the profile's path, as f.ini
README_EXAMPLES = [
    (["pulse", "--dt", "0"], None, 2,
     "drive error: dt must lie in (0, inf), got 0.0"),
    (["pulse", "--band", "0.5"], None, 2,
     "config error: band must lie in (0, 0.1], got 0.5"),
    (["pulse", "--horizon", "2e-13", "--dt", "1e-13"], None, 2,
     "drive error: horizon t_end=2e-13 s must cover at least 3 steps of "
     "dt=1e-13 s"),
    (["pulse", "--temps", "1e5"], None, 2,
     "operating point error: the scaling laws give no finite parameters at "
     "temperature 100000.0 degC"),
    (["pulse", "--temps="], None, 2, "config error: temperature list is empty"),
    (["pulse", "--temps", "25,25"], None, 2,
     "config error: temperature 25 repeats in '25,25'"),
    (["pulse", "--temps", "nan"], None, 2,
     "config error: temperature must lie in (-inf, inf), got nan"),
    (["pulse", "--decimate", "0"], None, 2,
     "config error: decimate must lie in {1, 2, ...}, got 0"),
    (["table2", "--jobs", "0"], None, 2,
     "config error: jobs must lie in {1, 2, ...}, got 0"),
    (["pulse"], ("j_ac_decoy", "0"), 2,
     "config error: {path}: [drive] j_ac_decoy must lie in (0, inf), got "
     "0.0"),
    (["train", "--pulses", "1"], None, 2,
     "drive error: n_pulses must lie in {2, ..., 10000000}, got 1"),
    (["train", "--freq", "0"], None, 2,
     "drive error: frequency must lie in (0, inf), got 0.0"),
    (["attack", "--lmin=-1"], None, 2,
     "attack error: l_min must lie in [0, inf), got -1.0"),
    (["attack", "--step", "0"], None, 2,
     "attack error: step must lie in (0, inf), got 0.0"),
    (["verify"], ("mu", "50.0"), 2,
     "attack error: Poisson tail bound 8.514e-02 exceeds 1e-15 (mean 50.0, "
     "n_max 60)"),
]


@pytest.mark.parametrize("argv, entry, code, line", README_EXAMPLES,
                         ids=[" ".join(e[0]) + (f" {e[1][0]}" if e[1] else "")
                              for e in README_EXAMPLES])
def test_readme_exit_code_examples_hold(tmp_path, capsys, argv, entry, code,
                                        line):
    """Each stderr example quoted under README "Exit codes" is what main
    prints, so a reworded message cannot leave the README stale."""
    readme = " ".join(README.read_text(encoding="utf-8").split())
    assert line.replace("{path}", "f.ini").split(": ", 1)[1] in readme
    extra = ["--out", str(tmp_path)]
    path = tmp_path / "profile.ini"
    if entry is not None:
        path.write_text(profile_with(*entry))
        extra += ["--profile", str(path)]
    assert run(argv[:1] + extra + argv[1:]) == code
    err = capsys.readouterr().err
    assert err.startswith(line.replace("{path}", str(path)))
    assert err.count("\n") == 1, err

import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gainswitch
import gainswitch.sweeps as sweeps
from gainswitch.dynamics import DriveError
from gainswitch.rows import header, write_csv
from gainswitch.sweeps import (CYCLE_COLUMNS, CycleRow, run_pulse_scenario,
                               run_train_scenario, state_amplitude)

QUICK = dict(dt=1e-13, t_end=3e-10)


def test_state_amplitude(profile):
    assert state_amplitude(profile, "signal") == profile.j_ac_signal
    assert state_amplitude(profile, "decoy") == profile.j_ac_decoy
    with pytest.raises(ValueError):
        state_amplitude(profile, "vacuum")


def test_run_pulse_scenario_basics(profile):
    thermal, traj, pm = run_pulse_scenario(profile, 25.0, "signal", **QUICK)
    assert thermal.temperature == 25.0
    assert traj.times[-1] == pytest.approx(3e-10, rel=1e-9)
    assert 0.0 < pm.t_on < pm.t_peak
    assert not pm.recovered


def run_fresh(code):
    """The output lines of code, run in a fresh interpreter after an import
    of this checkout's package."""
    src = str(Path(sweeps.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, gainswitch; print(gainswitch.__file__); " + code
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    where, *lines = done.stdout.splitlines()
    assert Path(where).resolve().parent == Path(sweeps.__file__).resolve().parent
    return lines


# loads every submodule of the package, then prints whether all are loaded
LOAD_ALL = ("[getattr(gainswitch, m) for m in gainswitch._SUBMODULES]; "
            "print(all(f'gainswitch.{m}' in sys.modules "
            "for m in gainswitch._SUBMODULES)); ")


def test_import_leaves_out_the_process_pool():
    """Importing every module of the package loads neither
    concurrent.futures.process nor multiprocessing: every sweep runs in
    the calling process."""
    assert run_fresh(
        LOAD_ALL + "print(sorted(m for m in sys.modules "
        "if m in ('concurrent.futures.process', 'multiprocessing')))"
    ) == ["True", "[]"]


def test_cold_import_loads_no_numpy():
    """Loading, dumping and scaling a profile imports no array code; the
    first numeric name, or submodule, loads its submodule, numpy with it."""
    unloaded = ("numpy", "gainswitch.attack", "gainswitch.dynamics",
                "gainswitch.metrics", "gainswitch.oracle", "gainswitch.sweeps",
                "gainswitch.rows")
    assert run_fresh(
        "p = gainswitch.default_profile(); gainswitch.dump_profile(p); "
        "gainswitch.thermal_state(p.constants, 25.0, p.j_dc); "
        f"print(sorted(m for m in {unloaded!r} if m in sys.modules)); "
        "print(gainswitch.integrate is gainswitch.dynamics.integrate, "
        "gainswitch.oracle is sys.modules['gainswitch.oracle'], "
        "'numpy' in sys.modules)") == ["[]", "True True True"]


# every exported name: a change to this set changes the public API
EXPORTED = {
    "AboveThresholdBiasError", "AttackScan", "AttackScenario",
    "AttackSolution", "BelowThresholdPulseError", "ConfigError", "CycleRow",
    "DEFAULT_DT_PULSE", "DegenerateAttackError", "DivergenceError",
    "DriveError", "DriveWaveform", "ELEMENTARY_CHARGE", "GainswitchError",
    "IntegrationStats", "InvalidRegimeError", "LaserConstants",
    "NoCrossingError", "NoSteadyStateError", "OperatingPointError",
    "OracleReport", "Profile", "PulseMetrics", "ReferenceRun",
    "ScanRangeError", "StatePairMetrics", "SweepRow", "ThermalState",
    "Trajectory", "TruncationError", "UndefinedRateError",
    "adaptive_reference", "analytic_decay_time", "channel_transmittance",
    "compare_states", "count_rate_decoy_attacked", "count_rate_no_attack",
    "count_rate_signal_attacked", "decoy_attacked_gain_oracle",
    "default_profile", "derivatives", "dump_profile",
    "energy_prediction_delta", "extract_metrics", "integrate", "load_profile",
    "max_repetition_rate", "min_feasible_distance", "parse_profile",
    "poisson_gain_oracle", "run_pulse_scenario", "run_table_sweep",
    "run_train_scenario", "run_verification_suite", "scale_parameters",
    "scan_distance", "signal_attacked_gain_oracle", "smax_prediction_delta",
    "solve_attack", "steady_state_s", "summarize_scan", "thermal_state",
    "threshold_current_ratio", "write_trajectory_csv",
    "yield_n",
}


def test_export_table():
    assert len(EXPORTED) == 65 and set(gainswitch.__all__) == EXPORTED
    star = {}
    exec("from gainswitch import *", star)
    assert EXPORTED <= star.keys()
    for module, names in gainswitch._EXPORTS.items():
        home = importlib.import_module(f"gainswitch.{module}")
        for name in names:
            assert getattr(gainswitch, name) is vars(home)[name], name
    assert set(gainswitch.__all__) <= set(dir(gainswitch))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        gainswitch.no_such_name
    assert gainswitch.attack.AttackScenario is gainswitch.profiles.AttackScenario


def test_train_validation(profile):
    with pytest.raises(ValueError):
        run_train_scenario(profile, 25.0, 0.0, 3)
    with pytest.raises(ValueError):
        run_train_scenario(profile, 25.0, 800e6, 3, state="vacuum")
    with pytest.raises(DriveError, match="n_pulses"):
        run_train_scenario(profile, 25.0, 800e6, 1)
    with pytest.raises(DriveError, match="settle_cycles"):
        run_train_scenario(profile, 25.0, 800e6, 2, settle_cycles=-1)


def test_train_unstable_at_800mhz_45c(trains):
    cycles = trains[(800e6, 45.0)]
    assert cycles[1].s_max > 1.01 * cycles[0].s_max
    assert not cycles[0].flagged
    assert cycles[1].flagged
    assert cycles[2].flagged
    assert cycles[1].n_initial > cycles[0].n_initial


def test_train_steady_at_800mhz_15c(trains):
    cycles = trains[(800e6, 15.0)]
    assert abs(cycles[1].s_max / cycles[0].s_max - 1.0) < 1e-3
    assert not any(c.flagged for c in cycles)


def test_train_steady_at_500mhz_45c(trains):
    cycles = trains[(500e6, 45.0)]
    assert abs(cycles[1].s_max / cycles[0].s_max - 1.0) < 1e-3
    assert not any(c.flagged for c in cycles)


def test_train_settle_prewarms_first_cycle(profile):
    _, _, fresh = run_train_scenario(profile, 45.0, 800e6, 2, dt=2e-13)
    _, _, settled = run_train_scenario(profile, 45.0, 800e6, 2, dt=2e-13,
                                       settle_cycles=1)
    assert not fresh[0].flagged
    assert settled[0].flagged


def test_train_settle_matches_tail_of_longer_run(profile):
    """Settle cycles run but are not recorded: the settled run is the
    longer run, and its cycles are the longer run's later cycles."""
    _, full, longer = run_train_scenario(profile, 45.0, 800e6, 3)
    _, settled, cycles = run_train_scenario(profile, 45.0, 800e6, 2,
                                            settle_cycles=1)
    assert np.array_equal(settled.n, full.n)
    assert np.array_equal(settled.s, full.s)
    assert settled.times[0] == 0.0
    assert settled.stats == full.stats
    assert [c.cycle for c in cycles] == [0, 1]
    assert [(c.s_max, c.n_initial, c.flagged) for c in cycles] == \
        [(c.s_max, c.n_initial, c.flagged) for c in longer[1:]]


def test_train_ends_at_the_grid_point_nearest_its_last_period(profile):
    """A train whose period is not a whole number of steps of dt (9,090.9
    at 1.1 GHz and 14,285.7 at 0.7 GHz, at 100 fs) ends at the grid point
    nearest n periods, round(n period / dt) dt: past them at 1.1 GHz,
    short of them at 0.7 GHz, within dt / 2 either way."""
    for frequency, late in ((1.1e9, True), (0.7e9, False)):
        _, traj, _ = run_train_scenario(profile, 25.0, frequency, 2)
        end = 2 * traj.drive.period
        steps = round(end / traj.dt)
        assert traj.index[-1] == steps
        assert traj.times[-1] == steps * traj.dt
        assert (traj.times[-1] > end) == late
        assert abs(traj.times[-1] - end) <= traj.dt / 2


def test_cycles_csv(trains):
    cycles = trains[(800e6, 45.0)]
    buf = io.StringIO()
    write_csv(CYCLE_COLUMNS, cycles, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == header(CYCLE_COLUMNS)
    assert len(lines) == 4
    fields = lines[2].split(",")
    assert int(fields[0]) == 1
    assert float(fields[2]) == cycles[1].n_initial
    assert fields[3] == "true"
    buf = io.StringIO()
    write_csv(CYCLE_COLUMNS,
              [CycleRow(cycle=0, s_max=1.5e23, n_initial=3.6e23,
                        flagged=False),
               CycleRow(cycle=1, s_max=1.25e23, n_initial=0.1 + 0.2,
                        flagged=True)], buf)
    assert buf.getvalue() == ("cycle,smax_m3,n_initial_m3,flagged\n"
                              "0,1.5e+23,3.6e+23,false\n"
                              "1,1.25e+23,0.30000000000000004,true\n")

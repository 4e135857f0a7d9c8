import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gainswitch.sweeps as sweeps
from gainswitch.dynamics import DriveError
from gainswitch.sweeps import (CYCLE_CSV_HEADER, CycleRow,
                               run_pulse_scenario, run_train_scenario,
                               state_amplitude, write_cycles_csv)

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


def test_import_leaves_out_the_process_pool():
    """A cold import of the package loads neither
    concurrent.futures.process nor multiprocessing: every sweep runs in
    the calling process."""
    src = str(Path(sweeps.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, gainswitch; print(gainswitch.__file__); "
            "print(sorted(m for m in sys.modules "
            "if m in ('concurrent.futures.process', 'multiprocessing')))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    where, loaded = done.stdout.splitlines()
    package = Path(sweeps.__file__).resolve().parent
    assert Path(where).resolve().parent == package
    assert loaded == "[]"


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


def test_cycles_csv(trains):
    cycles = trains[(800e6, 45.0)]
    buf = io.StringIO()
    write_cycles_csv(cycles, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CYCLE_CSV_HEADER
    assert len(lines) == 4
    fields = lines[2].split(",")
    assert int(fields[0]) == 1
    assert float(fields[2]) == cycles[1].n_initial
    assert fields[3] == "true"
    buf = io.StringIO()
    write_cycles_csv([CycleRow(cycle=0, s_max=1.5e23, n_initial=3.6e23,
                               flagged=False),
                      CycleRow(cycle=1, s_max=1.25e23, n_initial=0.1 + 0.2,
                               flagged=True)], buf)
    assert buf.getvalue() == ("cycle,smax_m3,n_initial_m3,flagged\n"
                              "0,1.5e+23,3.6e+23,false\n"
                              "1,1.25e+23,0.30000000000000004,true\n")

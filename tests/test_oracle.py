import dataclasses
import io
import math

import numpy as np
import pytest

from gainswitch.dynamics import (DEFAULT_DT_PULSE, MAX_STEPS,
                                 DivergenceError, DriveError, DriveWaveform,
                                 integrate, steady_state_s)
from gainswitch.metrics import extract_metrics
from gainswitch.oracle import (EULER_DT, ORACLE_CSV_HEADER, OracleReport,
                               TruncationError,
                               euler_reference_trajectory,
                               poisson_gain_oracle, run_verification_suite,
                               write_oracle_csv)
from gainswitch.thermal import thermal_state


def test_poisson_oracle_trivials():
    assert poisson_gain_oracle(0.0, 0.5, 1.7e-6) == pytest.approx(
        1.7e-6, rel=1e-12)
    assert poisson_gain_oracle(0.48, 1.0, 0.0) == pytest.approx(
        1.0 - math.exp(-0.48), rel=1e-12)


def test_poisson_oracle_validation():
    with pytest.raises(ValueError):
        poisson_gain_oracle(0.48, 0.5, 0.0, n_max=19)
    with pytest.raises(ValueError):
        poisson_gain_oracle(-0.1, 0.5, 0.0)


def test_poisson_truncation_guard():
    with pytest.raises(TruncationError):
        poisson_gain_oracle(5.0, 0.5, 0.0, n_max=20)
    with pytest.raises(TruncationError):
        poisson_gain_oracle(30.0, 0.5, 0.0, n_max=20)


def test_poisson_oracle_truncation_independent():
    short = poisson_gain_oracle(0.48, 0.5, 1.7e-6, n_max=60)
    long = poisson_gain_oracle(0.48, 0.5, 1.7e-6, n_max=120)
    assert short == pytest.approx(long, rel=1e-15)


def test_euler_validation(profile, constants):
    thermal = thermal_state(constants, 25.0, profile.j_dc)
    drive = DriveWaveform(j_dc=profile.j_dc, j_ac=profile.j_ac_signal,
                          pulse_duration=profile.pulse_duration)
    with pytest.raises(ValueError):
        euler_reference_trajectory(thermal, constants, drive, 0.0, 1e-10)
    with pytest.raises(ValueError):
        euler_reference_trajectory(thermal, constants, drive, EULER_DT,
                                   1e-17)


def test_euler_storage_cap(profile, constants):
    """A grid of more than MAX_STEPS steps is refused before a step is
    taken, as in integrate; the cap counts grid steps, not Euler sub-steps
    (the zero-drive test below runs 2.5e7 sub-steps)."""
    thermal = thermal_state(constants, 25.0, profile.j_dc)
    drive = DriveWaveform(j_dc=profile.j_dc, j_ac=profile.j_ac_signal,
                          pulse_duration=profile.pulse_duration)
    for dt, t_end in ((EULER_DT, 1e-6), (100 * EULER_DT, 1e-6),
                      (EULER_DT, EULER_DT * (MAX_STEPS + 1)),
                      (2 * EULER_DT, EULER_DT * 2 * (MAX_STEPS + 1))):
        with pytest.raises(DriveError,
                           match=f"takes more than {MAX_STEPS} steps"):
            euler_reference_trajectory(thermal, constants, drive, dt, t_end)


def test_euler_zero_drive_fixed_point(profile, constants):
    thermal = thermal_state(constants, 25.0, profile.j_dc)
    # zero current everywhere: no DC bias, AC pulse deferred past the horizon
    drive = DriveWaveform(j_dc=0.0, j_ac=profile.j_ac_signal,
                          pulse_duration=profile.pulse_duration,
                          start_offset=1.0)
    # 2500 grid steps of 10000 Euler sub-steps each
    traj = euler_reference_trajectory(thermal, constants, drive,
                                      10000 * EULER_DT, 5e-9,
                                      initial=(0.0, 0.0))
    assert np.abs(traj.n).max() <= 1e-6
    assert np.abs(traj.s).max() <= 1e-6
    assert traj.stats.steps == len(traj.n) - 1
    assert traj.stats.split_steps == 0


def test_euler_off_grid_edge(profile, constants):
    # the 100 ps fall edge lands at grid step 6666.7: one cut step, whose
    # two parts are each taken in Euler sub-steps
    thermal = thermal_state(constants, 25.0, profile.j_dc)
    drive = DriveWaveform(j_dc=profile.j_dc, j_ac=profile.j_ac_signal,
                          pulse_duration=profile.pulse_duration)
    horizon = 0.12e-9
    fine = euler_reference_trajectory(thermal, constants, drive, 1.5e-14,
                                      horizon)
    assert fine.stats.split_steps == 1
    main = integrate(thermal, constants, drive, DEFAULT_DT_PULSE, horizon)
    assert fine.n[-1] == pytest.approx(main.n[-1], rel=1e-5)


def test_euler_stats_match_main_integrator(profile, constants):
    # both edges fall between grid points (steps 16.5 and 66.5)
    thermal = thermal_state(constants, 25.0, profile.j_dc)
    drive = DriveWaveform(j_dc=profile.j_dc, j_ac=profile.j_ac_signal,
                          pulse_duration=1.00003e-14, start_offset=3.3e-15)
    fine = euler_reference_trajectory(thermal, constants, drive, EULER_DT,
                                      4e-14).stats
    main = integrate(thermal, constants, drive, EULER_DT, 4e-14).stats
    assert (fine.steps, fine.split_steps) == (main.steps, main.split_steps)
    assert fine.split_steps == 2
    assert fine.clamps == main.clamps == 0


def test_euler_and_main_integrator_report_the_same_divergence(profile,
                                                              constants):
    # a 0.1 fs photon lifetime: both schemes overshoot s below zero
    fast = dataclasses.replace(constants, tau_p=1e-16)
    thermal = thermal_state(fast, 25.0, profile.j_dc)
    drive = DriveWaveform(j_dc=profile.j_dc, j_ac=profile.j_ac_signal,
                          pulse_duration=profile.pulse_duration)
    n = thermal.n_dc
    initial = (n, 10.0 * steady_state_s(thermal, fast, n))
    text = r"photon density -\S+ at t = \S+ s exceeds the clamp limit"
    # on a grid of EULER_DT, and of 5 EULER_DT taken in 5 sub-steps, the
    # first Euler sub-step already overshoots
    for dt in (EULER_DT, 5 * EULER_DT):
        with pytest.raises(DivergenceError, match=text) as fine:
            euler_reference_trajectory(thermal, fast, drive, dt, 1e-13,
                                       initial=initial)
        assert "at t = 2.000000e-16 s" in str(fine.value)
    with pytest.raises(DivergenceError, match=text):
        integrate(thermal, fast, drive, 1e-15, 1e-12, initial=initial)


def _assert_same_grid_and_s(main, fine):
    """Same grid, and every Euler s sample within verify's S_max tolerance
    (5e-3 of S_max) of the RK4 sample at the same time."""
    assert fine.dt == main.dt
    assert len(fine.n) == len(main.n)
    assert np.abs(fine.s - main.s).max() <= 5e-3 * main.s.max()


def test_euler_matches_main_integrator_25c(profile, constants):
    thermal = thermal_state(constants, 25.0, profile.j_dc)
    drive = DriveWaveform(j_dc=profile.j_dc, j_ac=profile.j_ac_signal,
                          pulse_duration=profile.pulse_duration)
    horizon = 0.5e-9
    main_traj = integrate(thermal, constants, drive, DEFAULT_DT_PULSE,
                          horizon)
    fine_traj = euler_reference_trajectory(thermal, constants, drive,
                                           DEFAULT_DT_PULSE, horizon)
    _assert_same_grid_and_s(main_traj, fine_traj)
    main = extract_metrics(main_traj)
    fine = extract_metrics(fine_traj)
    assert abs(main.s_max - fine.s_max) / fine.s_max < 5e-3
    assert abs(main.t_peak - fine.t_peak) < 1e-12


def test_euler_matches_main_integrator_45c_decoy(profile, constants):
    thermal = thermal_state(constants, 45.0, profile.j_dc)
    drive = DriveWaveform(j_dc=profile.j_dc, j_ac=profile.j_ac_decoy,
                          pulse_duration=profile.pulse_duration)
    horizon = 0.5e-9
    main_traj = integrate(thermal, constants, drive, DEFAULT_DT_PULSE,
                          horizon)
    fine_traj = euler_reference_trajectory(thermal, constants, drive,
                                           DEFAULT_DT_PULSE, horizon)
    _assert_same_grid_and_s(main_traj, fine_traj)
    main = extract_metrics(main_traj)
    fine = extract_metrics(fine_traj)
    assert abs(main.t_peak - fine.t_peak) < 1e-12


def test_quick_suite_passes(profile):
    reports = run_verification_suite(profile, quick=True)
    assert len(reports) == 6
    for r in reports:
        assert r.passed == (r.deviation <= r.tolerance)
        assert r.passed, f"{r.quantity}: deviation {r.deviation:.3e}"
    names = {r.quantity for r in reports}
    assert "count_rate_signal_vs_poisson_sum" in names
    assert "signal_balance_residual" in names


def test_oracle_csv_writes_numpy_values_as_numbers():
    # deviations of numpy-valued metrics (t_on) arrive as numpy scalars
    buf = io.StringIO()
    write_oracle_csv([OracleReport("dt_halving_t_on", np.float64(5e-11),
                                   np.float64(6e-11), np.float64(0.25),
                                   1e-3, np.float64(0.25) <= 1e-3)], buf)
    assert buf.getvalue().splitlines()[1] == \
        "dt_halving_t_on,5e-11,6e-11,0.25,0.001,false"


def test_oracle_csv(profile):
    reports = run_verification_suite(profile, quick=True)
    buf = io.StringIO()
    write_oracle_csv(reports, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ORACLE_CSV_HEADER
    assert len(lines) == len(reports) + 1
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 6
        assert fields[5] == "true"
        assert float(fields[3]) <= float(fields[4])
    buf = io.StringIO()
    write_oracle_csv([
        OracleReport("count_rate_signal_vs_poisson_sum", 0.1 + 0.2, 0.3,
                     1.8e-16, 1e-12, True),
        OracleReport("dt_halving_t_on", 5e-11, 6e-11, 0.16666666666666666,
                     1e-3, np.False_)], buf)
    assert buf.getvalue() == (
        "quantity,main_value,oracle_value,deviation,tolerance,passed\n"
        "count_rate_signal_vs_poisson_sum,0.30000000000000004,0.3,1.8e-16,"
        "1e-12,true\n"
        "dt_halving_t_on,5e-11,6e-11,0.16666666666666666,0.001,false\n")

import io
import math
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from gainswitch.dynamics import (CLAMP_LIMIT, DEFAULT_DT_PULSE, MAX_STEPS,
                                 FLOOR_DELAY, TAIL_DELAY, TAIL_LADDER,
                                 TAIL_STABILITY,
                                 DivergenceError,
                                 DriveError, DriveWaveform, IntegrationStats,
                                 NoSteadyStateError, clamp_density,
                                 derivatives, integrate, Trajectory,
                                 steady_state_s, step_plan,
                                 write_trajectory_csv)
from gainswitch.metrics import PulseMetrics, extract_metrics
from gainswitch.oracle import ReferenceRun, adaptive_reference
from gainswitch.sweeps import run_train_scenario
from gainswitch.thermal import thermal_state


@pytest.fixture(scope="module")
def thermal25(profile):
    return thermal_state(profile.constants, 25.0, profile.j_dc)


def single_pulse_drive(profile, start_offset=0.0):
    return DriveWaveform(j_dc=profile.j_dc, j_ac=profile.j_ac_signal,
                         pulse_duration=profile.pulse_duration,
                         start_offset=start_offset)


def test_defaults():
    assert DEFAULT_DT_PULSE == 100e-15
    assert CLAMP_LIMIT == 1e-6


def test_drive_validation():
    with pytest.raises(DriveError):
        DriveWaveform(j_dc=1.0, j_ac=1.0, pulse_duration=0.0)
    with pytest.raises(DriveError):
        DriveWaveform(j_dc=1.0, j_ac=0.0, pulse_duration=1e-10)
    with pytest.raises(DriveError):
        DriveWaveform(j_dc=-1.0, j_ac=1.0, pulse_duration=1e-10)
    with pytest.raises(DriveError):
        DriveWaveform(j_dc=1.0, j_ac=1.0, pulse_duration=1e-10, n_pulses=0)
    with pytest.raises(DriveError):
        DriveWaveform(j_dc=1.0, j_ac=1.0, pulse_duration=1e-10, n_pulses=2)
    with pytest.raises(DriveError):
        DriveWaveform(j_dc=1.0, j_ac=1.0, pulse_duration=1e-10,
                      period=1e-10, n_pulses=2)
    for n_pulses in (2.5, 2.0):
        with pytest.raises(DriveError, match="n_pulses must lie in"):
            DriveWaveform(j_dc=1.0, j_ac=1.0, pulse_duration=1e-10,
                          period=4e-10, n_pulses=n_pulses)


@pytest.mark.parametrize("name", ["pulse_duration", "j_ac", "j_dc", "period",
                                  "start_offset"])
def test_drive_rejects_non_finite(name):
    fields = dict(j_dc=1.0, j_ac=1.0, pulse_duration=1e-10, period=4e-10,
                  n_pulses=2)
    for bad in (math.nan, math.inf):
        with pytest.raises(DriveError, match=name):
            DriveWaveform(**{**fields, name: bad})


def current(drive, t):
    """Injection current density of drive at time t, A/m^2: the tests'
    reference for the drive, computed without its segments."""
    tt = t - drive.start_offset
    if tt < 0.0:
        return drive.j_dc
    if drive.period is None:
        return drive.j_dc + drive.j_ac if tt < drive.pulse_duration else drive.j_dc
    cycle = int(tt // drive.period)
    if cycle >= drive.n_pulses:
        return drive.j_dc
    return (drive.j_dc + drive.j_ac
            if tt - cycle * drive.period < drive.pulse_duration
            else drive.j_dc)


def test_drive_current_single_pulse():
    d = DriveWaveform(j_dc=2.0, j_ac=5.0, pulse_duration=1e-10,
                      start_offset=1e-10)
    assert current(d, 0.0) == 2.0
    assert current(d, 1.5e-10) == 7.0
    assert current(d, 2.5e-10) == 2.0
    assert [d.edge_time(k) for k in range(d.n_pulses)] == [1e-10]
    assert d.edge_time(0) == 1e-10
    with pytest.raises(IndexError, match=r"k must lie in \{0, \.\.\., 0\}, got 1"):
        d.edge_time(1)


def test_drive_current_train():
    d = DriveWaveform(j_dc=2.0, j_ac=5.0, pulse_duration=1e-10,
                      period=4e-10, n_pulses=2)
    assert current(d, 0.5e-10) == 7.0
    assert current(d, 2e-10) == 2.0
    assert current(d, 4.5e-10) == 7.0
    assert current(d, 8.5e-10) == 2.0  # past the last pulse
    assert [d.edge_time(k) for k in range(d.n_pulses)] == [0.0, 4e-10]
    for k in (-1, 2):
        with pytest.raises(IndexError, match="k must lie in"):
            d.edge_time(k)


def check_segments(drive, t_end):
    """segments() tiles [0, t_end] and agrees with current inside each
    segment; returns the segments."""
    segs = drive.segments(t_end)
    assert segs[0][0] == 0.0
    assert segs[-1][1] == t_end
    for (_, a1, ja), (b0, _, jb) in zip(segs, segs[1:]):
        assert a1 == b0
        assert ja != jb
    for t0, t1, j in segs:
        assert t1 > t0
        assert current(drive, 0.5 * (t0 + t1)) == j
    return segs


def test_segments_single_pulse():
    d = DriveWaveform(j_dc=2.0, j_ac=5.0, pulse_duration=1e-10)
    assert check_segments(d, 3e-10) == [(0.0, 1e-10, 7.0),
                                        (1e-10, 3e-10, 2.0)]
    # horizon inside the pulse, and a pulse entirely past the horizon
    assert check_segments(d, 0.5e-10) == [(0.0, 0.5e-10, 7.0)]
    late = DriveWaveform(j_dc=2.0, j_ac=5.0, pulse_duration=1e-10,
                         start_offset=1.0)
    assert check_segments(late, 3e-10) == [(0.0, 3e-10, 2.0)]


def test_segments_start_offset():
    d = DriveWaveform(j_dc=2.0, j_ac=5.0, pulse_duration=1e-10,
                      start_offset=1e-10)
    assert len(check_segments(d, 3e-10)) == 3
    # a pulse that began before t = 0 is refused
    with pytest.raises(DriveError, match="start_offset"):
        DriveWaveform(j_dc=2.0, j_ac=5.0, pulse_duration=1e-10,
                      start_offset=-0.4e-10)


def test_segments_train_past_last_pulse():
    d = DriveWaveform(j_dc=2.0, j_ac=5.0, pulse_duration=1e-10,
                      period=4e-10, n_pulses=2, start_offset=0.3e-10)
    segs = check_segments(d, 12e-10)
    assert len(segs) == 5
    assert segs[-1][2] == 2.0
    assert segs[-1][1] - segs[-1][0] > 4e-10  # the quiet tail after pulse 2


def test_segments_off_grid_duration():
    d = DriveWaveform(j_dc=2.0, j_ac=5.0, pulse_duration=1e-10 / 3.0,
                      period=1.3e-10, n_pulses=3)
    assert len(check_segments(d, 5e-10)) == 6


def test_segments_reads_only_the_pulses_before_t_end(monkeypatch):
    """segments(1 ns) of a 10^5-pulse 800 MHz train reads the first two
    rising edges, the second at 1.25 ns, not all 10^5."""
    calls = []
    edge_time = DriveWaveform.edge_time

    def counted(self, k):
        calls.append(k)
        return edge_time(self, k)

    drive = DriveWaveform(j_dc=2.0, j_ac=5.0, pulse_duration=1e-10,
                          period=1.25e-9, n_pulses=10**5)
    monkeypatch.setattr(DriveWaveform, "edge_time", counted)
    assert check_segments(drive, 1e-9) == [(0.0, 1e-10, 7.0),
                                           (1e-10, 1e-9, 2.0)]
    assert calls == [0, 1]


def test_step_plan_covers_every_step():
    # edges on the grid, off it, and two inside one step
    drives = [
        DriveWaveform(j_dc=2.0, j_ac=5.0, pulse_duration=1e-10),
        DriveWaveform(j_dc=2.0, j_ac=5.0, pulse_duration=1e-10 / 3.0,
                      period=1.3e-10, n_pulses=3),
        DriveWaveform(j_dc=2.0, j_ac=5.0, pulse_duration=3e-14,
                      start_offset=2.5e-13),
    ]
    # all fine, and a ladder of strides 3, 7 and 12 from 10, 20 and 30 ps
    # after each fall edge, whose first two stages leave grid steps over
    dt, steps = 1e-13, 4000
    fine, ladder = ((0.0, 1),), ((1e-11, 3), (2e-11, 7), (3e-11, 12))
    for drive, tail in [(d, t) for d in drives for t in (fine, ladder)]:
        plan = step_plan(drive, dt, steps, tail)
        assert plan[0][0] == 0
        assert plan[-1][1] == steps
        for (_, a1, _, _), (b0, _, _, _) in zip(plan, plan[1:]):
            assert a1 == b0
        for i0, i1, stride, parts in plan:
            assert stride == 1 or tail is ladder
            if len(parts) == 1:
                assert parts[0][0] == stride * dt
                assert (i1 - i0) % stride == 0
                for i in (i0, i1 - stride):
                    assert current(drive, (i + 0.5 * stride) * dt) \
                        == parts[0][1]
                continue
            assert i1 == i0 + 1
            assert sum(h for h, _ in parts) == pytest.approx(dt, rel=1e-12)
            t = i0 * dt
            for h, j in parts:
                assert h > 0
                assert current(drive, t + 0.5 * h) == j
                t += h
    assert [e[:3] for e in step_plan(drives[0], dt, steps, ladder)] == [
        (0, 1000, 1), (1000, 1100, 1), (1100, 1199, 3), (1199, 1200, 1),
        (1200, 1298, 7), (1298, 1300, 1), (1300, 4000, 12)]
    split = [p for p in step_plan(drives[2], dt, steps, fine)
             if len(p[3]) > 1]
    assert [(i0, [j for _, j in parts]) for i0, _, _, parts in split] == [
        (2, [2.0, 7.0, 2.0])]


def test_derivatives_dc_fixed_point(profile, thermal25):
    c = thermal25.constants
    dn_dt, ds_dt = derivatives((thermal25.n_dc, 0.0), profile.j_dc,
                               thermal25)
    assert dn_dt == 0.0
    expected = c.gamma * c.beta_sp * thermal25.n_dc / thermal25.tau_n
    assert ds_dt == pytest.approx(expected, rel=1e-12)
    assert ds_dt > 0.0


def test_derivatives_transparency(profile, thermal25):
    dn_dt, _ = derivatives((thermal25.n0, 7e22), 0.0, thermal25)
    assert dn_dt == pytest.approx(-thermal25.n0 / thermal25.tau_n, rel=1e-12)


def test_derivatives_threshold_gain_cancels_loss(profile, thermal25):
    c = thermal25.constants
    for s in (1e20, 5e22):
        _, ds_dt = derivatives((thermal25.n_th, s), 0.0, thermal25)
        expected = c.gamma * c.beta_sp * thermal25.n_th / thermal25.tau_n
        assert ds_dt == pytest.approx(expected, rel=1e-9)


def test_steady_state_trivials(profile, thermal25):
    c = thermal25.constants
    assert steady_state_s(thermal25, 0.0) == 0.0
    expected = c.gamma * c.beta_sp * thermal25.n0 * c.tau_p / thermal25.tau_n
    assert steady_state_s(thermal25, thermal25.n0) == pytest.approx(
        expected, rel=1e-12)


def test_steady_state_anchor(profile, thermal25):
    value = steady_state_s(thermal25, thermal25.n_dc)
    assert value == pytest.approx(1.78225061848864e17, rel=1e-12)


def test_steady_state_matches_damped_iteration(profile, thermal25):
    c = thermal25.constants
    n = thermal25.n_dc
    s = 0.0
    step = 0.2 * c.tau_p
    for _ in range(120):
        _, ds_dt = derivatives((n, s), 0.0, thermal25)
        s = s + step * ds_dt
    closed = steady_state_s(thermal25, n)
    assert s == pytest.approx(closed, rel=1e-12)


def test_steady_state_above_threshold(profile, thermal25):
    with pytest.raises(NoSteadyStateError):
        steady_state_s(thermal25, thermal25.n_th)
    with pytest.raises(NoSteadyStateError):
        steady_state_s(thermal25, 2.0 * thermal25.n_th)


def test_integrate_validation(profile, thermal25):
    drive = single_pulse_drive(profile)
    with pytest.raises(ValueError):
        integrate(thermal25, drive, 0.0, 1e-9)
    with pytest.raises(ValueError):
        integrate(thermal25, drive, 1e-12, 1e-13)
    with pytest.raises(ValueError):
        integrate(thermal25, drive, 1e-12, 1e-9, initial=(-1.0, 0.0))
    with pytest.raises(ValueError, match="t_end"):
        integrate(thermal25, drive, 1e-12, math.inf)
    with pytest.raises(ValueError, match="dt"):
        integrate(thermal25, drive, math.nan, 1e-9)
    # a grid past MAX_STEPS, t_end / dt past the float range included
    for dt, t_end in ((1e-14, 1.0), (1e-320, 1e-9)):
        with pytest.raises(DriveError, match=f"more than {MAX_STEPS} steps"):
            integrate(thermal25, drive, dt, t_end)


def test_integration_stats(profile, thermal25):
    drive = single_pulse_drive(profile)
    traj = integrate(thermal25, drive, DEFAULT_DT_PULSE, 0.5e-9)
    assert traj.stats.steps == len(traj.times) - 1
    assert traj.stats.split_steps == 0
    assert traj.stats.clamps == 0
    assert traj.stats.worst_clamp == 0.0
    # the 100 ps fall edge lands at step 3333.3
    off = integrate(thermal25, drive, 3e-14, 0.5e-9)
    assert off.stats.steps == len(off.times) - 1
    assert off.stats.split_steps == 1


def test_off_grid_edges_keep_full_order(profile, constants):
    # 45 C decoy: the pulse most sensitive to where the fall edge lands
    thermal = thermal_state(constants, 45.0, profile.j_dc)
    drive = DriveWaveform(j_dc=profile.j_dc, j_ac=profile.j_ac_decoy,
                          pulse_duration=profile.pulse_duration)
    horizon = 0.5e-9
    ref = extract_metrics(integrate(thermal, drive, 2e-15, horizon))
    for dt in (20e-15, 30e-15):
        pm = extract_metrics(integrate(thermal, drive, dt, horizon))
        assert abs(pm.s_max / ref.s_max - 1.0) <= 1e-8, dt
        assert abs(pm.t_peak - ref.t_peak) <= 0.1e-15, dt


def test_step_currents_take_each_end_from_its_segment(profile, thermal25):
    drive = single_pulse_drive(profile)
    on, off = profile.j_dc + profile.j_ac_signal, profile.j_dc
    # (dt, steps, J at each step's start, J at its end): the 100 ps fall
    # edge cuts step 333 at 0.3 ps, and is grid point 1000 at 0.1 ps
    cases = [(3e-13, range(331, 336), (on, on, on, off, off),
              (on, on, off, off, off)),
             (1e-13, range(998, 1002), (on, on, off, off),
              (on, on, off, off))]
    for dt, steps, j_start, j_end in cases:
        traj = integrate(thermal25, drive, dt, 0.2e-9)
        for k, js in zip(steps, zip(j_start, j_end)):
            slopes = traj.step_slopes(k)
            for row, j in enumerate(js):
                state = (traj.n[k + row], traj.s[k + row])
                assert slopes[row] == derivatives(state, j, thermal25)


def test_step_slopes_are_the_right_hand_side(profile, thermal25):
    traj = integrate(thermal25, single_pulse_drive(profile), 1e-13,
                     0.2e-9)
    slopes = [traj.step_slopes(k) for k in range(998, 1002)]
    on, off = profile.j_dc + profile.j_ac_signal, profile.j_dc
    for k, j, ends in zip(range(998, 1002), (on, on, off, off), slopes):
        for row in (0, 1):
            state = (traj.n[k + row], traj.s[k + row])
            assert ends[row] == derivatives(state, j, thermal25)
            assert all(type(v) is float for v in ends[row])
    # grid point 1000, the fall edge, ends a step at the pulse's J and
    # starts one at the DC level: ds/dt does not depend on J
    (dn_on, ds_on), (dn_off, ds_off) = slopes[1][1], slopes[2][0]
    assert dn_on > dn_off
    assert ds_on == ds_off


def test_integrate_shape_and_nonnegativity(profile, thermal25):
    traj = integrate(thermal25, single_pulse_drive(profile),
                     1e-13, 0.5e-9)
    # 2,000 steps of 0.1 ps to 20 tau_p past the fall edge, 250 of 0.2 ps
    # and 125 of 0.4 ps to 40 tau_p, 83 of 1.2 ps and 4 of 0.1 ps to
    # 60 tau_p, 58 of 1.7 ps, then the 14 fine steps left before t_end:
    # every sample lies on the 0.1 ps grid
    assert len(traj.times) == 2535
    assert traj.dt == pytest.approx(1e-13, rel=1e-12)
    assert np.all(traj.n >= 0.0)
    assert np.all(traj.s >= 0.0)
    assert np.array_equal(traj.times, traj.index * 1e-13)
    assert np.array_equal(np.diff(traj.index),
                          [1] * 2000 + [2] * 250 + [4] * 125 + [12] * 83
                          + [1] * 4 + [17] * 58 + [1] * 14)


def joint_dc_fixed_point(thermal, j_dc):
    """Carrier density where dn/dt = ds/dt = 0 under DC drive alone.

    Eliminating s through ds/dt = 0 gives
    (jq - n/tau_n)(1 - a x) = g0 gamma beta_sp tau_p x n / tau_n with
    x = n - n0, a = gamma g0 tau_p and jq = j_dc / (q d): a quadratic
    A n^2 + B n + C = 0 with A, C > 0 > B. Its smaller root is the one
    below threshold; it is taken in the cancellation-free form.
    """
    constants = thermal.constants
    a = constants.gamma * thermal.g0 * constants.tau_p
    jq = j_dc / (constants.q * constants.d)
    itn = 1.0 / thermal.tau_n
    qa = a * (1.0 - constants.beta_sp) * itn
    qb = -jq * a - (1.0 + a * thermal.n0) * itn \
        + a * constants.beta_sp * thermal.n0 * itn
    qc = jq * (1.0 + a * thermal.n0)
    n = 2.0 * qc / (-qb + math.sqrt(qb * qb - 4.0 * qa * qc))
    assert 0.0 < n < thermal.n_th
    return n


def test_dc_operating_point_is_stationary(profile, thermal25):
    # DC drive only: the AC pulse is deferred past the horizon
    drive = single_pulse_drive(profile, start_offset=1.0)
    n_fix = joint_dc_fixed_point(thermal25, profile.j_dc)
    s_fix = steady_state_s(thermal25, n_fix)
    traj = integrate(thermal25, drive, DEFAULT_DT_PULSE, 5e-9,
                     initial=(n_fix, s_fix))
    n_drift = np.abs(traj.n / traj.n[0] - 1.0).max()
    s_drift = np.abs(traj.s / traj.s[0] - 1.0).max()
    assert n_drift < 1e-9
    assert s_drift < 1e-9

    # The default start (n_dc, steady_state_s(n_dc)) balances the carriers
    # without photons; absorption then adds carriers until the state
    # reaches the joint fixed point, about 7.6e-4 above n_dc.
    traj = integrate(thermal25, drive, DEFAULT_DT_PULSE, 5e-9)
    assert traj.n[0] == thermal25.n_dc
    assert abs(traj.n[-1] / n_fix - 1.0) < 2e-5


def test_divergence_reports_time(profile, thermal25):
    drive = single_pulse_drive(profile)
    with pytest.raises(DivergenceError, match="exceeds the clamp limit") as err:
        integrate(thermal25, drive, 5e-11, 1e-9)
    assert "t = " in str(err.value)


def test_numpy_scalars_run_as_floats(profile, thermal25):
    """A numpy float64 dt, or a drive whose currents are numpy float64s,
    gives what Python floats give: the same stored bytes, metrics and
    reference run, every float field a float, and, when warnings are
    errors, the DivergenceError of an overflow, not a RuntimeWarning."""
    drive = single_pulse_drive(profile)
    numpy_drive = replace(drive, j_dc=np.float64(drive.j_dc),
                          j_ac=np.float64(drive.j_ac))
    horizon = 0.5e-9
    traj = integrate(thermal25, drive, DEFAULT_DT_PULSE, horizon)
    metrics = extract_metrics(traj)
    for run in (integrate(thermal25, drive, np.float64(DEFAULT_DT_PULSE),
                          horizon),
                integrate(thermal25, numpy_drive, DEFAULT_DT_PULSE, horizon)):
        assert [run.n.tobytes(), run.s.tobytes(), run.index.tobytes()] == [
            traj.n.tobytes(), traj.s.tobytes(), traj.index.tobytes()]
        assert type(run.dt) is float
        assert repr(extract_metrics(run)) == repr(metrics)
    reference = adaptive_reference(thermal25, numpy_drive, horizon)
    assert repr(reference) == repr(adaptive_reference(thermal25, drive,
                                                      horizon))
    for result, kind in ((metrics, PulseMetrics), (reference, ReferenceRun)):
        assert all(type(getattr(result, field.name)) is float
                   for field in fields(kind) if field.type is float)

    def divergence(run):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                run()
        return str(err.value)

    dt = 1e-13
    big = replace(drive, j_ac=1e300, start_offset=5 * dt)
    numpy_big = replace(big, j_ac=np.float64(1e300))
    expected = "non-finite state at t = 6.000000e-13 s"
    assert divergence(lambda: integrate(thermal25, big, dt, 50 * dt)) \
        == divergence(lambda: integrate(thermal25, big, np.float64(dt),
                                        50 * dt)) \
        == divergence(lambda: integrate(thermal25, numpy_big, dt, 50 * dt)) \
        == expected
    assert divergence(lambda: adaptive_reference(thermal25, big, 50 * dt)) \
        == divergence(lambda: adaptive_reference(thermal25, numpy_big,
                                                 50 * dt))


def test_initial_photon_density_insensitive(profile, pulse25):
    thermal, _, reference = pulse25
    drive = single_pulse_drive(profile)
    traj = integrate(thermal, drive, DEFAULT_DT_PULSE,
                     2e-9, initial=(thermal.n_dc, 0.0))
    pm = extract_metrics(traj)
    assert pm.recovered == reference.recovered
    for name in ("t_on", "t_peak", "s_max", "pulse_energy"):
        a = getattr(pm, name)
        b = getattr(reference, name)
        assert abs(a - b) / abs(b) < 1e-3


def test_below_threshold_relaxation(profile, thermal25):
    n_init = 0.5 * (thermal25.n_dc + thermal25.n0)
    drive = single_pulse_drive(profile, start_offset=1.0)
    traj = integrate(thermal25, drive, 1e-14, 3e-9,
                     initial=(n_init, steady_state_s(thermal25, n_init)))
    residual = traj.n - thermal25.n_dc
    assert np.all(residual > 0.0)
    assert np.all(np.diff(residual) <= 0.0)
    idx = np.nonzero(residual >= residual[0] / 10.0)[0]
    slope, _ = np.polyfit(traj.times[idx], np.log(residual[idx]), 1)
    tau_fit = -1.0 / slope
    assert abs(tau_fit - thermal25.tau_n) / thermal25.tau_n < 0.02


def test_train_validation(profile):
    # extract_metrics needs 3 steps per cycle: 3 * 4.2e-10 s > 1.25 ns
    for dt in (4.2e-10, 1e-8):
        with pytest.raises(DriveError, match="dt"):
            run_train_scenario(profile, 25.0, 800e6, 2, dt=dt)


def test_train_records_edge_densities(profile):
    thermal, traj, cycles = run_train_scenario(profile, 45.0, 800e6, 3)
    drive = traj.drive
    edges = [drive.edge_time(k) for k in range(drive.n_pulses)]
    assert len(edges) == 3
    n_initial = [extract_metrics(traj, cycle_index=k).n_initial
                 for k in range(len(edges))]
    assert n_initial == [c.n_initial for c in cycles]
    assert n_initial[0] == thermal.n_dc
    assert traj.stats.steps == len(traj.times) - 1
    for k, edge in enumerate(edges):
        i = np.searchsorted(traj.index, round(edge / traj.dt))
        assert traj.index[i] == round(edge / traj.dt)
        assert n_initial[k] == traj.n[i]


def test_off_grid_edge_reads_the_step_before(profile):
    """An edge past mid-step maps to the grid point at or before it, the
    last one the pulse has not reached, as step_plan maps it."""
    dt = 3e-13
    _, traj, cycles = run_train_scenario(profile, 45.0, 800e6, 4, dt=dt)
    drive = traj.drive
    edges = [drive.edge_time(k) for k in range(drive.n_pulses)]
    assert [round(e / dt) for e in edges] != [math.floor(e / dt)
                                              for e in edges]
    for c, edge in zip(cycles, edges):
        i = np.searchsorted(traj.index, math.floor(edge / dt))
        assert traj.index[i] == math.floor(edge / dt)
        assert c.n_initial == traj.n[i]


def pulse_run(profile, temp_c, state, t_end, dt=DEFAULT_DT_PULSE):
    """(thermal, trajectory) of one default pulse."""
    thermal = thermal_state(profile.constants, temp_c, profile.j_dc)
    j_ac = profile.j_ac_signal if state == "signal" else profile.j_ac_decoy
    drive = DriveWaveform(j_dc=profile.j_dc, j_ac=j_ac,
                          pulse_duration=profile.pulse_duration)
    return thermal, integrate(thermal, drive, dt, t_end)


@pytest.fixture(scope="module")
def tail_pairs(profile):
    """(thermal, planned run, all-fine run) per pulse: 15/25/45 C, signal
    and decoy, 2 and 10 ns, and 35/40 C at 2 ns, whose decoys carry the
    longest photon transients after the fall edge. TAIL_STABILITY = 0
    makes every tail stage's step one fine step (the floor stage is not
    planned), which is the all-fine plan."""
    planned = {}
    all_fine = {}
    cases = [(t, state, t_end) for t in (15.0, 25.0, 45.0)
             for state in ("signal", "decoy") for t_end in (2e-9, 10e-9)]
    cases += [(t, state, 2e-9) for t in (35.0, 40.0)
              for state in ("signal", "decoy")]
    for case in cases:
        planned[case] = pulse_run(profile, *case)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("gainswitch.dynamics.TAIL_STABILITY", 0.0)
        for case in cases:
            all_fine[case] = pulse_run(profile, *case)[1]
    return [(planned[c][0], planned[c][1], all_fine[c]) for c in cases]


def test_tail_takes_stability_bounded_steps(tail_pairs):
    """Each pulse runs on dt (0.1 ps) to 20 tau_p past the fall edge (2,000
    steps), then 10 tau_p in steps of 2 dt and 10 tau_p in steps of 4 dt
    (h lambda_max = 0.24 and 0.48), then 83 steps of 12 dt (1.2 ps, h
    lambda_max = 1.44) and 4 of dt to FLOOR_DELAY = 60 tau_p, then steps
    of K_f dt (18 at 15 C, 17 at 25 C, 16 at 35-45 C; h lambda(n_dc) <=
    1.5) to the last one that fits, then the grid steps left on dt; every
    end lies on the fine grid, and the all-fine run takes every grid step.
    From 60 tau_p on the carriers stay at or above n_dc, the premise of
    the floor stage's stride."""
    for thermal, traj, fine in tail_pairs:
        k_f = {15.0: 18, 25.0: 17}.get(thermal.temperature, 16)
        grid = len(fine.n) - 1
        coarse = 4000 + (grid - 4000) // k_f * k_f
        assert [e[:3] for e in traj.plan] == [
            (0, 1000, 1), (1000, 2000, 1), (2000, 2500, 2), (2500, 3000, 4),
            (3000, 3996, 12), (3996, 4000, 1), (4000, coarse, k_f),
            *[(coarse, grid, 1)] * (coarse < grid)]
        assert traj.stats.steps == len(traj.n) - 1 \
            == 2000 + 250 + 125 + 83 + 4 + (grid - 4000) // k_f \
            + (grid - coarse)
        assert np.array_equal(traj.times, traj.index * DEFAULT_DT_PULSE)
        assert np.all(traj.n[traj.index >= 4000] >= thermal.n_dc)
        assert {e[2] for e in fine.plan} == {1}
        assert np.array_equal(fine.index, np.arange(grid + 1))


def test_tail_keeps_pulse_metrics(tail_pairs):
    """The fine part is the same steps from t = 0, so t_on, t_peak and
    S_max keep their bits; t_re moves by less than 1 fs, n by 1e-12 and s
    by 1e-7 (relative) at every sample the two runs share."""
    for _, traj, fine in tail_pairs:
        pm, ref = extract_metrics(traj), extract_metrics(fine)
        assert (pm.t_on, pm.t_peak, pm.s_max, pm.n_initial) == (
            ref.t_on, ref.t_peak, ref.s_max, ref.n_initial)
        assert pm.recovered == ref.recovered
        if ref.recovered:
            assert abs(pm.t_re - ref.t_re) <= 1e-15
        assert abs(pm.pulse_energy / ref.pulse_energy - 1.0) <= 1e-6
        assert np.max(np.abs(traj.n / fine.n[traj.index] - 1.0)) <= 1e-12
        assert np.max(np.abs(traj.s / fine.s[traj.index] - 1.0)) <= 1e-7
    assert sum(extract_metrics(t).recovered for _, t, _ in tail_pairs) == 6


def test_tail_stays_fine_above_threshold(profile, monkeypatch):
    """With the tail, the floor stage or else the ladder's first stage
    moved to the fall edge, the 45 C pulses, which peak after the edge,
    still have n >= n_th there and stay on dt, step for step; the 25 C
    signal pulse, past its peak, takes the stage. Its 4,000 grid steps to
    0.5 ns hold 333 tail steps of 12 dt and 4 left over on dt, or 235
    floor steps of 17 dt and 5 left over, or 2,000 steps of 2 dt (a stage
    500 ps after the edge lies past the run)."""
    for ladder, delay, floor, strides in (((), 0, 100, [1, 12, 1]),
                                          ((), 0, 0, [1, 17, 1]),
                                          (((0, 2),), 100, 100, [1, 2])):
        with monkeypatch.context() as mp:
            mp.setattr("gainswitch.dynamics.TAIL_LADDER", ladder)
            mp.setattr("gainswitch.dynamics.TAIL_DELAY", delay)
            mp.setattr("gainswitch.dynamics.FLOOR_DELAY", floor)
            runs = {case: pulse_run(profile, *case, 0.5e-9) for case in (
                (45.0, "signal"), (45.0, "decoy"), (25.0, "signal"))}
            mp.setattr("gainswitch.dynamics.TAIL_STABILITY", 0.0)
            for case, (thermal, traj) in runs.items():
                _, fine = pulse_run(profile, *case, 0.5e-9)
                tail = case == (25.0, "signal")
                assert (traj.n[1000] < thermal.n_th) == tail
                if tail:
                    assert [e[2] for e in traj.plan] == strides
                else:
                    assert {e[2] for e in traj.plan} == {1}
                    assert np.array_equal(traj.n, fine.n)
                    assert np.array_equal(traj.s, fine.s)


def test_train_walks_the_step_plan_once(profile, monkeypatch):
    """integrate builds the plan once and keeps it; extracting every cycle
    of a 100-pulse train bisects it and builds none."""
    calls = []

    def counted(*args):
        calls.append(args)
        return step_plan(*args)

    monkeypatch.setattr("gainswitch.dynamics.step_plan", counted)
    _, traj, cycles = run_train_scenario(profile, 25.0, 800e6, 100)
    assert len(calls) == 1 and len(cycles) == 100
    pms = [extract_metrics(traj, cycle_index=k) for k in range(100)]
    assert len(calls) == 1
    assert [pm.s_max for pm in pms] == [c.s_max for c in cycles]


def test_integrate_bounds_memory_per_step(profile, thermal25):
    """integrate stores a step in n, s and its grid index (24 B) plus
    growth slack; Python lists of floats took about 80 B."""
    tracemalloc.start()
    try:
        traj = integrate(thermal25, single_pulse_drive(profile),
                         DEFAULT_DT_PULSE, 2e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.n) == 13999
    assert peak < 40 * len(traj.n)


def test_trajectory_csv_round_trip(profile, thermal25):
    traj = integrate(thermal25, single_pulse_drive(profile),
                     1e-12, 2e-10)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "time_s,n_m3,s_m3"
    assert len(lines) == len(traj.times) + 1
    parsed = np.array([[float(x) for x in line.split(",")]
                       for line in lines[1:]])
    assert np.array_equal(parsed[:, 0], traj.times)
    assert np.array_equal(parsed[:, 1], traj.n)
    assert np.array_equal(parsed[:, 2], traj.s)


def test_trajectory_csv_decimation(profile, thermal25):
    traj = integrate(thermal25, single_pulse_drive(profile),
                     1e-12, 2e-10)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf, decimate=4)
    assert len(buf.getvalue().splitlines()) == 1 + len(traj.times[::4])
    six = Trajectory(dt=1e-13,
                     n=3.6e23 + np.arange(6) * 1.1e21,
                     s=np.arange(6) / 3.0 * 1e20, thermal=None, drive=None,
                     stats=None, index=np.arange(6), plan=None)
    buf = io.StringIO()
    write_trajectory_csv(six, buf, decimate=4)
    assert buf.getvalue() == ("time_s,n_m3,s_m3\n"
                              "0.0,3.6e+23,0.0\n"
                              "4e-13,3.644e+23,1.3333333333333333e+20\n")
    with pytest.raises(ValueError):
        write_trajectory_csv(traj, buf, decimate=0)


def test_clamp_density_zeroes_roundoff_and_keeps_the_worst():
    """A negative density within CLAMP_LIMIT of the running scale is
    roundoff: it becomes 0.0, bounds[2] counts it and bounds[3] keeps the
    largest -value / scale. Past the limit it is divergence, and bounds
    is left as it was."""
    bounds = [1e20, 1e20, 0, 0.0]
    assert clamp_density("photon", -1e13, 1e20, 1e-9, bounds) == 0.0
    assert clamp_density("carrier", -1e12, 1e20, 2e-9, bounds) == 0.0
    assert bounds == [1e20, 1e20, 2, 1e13 / 1e20]
    with pytest.raises(DivergenceError,
                       match=r"carrier density -1\.000e\+15 at t = 3\.0+e-09 s "
                             r"exceeds the clamp limit"):
        clamp_density("carrier", -1e15, 1e20, 3e-9, bounds)
    assert bounds == [1e20, 1e20, 2, 1e13 / 1e20]


def test_tail_plan_follows_the_states_own_tau_p(profile):
    """Two profiles that differ only in tau_p: each run plans its DC tail
    (delay TAIL_DELAY tau_p, stride K from RK4's stability bound), the
    ladder before it (TAIL_LADDER's delays in tau_p, strides at most K)
    and the floor stage after it (delay FLOOR_DELAY tau_p, stride K_f from
    the loss rate at n_dc, 1.5x the stability bound and tau_n / (10
    tau_p)) from the tau_p of the state it is given, and the two plans
    differ."""
    c_a = profile.constants
    c_b = replace(c_a, tau_p=2.5e-12)
    drive = single_pulse_drive(profile)
    dt, t_end = DEFAULT_DT_PULSE, 2e-9
    plans = []
    for c in (c_a, c_b):
        thermal = thermal_state(c, 25.0, profile.j_dc)
        gain = c.gamma * thermal.g0
        h_max = TAIL_STABILITY / (1.0 / c.tau_p + gain * thermal.n0)
        k_max = max(1, math.floor(h_max / dt))
        h_floor = TAIL_STABILITY / (1.0 / c.tau_p
                                    - gain * (thermal.n_dc - thermal.n0))
        k_floor = min(math.floor(min(h_floor, 1.5 * h_max) / dt),
                      math.floor(thermal.tau_n / (10.0 * c.tau_p)))
        assert k_floor > k_max
        tail = tuple((delay * c.tau_p, min(stride, k_max)) for delay, stride
                     in (*TAIL_LADDER, (TAIL_DELAY, k_max)))
        tail += ((FLOOR_DELAY * c.tau_p, k_floor),)
        plan = integrate(thermal, drive, dt, t_end).plan
        assert plan == tuple(step_plan(drive, dt, round(t_end / dt), tail))
        plans.append(plan)
    # tail strides 12 and 10 from 300 and 200 ps, floor strides 17 and 14
    # from 400 and 250 ps
    assert [sorted({p[2] for p in plan})[-2:] for plan in plans] == [
        [12, 17], [10, 14]]
    assert plans[0] != plans[1]


@pytest.mark.parametrize("temp_c,state,text", [
    (15.0, "signal", "photon density -1.284e+19 at t = 4.500000e-11 s"),
    (25.0, "decoy", "carrier density -3.574e+23 at t = 4.050000e-10 s")])
def test_clamp_limit_message_names_density_and_step_end(profile, temp_c,
                                                        state, text):
    """At dt = 15 ps the pulse goes negative past the clamp limit; the
    message names the density, its value and the end of the step."""
    with pytest.raises(DivergenceError) as err:
        pulse_run(profile, temp_c, state, 1e-9, 15e-12)
    assert str(err.value) == text + " exceeds the clamp limit"


@pytest.mark.parametrize("j_ac,dt,t", [
    (1e300, 1e-13, "6.000000e-13"),     # j / (q d) overflows: n, s nan
    (1e282, 1e-150, "6.000000e-150"),   # n +inf, s finite: a new maximum
    (1e280, 1e-100, "6.000000e-100")],  # n -inf, s +inf
    ids=["nan", "n_inf", "n_minus_inf"])
def test_non_finite_state_after_the_first_step(profile, thermal25, j_ac, dt,
                                               t):
    """The pulse rises at step 5 and its first step is the first one whose
    end is non-finite, reached three ways; the message names its end."""
    drive = DriveWaveform(j_dc=profile.j_dc, j_ac=j_ac,
                          pulse_duration=profile.pulse_duration,
                          start_offset=5 * dt)
    with pytest.raises(DivergenceError) as err:
        integrate(thermal25, drive, dt, 50 * dt)
    assert str(err.value) == f"non-finite state at t = {t} s"


@pytest.mark.parametrize("j_ac,dt,rise,fall,initial,steps,t", [
    (9e281, 1e-149, 0, 40, (1e160, 2e159), 50, "5.000000e-149"),
    (9e281, 1e-149, 0, 5, (1e160, 2e159), 50, "5.000000e-149"),
    (9e281, 1e-149, 0, 40, (1e160, 2e159), 5, "5.000000e-149"),
    (1e282, 1e-150, 5, 6, None, 50, "6.000000e-150"),
    (1e282, 1e-150, 5, 40, None, 6, "6.000000e-150"),
    (1e282, 1e-150, 5.3, 5.6, None, 50, "5.600000e-150")],
    ids=["s_inf", "s_inf_entry_end", "s_inf_run_end", "n_inf_entry_end",
         "n_inf_run_end", "n_inf_cut_sub_step"])
def test_plus_inf_is_reported_at_the_step_that_made_it(profile, thermal25,
                                                       j_ac, dt, rise, fall,
                                                       initial, steps, t):
    """A density that reaches +inf passes the domain test, and only the
    next step leaves the domain; the message still names the end of the
    step that made the +inf. From (1e160, 2e159), g0 (n - n0) s nearly
    balances j / (q d), so n stays finite while s grows until the photon
    gain terms sum past the float range, at step 5: mid-run, on the last
    step of the pulse's plan entry and on the run's last step. From the
    DC start, j / (q d) sums past it and n goes +inf on the pulse's first
    step: a one-step pulse, the run's last step, and a pulse from 5.3 to
    5.6 dt, which only a cut sub-step sees."""
    drive = DriveWaveform(j_dc=profile.j_dc, j_ac=j_ac,
                          pulse_duration=(fall - rise) * dt,
                          start_offset=rise * dt)
    with pytest.raises(DivergenceError) as err:
        integrate(thermal25, drive, dt, steps * dt, initial=initial)
    assert str(err.value) == f"non-finite state at t = {t} s"


def test_clamps_under_a_raised_limit(profile, monkeypatch):
    """With CLAMP_LIMIT raised, the 15 ps run clamps its photon density
    where the default limit stops it, and IntegrationStats keeps the count
    and the worst clamp; at a limit of 1e300 it clamps three more times
    and goes non-finite at step 10, after the cut step at 100 ps."""
    monkeypatch.setattr("gainswitch.dynamics.CLAMP_LIMIT", 0.1)
    traj = pulse_run(profile, 15.0, "signal", 9e-11, 15e-12)[1]
    assert traj.stats == IntegrationStats(
        steps=6, split_steps=0, clamps=1, worst_clamp=0.07746725695031582)
    assert traj.s[3] == 0.0 and traj.s.min() == 0.0 < traj.s[2]
    monkeypatch.setattr("gainswitch.dynamics.CLAMP_LIMIT", 1e300)
    traj = pulse_run(profile, 15.0, "signal", 1.35e-10, 15e-12)[1]
    assert traj.stats == IntegrationStats(
        steps=9, split_steps=1, clamps=4, worst_clamp=5.064303220113216e+211)
    assert [k for k in range(10) if traj.s[k] == 0.0] == [3, 8, 9]
    with pytest.raises(DivergenceError) as err:
        pulse_run(profile, 15.0, "signal", 1e-9, 15e-12)
    assert str(err.value) == "non-finite state at t = 1.500000e-10 s"


def test_step_loop_makes_no_call_per_step(profile, thermal25):
    """The C functions integrate calls, counted under sys.setprofile, are
    as many for the 25 C signal pulse to 85 ps as to 60 ps, 250 steps
    more in the pulse's rise, where both densities set a new maximum at
    every step, and as many to 4 ns as to 2 ns, 2,500 DC-tail steps more,
    where neither does: a step calls nothing, and folding the running
    maxima adds calls per run, never per step."""
    drive = single_pulse_drive(profile)
    rise = integrate(thermal25, drive, DEFAULT_DT_PULSE, 8.5e-11)
    assert (np.diff(rise.n) > 0).all() and (np.diff(rise.s) > 0).all()

    def c_calls(t_end):
        count = 0

        def profiler(frame, event, arg):
            nonlocal count
            count += event == "c_call"

        sys.setprofile(profiler)
        try:
            integrate(thermal25, drive, DEFAULT_DT_PULSE, t_end)
        finally:
            sys.setprofile(None)
        return count

    assert c_calls(6e-11) == c_calls(8.5e-11)
    assert c_calls(2e-9) == c_calls(4e-9)

import ast
import inspect
import io
import math
import sys
import textwrap
import tracemalloc
import warnings
from array import array
from dataclasses import fields, replace

import numpy as np
import pytest

from gainswitch import dynamics
from gainswitch.dynamics import (CLAMP_LIMIT, DEFAULT_DT_PULSE, MAX_STEPS,
                                 FLOOR_DELAY, TAIL_DELAY, TAIL_STABILITY,
                                 DivergenceError,
                                 DriveError, DriveWaveform, IntegrationStats,
                                 NoSteadyStateError, clamp_density,
                                 derivatives, integrate, off_domain,
                                 Trajectory,
                                 steady_state_s, walk_plan,
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


def walked(drive, dt, steps, tail, n_stored):
    """The entries walk_plan yields for a run whose carrier density is
    n_stored[k] after its k-th step, against n_th = 1."""
    n_out = array("d", n_stored)
    return list(walk_plan(drive, dt, steps, tail, 1.0, n_out))


def test_walk_plan_covers_every_step():
    # edges on the grid, off it, and two inside one step
    drives = [
        DriveWaveform(j_dc=2.0, j_ac=5.0, pulse_duration=1e-10),
        DriveWaveform(j_dc=2.0, j_ac=5.0, pulse_duration=1e-10 / 3.0,
                      period=1.3e-10, n_pulses=3),
        DriveWaveform(j_dc=2.0, j_ac=5.0, pulse_duration=3e-14,
                      start_offset=2.5e-13),
    ]
    # no stage, and a ladder of strides 3, 7 and 12 from 100, 200 and 300
    # grid steps after each crossing, whose first two stages leave grid
    # steps over; the carriers lie below n_th from the start, at it, or
    # fall below it 250 grid steps after the first fall edge
    dt, steps = 1e-13, 4000
    fine, ladder = (), ((100, 3), (200, 7), (300, 12))
    stored = {"below": [0.0] * (steps + 1), "at": [1.0] * (steps + 1),
              "late": [1.0] * 1250 + [0.0] * (steps - 1249)}
    for drive, tail, n in [(d, t, n) for d in drives for t in (fine, ladder)
                           for n in stored.values()]:
        plan = walked(drive, dt, steps, tail, n)
        assert plan[0][0] == 0
        assert plan[-1][1] == steps
        for (_, a1, _, _), (b0, _, _, _) in zip(plan, plan[1:]):
            assert a1 == b0
        for i0, i1, stride, parts in plan:
            assert stride == 1 or (tail is ladder and n is not stored["at"])
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
    # crossing at the fall edge: dt to its first lag, then the stages
    assert [e[:3] for e in walked(drives[0], dt, steps, ladder,
                                  stored["below"])] == [
        (0, 1000, 1), (1000, 1100, 1), (1100, 1199, 3), (1199, 1200, 1),
        (1200, 1298, 7), (1298, 1300, 1), (1300, 4000, 12)]
    # crossing at 1250: dt in runs of 101 grid points read until one lies
    # below n_th, then the stages from 1350, 1450 and 1550
    assert [e[:3] for e in walked(drives[0], dt, steps, ladder,
                                  stored["late"])] == [
        (0, 1000, 1), (1000, 1100, 1), (1100, 1201, 1), (1201, 1302, 1),
        (1302, 1350, 1), (1350, 1449, 3), (1449, 1450, 1), (1450, 1548, 7),
        (1548, 1550, 1), (1550, 3998, 12), (3998, 4000, 1)]
    # never below n_th: dt all through, in the same runs of 101
    never = walked(drives[0], dt, steps, ladder, stored["at"])
    assert {e[2] for e in never} == {1}
    assert [e[1] for e in never] == [1000, 1100, *range(1201, steps, 101),
                                     steps]
    split = [p for p in walked(drives[2], dt, steps, fine, stored["below"])
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
    # the pulse peaks before its fall edge, so its carriers lie below n_th
    # there: 1,600 steps of 0.1 ps to 12 tau_p past the edge, 200 of 0.2 ps
    # and 125 of 0.4 ps to 30 tau_p, 83 of 1.2 ps and 4 of 0.1 ps to
    # 50 tau_p, 88 of 1.7 ps, then the 4 fine steps left before t_end:
    # every sample lies on the 0.1 ps grid
    assert len(traj.times) == 2105
    assert traj.dt == pytest.approx(1e-13, rel=1e-12)
    assert np.all(traj.n >= 0.0)
    assert np.all(traj.s >= 0.0)
    assert np.array_equal(traj.times, traj.index * 1e-13)
    assert np.array_equal(np.diff(traj.index),
                          [1] * 1600 + [2] * 200 + [4] * 125 + [12] * 83
                          + [1] * 4 + [17] * 88 + [1] * 4)


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
    last one the pulse has not reached, as walk_plan maps it."""
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


def crossing(thermal, traj):
    """Grid index of the first sample at or after the fall edge (grid
    point 1,000 of a default pulse) whose n lies below n_th."""
    k = int(np.searchsorted(traj.index, 1000))
    return int(traj.index[k + np.argmax(traj.n[k:] < thermal.n_th)])


def test_tail_takes_stability_bounded_steps(tail_pairs):
    """Each pulse runs on dt (0.1 ps) to 12 tau_p past its crossing c, the
    first grid point from its fall edge at which n < n_th (c = 1,000 for
    a pulse that peaks before its edge, 1,672 for the 45 C decoy), then 8
    tau_p in steps of 2 dt and 10 tau_p in steps of 4 dt (h lambda_max =
    0.24 and 0.48), then 83 steps of 12 dt (1.2 ps, h lambda_max = 1.44)
    and 4 of dt to FLOOR_DELAY = 50 tau_p past c, then steps of K_f dt (18
    at 15 C, 17 at 25 C, 16 at 35-45 C; h lambda(n_dc) <= 1.5) to the last
    one that fits, then the grid steps left on dt; every end lies on the
    fine grid, and the all-fine run takes every grid step, reaching the
    same c. From 50 tau_p past c on the carriers stay at or above n_dc,
    the premise of the floor stage's stride."""
    for thermal, traj, fine in tail_pairs:
        k_f = {15.0: 18, 25.0: 17}.get(thermal.temperature, 16)
        grid = len(fine.n) - 1
        c = crossing(thermal, traj)
        assert c == crossing(thermal, fine) >= 1000
        floor = c + 2500
        coarse = floor + (grid - floor) // k_f * k_f
        assert [e[:3] for e in traj.plan] == [
            (0, 1000, 1), (1000, c + 600, 1), (c + 600, c + 1000, 2),
            (c + 1000, c + 1500, 4), (c + 1500, c + 2496, 12),
            (c + 2496, floor, 1), (floor, coarse, k_f),
            *[(coarse, grid, 1)] * (coarse < grid)]
        assert traj.stats.steps == len(traj.n) - 1 \
            == c + 600 + 200 + 125 + 83 + 4 + (grid - floor) // k_f \
            + (grid - coarse)
        assert np.array_equal(traj.times, traj.index * DEFAULT_DT_PULSE)
        assert np.all(traj.n[traj.index >= floor] >= thermal.n_dc)
        assert {e[2] for e in fine.plan} == {1}
        assert np.array_equal(fine.index, np.arange(grid + 1))
    assert sorted({crossing(thermal, traj) for thermal, traj, _ in tail_pairs
                   if thermal.temperature == 45.0}) == [1288, 1672]


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


def test_no_stage_starts_above_threshold(tail_pairs):
    """The 45 C pulses peak after their fall edge, so n >= n_th there and
    for 5.8 and 13.4 tau_p after it. No step longer than dt starts at a
    sample with n >= n_th, and the first one starts 12 tau_p (600 grid
    steps) after the crossing, the first sample below n_th: every step
    before it is dt, step for step the all-fine run."""
    hot = [(thermal, traj, fine) for thermal, traj, fine in tail_pairs
           if thermal.temperature == 45.0]
    assert len(hot) == 4
    for thermal, traj, fine in hot:
        k_edge = int(np.searchsorted(traj.index, 1000))
        assert traj.n[k_edge] >= thermal.n_th
        long_steps = np.diff(traj.index) > 1
        assert np.all(traj.n[:-1][long_steps] < thermal.n_th)
        first = int(traj.index[np.argmax(long_steps)])
        assert first == crossing(thermal, traj) + 600
        assert np.array_equal(traj.index[:first + 1], np.arange(first + 1))
        assert np.array_equal(traj.n[:first + 1], fine.n[:first + 1])
        assert np.array_equal(traj.s[:first + 1], fine.s[:first + 1])


def test_carriers_above_threshold_to_the_horizon_run_all_fine(profile,
                                                              monkeypatch):
    """The 45 C decoy's carriers cross below n_th 167.2 ps into the run. A
    run that ends at 165 ps finds no crossing in its two reads (650 grid
    steps after the fall edge): it runs on dt, step for step as the
    all-fine run, and keeps no coarse stage."""
    thermal, traj = pulse_run(profile, 45.0, "decoy", 165e-12)
    monkeypatch.setattr("gainswitch.dynamics.TAIL_STABILITY", 0.0)
    _, fine = pulse_run(profile, 45.0, "decoy", 165e-12)
    assert np.all(traj.n[1000:] >= thermal.n_th)
    assert [e[:3] for e in traj.plan] == [(0, 1000, 1), (1000, 1650, 1)]
    assert np.array_equal(traj.index, fine.index)
    assert np.array_equal(traj.n, fine.n)
    assert np.array_equal(traj.s, fine.s)


def test_train_extraction_replans_nothing(profile, monkeypatch):
    """integrate walks the plan once, as it runs, and keeps the entries it
    took; extracting every cycle of a 100-pulse train bisects them and
    walks none."""
    calls = []

    def counted(*args):
        calls.append(args)
        return walk_plan(*args)

    monkeypatch.setattr("gainswitch.dynamics.walk_plan", counted)
    _, traj, cycles = run_train_scenario(profile, 25.0, 800e6, 100)
    assert len(calls) == 1 and len(cycles) == 100
    plan = traj.plan
    pms = [extract_metrics(traj, cycle_index=k) for k in range(100)]
    assert len(calls) == 1 and traj.plan is plan
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
    assert len(traj.n) == 13585
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
    (delay TAIL_DELAY tau_p past the crossing, stride K from RK4's
    stability bound) and the floor stage after it (delay FLOOR_DELAY tau_p,
    stride K_f from the loss rate at n_dc, 1.5x the stability bound and
    tau_n / (10 tau_p)) from the tau_p of the state it is given, and the
    two plans differ."""
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
        traj = integrate(thermal, drive, dt, t_end)
        starts = {stride: i0 for i0, _, stride, _ in traj.plan}
        cross = crossing(thermal, traj)
        assert starts[k_max] == cross + round(TAIL_DELAY * c.tau_p / dt)
        assert starts[k_floor] == cross + round(FLOOR_DELAY * c.tau_p / dt)
        plans.append(traj.plan)
    # tail strides 12 and 10 from 150 and 75 ps past the crossing, floor
    # strides 17 and 14 from 250 and 125 ps
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


# a laser whose densities overflow while the scaled state that integrate
# steps, m = gamma g0 (n - n0) and u = g0 s, is O(10): at g0 = 2e-307
# m^3/s, n passes the float range at m = 18 /s and s at u = 36 /s, and
# lifetimes of seconds keep RK4 stable on steps of seconds
SLOW_LASER = {"g0_ref": 2e-307, "tau_p": 10.0, "tau_n_ref": 1e3}


def slow_thermal(profile):
    """The SLOW_LASER at 25 C and the default bias: threshold 1e306 m^-3,
    the DC start at n = 3e35 m^-3."""
    return thermal_state(replace(profile.constants, **SLOW_LASER), 25.0,
                         profile.j_dc)


@pytest.mark.parametrize("slow,j_ac,dt,t", [
    (False, 1e300, 1e-13, "6.000000e-13"),      # j / (q d) overflows: nan
    (True, 2.8e282, 4.0, "2.400000e+01"),       # n +inf, s finite: a new
                                                # maximum
    (False, 1e280, 1e-100, "6.000000e-100")],   # n -inf, s +inf
    ids=["nan", "n_inf", "n_minus_inf"])
def test_non_finite_state_after_the_first_step(profile, thermal25, slow, j_ac,
                                               dt, t):
    """The pulse rises at step 5 and its first step is the first one whose
    end is non-finite, reached three ways; the message names its end. On
    the slow laser that step adds j / (q d) dt = 7e308 m^-3 to n, past
    the float range, while m stays near 70 /s: n is stored as +inf, and
    the next step's fold finds it."""
    thermal = slow_thermal(profile) if slow else thermal25
    drive = DriveWaveform(j_dc=profile.j_dc, j_ac=j_ac,
                          pulse_duration=100 * dt, start_offset=5 * dt)
    with pytest.raises(DivergenceError) as err:
        integrate(thermal, drive, dt, 50 * dt)
    assert str(err.value) == f"non-finite state at t = {t} s"


@pytest.mark.parametrize("j_ac,dt,rise,fall,initial,steps,t", [
    (2.8e282, 0.03, 0, 40, (1.5e308, 1e308), 50, "1.500000e-01"),
    (2.8e282, 0.03, 0, 5, (1.5e308, 1e308), 50, "1.500000e-01"),
    (2.8e282, 0.03, 0, 40, (1.5e308, 1e308), 5, "1.500000e-01"),
    (2.8e282, 4.0, 5, 6, None, 50, "2.400000e+01"),
    (2.8e282, 4.0, 5, 40, None, 6, "2.400000e+01"),
    (2.8e282, 4.0, 5.3, 5.6, None, 50, "2.240000e+01")],
    ids=["s_inf", "s_inf_entry_end", "s_inf_run_end", "n_inf_entry_end",
         "n_inf_run_end", "n_inf_cut_sub_step"])
def test_plus_inf_is_reported_at_the_step_that_made_it(profile, monkeypatch,
                                                       j_ac, dt, rise, fall,
                                                       initial, steps, t):
    """A density that reaches +inf passes the domain test and is stored,
    and only a later fold finds it; the message still names the end of
    the step that made the +inf, and off_domain raises on that stored
    state, one density +inf and the other finite. On the slow laser the
    scaled state stays finite where n or s overflows. From (1.5e308,
    1e308), above threshold, the photons grow while they drain the
    carriers, and s passes the float range at step 5 (u = 36 /s) with n
    at 6e306: mid-run (the fold at the run's end finds it), on the last
    step of the pulse's plan entry and on the run's last step. From the
    DC start, j / (q d) dt sums past the float range and n goes +inf on
    the pulse's first step: a one-step pulse, the run's last step, and a
    pulse from 5.3 to 5.6 dt, which only a cut sub-step sees."""
    states = []

    def recorded(n, s, t, bounds):
        states.append((n, s))
        return off_domain(n, s, t, bounds)

    monkeypatch.setattr("gainswitch.dynamics.off_domain", recorded)
    drive = DriveWaveform(j_dc=profile.j_dc, j_ac=j_ac,
                          pulse_duration=(fall - rise) * dt,
                          start_offset=rise * dt)
    with pytest.raises(DivergenceError) as err:
        integrate(slow_thermal(profile), drive, dt, steps * dt,
                  initial=initial)
    assert str(err.value) == f"non-finite state at t = {t} s"
    assert max(states[-1]) == math.inf and 0.0 <= min(states[-1]) < math.inf


def test_clamps_under_a_raised_limit(profile, monkeypatch):
    """With CLAMP_LIMIT raised, the 15 ps run clamps its photon density
    where the default limit stops it, and IntegrationStats keeps the count
    and the worst clamp; at a limit of 1e300 it clamps three more times
    and goes non-finite at step 10, after the cut step at 100 ps."""
    monkeypatch.setattr("gainswitch.dynamics.CLAMP_LIMIT", 0.1)
    traj = pulse_run(profile, 15.0, "signal", 9e-11, 15e-12)[1]
    assert traj.stats == IntegrationStats(
        steps=6, split_steps=0, clamps=1, worst_clamp=0.07746725695031374)
    assert traj.s[3] == 0.0 and traj.s.min() == 0.0 < traj.s[2]
    monkeypatch.setattr("gainswitch.dynamics.CLAMP_LIMIT", 1e300)
    traj = pulse_run(profile, 15.0, "signal", 1.35e-10, 15e-12)[1]
    assert traj.stats == IntegrationStats(
        steps=9, split_steps=1, clamps=4, worst_clamp=5.064303220089561e+211)
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


def test_step_loop_takes_59_float_operations():
    """The binary operations in _rk4_run's step loop, counted in its
    source: four stages of 8 (dm/dt and du/dt in the scaled state), three
    stage states of 4, the final combination's 12 and the 3 that store n
    and s, 59 per step. The clamp branch, which runs only for a step that
    leaves the domain, is not counted. A change that puts per-step work
    back into the loop changes the count."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(dynamics._rk4_run)))
    loop, = [node for node in ast.walk(tree) if isinstance(node, ast.For)]
    ops = [node for stmt in loop.body if not isinstance(stmt, ast.If)
           for node in ast.walk(stmt) if isinstance(node, ast.BinOp)]
    assert len(ops) == 59

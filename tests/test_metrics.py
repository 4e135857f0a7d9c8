import io
import math
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from gainswitch import dynamics, metrics
from gainswitch.dynamics import (DEFAULT_DT_PULSE, DriveError, DriveWaveform,
                                 Trajectory, derivatives, integrate)
from gainswitch.metrics import (METRICS_COLUMNS, BelowThresholdPulseError,
                                InvalidRegimeError, PulseMetrics,
                                UndefinedRateError, analytic_decay_time,
                                compare_states, energy_prediction_delta,
                                extract_metrics, max_repetition_rate,
                                render_table2, smax_prediction_delta)
from gainswitch.rows import header, write_csv
from gainswitch.sweeps import run_pulse_scenario
from gainswitch.thermal import thermal_state

FAKE_THERMAL = SimpleNamespace(n_th=10.0, n_dc=4.0)
FAKE_DRIVE = DriveWaveform(j_dc=0.0, j_ac=1.0, pulse_duration=2.0)


@dataclass(frozen=True)
class Sampled(Trajectory):
    """Samples with given slopes in place of the rate equations': n is
    piecewise linear through its samples, so its slopes on each step are
    the secant, and ds holds the exact ds/dt at every sample."""

    ds: np.ndarray = None

    def end_slope(self, k, end):
        secant = float((self.n[k + 1] - self.n[k])
                       / ((self.index[k + 1] - self.index[k]) * self.dt))
        return secant, float(self.ds[k + end])


def synthetic(n, pulse):
    """A Sampled trajectory on a unit step; pulse is (s, ds)."""
    s, ds = pulse
    return Sampled(dt=1.0, n=np.asarray(n, dtype=float),
                   s=np.asarray(s, dtype=float), thermal=FAKE_THERMAL,
                   drive=FAKE_DRIVE, stats=None, index=np.arange(len(n)),
                   plan=None, ds=np.asarray(ds, dtype=float))


def ramp_and_recover():
    """Carriers cross threshold between samples, then settle into the band.

    The dip to 4.03 at t=14 leaves the band again at t=15, so the reported
    recovery must anchor on the second, persistent entry.
    """
    return [4.0, 5.0, 7.0, 9.0, 12.0, 14.0, 13.0, 11.0, 9.0, 7.0, 6.0,
            5.0, 4.5, 4.2, 4.03, 4.05, 4.02, 4.0, 4.0, 4.0, 4.0]


def parabola_pulse(length, vertex=7.25, height=100.0, width=3.0):
    """(s, ds/dt) of the parabola height - width (t - vertex)^2, cut at 0."""
    t = np.arange(float(length))
    s = height - width * (t - vertex) ** 2
    return np.maximum(0.0, s), np.where(s > 0.0, -2.0 * width * (t - vertex),
                                        0.0)


def test_band_validation():
    traj = synthetic(ramp_and_recover(), parabola_pulse(21))
    with pytest.raises(ValueError):
        extract_metrics(traj, recovery_band=0.0)
    with pytest.raises(ValueError, match=r"recovery_band must lie in "
                                         r"\(0, 0\.1\], got 0\.11"):
        extract_metrics(traj, recovery_band=0.11)
    with pytest.raises(ValueError):
        extract_metrics(traj, cycle_index=1)


def test_too_short_trajectory():
    traj = synthetic([4.0, 5.0, 6.0], ([0.0, 1.0, 0.0], [1.0, 0.0, -1.0]))
    with pytest.raises(ValueError):
        extract_metrics(traj)


def test_edge_before_start_is_not_covered(profile):
    """A rising edge before t = 0, whole steps or 0.4 of a 0.1 ps step
    early, is refused when the drive is built."""
    for offset in (-1e-11, -4e-14):
        with pytest.raises(DriveError, match="start_offset"):
            DriveWaveform(j_dc=profile.j_dc, j_ac=profile.j_ac_signal,
                          pulse_duration=profile.pulse_duration,
                          start_offset=offset)


def test_below_threshold_pulse():
    traj = synthetic([5.0] * 21, parabola_pulse(21))
    with pytest.raises(BelowThresholdPulseError):
        extract_metrics(traj)


def test_interpolated_crossing_and_peak():
    """The Hermite interpolant reproduces a quadratic from two samples and
    their exact slopes, and a line from the secant slopes."""
    traj = synthetic(ramp_and_recover(), parabola_pulse(21))
    pm = extract_metrics(traj)
    # threshold 10 is crossed a third of the way from n=9 to n=12
    assert pm.t_on == pytest.approx(3.0 + 1.0 / 3.0, rel=1e-12)
    # the sampled parabola vertex is recovered exactly
    assert pm.t_peak == 7.25
    assert pm.s_max == 100.0
    assert pm.n_initial == 4.0
    assert pm.recovered
    assert pm.t_re == pytest.approx(15.0 + 1.0 / 3.0, rel=1e-9)


def test_pulse_energy_is_the_end_corrected_trapezoid():
    """On one run of unit steps the energy is the trapezoid sum plus
    (ds/dt at the first sample - ds/dt at the last) / 12, which integrates
    a parabola with no error."""
    s, ds = parabola_pulse(21, height=200.0, width=1.0)
    traj = synthetic(ramp_and_recover(), (s, ds))
    pm = extract_metrics(traj)
    expected = 0.5 * (s[1:] + s[:-1]).sum() + (ds[0] - ds[-1]) / 12.0
    assert pm.pulse_energy == pytest.approx(expected, rel=1e-12)
    assert pm.pulse_energy == pytest.approx(200.0 * 20 - ((20 - 7.25) ** 3
                                                          + 7.25 ** 3) / 3,
                                            rel=1e-12)


def test_pulse_energy_integrates_a_cubic_over_unequal_runs():
    """Steps of 1, then of 2, then of 1 again: each run gets its own end
    correction, and the energy of a cubic s, which each step's Hermite
    interpolant reproduces, is its exact integral."""
    index = np.array([*range(8), *range(8, 28, 2), 28, 29, 30])
    cubic = np.polynomial.Polynomial([10.0, 3.0, 0.2, -0.01])
    s, ds = cubic(index), cubic.deriv()(index)
    traj = replace(synthetic(ramp_and_recover(), (s, ds)), index=index)
    assert extract_metrics(traj).pulse_energy == pytest.approx(
        cubic.integ()(30.0) - cubic.integ()(0.0), rel=1e-12)


def test_non_recovery_flagged_not_raised():
    n = ramp_and_recover()
    n[14:] = [4.2, 4.1, 4.2, 4.1, 4.2, 4.1, 4.2]
    pm = extract_metrics(synthetic(n, parabola_pulse(21)))
    assert not pm.recovered
    assert math.isnan(pm.t_re)


def test_cycle_ends_at_next_edge_or_end_of_run():
    """A periodic drive run past its last period reads its last cycle to
    the end of the run, like a single pulse; an earlier cycle ends at the
    next rising edge."""
    traj = synthetic(ramp_and_recover(), parabola_pulse(21))
    single = extract_metrics(traj)
    one_period = replace(FAKE_DRIVE, period=10.0)
    assert extract_metrics(replace(traj, drive=one_period)) == single
    first = extract_metrics(replace(traj, drive=replace(one_period,
                                                        n_pulses=2)))
    assert not first.recovered
    assert first.pulse_energy < single.pulse_energy


def test_numpy_drive_times_give_float_metrics(profile):
    """A train whose start_offset, period and pulse_duration are numpy
    float64s gives each cycle the metrics of the same train in Python
    floats: equal values, and every float field a float."""
    thermal = thermal_state(profile.constants, 25.0, profile.j_dc)
    drive = DriveWaveform(j_dc=profile.j_dc, j_ac=profile.j_ac_signal,
                          pulse_duration=profile.pulse_duration,
                          period=0.5e-9, n_pulses=2, start_offset=50e-12)
    numpy_drive = replace(drive, **{
        name: np.float64(getattr(drive, name))
        for name in ("pulse_duration", "period", "start_offset")})
    runs = [integrate(thermal, d, DEFAULT_DT_PULSE, 1.05e-9)
            for d in (drive, numpy_drive)]
    for k in (0, 1):
        pm, numpy_pm = (extract_metrics(run, cycle_index=k) for run in runs)
        assert repr(numpy_pm) == repr(pm)
        assert all(type(getattr(numpy_pm, f.name)) is float
                   for f in fields(PulseMetrics) if f.type is float)


def test_every_cycle_of_a_long_train_skips_edge_times(monkeypatch):
    """Each cycle reads its own rising edge and the next and never lists
    every edge (segments does), so extracting all N cycles of a train costs
    O(N)."""
    n_pulses = 600
    s, ds = parabola_pulse(21)

    def tile(x):
        x = np.asarray(x, dtype=float)
        return np.append(np.tile(x, n_pulses), x[0])

    train = replace(FAKE_DRIVE, period=21.0, n_pulses=n_pulses)
    traj = replace(synthetic(tile(ramp_and_recover()), (tile(s), tile(ds))),
                   drive=train)
    calls = []
    monkeypatch.setattr(DriveWaveform, "segments",
                        lambda self, t_end: calls.append(self))
    cycles = [extract_metrics(traj, cycle_index=k) for k in range(n_pulses)]
    assert calls == []
    first = cycles[0]
    assert first.recovered
    for pm in cycles[1:]:
        assert pm.s_max == first.s_max
        assert pm.t_on == pytest.approx(first.t_on, abs=1e-12)
        assert pm.t_peak == pytest.approx(first.t_peak, abs=1e-12)
        assert pm.t_re == pytest.approx(first.t_re, abs=1e-12)
    with pytest.raises(ValueError, match="cycle_index must lie in .*, got 600"):
        extract_metrics(traj, cycle_index=n_pulses)


@pytest.mark.parametrize("index", [1.0, True, np.True_, 0.5],
                         ids=["float", "bool", "np.bool_", "half"])
def test_cycle_and_pulse_indices_are_integers(index):
    """An index that is no integer names no cycle and no pulse: 1.0 and
    True are refused, not read as cycle 1, and pulse 0.5 has no edge."""
    s, ds = parabola_pulse(21)
    train = replace(FAKE_DRIVE, period=21.0, n_pulses=2)
    traj = replace(synthetic(
        np.append(np.tile(ramp_and_recover(), 2), ramp_and_recover()[0]),
        (np.append(np.tile(s, 2), s[0]), np.append(np.tile(ds, 2), ds[0]))),
        drive=train)
    with pytest.raises(DriveError, match="^cycle_index must lie in"):
        extract_metrics(traj, cycle_index=index)
    with pytest.raises(IndexError, match="^k must lie in"):
        train.edge_time(index)
    assert extract_metrics(traj, cycle_index=np.int64(1)) == \
        extract_metrics(traj, cycle_index=1)


def test_peak_on_boundary_uses_sample():
    """s still rising at the end of the cycle: no interior maximum."""
    traj = synthetic(ramp_and_recover(), (np.arange(21.0), np.ones(21)))
    pm = extract_metrics(traj)
    assert pm.t_peak == 20.0
    assert pm.s_max == 20.0


def test_default_pulse_invariants(recovery_sweep):
    _, pm = recovery_sweep[2]  # 25 C on the long horizon
    assert 0.0 < pm.t_on < pm.t_peak < pm.t_re
    assert pm.s_max > 0.0
    assert pm.pulse_energy > 0.0
    assert pm.recovered


def test_default_pulse_anchors(pulse25):
    _, _, pm = pulse25
    assert pm.t_on == pytest.approx(57.463e-12, rel=1e-3)
    assert pm.t_peak == pytest.approx(98.832e-12, rel=1e-3)
    assert pm.s_max == pytest.approx(1.4013e23, rel=1e-3)


def test_metrics_evaluate_only_the_steps_they_read(profile, monkeypatch):
    """The right-hand side is evaluated 22 times, one float state per
    call: at both ends of the four steps whose interpolants are read
    (threshold crossing, the two beside the peak, the band entry), and,
    for the energy's end correction, at the first and the last sample of
    each of the seven runs of equal steps (fine, the ladder's 0.2 ps and
    0.4 ps steps, the DC tail's 1.2 ps steps, the 4 fine steps before the
    floor stage, its 1.7 ps steps, the fine step left before 10 ns), in
    run order; not on the 100,000 steps of the cycle."""
    _, traj, pm = run_pulse_scenario(profile, 25.0, "signal", t_end=10e-9)
    assert pm.recovered
    states = []

    def recorded(state, j_now, thermal):
        states.append(state)
        return derivatives(state, j_now, thermal)

    monkeypatch.setattr(dynamics, "derivatives", recorded)
    assert extract_metrics(traj) == pm
    assert len(states) == 22
    assert all(type(v) is float for state in states for v in state)
    n, s = traj.n, traj.s
    span = np.diff(traj.index)
    firsts = [0, *(np.flatnonzero(np.diff(span)) + 1).tolist()]
    lasts = [*firsts[1:], len(span)]    # each run's last sample
    energy = [(float(n[k]), float(s[k]))
              for run in zip(firsts, lasts) for k in run]
    assert len(energy) == 14
    at = [i for i in range(len(states)) if states[i:i + 14] == energy]
    assert len(at) == 1
    read = states[:at[0]] + states[at[0] + 14:]
    steps = set()
    for (n0, s0), (n1, s1) in zip(read[::2], read[1::2]):
        k = np.flatnonzero((n[:-1] == n0) & (s[:-1] == s0)
                           & (n[1:] == n1) & (s[1:] == s1))
        assert len(k) == 1
        steps.add(int(k[0]))
    assert len(steps) == 4


FINE_DT = 2e-15
SHORT_HORIZON = 0.5e-9   # past every default peak and threshold crossing


def short_run(thermal, drive, dt):
    return integrate(thermal, drive, dt, SHORT_HORIZON)


def assert_within_hermite_bounds(pm, ref):
    assert abs(pm.s_max / ref.s_max - 1.0) <= 2e-8
    assert abs(pm.t_peak - ref.t_peak) <= 0.05e-15
    assert abs(pm.t_on - ref.t_on) <= 0.05e-15


def test_tail_energy_matches_an_all_fine_run(profile, monkeypatch):
    """The energy of the 15 C and 45 C pulses, 2 ns at 100 fs with the DC
    tail's 1.2 ps steps and the floor stage's 1.8 and 1.6 ps steps,
    against an all-fine run at 20 fs (tail off).
    RK4 is fourth order: at h = 100 fs its error on a pulse that moves on
    the photon lifetime is about (h / tau_p)^4 = (100 fs / 5 ps)^4 =
    1.6e-7, and the 20 fs run's own is 625 times smaller. The energy
    integrates each step's Hermite interpolant, an error of O(h^5) per
    step; the trapezoid rule's O(h^3) per step put the 45 C decoy 2.0e-7
    off even at 0.8 ps tail steps."""
    bound = (DEFAULT_DT_PULSE / profile.constants.tau_p) ** 4
    cases = [(t, state) for t in (15.0, 45.0) for state in ("signal", "decoy")]
    runs = {case: run_pulse_scenario(profile, *case) for case in cases}
    monkeypatch.setattr(dynamics, "TAIL_STABILITY", 0.0)
    for case, (_, _, pm) in runs.items():
        _, fine, ref = run_pulse_scenario(profile, *case, dt=20e-15)
        assert {e[2] for e in fine.plan} == {1}
        assert abs(pm.pulse_energy / ref.pulse_energy - 1.0) <= bound, case


@pytest.mark.parametrize("temp_c,state", [(25.0, "signal"), (45.0, "decoy")])
def test_default_step_matches_fine_step(profile, constants, temp_c, state):
    """Default-step metrics agree with a 2 fs run of the same pulse; a
    parabola through three samples misses at 100 fs by 5.7e-7 in S_max
    and 0.32 fs in t_peak (25 C signal)."""
    thermal = thermal_state(constants, temp_c, profile.j_dc)
    drive = DriveWaveform(j_dc=profile.j_dc,
                          j_ac=getattr(profile, f"j_ac_{state}"),
                          pulse_duration=profile.pulse_duration)
    ref = extract_metrics(short_run(thermal, drive, FINE_DT))
    pm = extract_metrics(short_run(thermal, drive, DEFAULT_DT_PULSE))
    assert_within_hermite_bounds(pm, ref)


@pytest.fixture(scope="module")
def edge_at_peak(profile, constants):
    """25 C signal pulse cut short so that its fall edge lands 0.07 ps after
    the peak: (thermal, drive, 2 fs reference metrics)."""
    thermal = thermal_state(constants, 25.0, profile.j_dc)
    drive = DriveWaveform(j_dc=profile.j_dc, j_ac=profile.j_ac_signal,
                          pulse_duration=98.9e-12)
    ref = extract_metrics(short_run(thermal, drive, FINE_DT))
    return thermal, drive, ref


def test_peak_in_step_next_to_on_grid_edge(edge_at_peak):
    """At 0.1 ps the fall edge is grid point 989 and the peak lies in step
    988, which ends on the edge: that step's slopes are both taken at the
    pulse's J, and the peak keeps full order."""
    thermal, drive, ref = edge_at_peak
    dt = 1e-13
    traj = short_run(thermal, drive, dt)
    assert traj.stats.split_steps == 0
    assert math.floor(ref.t_peak / dt) + 1 == round(drive.pulse_duration / dt)
    assert_within_hermite_bounds(extract_metrics(traj), ref)


def test_peak_in_cut_step(edge_at_peak):
    """At 0.3 ps the fall edge cuts step 329, which holds the peak. Each end
    of that step takes the slope of its own segment; s'' jumps at the edge,
    so the peak is second order there: measured 1.8e-5 in S_max and
    1.67 fs in t_peak. t_on, many steps before the edge, keeps full
    order."""
    thermal, drive, ref = edge_at_peak
    dt = 3e-13
    traj = short_run(thermal, drive, dt)
    assert traj.stats.split_steps == 1
    assert math.floor(ref.t_peak / dt) == math.floor(drive.pulse_duration / dt)
    pm = extract_metrics(traj)
    assert abs(pm.s_max / ref.s_max - 1.0) <= 3e-5
    assert abs(pm.t_peak - ref.t_peak) <= 2.5e-15
    assert abs(pm.t_on - ref.t_on) <= 0.05e-15


def recovered_metrics(t_re):
    return PulseMetrics(t_on=50e-12, t_peak=100e-12, s_max=1e23,
                        pulse_energy=1e12, t_re=t_re, n_initial=3.6e23,
                        recovered=True, recovery_band=0.01)


def test_max_repetition_rate():
    assert max_repetition_rate(recovered_metrics(2.0e-9)) == pytest.approx(500e6)
    assert max_repetition_rate(recovered_metrics(1.24e-9)) == pytest.approx(
        806.5e6, rel=1e-3)
    assert max_repetition_rate(recovered_metrics(1.60e-9)) == pytest.approx(
        625.0e6, rel=1e-12)


def test_max_repetition_rate_undefined():
    pm = PulseMetrics(t_on=50e-12, t_peak=100e-12, s_max=1e23,
                      pulse_energy=1e12, t_re=math.nan, n_initial=3.6e23,
                      recovered=False, recovery_band=0.01)
    with pytest.raises(UndefinedRateError):
        max_repetition_rate(pm)


def test_analytic_decay_trivial():
    th = SimpleNamespace(tau_n=1e-9, n0=4e23 * math.e, n_dc=4e23)
    assert analytic_decay_time(th) == pytest.approx(1e-9, rel=1e-12)


def test_analytic_decay_reference_points(profile, constants):
    th25 = thermal_state(constants, 25.0, profile.j_dc)
    assert analytic_decay_time(th25) == pytest.approx(1.226e-9, rel=5e-3)
    th45 = thermal_state(constants, 45.0, profile.j_dc)
    assert analytic_decay_time(th45) == pytest.approx(1.453e-9, rel=5e-3)


def test_analytic_decay_invalid_regime():
    th = SimpleNamespace(tau_n=1e-9, n0=1e23, n_dc=2e23)
    with pytest.raises(InvalidRegimeError):
        analytic_decay_time(th)


def test_analytic_decay_tracks_simulated_recovery(profile, constants,
                                                  recovery_sweep):
    th25 = thermal_state(constants, 25.0, profile.j_dc)
    estimate = analytic_decay_time(th25)
    _, pm = recovery_sweep[2]
    assert abs(estimate - pm.t_re) / pm.t_re < 0.15


def signal_drive(profile):
    return DriveWaveform(j_dc=profile.j_dc, j_ac=profile.j_ac_signal,
                         pulse_duration=profile.pulse_duration)


def test_prediction_delta_identity(profile, constants):
    th = thermal_state(constants, 25.0, profile.j_dc)
    drive = signal_drive(profile)
    assert smax_prediction_delta(th, th, drive) == 0.0
    assert energy_prediction_delta(th, th, drive) == 0.0


def test_smax_prediction_15_vs_45(profile, constants, table_sweep):
    rows, _ = table_sweep
    th15 = thermal_state(constants, 15.0, profile.j_dc)
    th45 = thermal_state(constants, 45.0, profile.j_dc)
    delta = smax_prediction_delta(th15, th45, signal_drive(profile))
    assert delta < 0.0
    assert rows[-1].signal.s_max < rows[0].signal.s_max


def test_smax_prediction_15_vs_25(profile, constants, table_sweep):
    rows, _ = table_sweep
    th15 = thermal_state(constants, 15.0, profile.j_dc)
    th25 = thermal_state(constants, 25.0, profile.j_dc)
    delta = smax_prediction_delta(th15, th25, signal_drive(profile))
    simulated = rows[2].signal.s_max - rows[0].signal.s_max
    assert delta < 0.0
    assert simulated < 0.0


def test_energy_prediction_15_vs_45(profile, constants, table_sweep):
    rows, _ = table_sweep
    th15 = thermal_state(constants, 15.0, profile.j_dc)
    th45 = thermal_state(constants, 45.0, profile.j_dc)
    delta = energy_prediction_delta(th15, th45, signal_drive(profile))
    assert delta < 0.0
    assert rows[-1].signal.pulse_energy < rows[0].signal.pulse_energy


def test_compare_states_identity(pulse25):
    _, _, pm = pulse25
    pair = compare_states(pm, pm)
    assert pair.delta_t_on == 0.0
    assert pair.delta_t_peak == 0.0
    assert pair.smax_ratio == 1.0
    assert pair.energy_ratio == 1.0


def test_sweep_t_on_strictly_increasing(table_sweep):
    rows, _ = table_sweep
    t_on = [r.signal.t_on for r in rows]
    assert all(a < b for a, b in zip(t_on, t_on[1:]))


def test_sweep_t_peak_strictly_increasing(table_sweep):
    rows, _ = table_sweep
    t_peak = [r.signal.t_peak for r in rows]
    assert all(a < b for a, b in zip(t_peak, t_peak[1:]))


def test_sweep_smax_strictly_decreasing(table_sweep):
    rows, _ = table_sweep
    s_max = [r.signal.s_max for r in rows]
    assert all(a > b for a, b in zip(s_max, s_max[1:]))


def test_sweep_t_re_strictly_increasing(recovery_sweep):
    t_re = [pm.t_re for _, pm in recovery_sweep]
    assert all(pm.recovered for _, pm in recovery_sweep)
    assert all(a < b for a, b in zip(t_re, t_re[1:]))


def test_sweep_delta_t_peak_strictly_increasing(table_sweep):
    rows, _ = table_sweep
    deltas = [compare_states(r.signal, r.decoy).delta_t_peak for r in rows]
    assert all(a < b for a, b in zip(deltas, deltas[1:]))


def test_sweep_delta_t_on_varies_little(table_sweep):
    rows, _ = table_sweep
    deltas = [compare_states(r.signal, r.decoy).delta_t_on for r in rows]
    assert max(deltas) - min(deltas) < 10e-12


def test_sweep_ratios_exceed_one(table_sweep):
    rows, _ = table_sweep
    for row in rows:
        pair = compare_states(row.signal, row.decoy)
        assert pair.smax_ratio > 1.0
        assert pair.energy_ratio > 1.0


def test_t_on_stable_under_dt_halving(halving_runs):
    coarse, fine = halving_runs
    assert abs(coarse.t_on - fine.t_on) < 0.2e-12


def test_metrics_csv_round_trip():
    rows = [(25.0, recovered_metrics(1.3e-9)),
            (45.0, PulseMetrics(t_on=60e-12, t_peak=110e-12, s_max=5e22,
                                pulse_energy=9e11, t_re=math.nan,
                                n_initial=3.4e23, recovered=False,
                                recovery_band=0.01))]
    buf = io.StringIO()
    write_csv(METRICS_COLUMNS, rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == header(METRICS_COLUMNS)
    assert len(lines) == 3
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 25.0
    assert first[1] == rows[0][1].t_on * 1e12
    assert first[5] == rows[0][1].t_re * 1e9
    second = [float(x) for x in lines[2].split(",")]
    assert math.isnan(second[5])
    assert buf.getvalue() == (
        "temp_C,t_on_ps,t_peak_ps,smax_m3,energy_m3s,t_re_ns,n_initial_m3\n"
        "25.0,50.0,100.0,1e+23,1000000000000.0,1.3,3.6e+23\n"
        "45.0,60.0,110.0,5e+22,900000000000.0,nan,3.4e+23\n")


def test_render_table2_layout():
    thermal = SimpleNamespace(n_th=1.2e24, n_dc=3.6e23)
    pm = recovered_metrics(1.3e-9)
    rows = [(25.0, thermal, pm, pm), (27.0, thermal, pm, pm)]
    report = render_table2(rows)
    lines = report.splitlines()
    assert lines[0].startswith("quantity")
    assert "25 C" in lines[0] and "27 C" in lines[0]
    assert len(lines) == 2 + 8 * 3
    assert lines[2].startswith("n_th_1e24_m3 ref")
    assert lines[2].rstrip().endswith("-")  # 27 C has no reference column
    assert "+0.0" in lines[4]  # simulated n_th matches its reference at 25 C


def test_cubic_without_a_critical_point_has_no_maximum():
    """p = u + u^3 rises everywhere: p' = 1 + 3 u^2 has no real root."""
    assert metrics._maxima((0.0, 1.0, 0.0, 1.0)) == []

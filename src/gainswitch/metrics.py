"""Pulse observables extracted from simulated trajectories.

The quantities a QKD transmitter cares about: turn-on delay (carrier
density crossing threshold), peak delay and peak photon density, pulse
energy, and the carrier recovery time that bounds the usable repetition
rate. Cross-pulse comparisons between the signal and decoy drive levels
quantify how distinguishable the two states become.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import grid_floor
from .errors import (BelowThresholdPulseError, DriveError,
                     InvalidRegimeError, UndefinedRateError, check_integer,
                     check_range)

DEFAULT_RECOVERY_BAND = 0.01
RECOVERY_BAND_RANGE = "(0, 0.1]"


@dataclass(frozen=True)
class PulseMetrics:
    """Observables of one pulse cycle. Times are delays from the rising edge."""

    t_on: float           # s
    t_peak: float         # s
    s_max: float          # m^-3
    pulse_energy: float   # m^-3 s, time-integral of s(t) over the cycle
    t_re: float           # s; nan when the cycle never recovers
    n_initial: float      # m^-3, carrier density at the rising edge
    recovered: bool
    recovery_band: float  # relative band used for t_re


@dataclass(frozen=True)
class StatePairMetrics:
    """Signal/decoy observable differences at one temperature."""

    delta_t_on: float     # s, decoy minus signal
    delta_t_peak: float   # s, decoy minus signal
    smax_ratio: float     # signal over decoy
    energy_ratio: float   # signal over decoy


def _hermite(y, k, slope, h):
    """Power-form coefficients (y0, a, b, c) of step k's cubic Hermite
    interpolant y0 + a u + b u^2 + c u^3, u = (t - t_k) / h in [0, 1] for
    a step of length h, from the two samples and the two slopes (at its
    start and end)."""
    y0, y1 = float(y[k]), float(y[k + 1])
    m0, m1 = h * float(slope[0]), h * float(slope[1])
    return (y0, m0, 3.0 * (y1 - y0) - 2.0 * m0 - m1,
            2.0 * (y0 - y1) + m0 + m1)


def _cubic(p, u):
    return p[0] + u * (p[1] + u * (p[2] + u * p[3]))


def _level_root(p, level):
    """u in [0, 1] where cubic p crosses level, p(0) lying on one side of
    it and p(1) on the other: bisection to 2^-60 of a step."""
    lo, hi = 0.0, 1.0
    below = p[0] < level
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (_cubic(p, mid) < level) == below:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _maxima(p):
    """Interior local maxima u in (0, 1) of cubic p: the roots of
    p' = a + 2b u + 3c u^2 where p'' < 0, in the cancellation-free form."""
    _, a, b, c = p
    disc = b * b - 3.0 * a * c
    if disc < 0.0:
        return []
    q = -(b + math.copysign(math.sqrt(disc), b))
    roots = [a / q] if q != 0.0 else []
    if c != 0.0:
        roots.append(q / (3.0 * c))
    return [u for u in roots if 0.0 < u < 1.0 and b + 3.0 * c * u < 0.0]


def extract_metrics(traj, cycle_index=0, recovery_band=DEFAULT_RECOVERY_BAND):
    """Extract PulseMetrics for one cycle of a trajectory.

    A cycle runs from its rising edge to the next one, or else to the end
    of the run (also for a periodic drive run past its last period). An
    off-grid edge maps to the last grid point at or before it, as in
    step_plan; its sample is found by bisecting the trajectory's grid
    indices. Samples need not be evenly spaced: each step has its own
    length (a pulse's DC tail takes longer steps).

    Between samples the solution is read from cubic Hermite interpolants
    (dense output; Hairer, Norsett & Wanner, Solving ODEs I, II.6), built
    from a step's two stored states and the two right-hand sides at its
    own J and length; Trajectory.step_slopes gives them for each step
    read, at most four, and Trajectory.end_slope the one ds/dt the energy
    reads at the first and at the last sample of each run of equal steps.
    The energy is the exact integral of the s interpolants: over a run of
    steps of length h, the trapezoid rule plus h^2/12 (ds/dt at the run's
    first sample - ds/dt at its last), the Euler-Maclaurin
    end correction, which leaves the energy at the run's own RK4 error
    however long the tail's steps are. t_on and t_re are roots of the n
    interpolant in the step where the samples cross the threshold or enter
    the recovery band for good; t_peak and s_max are the largest of the
    discrete maximum and the ds/dt = 0 maxima in the two steps beside it.
    The interpolant is fourth order where the right-hand side is smooth.
    In a step that an off-grid edge cuts, each end takes the slope at the
    J of the segment it lies in: ds/dt does not depend on J, so s keeps
    its exact end slopes, but dn/dt jumps at the edge, and inside that
    step both curves interpolate a solution whose derivatives jump, at
    second order in dt. A cycle whose carriers never re-enter the recovery
    band is reported with recovered=False, not an error. Raises DriveError
    for a cycle_index that names no pulse of the drive, or whose cycle
    holds fewer than 3 stored steps.
    """
    check_range(recovery_band, "recovery_band", RECOVERY_BAND_RANGE)
    drive = traj.drive
    check_integer(cycle_index, "cycle_index", 0, drive.n_pulses - 1,
                  DriveError)
    # a float, as every time computed from it is, whatever the drive holds
    edge = float(drive.edge_time(cycle_index))
    dt = traj.dt
    n, s, thermal, index = traj.n, traj.s, traj.thermal, traj.index
    i_lo = int(np.searchsorted(index, grid_floor(edge, dt)[0]))
    i_hi = len(n) - 1
    if cycle_index + 1 < drive.n_pulses:
        i_hi = min(int(np.searchsorted(
            index, grid_floor(drive.edge_time(cycle_index + 1), dt)[0])), i_hi)
    if i_hi - i_lo < 3:
        raise DriveError(f"the trajectory does not cover 3 steps of "
                         f"cycle_index {cycle_index}")

    n_w, s_w = n[i_lo:i_hi + 1], s[i_lo:i_hi + 1]
    span = np.diff(index[i_lo:i_hi + 1])   # grid steps in each step

    def at(k, u=None):
        """Grid position of window sample k, or of fraction u of the step
        that starts there."""
        g = int(index[i_lo + k])
        return g if u is None else g + u * int(span[k])

    n_th = thermal.n_th
    above = n_w >= n_th
    crossings = np.nonzero(~above[:-1] & above[1:])[0]
    if len(crossings) == 0:
        raise BelowThresholdPulseError(
            f"carrier density stayed below threshold {n_th:.4e} m^-3 "
            f"for the whole cycle")

    # positions in the window are in samples from its start, sample i_lo
    k_on = int(crossings[0])
    m = int(np.argmax(s_w))
    beside = [k for k in (m - 1, m) if 0 <= k < i_hi - i_lo]

    n_dc = thermal.n_dc
    hi = n_dc * (1.0 + recovery_band)
    lo = n_dc * (1.0 - recovery_band)
    tail = n_w[m:]
    inside = (tail <= hi) & (tail >= lo)
    stays = np.logical_and.accumulate(inside[::-1])[::-1]
    recovered = bool(stays.any())
    # entered: n_w[k_re] lies outside the band, n_w[k_re + 1] in it for good
    k_re = m + int(np.argmax(stays)) - 1
    entered = recovered and k_re >= m

    def hermite(y, k, var):     # var: 0 for dn/dt's slopes, 1 for ds/dt's
        start, end = traj.step_slopes(i_lo + k)
        return _hermite(y, k, (start[var], end[var]), int(span[k]) * dt)

    u = _level_root(hermite(n_w, k_on, 0), n_th)
    t_on = at(k_on, u) * dt - edge

    peaks = [(float(s_w[m]), at(m))]
    for k in beside:
        p = hermite(s_w, k, 1)
        peaks += [(_cubic(p, u), at(k, u)) for u in _maxima(p)]
    s_max, peak = max(peaks)
    t_peak = peak * dt - edge

    # the runs of equal steps: run r covers steps ends[r]..ends[r + 1] - 1
    ends = [0, *(np.flatnonzero(np.diff(span)) + 1).tolist(), len(span)]
    # each run's trapezoid sum plus its end correction: the slope terms of
    # the steps' Hermite integrals cancel at the run's inner samples
    pulse_energy = 0.0
    for a, b in zip(ends, ends[1:]):
        run = s_w[a:b + 1]
        h = int(span[a]) * dt
        m_a = traj.end_slope(i_lo + a, 0)[1]
        m_b = traj.end_slope(i_lo + b - 1, 1)[1]
        pulse_energy += h * (
            float(run.sum()) - 0.5 * (float(run[0]) + float(run[-1]))
            + h * (m_a - m_b) / 12.0)

    t_re = math.nan
    if entered:
        level = hi if n_w[k_re] > hi else lo
        u = _level_root(hermite(n_w, k_re, 0), level)
        t_re = at(k_re, u) * dt - edge
    elif recovered:
        t_re = at(m) * dt - edge

    return PulseMetrics(t_on=t_on, t_peak=t_peak, s_max=s_max,
                        pulse_energy=pulse_energy, t_re=t_re,
                        n_initial=float(n[i_lo]), recovered=recovered,
                        recovery_band=recovery_band)


def max_repetition_rate(metrics):
    """Highest pulse rate compatible with full carrier recovery, 1/t_re."""
    if not metrics.recovered:
        raise UndefinedRateError("carriers never recovered; rate undefined")
    check_range(metrics.t_re, "t_re", "(0, inf)", UndefinedRateError)
    return 1.0 / metrics.t_re


def analytic_decay_time(thermal):
    """Closed-form decay estimate tau_n * ln(n0/n_dc).

    Estimates the dominant segment of carrier recovery as free decay from
    the transparency level down to the DC level. It ignores DC
    replenishment, which slows the true final approach considerably, so
    treat it as a lower-bound indicator rather than a measured t_re.
    """
    if thermal.n0 <= thermal.n_dc:
        raise InvalidRegimeError(
            "decay estimate needs n0 above n_dc")
    return thermal.tau_n * math.log(thermal.n0 / thermal.n_dc)


def _bracket_delta(level, thermal_a, thermal_b, drive):
    c = thermal_a.constants
    charge = drive.j_ac * drive.pulse_duration / (c.q * c.d)

    def bracket(th):
        return charge - getattr(th, level) + th.n_dc

    return bracket(thermal_b) - bracket(thermal_a)


def smax_prediction_delta(thermal_a, thermal_b, drive):
    """Signed change of the peak-density predictor bracket from thermal_a to b.

    The bracket J_ac*T/(q d) - n_th + n_dc is proportional to the predicted
    peak photon density; only its sign/ordering is meaningful.
    """
    return _bracket_delta("n_th", thermal_a, thermal_b, drive)


def energy_prediction_delta(thermal_a, thermal_b, drive):
    """Like smax_prediction_delta but with the transparency density n0."""
    return _bracket_delta("n0", thermal_a, thermal_b, drive)


def compare_states(signal, decoy):
    """Pairwise signal/decoy deltas and ratios."""
    return StatePairMetrics(
        delta_t_on=decoy.t_on - signal.t_on,
        delta_t_peak=decoy.t_peak - signal.t_peak,
        smax_ratio=signal.s_max / decoy.s_max,
        energy_ratio=signal.pulse_energy / decoy.pulse_energy)


# a record is a (temp_C, PulseMetrics) pair; t_re_ns does not exist for a
# pulse whose carriers never recovered
METRICS_COLUMNS = (
    ("temp_C", lambda r: float(r[0])),
    ("t_on_ps", lambda r: r[1].t_on * 1e12),
    ("t_peak_ps", lambda r: r[1].t_peak * 1e12),
    ("smax_m3", lambda r: r[1].s_max),
    ("energy_m3s", lambda r: r[1].pulse_energy),
    ("t_re_ns", lambda r: r[1].t_re * 1e9 if r[1].recovered else None),
    ("n_initial_m3", lambda r: r[1].n_initial),
)


# Bundled reference values for the benchmark temperature sweep; the table2
# report renders simulated results against these side by side.
REFERENCE_TEMPS = (15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0)

REFERENCE_TABLE = {
    "n_th_1e24_m3": (1.13, 1.16, 1.20, 1.24, 1.29, 1.33, 1.39),
    "n_dc_1e23_m3": (3.69, 3.65, 3.60, 3.56, 3.51, 3.47, 3.42),
    "smax_signal_1e23_m3": (1.42, 1.40, 1.37, 1.31, 1.17, 1.01, 0.83),
    "smax_decoy_1e22_m3": (8.82, 7.54, 6.33, 4.79, 3.26, 2.07, 0.57),
    "t_on_signal_ps": (52.3, 56.4, 58.5, 62.1, 65.7, 69.0, 72.9),
    "t_peak_signal_ps": (95.9, 97.9, 100.0, 102.0, 105.0, 108.0, 111.0),
    "t_on_decoy_ps": (63.6, 67.8, 71.3, 74.0, 80.1, 83.8, 90.1),
    "t_peak_decoy_ps": (111.0, 113.0, 118.0, 122.0, 129.0, 137.0, 156.0),
}

# the simulated counterpart of each reference row, in its units, from one
# (temp_C, thermal, signal, decoy) sweep row
SIMULATED = {
    "n_th_1e24_m3": lambda t, thermal, sig, dec: thermal.n_th / 1e24,
    "n_dc_1e23_m3": lambda t, thermal, sig, dec: thermal.n_dc / 1e23,
    "smax_signal_1e23_m3": lambda t, thermal, sig, dec: sig.s_max / 1e23,
    "smax_decoy_1e22_m3": lambda t, thermal, sig, dec: dec.s_max / 1e22,
    "t_on_signal_ps": lambda t, thermal, sig, dec: sig.t_on * 1e12,
    "t_peak_signal_ps": lambda t, thermal, sig, dec: sig.t_peak * 1e12,
    "t_on_decoy_ps": lambda t, thermal, sig, dec: dec.t_on * 1e12,
    "t_peak_decoy_ps": lambda t, thermal, sig, dec: dec.t_peak * 1e12,
}


def render_table2(sweep_rows):
    """Render the benchmark sweep against the bundled reference values.

    sweep_rows is a list of SweepRow or plain (temp_C, ThermalState,
    signal PulseMetrics, decoy PulseMetrics) tuples, rendered in
    REFERENCE_TABLE's row order. Temperatures that have a reference column
    get a deviation line; others show simulated values only.
    """
    def line(label, cells):
        return label.ljust(26) + "".join(cell.rjust(11) for cell in cells)

    temps = [row[0] for row in sweep_rows]
    ref_index = {t: i for i, t in enumerate(REFERENCE_TEMPS)}
    header = line("quantity", [f"{t:g} C" for t in temps])
    lines = [header, "-" * len(header)]
    for key, table in REFERENCE_TABLE.items():
        sim = [SIMULATED[key](*row) for row in sweep_rows]
        refs = [table[ref_index[t]] if t in ref_index else None for t in temps]
        lines += [
            line(f"{key} ref",
                 ["-" if r is None else f"{r:.3g}" for r in refs]),
            line(f"{key} sim", [f"{v:.3g}" for v in sim]),
            line(f"{key} dev%",
                 ["-" if r is None else f"{(v - r) / r * 100.0:+.1f}"
                  for r, v in zip(refs, sim)])]
    return "\n".join(lines) + "\n"

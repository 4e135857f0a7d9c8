"""Scenario orchestration: single pulses, temperature sweeps, pulse trains.

Each scenario takes a Profile plus a few knobs and returns plain data.
The temperature sweep runs its points one after another, in input order.
"""

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .dynamics import DEFAULT_DT_PULSE, MAX_STEPS, DriveWaveform, integrate
from .errors import (ConfigError, DriveError, check_integer, check_range,
                     shown)
from .metrics import (DEFAULT_RECOVERY_BAND, RECOVERY_BAND_RANGE,
                      extract_metrics)
from .thermal import thermal_state

DEFAULT_HORIZON = 2e-9
TRAIN_FLAG_BAND = 0.01


class SweepRow(NamedTuple):
    """One temperature point of a signal/decoy sweep."""

    temp_c: float
    thermal: object
    signal: object   # PulseMetrics
    decoy: object    # PulseMetrics


@dataclass(frozen=True)
class CycleRow:
    """Per-cycle observables of a pulse train."""

    cycle: int
    s_max: float
    n_initial: float
    flagged: bool    # n_initial above n_dc by more than the flag band


def state_amplitude(profile, state):
    """AC amplitude for 'signal' or 'decoy'."""
    if state == "signal":
        return profile.j_ac_signal
    if state == "decoy":
        return profile.j_ac_decoy
    raise ConfigError(
        f"unknown state {shown(state)}, expected signal or decoy")


def _drive(profile, state, **train):
    """The profile's drive for one state; train adds period and n_pulses."""
    return DriveWaveform(j_dc=profile.j_dc, j_ac=state_amplitude(profile, state),
                         pulse_duration=profile.pulse_duration, **train)


def run_pulse_scenario(profile, temp_c, state="signal", dt=DEFAULT_DT_PULSE,
                       t_end=DEFAULT_HORIZON, band=DEFAULT_RECOVERY_BAND):
    """Single rectangular pulse at one temperature: (thermal, traj, metrics).
    t_end must cover the 3 steps of dt that extract_metrics reads."""
    check_range(band, "band", RECOVERY_BAND_RANGE)
    check_range(dt, "dt", "(0, inf)", DriveError)
    check_range(t_end, "horizon t_end", "(0, inf)", DriveError)
    if t_end < 3 * dt:
        raise DriveError(f"horizon t_end={t_end!r} s must cover at least 3 "
                         f"steps of dt={dt!r} s")
    thermal = thermal_state(profile.constants, temp_c, profile.j_dc)
    traj = integrate(thermal, _drive(profile, state), dt, t_end)
    pm = extract_metrics(traj, recovery_band=band)
    return thermal, traj, pm


def run_table_sweep(profile, temps, dt=DEFAULT_DT_PULSE,
                    t_end=DEFAULT_HORIZON, band=DEFAULT_RECOVERY_BAND):
    """Signal and decoy pulse metrics over a temperature list, input order."""
    sweep = []
    for temp_c in temps:
        thermal, _, signal = run_pulse_scenario(
            profile, temp_c, "signal", dt=dt, t_end=t_end, band=band)
        _, _, decoy = run_pulse_scenario(
            profile, temp_c, "decoy", dt=dt, t_end=t_end, band=band)
        sweep.append(SweepRow(temp_c=temp_c, thermal=thermal, signal=signal,
                              decoy=decoy))
    return sweep


def run_train_scenario(profile, temp_c, frequency, n_pulses, state="signal",
                       dt=DEFAULT_DT_PULSE, settle_cycles=0):
    """Periodic pulse train: (thermal, trajectory, [CycleRow...]).

    settle_cycles unrecorded cycles run first, then n_pulses recorded ones;
    CycleRow.cycle counts the recorded cycles from 0. The trajectory is the
    whole run from t = 0, settle cycles included, to one period after the
    last rising edge: it ends at the grid point nearest that time, after
    round(n period / dt) steps of dt for n cycles in all (see integrate),
    within dt / 2 of it. A cycle is flagged when its rising-edge carrier
    density sits more than TRAIN_FLAG_BAND above the DC level, the
    signature of incomplete recovery. Raises DriveError for a frequency,
    pulse count, settle count or step dt with no train; a train of more
    than MAX_STEPS cycles has no grid.
    """
    check_range(frequency, "frequency", "(0, inf)", DriveError)
    check_integer(n_pulses, "n_pulses", 2, MAX_STEPS, DriveError)
    check_integer(settle_cycles, "settle_cycles", 0, MAX_STEPS, DriveError)
    drive = _drive(profile, state, period=1.0 / frequency,
                   n_pulses=settle_cycles + n_pulses)
    thermal = thermal_state(profile.constants, temp_c, profile.j_dc)
    check_range(dt, "dt", "(0, inf)", DriveError)
    if drive.period < 3 * dt:
        raise DriveError(f"period {drive.period!r} s must cover at least 3 "
                         f"steps of dt, got dt={dt!r}")
    traj = integrate(thermal, drive, dt, drive.n_pulses * drive.period)
    limit = thermal.n_dc * (1.0 + TRAIN_FLAG_BAND)
    cycles = []
    for k in range(n_pulses):
        pm = extract_metrics(traj, cycle_index=settle_cycles + k)
        cycles.append(CycleRow(cycle=k, s_max=pm.s_max, n_initial=pm.n_initial,
                               flagged=pm.n_initial > limit))
    return thermal, traj, cycles


CYCLE_COLUMNS = (("cycle", attrgetter("cycle")),
                 ("smax_m3", attrgetter("s_max")),
                 ("n_initial_m3", attrgetter("n_initial")),
                 ("flagged", attrgetter("flagged")))

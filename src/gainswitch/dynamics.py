"""Single-mode rate-equation dynamics under rectangular current drive.

Carrier density n(t) and photon density s(t) obey

    dn/dt = j(t)/(q d) - n/tau_n - g0 (n - n0) s
    ds/dt = gamma g0 (n - n0) s - s/tau_p + gamma beta_sp n/tau_n

with the temperature-scaled coefficients taken from a ThermalState. The
integrator is a classic 4th-order scheme on a planned, not adaptive,
step. The drive is piecewise constant, so it is described by its
segments (t0, t1, J) and the right-hand side is smooth inside each one:
runs of whole steps inside a segment use a constant J, and a step that a
segment edge cuts is advanced as one RK4 sub-step per side of the edge.
An edge within roundoff of a grid point lies on it. The step is dt on
the grid k * dt, except in the DC tail of each pulse, where whole runs
of a coarser step (a stability-bounded multiple of dt, see
TAIL_STABILITY) jump from grid point to grid point. Only grid points are
stored, each with its grid index, so the samples are not evenly spaced:
sample times are index * dt. integrate is the one integration core:
pulses and trains run on it, and the oracle's adaptive reference shares
none of its grid or plan.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

import numpy as np

from . import rows
from .errors import (ConfigError, DivergenceError, DriveError,
                     NoSteadyStateError, check_integer)

DEFAULT_DT_PULSE = 100e-15
DEFAULT_DT_TRAIN = 100e-15

# a clamp larger than this (relative to the running scale of the variable)
# means the step size is wrong, not that the physics grazed zero
CLAMP_LIMIT = 1e-6

# an edge this close to a grid point, in steps and relative to the step
# index, is float roundoff in t_edge / dt rather than a real offset
EDGE_SNAP = 1e-12

# a grid of more than this many steps of dt is a bad horizon or period;
# integrate stores each step it takes in 24 B (n, s and its grid index),
# so even a run of that many fine steps fits in about 240 MB
MAX_STEPS = 10**7

# RK4 is stable on a decaying linear mode while h * lambda <= 2.785
# (Hairer & Wanner, Solving ODEs II, IV.2). In a pulse's DC tail the
# fastest mode is the photon loss, whose rate 1/tau_p - gamma g0 (n - n0)
# is at most lambda_max = 1/tau_p + gamma g0 n0 for any n >= 0; the tail
# step is the longest whole multiple of dt with h * lambda_max at most
# this bound, which leaves RK4 a margin of 2.8x
TAIL_STABILITY = 1.0

# the tail starts this many photon lifetimes tau_p after each fall edge
# (200 ps at the default 5 ps): by then the photon density has fallen
# from the pulse to near the quasi-steady level that n sets (within 13 %
# for the default profile's pulses at 15-45 C), and what is left is the
# carriers' relaxation, on tau_n. A tail whose carriers are still at or
# above threshold there (net gain: the pulse is not over) stays on dt
TAIL_DELAY = 40


@dataclass(frozen=True)
class DriveWaveform:
    """Rectangular current drive: DC bias plus one or more AC pulses."""

    j_dc: float                 # A/m^2
    j_ac: float                 # A/m^2, added to j_dc during a pulse
    pulse_duration: float       # s
    period: float = None        # s; None for single-pulse mode
    n_pulses: int = 1
    start_offset: float = 0.0   # s, rising edge of the first pulse

    def __post_init__(self):
        for name in ("j_dc", "j_ac", "pulse_duration", "period",
                     "start_offset"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DriveError(f"{name} must be finite, got {value!r}")
        for name in ("pulse_duration", "j_ac"):
            if getattr(self, name) <= 0:
                raise DriveError(f"{name} must be positive")
        for name in ("j_dc", "start_offset"):
            if getattr(self, name) < 0:
                raise DriveError(f"{name} must be non-negative")
        check_integer(self.n_pulses, "n_pulses", DriveError)
        if self.n_pulses < 1:
            raise DriveError("n_pulses must be at least 1")
        if self.period is None:
            if self.n_pulses != 1:
                raise DriveError("multiple pulses require a period")
        elif self.period <= self.pulse_duration:
            raise DriveError("period must exceed pulse_duration")

    def current(self, t):
        """Injection current density at time t, A/m^2."""
        tt = t - self.start_offset
        if tt < 0.0:
            return self.j_dc
        if self.period is None:
            return self.j_dc + self.j_ac if tt < self.pulse_duration else self.j_dc
        cycle = int(tt // self.period)
        if cycle >= self.n_pulses:
            return self.j_dc
        return (self.j_dc + self.j_ac
                if tt - cycle * self.period < self.pulse_duration
                else self.j_dc)

    def edge_time(self, k):
        """Rising-edge time of AC pulse k, 0 <= k < n_pulses."""
        if not 0 <= k < self.n_pulses:
            raise IndexError(f"pulse {k} out of range for {self.n_pulses}")
        if self.period is None:
            return self.start_offset
        return self.start_offset + k * self.period

    def edge_times(self):
        """Rising-edge times of every AC pulse."""
        return [self.edge_time(k) for k in range(self.n_pulses)]

    def segments(self, t_end):
        """The drive on [0, t_end] as constant (t0, t1, J) segments.

        Segments are in time order, tile [0, t_end] and alternate between
        j_dc and j_dc + j_ac; each pulse is on over [rise, rise + duration).
        An edge at 0 sets the first segment's J, edges at or after t_end
        are dropped.
        """
        if not 0 < t_end < math.inf:
            raise DriveError(f"t_end must be positive and finite, got "
                             f"{t_end!r}")
        on = self.j_dc + self.j_ac
        edges = []
        for rise in self.edge_times():
            edges += [(rise, on), (rise + self.pulse_duration, self.j_dc)]
        t0, j = 0.0, self.j_dc
        out = []
        for edge, j_next in edges:
            if edge >= t_end:
                break
            if edge > t0:
                out.append((t0, edge, j))
                t0 = edge
            j = j_next
        out.append((t0, t_end, j))
        return out


@dataclass(frozen=True)
class IntegrationStats:
    """What one integration run did."""

    steps: int            # steps taken, fine and tail; one per stored sample
    split_steps: int      # grid steps cut into sub-steps by an off-grid edge
    clamps: int           # roundoff-negative densities set to zero
    worst_clamp: float    # largest clamp relative to the running scale, or 0


@dataclass(frozen=True)
class Trajectory:
    """Solution of the rate equations at the grid points a run stored.

    Sample k lies on grid point index[k], at t = index[k] * dt; a
    Trajectory built without an index holds every grid point. plan is
    the step plan integrate took (see step_plan), tail runs that the
    threshold guard kept fine included.
    """

    dt: float                   # s, the fine step: the grid is k * dt
    n: np.ndarray               # m^-3
    s: np.ndarray               # m^-3
    thermal: object
    drive: DriveWaveform
    stats: IntegrationStats = field(default=None)
    constants: object = None    # LaserConstants; step_slopes needs them
    index: np.ndarray = None    # grid index of each sample, increasing
    plan: tuple = None          # (i0, i1, stride, parts) runs; step_slopes

    def __post_init__(self):
        if self.index is None:
            object.__setattr__(self, "index", np.arange(len(self.n)))

    @property
    def times(self):
        """Sample times, s."""
        return self.index * self.dt

    def step_slopes(self, steps):
        """(dn/dt, ds/dt) at both ends of the steps that start at the given
        samples, from one derivatives call; each step's J comes from
        bisecting the kept plan. Each has shape (2, len(steps)): row 0 at
        the start of each step, row 1 at its end, each at the J of the
        segment it lies in (the two differ only in a step that an off-grid
        edge cuts)."""
        parts = [self.plan[bisect_right(self.plan, int(self.index[k]),
                                        key=itemgetter(0)) - 1][3]
                 for k in steps]
        j = np.array([[p[0][1] for p in parts], [p[-1][1] for p in parts]])
        ends = np.array([steps, [k + 1 for k in steps]])
        return derivatives((self.n[ends], self.s[ends]), j, self.thermal,
                           self.constants)


def derivatives(state, j_now, thermal, constants):
    """Right-hand side of the rate equations at one state point."""
    n, s = state
    gain = thermal.g0 * (n - thermal.n0)
    dn_dt = (j_now / (constants.q * constants.d)
             - n / thermal.tau_n
             - gain * s)
    ds_dt = (constants.gamma * gain * s
             - s / constants.tau_p
             + constants.gamma * constants.beta_sp * n / thermal.tau_n)
    return dn_dt, ds_dt


def steady_state_s(thermal, constants, n):
    """Photon density solving ds/dt = 0 at fixed below-threshold n."""
    denom = 1.0 / constants.tau_p - constants.gamma * thermal.g0 * (n - thermal.n0)
    if denom <= 0.0:
        raise NoSteadyStateError(
            f"carrier density {n:.6e} m^-3 is at or above threshold "
            f"{thermal.n_th:.6e} m^-3; photon density has no steady state")
    return constants.gamma * constants.beta_sp * (n / thermal.tau_n) / denom


def initial_state(thermal, constants, initial=None):
    """initial as (n, s) floats, or the DC start (n_dc, steady_state_s)."""
    if initial is None:
        return thermal.n_dc, steady_state_s(thermal, constants, thermal.n_dc)
    n, s = float(initial[0]), float(initial[1])
    if not (0.0 <= n < math.inf and 0.0 <= s < math.inf):
        raise DriveError(f"initial must be finite and non-negative, got "
                         f"{initial!r}")
    return n, s


def grid_floor(t, dt):
    """(k, on_grid): the last grid point k * dt at or before t, and whether
    t lies on it. A t within EDGE_SNAP of a grid point lies on it."""
    x = t / dt
    k = round(x)
    if abs(x - k) <= EDGE_SNAP * max(1.0, x):
        return k, True
    return math.floor(x), False


def step_plan(drive, dt, steps, tail=None):
    """Group grid steps 0..steps-1 of size dt by the drive's segments.

    Returns (i0, i1, stride, parts) tuples in time order that cover every
    grid step once. parts lists (length, J) sub-steps: a run of whole
    steps from grid point i0 to i1 inside one segment has stride grid
    steps per step and parts ((stride * dt, J),); a step that off-grid
    edges cut has i1 == i0 + 1, stride 1 and one part per side of each
    edge. tail is (delay, stride) in s and grid steps, or None: in the DC
    segment after each fall edge, the steps from the first grid point at
    or after fall + delay are stride grid steps long, up to the last one
    that fits in the segment; every other step is dt, as with no tail.
    The plan has O(edges) entries whatever the step count.
    """
    delay, stride = tail or (0.0, 1)
    plan = []
    i = 0             # first grid step not yet planned
    cut = []          # parts of step i, which an earlier edge cut
    t_cut = 0.0       # where the last off-grid edge fell
    for t0, t1, j in drive.segments(steps * dt):
        end, on_grid = grid_floor(t1, dt)
        if cut:
            if end == i and not on_grid:
                cut.append((t1 - t_cut, j))   # another edge in the same step
                t_cut = t1
                continue
            cut.append(((i + 1) * dt - t_cut, j))
            plan.append((i, i + 1, 1, tuple(cut)))
            cut = []
            i += 1
        if stride > 1 and t0 > 0.0 and j == drive.j_dc:
            k, on = grid_floor(t0 + delay, dt)
            start = max(i, k if on else k + 1)
            coarse = (end - start) // stride * stride
            if coarse > 0:
                if start > i:
                    plan.append((i, start, 1, ((dt, j),)))
                plan.append((start, start + coarse, stride,
                             ((stride * dt, j),)))
                i = start + coarse
        if end > i:
            plan.append((i, end, 1, ((dt, j),)))
            i = end
        if not on_grid:
            cut = [(t1 - i * dt, j)]
            t_cut = t1
    return plan


def clamp_density(name, value, scale, t, bounds):
    """Clamp a negative density at t to 0.0, or raise DivergenceError.

    Past -CLAMP_LIMIT * scale (the running maximum) it is no roundoff;
    bounds[2] counts clamps and bounds[3] keeps the worst -value / scale.
    """
    if -value > CLAMP_LIMIT * scale:
        raise DivergenceError(f"{name} density {value:.3e} at t = {t:.6e} s "
                              f"exceeds the clamp limit")
    bounds[2] += 1
    bounds[3] = max(bounds[3], -value / scale)
    return 0.0


def _rk4_run(n, s, j, h, i0, i1, t_base, thermal, constants, bounds,
             keep_n, keep_s):
    """RK4 steps i0..i1-1 of length h at constant current density j.

    The step scheme of integrate: bounds is [max_n, max_s, clamps,
    worst_clamp], updated in place; each new state goes to
    keep_n/keep_s. Step i ends at t_base + (i + 1) h, the time divergence
    messages report. Returns the final (n, s).
    """
    jq = j * (1.0 / (constants.q * constants.d))
    itn, itp = 1.0 / thermal.tau_n, 1.0 / constants.tau_p
    g0, n0, gg = thermal.g0, thermal.n0, constants.gamma * thermal.g0
    sp = constants.gamma * constants.beta_sp * itn
    max_n, max_s = bounds[0], bounds[1]
    hh = 0.5 * h
    sixth = h / 6.0
    isfinite = math.isfinite

    for i in range(i0, i1):
        gn = n - n0
        k1n = jq - n * itn - g0 * gn * s
        k1s = gg * gn * s - s * itp + sp * n

        na = n + hh * k1n
        sa = s + hh * k1s
        gn = na - n0
        k2n = jq - na * itn - g0 * gn * sa
        k2s = gg * gn * sa - sa * itp + sp * na

        nb = n + hh * k2n
        sb = s + hh * k2s
        gn = nb - n0
        k3n = jq - nb * itn - g0 * gn * sb
        k3s = gg * gn * sb - sb * itp + sp * nb

        nc = n + h * k3n
        sc = s + h * k3s
        gn = nc - n0
        k4n = jq - nc * itn - g0 * gn * sc
        k4s = gg * gn * sc - sc * itp + sp * nc

        n = n + sixth * (k1n + 2.0 * (k2n + k3n) + k4n)
        s = s + sixth * (k1s + 2.0 * (k2s + k3s) + k4s)

        if not (isfinite(n) and isfinite(s)):
            raise DivergenceError(
                f"non-finite state at t = {t_base + (i + 1) * h:.6e} s")
        if n < 0.0:
            n = clamp_density("carrier", n, max_n, t_base + (i + 1) * h, bounds)
        elif n > max_n:
            max_n = n
        if s < 0.0:
            s = clamp_density("photon", s, max_s, t_base + (i + 1) * h, bounds)
        elif s > max_s:
            max_s = s

        keep_n(n)
        keep_s(s)

    bounds[0], bounds[1] = max_n, max_s
    return n, s


def integrate(thermal, constants, drive, dt, t_end, initial=None):
    """Integrate the rate equations from t = 0 to t_end on the grid k * dt.

    initial defaults to the DC operating point (n_dc, steady_state_s(n_dc)).
    That start is not a fixed point of the 2-D system: at n_dc the photon
    density still drives absorption, so under DC drive n relaxes upward
    over a few tau_n to the joint fixed point, by about 7.5e-4 (relative)
    with the default profile.
    The step is dt, except in each pulse's DC tail (see step_plan): from
    TAIL_DELAY photon lifetimes after a fall edge, whole steps of the
    longest multiple of dt that keeps h * lambda_max <= TAIL_STABILITY,
    unless n is at or above threshold there. The end of every step is
    stored with its grid index; a step that a drive edge cuts is advanced
    in sub-steps, one _rk4_run call per part with nothing kept.
    IntegrationStats counts the steps taken. Raises DriveError for a dt,
    t_end or initial state that gives no run, or a grid of more than
    MAX_STEPS steps of dt, and DivergenceError if the state leaves the
    physical domain by more than roundoff.
    """
    if not 0 < dt < math.inf:
        raise DriveError(f"dt must be positive and finite, got {dt!r}")
    if not dt <= t_end < math.inf:
        raise DriveError(f"t_end={t_end!r} s must be finite and cover at "
                         f"least one step of dt={dt!r} s")
    if t_end / dt > MAX_STEPS:
        raise DriveError(f"t_end={t_end!r} s at dt={dt!r} s takes more than "
                         f"{MAX_STEPS} steps")
    n, s = initial_state(thermal, constants, initial)
    h_max = TAIL_STABILITY / (1.0 / constants.tau_p
                              + constants.gamma * thermal.g0 * thermal.n0)
    plan = step_plan(drive, dt, int(round(t_end / dt)),
                     (TAIL_DELAY * constants.tau_p,
                      max(1, math.floor(h_max / dt))))

    # imported here, not at the top: a cold import of the package does
    # without it (about 0.5 ms)
    from array import array
    n_out = array("d", [n])
    s_out = array("d", [s])
    bounds = [n if n > 0.0 else 1.0, s if s > 0.0 else 1.0, 0, 0.0]
    sink = [].append    # sub-step states between grid points are not kept
    split = 0
    for e, (i0, i1, stride, parts) in enumerate(plan):
        if len(parts) == 1:
            h, j = parts[0]
            if stride > 1 and n >= thermal.n_th:
                # net gain at the tail's start: the pulse is not over
                stride, h = 1, dt
                plan[e] = (i0, i1, stride, ((h, j),))
            n, s = _rk4_run(n, s, j, h, 0, (i1 - i0) // stride, i0 * dt,
                            thermal, constants, bounds, n_out.append,
                            s_out.append)
            continue
        split += 1
        t_sub = i0 * dt
        for h, j in parts:
            n, s = _rk4_run(n, s, j, h, 0, 1, t_sub, thermal, constants,
                            bounds, sink, sink)
            t_sub += h
        n_out.append(n)
        s_out.append(s)

    index = np.empty(len(n_out), dtype=np.int64)
    index[0] = 0
    k = 0               # samples placed after the first
    for i0, i1, stride, _ in plan:
        count = (i1 - i0) // stride
        index[k + 1:k + 1 + count] = np.arange(i0 + stride, i1 + 1, stride)
        k += count
    stats = IntegrationStats(steps=k, split_steps=split,
                             clamps=bounds[2], worst_clamp=bounds[3])
    return Trajectory(dt=dt, n=np.frombuffer(n_out), s=np.frombuffer(s_out),
                      thermal=thermal, drive=drive, stats=stats,
                      constants=constants, index=index, plan=tuple(plan))


TRAJECTORY_COLUMNS = (("time_s", attrgetter("times")),
                      ("n_m3", attrgetter("n")), ("s_m3", attrgetter("s")))


def write_trajectory_csv(traj, stream, decimate=1):
    """Write every decimate-th sample as a time_s,n_m3,s_m3 CSV row."""
    check_integer(decimate, "decimate")
    if not decimate >= 1:
        raise ConfigError(f"decimate must be at least 1, got {decimate!r}")
    rows.write_array_csv(TRAJECTORY_COLUMNS, traj, stream, every=decimate)

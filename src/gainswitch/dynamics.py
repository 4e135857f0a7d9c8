"""Single-mode rate-equation dynamics under rectangular current drive.

Carrier density n(t) and photon density s(t) obey

    dn/dt = j(t)/(q d) - n/tau_n - g0 (n - n0) s
    ds/dt = gamma g0 (n - n0) s - s/tau_p + gamma beta_sp n/tau_n

with the temperature-scaled coefficients taken from a ThermalState. The
integrator is a classic 4th-order scheme on a planned, not adaptive,
step. It steps the scaled state m = gamma g0 (n - n0), u = g0 s, in
which the equations take 56 float operations a step in place of 72
(see _rk4_run), and stores each step's end as (n, s): the domain test,
the clamps and the running maxima read the stored densities, and
derivatives, steady_state_s, Trajectory.step_slopes and the oracle's
adaptive reference keep the form above, so the reference checks the
scaled kernel with a formulation it does not share. The drive is
piecewise constant, so it is described by its segments (t0, t1, J) and
the right-hand side is smooth inside each one:
runs of whole steps inside a segment use a constant J, and a step that a
segment edge cuts is advanced as one RK4 sub-step per side of the edge.
An edge within roundoff of a grid point lies on it. The step is dt on
the grid k * dt, except in two places, where whole runs of coarser steps
jump from grid point to grid point. Before each pulse turns on, the head
takes 4 dt from a photon lifetime after the rising edge to 0.8 of the
turn-on delay that turn_on_delay gives from the carriers the edge finds
(HEAD_LEAD, HEAD_FRACTION, HEAD_STRIDE). After each pulse's fall edge
the tail's stages are timed from the carriers' threshold crossing, the
first stored sample after the edge with n < n_th: 2 dt from 12 and 4 dt
from 20 photon lifetimes past it (TAIL_LADDER), then, in the DC tail, a
stability-bounded multiple of dt (see TAIL_STABILITY and TAIL_DELAY),
and from 50 photon lifetimes past it a longer one, bounded at the
carriers' floor (see FLOOR_DELAY). The plan is walked as the run goes
(walk_plan), so each head and stage start reads the samples stored
before it. Only grid points are stored, each with
its grid index, so the samples are not evenly spaced: sample times are
index * dt.
integrate is the one integration core: pulses and trains run on it, and
the oracle's adaptive reference shares none of its grid or plan.
"""

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter, itemgetter

import numpy as np

from . import rows
from .errors import (DivergenceError, DriveError, NoSteadyStateError,
                     check_integer, check_range, shown)

DEFAULT_DT_PULSE = 100e-15

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
# this bound, which leaves RK4 a margin of 1.9x (12 dt = 1.2 ps, with
# h * lambda_max = 1.44, at the default profile and dt)
TAIL_STABILITY = 1.5

# the tail starts this many photon lifetimes tau_p after each threshold
# crossing. After a fall edge the drive is J_dc, whose photon-free balance
# n_dc lies below n_th, and at n >= n_th, s >= 0, dn/dt <= (n_dc - n) /
# tau_n < 0: once the carriers fall below threshold they stay below until
# the next rising edge, and the photon transient, which decays only under
# net loss (n < n_th), dates from that crossing, not from the edge (the
# default profile's pulses cross from at their fall edge, the 15-25 C
# signals, to 13.4 tau_p after it, the 45 C decoy). 30 tau_p (150 ps at
# the default 5 ps) past the crossing the photon density lies within 7 %
# of the quasi-steady level that n sets, 1-2 % for most of the default
# profile's pulses at 15-45 C, and what is left is the carriers'
# relaxation, on tau_n. A segment whose carriers stay at or above
# threshold to its end (net gain: the pulse is not over) runs on dt
TAIL_DELAY = 30

# the ladder between the crossing and the tail: (delay in tau_p, stride in
# dt) stages, each stride capped at the tail's. RK4 misses about (h mu)^5
# / 120 of a component that moves at rate mu in each step (the first term
# of e^z past its polynomial). Each stage is stable, its h * lambda_max
# being 0.24 and 0.48 at the default profile and dt, 3x and 6x inside
# TAIL_STABILITY. The photon density moves at |ds/dt|/s, which for the
# default profile's pulses at 15-45 C is at most 0.14 /ps at 12 tau_p
# past the crossing and 0.047 /ps at 20 tau_p (0.003 /ps for half of
# them). So h mu <= 0.028 in the 0.2 ps steps and <= 0.019 in the 0.4 ps
# steps: at most 1.5e-10 and 2e-11 of s per step, 3e-8 and 3e-9 over the
# 200 and 125 steps of the stages, below the pulse's own error on dt,
# (dt / tau_p)^4 = 1.6e-7. Against an all-fine run the worst deviation in
# s is the same 8.7e-8 with the 2 dt stage from 10 tau_p or the 4 dt one
# from 15, as the floor stage sets it (see FLOOR_DELAY)
TAIL_LADDER = ((12, 2), (20, 4))

# the carrier-floor stage starts this many photon lifetimes after each
# threshold crossing, where the tail is left to the carriers' relaxation
# on tau_n. Its stride K_f is the longest whole multiple of dt that
# meets three bounds, and the stage exists only where K_f exceeds the
# tail's K (at the default profile and dt, K_f = 18 at 15 C to 16 at
# 45 C, K = 12).
# (a) In the DC tail the carriers stay at or above n_dc, the photon-free
# balance (at n_dc < n0 absorption feeds them: dn/dt = g0 (n0 - n_dc) s),
# so the photon loss rate lambda(n) = 1/tau_p - gamma g0 (n - n0) is at
# most lambda(n_dc), 1.3-1.5x below lambda_max at the default profile:
# h lambda(n_dc) <= TAIL_STABILITY keeps the tail's damping per step.
# (b) Should n fall below n_dc, h lambda_max <= 1.5 TAIL_STABILITY =
# 2.25 keeps RK4 stable at any n >= 0 (its bound is 2.785), so the stage
# needs no guard of its own. (c) The carriers move at rate 1/tau_n, and
# h / tau_n <= dt / (10 tau_p), K_f <= tau_n / (10 tau_p):
# RK4 misses at most (h / tau_n)^5 / 120 of n per step, and over the
# stage's tau_n / h steps a share (h / tau_n)^4 / 120 <= 1e-4 (dt /
# tau_p)^4 / 120, far below the pulse's own error (dt / tau_p)^4 and
# shrinking as dt^4 (at 50 fs, (c) gives K_f <= K and there is no
# stage). The delay is where what is left of the photon transient costs
# the samples no more than the tests' 1e-7 in s: against an all-fine run
# of the default profile's pulses the worst deviation in s is 8.7e-8
# (3.9e-8 without the stage); from 40 and 60 tau_p it would be 9.5e-8
# and 8.1e-8, for 114 steps fewer and 142 more over the table's 14
# pulses
FLOOR_DELAY = 50

# Before each pulse turns on, its carriers ramp on tau_n from where the
# rising edge finds them to n_th, over the turn-on delay t_on (see
# turn_on_delay), while the photon density sits near its spontaneous
# level. The head takes coarser steps there: dt for HEAD_LEAD photon
# lifetimes after the edge, then whole steps of K_h dt up to the last grid
# point before HEAD_FRACTION t_on, then dt again (see walk_plan).
# The lead: at the edge dn/dt jumps by J_ac / (q d), and s answers on its
# fast mode, which decays at the photon loss rate lambda(n) = 1/tau_p -
# gamma g0 (n - n0), 3.96-4.60 / tau_p at n_dc for the default profile at
# 15-45 C; after 1 tau_p e^-4 of it is left, and the head's steps miss at
# most (h lambda)^5 / 120 of that share per step. Against an all-fine run
# the worst deviation in s before the fall edge over table2's pulses is
# 4.5e-6 with no lead, 2.9e-7 with 1 tau_p and 2.2e-7 with 2 (4.9e-10 in
# n each time), and the table takes 38,859, 39,381 and 39,909 steps
HEAD_LEAD = 1

# the head ends at this fraction of t_on. s leaves its quasi-steady level
# steady_state_s(n) as n nears n_th: its loss rate lambda(n) falls to 0
# there while s_M = steady_state_s(n) rises at mu = |ds/dt| / s, about
# 1 / (t_on - t), so s lags s_M by the share mu / lambda. For the default
# profile's pulses at 15-45 C s lies 10 % below s_M at 0.40-0.63 t_on and
# 21-32 % below at 0.8 t_on, where mu is 0.047-0.074 /ps: the 0.4 ps
# steps take h mu <= 0.03 and RK4 misses (h mu)^5 / 120 <= 2e-10 of s per
# step, at most 5.2e-9 over a head, below the pulse's own error on dt,
# (dt / tau_p)^4 = 1.6e-7. Closer to t_on mu grows as 1 / (t_on - t), and
# the photons build up on their own mode. The closed form's t_on lies
# within 1.1-2.7e-6 of the simulated one. Against a 20 fs all-fine run the
# worst t_on of table2's pulses is 4.1e-9, 4.7e-9 and 1.1e-8 fs off at
# 0.7, 0.8 and 0.9 t_on, the energy 4.8e-9, 5.2e-9 and 5.8e-9, for 40,107,
# 39,381 and 38,658 steps
HEAD_FRACTION = 0.8

# the head's stride K_h is the longest whole multiple of dt, at most this,
# with h lambda(n_start) <= TAIL_STABILITY at the carriers n_start that the
# rising edge finds. Below threshold n rises through the head toward the
# drive's balance J tau_n / (q d) > n_th, so lambda(n) falls and every
# later step is as stable as the first (at n_dc the bound allows 16-18 dt
# for the default profile, as FLOOR_DELAY's bound (a) does). Accuracy caps
# it: at 4 dt h lambda(n_dc) is 0.32-0.37, and against a 20 fs all-fine run
# the worst t_on of table2's pulses is 2.8e-10, 4.7e-9 and 7.6e-8 fs off
# at strides 2, 4 and 8 (RK4's error goes as h^4), the energy 4.6e-9,
# 5.2e-9 and 1.5e-8; the stability bound alone puts the energy 1.7e-7
# off, past (dt / tau_p)^4
HEAD_STRIDE = 4


@dataclass(frozen=True)
class DriveWaveform:
    """Rectangular current drive: DC bias plus one or more AC pulses."""

    j_dc: float                 # A/m^2
    j_ac: float                 # A/m^2, added to j_dc during a pulse
    pulse_duration: float       # s
    period: float = None        # s; None for single-pulse mode
    n_pulses: int = 1
    start_offset: float = 0.0   # s, rising edge of the first pulse

    # each field's range but period's, None or (pulse_duration, inf);
    # n_pulses is capped at MAX_STEPS, as a grid is. segments reads only
    # the pulses that rise before its t_end, so a long train costs no time
    RANGES = {"j_dc": "[0, inf)", "j_ac": "(0, inf)",
              "pulse_duration": "(0, inf)", "start_offset": "[0, inf)"}

    def __post_init__(self):
        for name, interval in self.RANGES.items():
            check_range(getattr(self, name), name, interval, DriveError)
        check_integer(self.n_pulses, "n_pulses", 1, MAX_STEPS, DriveError)
        if self.period is None:
            if self.n_pulses != 1:
                raise DriveError("multiple pulses require a period")
        else:
            check_range(self.period, "period", "(0, inf)", DriveError)
            if self.period <= self.pulse_duration:
                raise DriveError("period must exceed pulse_duration")

    def edge_time(self, k):
        """Rising-edge time of AC pulse k, 0 <= k < n_pulses."""
        check_integer(k, "k", 0, self.n_pulses - 1, IndexError)
        if self.period is None:
            return self.start_offset
        return self.start_offset + k * self.period

    def segments(self, t_end):
        """The drive on [0, t_end] as constant (t0, t1, J) segments.

        Segments are in time order, tile [0, t_end] and alternate between
        j_dc and j_dc + j_ac; each pulse is on over [rise, rise + duration).
        An edge at 0 sets the first segment's J, edges at or after t_end
        are dropped: pulses are read up to the first that rises at or
        after t_end, however many the train has.
        """
        check_range(t_end, "t_end", "(0, inf)", DriveError)
        on = self.j_dc + self.j_ac
        edges = []
        for k in range(self.n_pulses):
            rise = self.edge_time(k)
            if rise >= t_end:
                break
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

    Sample k lies on grid point index[k], at t = index[k] * dt. plan is
    the step plan integrate took (see walk_plan), runs of equal steps
    merged: end_slope bisects it for a step's J.
    """

    dt: float                   # s, the fine step: the grid is k * dt
    n: np.ndarray               # m^-3
    s: np.ndarray               # m^-3
    thermal: object             # ThermalState, its LaserConstants included
    drive: DriveWaveform
    stats: IntegrationStats
    index: np.ndarray           # grid index of each sample, increasing
    plan: tuple                 # (i0, i1, stride, parts) runs; end_slope

    @property
    def times(self):
        """Sample times, s."""
        return self.index * self.dt

    def step_slopes(self, k):
        """((dn/dt, ds/dt) at its start, (dn/dt, ds/dt) at its end) of the
        step that starts at sample k, as Python floats (see end_slope)."""
        return self.end_slope(k, 0), self.end_slope(k, 1)

    def end_slope(self, k, end):
        """(dn/dt, ds/dt) at the start (end 0) or the end (end 1) of the
        step that starts at sample k, as Python floats. Each end takes the
        J of the segment it lies in, from bisecting the kept plan (the two
        differ only in a step that an off-grid edge cuts)."""
        parts = self.plan[bisect_right(self.plan, int(self.index[k]),
                                       key=itemgetter(0)) - 1][3]
        i = k + end
        return derivatives((float(self.n[i]), float(self.s[i])),
                           parts[-1 if end else 0][1], self.thermal)


def derivatives(state, j_now, thermal):
    """Right-hand side of thermal's rate equations at one state point."""
    n, s = state
    c = thermal.constants
    gain = thermal.g0 * (n - thermal.n0)
    dn_dt = j_now / (c.q * c.d) - n / thermal.tau_n - gain * s
    ds_dt = (c.gamma * gain * s - s / c.tau_p
             + c.gamma * c.beta_sp * n / thermal.tau_n)
    return dn_dt, ds_dt


def steady_state_s(thermal, n):
    """Photon density solving ds/dt = 0 at fixed below-threshold n."""
    c = thermal.constants
    denom = 1.0 / c.tau_p - c.gamma * thermal.g0 * (n - thermal.n0)
    if denom <= 0.0:
        raise NoSteadyStateError(
            f"carrier density {n:.6e} m^-3 is at or above threshold "
            f"{thermal.n_th:.6e} m^-3; photon density has no steady state")
    return c.gamma * c.beta_sp * (n / thermal.tau_n) / denom


def initial_state(thermal, initial=None):
    """initial as (n, s) floats, or the DC start (n_dc, steady_state_s)."""
    if initial is None:
        n = float(thermal.n_dc)
        return n, float(steady_state_s(thermal, n))
    try:
        n, s = initial
    except (TypeError, ValueError):
        raise DriveError(
            f"initial must be a pair (n, s), got {shown(initial)}") from None
    check_range(n, "initial n", "[0, inf)", DriveError)
    check_range(s, "initial s", "[0, inf)", DriveError)
    return float(n), float(s)


def grid_floor(t, dt):
    """(k, on_grid): the last grid point k * dt at or before t, and whether
    t lies on it. A t within EDGE_SNAP of a grid point lies on it."""
    x = t / dt
    k = round(x)
    if abs(x - k) <= EDGE_SNAP * max(1.0, x):
        return k, True
    return math.floor(x), False


def turn_on_delay(n_start, n_th, n_inf, tau_n):
    """The time carriers take from n_start up to n_th while they relax on
    tau_n toward n_inf, the photon-free balance of the drive, J tau_n /
    (q d): tau_n ln((n_inf - n_start) / (n_inf - n_th)), the turn-on delay
    of a gain-switched pulse (Coldren, Corzine & Mashanovitch, Diode Lasers
    and Photonic Integrated Circuits, ch. 5). Below threshold the photon
    density is at its spontaneous level and the term g0 (n - n0) s of
    dn/dt, which the form neglects, is small. 0.0 for carriers that start
    at or above n_th, math.inf for ones that never reach it (n_inf <= n_th,
    or an n_inf that overflowed)."""
    if n_start >= n_th:
        return 0.0
    if not n_th < n_inf < math.inf:
        return math.inf
    return tau_n * math.log((n_inf - n_start) / (n_inf - n_th))


def whole_steps(h, dt):
    """The number of whole steps of dt in h >= 0, capped at MAX_STEPS, so
    that a quotient past the float range stays an int."""
    return math.floor(min(h / dt, MAX_STEPS))


def walk_plan(drive, dt, steps, tail, head, n_th, n_out):
    """Yield integrate's plan: grid steps 0..steps-1 of size dt, grouped by
    the drive's segments, one entry at a time, as integrate runs them.

    Each entry is an (i0, i1, stride, parts) tuple; the entries come in
    time order and cover every grid step once. parts lists (length, J)
    sub-steps: a run of whole steps from grid point i0 to i1 inside one
    segment has stride grid steps per step and parts ((stride * dt, J),);
    a step that off-grid edges cut has i1 == i0 + 1, stride 1 and one part
    per side of each edge. Slot k of n_out holds the carrier density after
    the plan's k-th step (slot 0 the start), and the caller runs each entry
    before it asks for the next.

    head maps (n, J) to a pulse's head, (lead, stride, length) in grid
    steps with stride above 1, or None for no head (head itself may be
    None). At the start of each pulse segment, at J above drive.j_dc, the
    walker hands it the stored n of the segment's first grid point, the
    rising edge's or, past an off-grid edge, the one after it; it then
    takes steps of dt to lead grid points after that point, whole steps of
    stride up to the last that fits before length grid points after it or
    the segment's end, and dt to the segment's end. A train's later pulses
    start from where the cycle before left the carriers, so each plans its
    own head.

    tail lists (lag, stride) stages in grid steps, by increasing lag, each
    stride above 1. In the DC segment after each fall edge the carriers
    cross below n_th once and stay below (see TAIL_DELAY): the crossing is
    the first grid point from the segment's start whose stored n lies
    below n_th. To find it the walker runs steps of dt to the first grid
    point where a stage could start, the first lag after the first point
    not yet read, and reads the samples run since, until one lies below
    n_th or the segment ends. Stage m's steps are stride grid steps long,
    from the crossing plus its lag, or from where the stage before it
    stopped if later, up to the last one that fits before the next stage's
    start (the segment's end for the last stage). Every other step of the
    segment is dt, so no stage starts at n >= n_th, and a segment whose
    carriers stay at or above n_th runs on dt to its end. The plan has
    O(edges) entries, plus one per first lag that the carriers stay above
    n_th after a fall edge, whatever the step count.
    """
    i = 0             # first grid step not yet planned
    skipped = 0       # grid points the stages stepped over: i is in slot
                      # i - skipped
    cut = []          # parts of step i, which an earlier edge cut
    t_cut = 0.0       # where the last off-grid edge fell

    def stage(start, stop, stride, j):
        """Steps of dt from i to start, then whole steps of stride from
        start up to the last that fits before stop; nothing if none fits"""
        nonlocal i, skipped
        coarse = (stop - start) // stride * stride
        if coarse > 0:
            if start > i:
                yield i, start, 1, ((dt, j),)
            yield start, start + coarse, stride, ((stride * dt, j),)
            i = start + coarse
            skipped += coarse - coarse // stride

    for t0, t1, j in drive.segments(steps * dt):
        end, on_grid = grid_floor(t1, dt)
        if cut:
            if end == i and not on_grid:
                cut.append((t1 - t_cut, j))   # another edge in the same step
                t_cut = t1
                continue
            cut.append(((i + 1) * dt - t_cut, j))
            yield i, i + 1, 1, tuple(cut)
            cut = []
            i += 1
        fine = ((dt, j),)
        if j != drive.j_dc:
            on = head and head(n_out[i - skipped], j)
            if on:
                lead, stride, length = on
                yield from stage(i + lead, min(i + length, end), stride, j)
        elif tail and t0 > 0.0:
            seen = i        # first grid point not yet read
            cross = None
            while cross is None:
                stop = min(seen + tail[0][0], end)
                if stop > i:
                    yield i, stop, 1, fine
                    i = stop
                below = np.flatnonzero(np.frombuffer(n_out)[
                    seen - skipped:i - skipped + 1] < n_th)
                if len(below):
                    cross = seen + int(below[0])
                elif i == end:
                    break
                seen = i + 1
            if cross is not None:
                starts = [cross + lag for lag, _ in tail]
                for (_, stride), start, stop in zip(tail, starts,
                                                    starts[1:] + [end]):
                    yield from stage(max(i, start), min(stop, end), stride,
                                     j)
        if end > i:
            yield i, end, 1, fine
            i = end
        if not on_grid:
            cut = [(t1 - i * dt, j)]
            t_cut = t1


def clamp_density(name, value, scale, t, bounds):
    """Clamp a negative density at t to 0.0, or raise DivergenceError.

    Past -CLAMP_LIMIT * scale it is no roundoff; off_domain passes the
    variable's running maximum over the steps before t as scale.
    bounds[2] counts clamps and bounds[3] keeps the worst -value / scale.
    """
    if -value > CLAMP_LIMIT * scale:
        raise DivergenceError(f"{name} density {value:.3e} at t = {t:.6e} s "
                              f"exceeds the clamp limit")
    bounds[2] += 1
    bounds[3] = max(bounds[3], -value / scale)
    return 0.0


def off_domain(n, s, t, bounds):
    """The state (n, s) at t of a step that left [0, inf) x [0, inf), with
    bounds[0:2] the running maxima up to the step before: raise
    DivergenceError if either density is non-finite, else clamp each
    negative one, carrier first (see clamp_density). Returns (n, s).
    The one guard of both integrate and the oracle's adaptive_reference."""
    if not (math.isfinite(n) and math.isfinite(s)):
        raise DivergenceError(f"non-finite state at t = {t:.6e} s")
    if n < 0.0:
        n = clamp_density("carrier", n, bounds[0], t, bounds)
    if s < 0.0:
        s = clamp_density("photon", s, bounds[1], t, bounds)
    return n, s


def _fold_maxima(n_out, s_out, lo, hi, k0, t_base, h, bounds):
    """Fold the states in slots lo..hi-1 of a run that stored its first
    step's end in slot k0 into the running maxima bounds[0:2]. A stored
    state is finite and non-negative or +inf, which the domain test lets
    through; the first +inf goes to off_domain, which raises at the end
    of its step, t_base + (k - k0 + 1) h for slot k."""
    n_run, s_run = np.frombuffer(n_out)[lo:hi], np.frombuffer(s_out)[lo:hi]
    top_n = float(n_run.max(initial=0.0))
    top_s = float(s_run.max(initial=0.0))
    if top_n == math.inf or top_s == math.inf:
        k = lo + int(np.argmax((n_run == math.inf) | (s_run == math.inf)))
        off_domain(n_out[k], s_out[k], t_base + (k - k0 + 1) * h, bounds)
    bounds[0] = max(bounds[0], top_n)
    bounds[1] = max(bounds[1], top_s)


def _scaled(thermal, n, s):
    """(m, u) = (gamma g0 (n - n0), g0 s), the state _rk4_run steps, as
    Python floats."""
    g0 = float(thermal.g0)
    gg = float(thermal.constants.gamma) * g0
    return gg * (float(n) - float(thermal.n0)), g0 * float(s)


def _rk4_run(m, u, j, h, count, t_base, thermal, bounds, n_out, s_out, k0):
    """count RK4 steps of length h at constant current density j.

    The step scheme of integrate, for a plan entry's whole steps or a cut
    sub-step. It steps the scaled state m = gamma g0 (n - n0), u = g0 s
    (see _scaled), in which the rate equations read

        dm/dt = a - m (1/tau_n + u)
        du/dt = u (m - 1/tau_p) + b m + e

    with a = gamma g0 (j/(q d) - n0/tau_n), b = beta_sp/tau_n and e =
    gamma g0 beta_sp n0/tau_n: 8 float operations a stage and 56 a step,
    plus 3 to store it, where the natural form takes 72. Step i's end is
    stored in natural units, n = m / (gamma g0) + n0 and s = u / g0, in
    slot k0 + i of n_out and s_out through memoryviews, which the run
    releases before it returns, so that integrate can grow the arrays
    between runs. bounds is [max_n, max_s, clamps, worst_clamp], updated
    in place. A step makes no call unless its stored state fails the
    tests n >= 0 and s >= 0, as a negative density and a nan do: it then
    folds the states stored since the last fold into bounds[0:2] (see
    _fold_maxima), so that its clamp scale is the running maximum before
    it, and off_domain raises or clamps; after a clamp (m, u) are derived
    again from the clamped (n, s). +inf passes the tests and is stored.
    It can come from a finite (m, u), as n - n0 and s are 1/(gamma g0)
    and 1/g0 times m and u, so the state may turn finite again after it.
    But a fold comes before every clamp and at the end of every run, and
    it raises at the first +inf in the slots it folds: at the end of the
    step that stored it, before a later step is clamped and before the
    run returns. Divergence messages report step i's end, t_base + (i +
    1) h. Returns the final (m, u), which integrate carries into the next
    run, so that a run of dt steps that the plan splits into entries steps
    bit for bit as the whole one.
    """
    # Python floats whatever scalars the caller passed: on numpy's, each
    # step would cost 3x as much and warn where a float overflows quietly
    c = thermal.constants
    h, j, q, d, tau_p, gamma, beta_sp, tau_n, g0, n0 = map(float, (
        h, j, c.q, c.d, c.tau_p, c.gamma, c.beta_sp, thermal.tau_n,
        thermal.g0, thermal.n0))
    gg = gamma * g0
    itn, itp = 1.0 / tau_n, 1.0 / tau_p
    a = gg * (j * (1.0 / (q * d)) - n0 * itn)
    b = beta_sp * itn
    e = gg * beta_sp * n0 * itn
    to_n, to_s = 1.0 / gg, 1.0 / g0
    hh = 0.5 * h
    sixth = h / 6.0
    folded = k0         # slots k0..folded-1 are in bounds[0:2]

    with memoryview(n_out) as n_store, memoryview(s_out) as s_store:
        for k in range(k0, k0 + count):
            k1m = a - m * (itn + u)
            k1u = u * (m - itp) + b * m + e

            ma = m + hh * k1m
            ua = u + hh * k1u
            k2m = a - ma * (itn + ua)
            k2u = ua * (ma - itp) + b * ma + e

            mb = m + hh * k2m
            ub = u + hh * k2u
            k3m = a - mb * (itn + ub)
            k3u = ub * (mb - itp) + b * mb + e

            mc = m + h * k3m
            uc = u + h * k3u
            k4m = a - mc * (itn + uc)
            k4u = uc * (mc - itp) + b * mc + e

            m = m + sixth * (k1m + 2.0 * (k2m + k3m) + k4m)
            u = u + sixth * (k1u + 2.0 * (k2u + k3u) + k4u)
            n = m * to_n + n0
            s = u * to_s

            if not (n >= 0.0 and s >= 0.0):     # a negative density or a nan
                _fold_maxima(n_out, s_out, folded, k, k0, t_base, h, bounds)
                folded = k
                n, s = off_domain(n, s, t_base + (k - k0 + 1) * h, bounds)
                m, u = _scaled(thermal, n, s)
            n_store[k] = n
            s_store[k] = s

    _fold_maxima(n_out, s_out, folded, k0 + count, k0, t_base, h, bounds)
    return m, u


def integrate(thermal, drive, dt, t_end, initial=None):
    """Integrate thermal's rate equations from 0 to t_end on the grid k * dt.

    The run ends at the grid point nearest t_end, after round(t_end / dt)
    steps of dt: a t_end that is not a whole number of steps moves to the
    grid, by at most dt / 2.

    initial defaults to the DC operating point (n_dc, steady_state_s(n_dc)).
    That start is not a fixed point of the 2-D system: at n_dc the photon
    density still drives absorption, so under DC drive n relaxes upward
    over a few tau_n to the joint fixed point, by about 7.5e-4 (relative)
    with the default profile. The step is dt, except in each pulse's head
    and after each fall edge. The head starts HEAD_LEAD photon lifetimes
    after the rising edge and takes whole steps of K_h dt up to the last
    grid point before HEAD_FRACTION of the turn-on delay, which
    turn_on_delay gives from the carriers the edge finds; K_h is at most
    HEAD_STRIDE and keeps h lambda(n) <= TAIL_STABILITY at that n, where
    the photon loss rate lambda is largest over the head (K_h = 4 at the
    default profile and dt). A pulse whose carriers never reach threshold
    in the closed form, or start at or above it, takes no head. After a
    fall edge the stages are timed from the threshold crossing, the
    first stored sample after the edge with n < n_th (see walk_plan):
    from TAIL_DELAY photon lifetimes past it, in the DC tail, whole steps
    of K dt, the longest multiple of dt that keeps h * lambda_max <=
    TAIL_STABILITY (K = 12, 1.2 ps, at the default profile and dt), and
    before it the ladder's stages (TAIL_LADDER: 2 dt from 12 and 4 dt
    from 20 photon lifetimes past it), each stride at most K. From
    FLOOR_DELAY photon lifetimes past it, the floor stage takes K_f dt,
    bounded by the photon loss rate at the carriers' floor n_dc (K_f =
    16-18 at the default profile and dt), where K_f exceeds K. So no
    stage starts at or above threshold, and a segment whose carriers stay
    there to its end runs on dt. In the head the photon density sits near
    its quasi-steady level and in the tail the photon transient has all
    but died out, while the carriers move on tau_n, so the longer steps
    cost the states little, and extract_metrics integrates the energy from
    each step's Hermite interpolant, so they cost it little too.
    integrate runs each entry of the plan as walk_plan yields it: the
    sub-steps before its off-grid edges into its first step's slot, then
    its whole steps (a cut step's last part), storing each step's end.
    The stored states go into arrays that grow by each entry's steps, so
    that walk_plan reads the samples stored before it plans the next
    entry; the grid indices come from the entries taken, which
    Trajectory.plan keeps, runs of equal steps merged.
    Each run of steps folds the states it stored into the running maxima
    once, when it ends, and a step that leaves the domain folds them first
    (see _rk4_run). IntegrationStats counts the steps taken. Raises
    DriveError for a dt, t_end or initial state that gives no run, or a
    grid of more than MAX_STEPS steps of dt (a stride's quotient past
    MAX_STEPS is capped there, see whole_steps), and DivergenceError if the
    state leaves the physical domain by more than roundoff: a negative
    density past the clamp limit or a non-finite one (see _rk4_run).
    """
    check_range(dt, "dt", "(0, inf)", DriveError)
    check_range(t_end, "t_end", "(0, inf)", DriveError)
    if t_end < dt:
        raise DriveError(f"t_end={t_end!r} s must cover at least one step "
                         f"of dt={dt!r} s")
    if t_end / dt > MAX_STEPS:
        raise DriveError(f"t_end={t_end!r} s at dt={dt!r} s takes more than "
                         f"{MAX_STEPS} steps")
    n, s = initial_state(thermal, initial)
    dt = float(dt)      # a Python float, as _rk4_run's terms are
    c = thermal.constants
    gain = c.gamma * thermal.g0
    h_max = TAIL_STABILITY / (1.0 / c.tau_p + gain * thermal.n0)
    k_max = max(1, whole_steps(h_max, dt))
    # the floor stage's stride, from bounds (a), (b) and (c) of FLOOR_DELAY
    h_floor = min(TAIL_STABILITY / (1.0 / c.tau_p
                                    - gain * (thermal.n_dc - thermal.n0)),
                  1.5 * h_max)
    k_floor = min(whole_steps(h_floor, dt),
                  math.floor(thermal.tau_n / (10.0 * c.tau_p)))
    stages = [(delay, min(stride, k_max))
              for delay, stride in (*TAIL_LADDER, (TAIL_DELAY, k_max))]
    if k_floor > k_max:
        stages.append((FLOOR_DELAY, k_floor))

    def lag(delay):
        """delay photon lifetimes in whole grid steps, rounded up; a delay
        past the run starts no stage, and t_end keeps the quotient finite"""
        k, on = grid_floor(min(delay * c.tau_p, t_end), dt)
        return k if on else k + 1

    tail = [(lag(delay), stride) for delay, stride in stages if stride > 1]
    lead = lag(HEAD_LEAD)
    q_d = c.q * c.d

    def head(n, j):
        """(lead, stride, length) in grid steps of the head of a pulse at
        J = j whose rising edge finds the carriers at n (see HEAD_STRIDE),
        or None where the closed-form t_on is not finite, the head would
        end before its lead or the stride would be dt (a head longer than
        its lead starts a ramp of more than a step below n_th, where the
        photon loss rate is positive)"""
        t_on = turn_on_delay(n, thermal.n_th, float(j) * thermal.tau_n / q_d,
                             thermal.tau_n)
        length = whole_steps(HEAD_FRACTION * t_on, dt) if t_on < math.inf \
            else 0
        if length <= lead:
            return None
        loss = 1.0 / c.tau_p - gain * (n - thermal.n0)
        stride = min(whole_steps(TAIL_STABILITY / loss, dt), HEAD_STRIDE)
        return (lead, stride, length) if stride > 1 else None

    n_out = array("d", [n])
    s_out = array("d", [s])
    bounds = [n if n > 0.0 else 1.0, s if s > 0.0 else 1.0, 0, 0.0]
    m, u = _scaled(thermal, n, s)   # carried from run to run, see _rk4_run
    split = 0
    k = 1               # the slot of the next stored state
    plan = []           # the entries taken, runs of equal steps merged
    for entry in walk_plan(drive, dt, int(round(t_end / dt)), tail, head,
                           thermal.n_th, n_out):
        i0, i1, stride, parts = entry
        *cut, (h, j) = parts
        count = (i1 - i0) // stride
        if k + count > len(n_out):
            more = array("d", [0.0]) * (k + count - len(n_out))
            n_out += more
            s_out += more
        t_sub = i0 * dt
        for h_cut, j_cut in cut:
            m, u = _rk4_run(m, u, j_cut, h_cut, 1, t_sub, thermal, bounds,
                            n_out, s_out, k)
            t_sub += h_cut
        split += len(parts) > 1
        m, u = _rk4_run(m, u, j, h, count, t_sub, thermal, bounds,
                        n_out, s_out, k)
        k += count
        if plan and plan[-1][1] == i0 and plan[-1][2:] == entry[2:]:
            plan[-1] = (plan[-1][0], *entry[1:])
        else:
            plan.append(entry)

    # the grid index of each sample, from the entries' strides
    index = np.repeat([0, *(stride for _, _, stride, _ in plan)],
                      [1, *((i1 - i0) // stride
                            for i0, i1, stride, _ in plan)])
    np.cumsum(index, out=index)
    stats = IntegrationStats(steps=k - 1, split_steps=split,
                             clamps=bounds[2], worst_clamp=bounds[3])
    return Trajectory(dt=dt, n=np.frombuffer(n_out), s=np.frombuffer(s_out),
                      thermal=thermal, drive=drive, stats=stats, index=index,
                      plan=tuple(plan))


TRAJECTORY_COLUMNS = (("time_s", attrgetter("times")),
                      ("n_m3", attrgetter("n")), ("s_m3", attrgetter("s")))


def write_trajectory_csv(traj, stream, decimate=1):
    """Write every decimate-th sample as a time_s,n_m3,s_m3 CSV row."""
    check_integer(decimate, "decimate", 1)
    rows.write_array_csv(TRAJECTORY_COLUMNS, traj, stream, every=decimate)

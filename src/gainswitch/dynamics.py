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
the grid k * dt, except after each pulse's fall edge, where whole runs
of coarser steps jump from grid point to grid point: 2 dt from 20 and
4 dt from 30 photon lifetimes on (TAIL_LADDER), then, in the DC tail,
a stability-bounded multiple of dt (see TAIL_STABILITY), and from 60
photon lifetimes on a longer one, bounded at the carriers' floor (see
FLOOR_DELAY). Only grid points are stored, each with its grid index, so
the samples are not evenly spaced: sample times are index * dt.
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

# the tail starts this many photon lifetimes tau_p after each fall edge
# (200 ps at the default 5 ps): by then the photon density has fallen
# from the pulse to near the quasi-steady level that n sets (within 13 %
# for the default profile's pulses at 15-45 C), and what is left is the
# carriers' relaxation, on tau_n. A tail whose carriers are still at or
# above threshold there (net gain: the pulse is not over) stays on dt
TAIL_DELAY = 40

# the ladder between the fall edge and the tail: (delay in tau_p, stride
# in dt) stages, each stride capped at the tail's. RK4 misses about
# (h mu)^5 / 120 of a component that moves at rate mu in each step (the
# first term of e^z past its polynomial). Each stage is stable, its h *
# lambda_max being 0.24 and 0.48 at the default profile and dt, 3x and 6x
# inside TAIL_STABILITY. The photon density moves at |ds/dt|/s, which
# for the default profile's pulses at 15-45 C is at most 0.13 /ps at
# 20 tau_p and 0.09 /ps at 30 tau_p (0.003 /ps for most of them; the 35
# and 40 C decoys, whose n lies near threshold longest, are the slow
# ones). So h mu <= 0.026 in the 0.2 ps steps and <= 0.035 in the 0.4 ps
# steps: at most 1e-10 and 4e-10 of s per step, 5e-8 and 1e-7 over the
# 500 and 250 steps of the stages, no more than the pulse's own error on
# dt, (dt / tau_p)^4 = 1.6e-7. At 20 tau_p, 0.4 ps steps would reach 8e-7
TAIL_LADDER = ((20, 2), (30, 4))

# the carrier-floor stage starts this many photon lifetimes after each
# fall edge, where the tail is left to the carriers' relaxation on tau_n.
# Its stride K_f is the longest whole multiple of dt that meets three
# bounds, and the stage exists only where K_f exceeds the tail's K (at
# the default profile and dt, K_f = 18 at 15 C to 16 at 45 C, K = 12).
# (a) In the DC tail the carriers stay at or above n_dc, the photon-free
# balance (at n_dc < n0 absorption feeds them: dn/dt = g0 (n0 - n_dc) s),
# so the photon loss rate lambda(n) = 1/tau_p - gamma g0 (n - n0) is at
# most lambda(n_dc), 1.3-1.5x below lambda_max at the default profile:
# h lambda(n_dc) <= TAIL_STABILITY keeps the tail's damping per step.
# (b) Should n fall below n_dc, h lambda_max <= 1.5 TAIL_STABILITY =
# 2.25 keeps RK4 stable at any n >= 0 (its bound is 2.785), so the stage
# needs no guard beyond the threshold one. (c) The carriers move at rate
# 1/tau_n, and h / tau_n <= dt / (10 tau_p), K_f <= tau_n / (10 tau_p):
# RK4 misses at most (h / tau_n)^5 / 120 of n per step, and over the
# stage's tau_n / h steps a share (h / tau_n)^4 / 120 <= 1e-4 (dt /
# tau_p)^4 / 120, far below the pulse's own error (dt / tau_p)^4 and
# shrinking as dt^4 (at 50 fs, (c) gives K_f <= K and there is no
# stage). The delay is where what is left of the photon transient costs
# the samples no more than the tests' 1e-7 in s: against an all-fine run
# of the default profile's pulses the worst deviation in s is 8.9e-8
# (6.2e-8 without the stage); from 40, 50 and 80 tau_p it would be
# 2.0e-7, 1.0e-7 and 7.8e-8
FLOOR_DELAY = 60


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
    the step plan integrate took (see step_plan), stages kept fine by
    the threshold guard included: step_slopes bisects it for a step's J.
    """

    dt: float                   # s, the fine step: the grid is k * dt
    n: np.ndarray               # m^-3
    s: np.ndarray               # m^-3
    thermal: object             # ThermalState, its LaserConstants included
    drive: DriveWaveform
    stats: IntegrationStats
    index: np.ndarray           # grid index of each sample, increasing
    plan: tuple                 # (i0, i1, stride, parts) runs; step_slopes

    @property
    def times(self):
        """Sample times, s."""
        return self.index * self.dt

    def step_slopes(self, k):
        """((dn/dt, ds/dt) at its start, (dn/dt, ds/dt) at its end) of the
        step that starts at sample k, as Python floats. Each end takes the
        J of the segment it lies in, from bisecting the kept plan (the two
        differ only in a step that an off-grid edge cuts)."""
        parts = self.plan[bisect_right(self.plan, int(self.index[k]),
                                       key=itemgetter(0)) - 1][3]
        n, s, th = self.n, self.s, self.thermal
        j0, j1 = parts[0][1], parts[-1][1]
        return (derivatives((float(n[k]), float(s[k])), j0, th),
                derivatives((float(n[k + 1]), float(s[k + 1])), j1, th))


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


def step_plan(drive, dt, steps, tail):
    """Group grid steps 0..steps-1 of size dt by the drive's segments.

    Returns (i0, i1, stride, parts) tuples in time order that cover every
    grid step once. parts lists (length, J) sub-steps: a run of whole
    steps from grid point i0 to i1 inside one segment has stride grid
    steps per step and parts ((stride * dt, J),); a step that off-grid
    edges cut has i1 == i0 + 1, stride 1 and one part per side of each
    edge. tail lists (delay, stride) stages in s and grid steps, by
    increasing delay: in the DC segment after each fall edge, stage m's
    steps are stride grid steps long, from the first grid point at or
    after fall + delay, or from where the stage before it stopped if
    later, up to the last one that fits before the next stage's start
    (the segment's end for the last stage). Every other step is dt, as are
    the steps of a stage of stride 1. The plan has O(edges) entries
    whatever the step count.
    """
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
        if t0 > 0.0 and j == drive.j_dc:
            starts = []
            for delay, _ in tail:
                k, on = grid_floor(t0 + delay, dt)
                starts.append(k if on else k + 1)
            for (_, stride), start, stop in zip(tail, starts,
                                                starts[1:] + [end]):
                start = max(i, start)
                coarse = (min(stop, end) - start) // stride * stride
                if stride > 1 and coarse > 0:
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


def _rk4_run(n, s, j, h, count, t_base, thermal, bounds, n_out, s_out, k0):
    """count RK4 steps of length h at constant current density j.

    The step scheme of integrate, for a plan entry's whole steps or a cut
    sub-step: bounds is [max_n, max_s, clamps, worst_clamp], updated in
    place. Step i's end is written to slot k0 + i of n_out and s_out
    through memoryviews, which the run releases before it returns, so
    that integrate can grow the arrays between runs. A step makes no
    call unless it fails the tests n >= 0 and s >= 0, as a negative
    density and a nan do: it then folds the states stored since the last
    fold into bounds[0:2] (see _fold_maxima), so that its clamp scale is
    the running maximum before it, and off_domain raises or clamps.
    +inf passes the tests and is stored. The fold at the end of the run
    finds it, or the fold of a later failing step does: from +inf the
    state never turns finite again, so the next step fails the tests and
    no clamp comes between. Either fold raises at the end of the step
    that stored the first +inf. Divergence messages report step i's end,
    t_base + (i + 1) h. Returns the final (n, s).
    """
    # Python floats whatever scalars the caller passed: on numpy's, each
    # step would cost 3x as much and warn where a float overflows quietly
    c = thermal.constants
    h, j, q, d, tau_p, gamma, beta_sp, tau_n, g0, n0 = map(float, (
        h, j, c.q, c.d, c.tau_p, c.gamma, c.beta_sp, thermal.tau_n,
        thermal.g0, thermal.n0))
    jq = j * (1.0 / (q * d))
    itn, itp = 1.0 / tau_n, 1.0 / tau_p
    gg = gamma * g0
    sp = gamma * beta_sp * itn
    hh = 0.5 * h
    sixth = h / 6.0
    folded = k0         # slots k0..folded-1 are in bounds[0:2]

    with memoryview(n_out) as n_store, memoryview(s_out) as s_store:
        for k in range(k0, k0 + count):
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

            if not (n >= 0.0 and s >= 0.0):     # a negative density or a nan
                _fold_maxima(n_out, s_out, folded, k, k0, t_base, h, bounds)
                folded = k
                n, s = off_domain(n, s, t_base + (k - k0 + 1) * h, bounds)
            n_store[k] = n
            s_store[k] = s

    _fold_maxima(n_out, s_out, folded, k0 + count, k0, t_base, h, bounds)
    return n, s


def integrate(thermal, drive, dt, t_end, initial=None):
    """Integrate thermal's rate equations from 0 to t_end on the grid k * dt.

    The run ends at the grid point nearest t_end, after round(t_end / dt)
    steps of dt: a t_end that is not a whole number of steps moves to the
    grid, by at most dt / 2.

    initial defaults to the DC operating point (n_dc, steady_state_s(n_dc)).
    That start is not a fixed point of the 2-D system: at n_dc the photon
    density still drives absorption, so under DC drive n relaxes upward
    over a few tau_n to the joint fixed point, by about 7.5e-4 (relative)
    with the default profile. The step is dt, except after each fall
    edge (see step_plan): from TAIL_DELAY photon lifetimes on, in the DC
    tail, whole steps of K dt, the longest multiple of dt that keeps h *
    lambda_max <= TAIL_STABILITY (K = 12, 1.2 ps, at the default profile
    and dt), and before it the ladder's stages (TAIL_LADDER: 2 dt from 20
    and 4 dt from 30 photon lifetimes on), each stride at most K. From
    FLOOR_DELAY photon lifetimes on, the floor stage takes K_f dt, bounded
    by the photon loss rate at the carriers' floor n_dc (K_f = 16-18 at
    the default profile and dt), where K_f exceeds K. A stage whose start
    finds n at or above threshold stays on dt. The photon transient has
    all but died out by then and the carriers move on tau_n, so the
    longer steps cost the states little, and extract_metrics integrates
    the energy from each step's Hermite interpolant, so they cost it
    little too. Every plan entry runs the sub-steps before its
    off-grid edges into its first step's slot, then its whole steps (a cut
    step's last part), storing each step's end and its index. The stored
    states go into arrays sized once from the plan, one slot per planned
    step, which grow only where the threshold guard keeps a stage on dt.
    Each run of steps folds the states it stored into the running maxima
    once, when it ends, and a step that leaves the domain folds them first
    (see _rk4_run). IntegrationStats counts the steps taken. Raises
    DriveError for a dt, t_end or initial state that gives no run, or a
    grid of more than MAX_STEPS steps of dt, and DivergenceError if the
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
    k_max = max(1, math.floor(h_max / dt))
    tail = tuple((delay * c.tau_p, min(stride, k_max))
                 for delay, stride in (*TAIL_LADDER, (TAIL_DELAY, k_max)))
    # the floor stage's stride, from bounds (a), (b) and (c) of FLOOR_DELAY
    h_floor = min(TAIL_STABILITY / (1.0 / c.tau_p
                                    - gain * (thermal.n_dc - thermal.n0)),
                  1.5 * h_max)
    k_floor = min(math.floor(h_floor / dt),
                  math.floor(thermal.tau_n / (10.0 * c.tau_p)))
    if k_floor > k_max:
        tail += ((FLOOR_DELAY * c.tau_p, k_floor),)
    plan = step_plan(drive, dt, int(round(t_end / dt)), tail)

    size = 1 + sum((i1 - i0) // stride for i0, i1, stride, _ in plan)
    n_out = array("d", [n]) * size
    s_out = array("d", [s]) * size
    runs = [np.zeros(1, dtype=np.int64)]     # grid indices, run by run
    bounds = [n if n > 0.0 else 1.0, s if s > 0.0 else 1.0, 0, 0.0]
    split = 0
    k = 1               # the slot of the next stored state
    for e, (i0, i1, stride, parts) in enumerate(plan):
        *cut, (h, j) = parts
        if stride > 1 and n >= thermal.n_th:
            # net gain at the stage's start: the pulse is not over
            more = array("d", [0.0]) * (i1 - i0 - (i1 - i0) // stride)
            n_out += more
            s_out += more
            stride, h = 1, dt
            plan[e] = (i0, i1, stride, ((h, j),))
        t_sub = i0 * dt
        for h_cut, j_cut in cut:
            n, s = _rk4_run(n, s, j_cut, h_cut, 1, t_sub, thermal, bounds,
                            n_out, s_out, k)
            t_sub += h_cut
        split += len(parts) > 1
        count = (i1 - i0) // stride
        n, s = _rk4_run(n, s, j, h, count, t_sub, thermal, bounds,
                        n_out, s_out, k)
        k += count
        runs.append(np.arange(i0 + stride, i1 + 1, stride))

    index = np.concatenate(runs)
    stats = IntegrationStats(steps=len(index) - 1, split_steps=split,
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

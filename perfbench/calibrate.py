"""Measure how fast this host runs, during the work being timed.

The benchmark's host is a shared 2-vCPU machine whose speed for
interpreter-bound code drifts by tens of percent within seconds and over
minutes. The drift hits a fixed loop and gainswitch alike, so while a pass
runs, a Sampler interrupts it every INTERVAL_S (SIGALRM) to time a short
fixed probe loop, and subtracts the interruptions from the pass time. The
benchmark then reports times at the reference speed:

    reported = (measured - probe time) x REFERENCE_S / mean probe time

The probe is an RK4 integration of a driven, damped oscillator with a
rectangular forcing term: the same mix of float arithmetic, small function
calls, branches and list appends as gainswitch's inner loops. It never
changes with the package, so a faster gainswitch shows as a shorter
reported time while a slower host does not.
"""

import signal
import statistics
import time

PROBE_STEPS = 1_000
INTERVAL_S = 0.05
# mean probe seconds on the host the baseline was recorded on (README.md)
REFERENCE_S = 2.0e-3


def _rhs(t, x, v):
    return v, -x - 0.01 * v + (1.0 if t < 0.5 else 0.0)


def probe():
    """Seconds this host takes for the fixed loop, now."""
    start = time.perf_counter()
    x, v, h = 1.0, 0.0, 1e-3
    xs = []
    for i in range(PROBE_STEPS):
        t = i * h
        a1, b1 = _rhs(t, x, v)
        a2, b2 = _rhs(t + 0.5 * h, x + 0.5 * h * a1, v + 0.5 * h * b1)
        a3, b3 = _rhs(t + 0.5 * h, x + 0.5 * h * a2, v + 0.5 * h * b2)
        a4, b4 = _rhs(t + h, x + h * a3, v + h * b3)
        x += h / 6.0 * (a1 + 2.0 * (a2 + a3) + a4)
        v += h / 6.0 * (b1 + 2.0 * (b2 + b3) + b4)
        xs.append(x)
    return time.perf_counter() - start


class Sampler:
    """Context manager: probe the host every INTERVAL_S of wall time.

    After exit, ``seconds`` is the block's wall time minus the time spent
    in probes, and ``cal_s`` the mean probe time (probes are taken after
    the block if it was too short to be interrupted). ``spent[0]`` is the
    running probe time, for timers inside the block that must exclude it.
    """

    def __init__(self):
        self.samples = []
        self.spent = [0.0]
        self.seconds = None
        self.cal_s = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent[0] += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = elapsed - self.spent[0]
        while len(self.samples) < 5:
            self.samples.append(probe())
        self.cal_s = statistics.fmean(self.samples)
        return False

    def scaled(self):
        """The block's time at the reference speed."""
        return self.seconds * REFERENCE_S / self.cal_s

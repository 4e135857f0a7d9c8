"""Brute-force cross-checks for the closed-form and integrator paths.

Everything here trades speed for independence: count rates are evaluated
as explicitly truncated Poisson sums, and the integrator's pulse peak is
checked against an adaptive Dormand-Prince 5(4) run (adaptive_reference)
that steps the drive's segments directly. It shares with `integrate` only
the start state (`initial_state`), the segments (`DriveWaveform.segments`,
tested against `current`) and the clamp guard (`clamp_density`); its
grid, scheme, step control, right-hand side (divisions by the lifetimes)
and peak finder (bisection on ds/dt = 0, not the Hermite interpolant of
`extract_metrics`) are its own. Its step is written out stage by stage
from the tableau (_DP_A, _DP_E), around that right-hand side.
"""

import math
from dataclasses import dataclass, fields
from operator import attrgetter

from . import attack as atk
from . import rows
from .dynamics import DEFAULT_DT_PULSE, clamp_density, initial_state
from .errors import (ConfigError, DivergenceError, TruncationError,
                     check_integer)
from .sweeps import run_pulse_scenario

POISSON_TAIL_LIMIT = 1e-15

# adaptive_reference: relative error per step, and the most steps it tries
REFERENCE_RTOL = 1e-10
MAX_REFERENCE_STEPS = 10**6

# Dormand-Prince 5(4) stages 2..7 (Hairer, Norsett & Wanner, Table II.5.2);
# stage 7 lies at the 5th-order solution, so its row is also the weights.
# _DP_E: 5th- minus 4th-order weights. Each quotient folds at compile time.
_DP_A = ((1 / 5,),
         (3 / 40, 9 / 40),
         (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
         (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
         22 / 525, -1 / 40)


@dataclass(frozen=True)
class OracleReport:
    """One cross-check outcome."""

    quantity: str
    main_value: float
    oracle_value: float
    deviation: float    # relative unless the quantity says otherwise
    tolerance: float
    passed: bool


def _report(quantity, main_value, oracle_value, tolerance, absolute=False):
    if absolute:
        deviation = abs(main_value - oracle_value)
    else:
        scale = max(abs(main_value), abs(oracle_value), 1e-300)
        deviation = abs(main_value - oracle_value) / scale
    return OracleReport(quantity=quantity, main_value=main_value,
                        oracle_value=oracle_value, deviation=deviation,
                        tolerance=tolerance, passed=deviation <= tolerance)


def _poisson_weights(mean, n_max):
    """Poisson pmf values 0..n_max with an explicit tail bound check."""
    check_integer(n_max, "n_max")
    if not n_max >= 20:
        raise ConfigError(f"n_max must be at least 20, got {n_max!r}")
    if not 0 <= mean < math.inf:
        raise ConfigError(
            f"mean must be non-negative and finite, got {mean!r}")
    weights = []
    w = math.exp(-mean)
    for n in range(n_max + 1):
        weights.append(w)
        w *= mean / (n + 1)
    # geometric bound: terms past n_max shrink by at least mean/(n_max+2)
    ratio = mean / (n_max + 2)
    if ratio >= 1.0:
        raise TruncationError(f"mean {mean} too large for n_max {n_max}")
    tail = w / (1.0 - ratio)
    if tail >= POISSON_TAIL_LIMIT:
        raise TruncationError(
            f"Poisson tail bound {tail:.3e} exceeds {POISSON_TAIL_LIMIT:.0e} "
            f"(mean {mean}, n_max {n_max})")
    return weights


def poisson_gain_oracle(mean, eta, y0, n_max=60):
    """Count rate as an explicit photon-number sum over untouched yields,
    for a transmittance eta in [0, 1] and a dark count rate y0."""
    if not (0.0 <= eta <= 1.0 and 0.0 <= y0 < math.inf):
        raise ConfigError(f"need eta in [0, 1] and finite y0 >= 0, got "
                          f"eta={eta!r}, y0={y0!r}")
    weights = _poisson_weights(mean, n_max)
    return math.fsum(w * atk.yield_n(n, eta, y0)
                     for n, w in enumerate(weights))


def decoy_attacked_gain_oracle(scenario, eta_prime, p_block, n_max=60):
    """Attacked decoy count rate, summed term by term.

    Eve blocks a forwarded single photon with probability p_block; pulses
    with two or more photons pass with the plain multiphoton yield.
    """
    nu_prime = scenario.beta_d * scenario.nu
    weights = _poisson_weights(nu_prime, n_max)
    y0 = scenario.y0
    seen = math.fsum(w * ((1.0 - p_block) * eta_prime + y0 if n == 1
                          else atk.yield_n(n, eta_prime, y0))
                     for n, w in enumerate(weights))
    return scenario.p_dis * seen + (1.0 - scenario.p_dis) * y0


def signal_attacked_gain_oracle(scenario, eta_prime, n_max=60):
    """Attacked signal count rate, summed term by term.

    Multiphoton pulses are split and exactly one photon is forwarded
    (yield eta_prime + y0); vacuum and single-photon pulses are blocked and
    contribute dark counts only.
    """
    mu_prime = scenario.alpha * scenario.mu
    weights = _poisson_weights(mu_prime, n_max)
    y0 = scenario.y0
    forwarded = eta_prime + y0
    seen = math.fsum(w * (forwarded if n >= 2 else y0)
                     for n, w in enumerate(weights))
    return scenario.p_dis * seen + (1.0 - scenario.p_dis) * y0


@dataclass(frozen=True)
class ReferenceRun:
    """What adaptive_reference found, and the steps it took."""

    t_peak: float     # s from the first rising edge; nan without a peak
    s_max: float      # m^-3, s at t_peak; nan without a peak
    n_end: float      # m^-3, at t_end
    s_end: float      # m^-3, at t_end
    accepted: int
    rejected: int


def _dp_stepper(rhs):
    """One Dormand-Prince step, written out from _DP_A and _DP_E.

    dp_step(n, s, k1, h) gives (5th-order state, slope there, 5th- minus
    4th-order state) from the start state and its slope k1 = rhs(n, s).
    Each stage sums its row in the tableau's order, 0.0 coefficients
    included, so a non-finite slope reaches every later stage.
    """
    ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (a71, a72, a73, a74, a75, a76)) = _DP_A
    e1, e2, e3, e4, e5, e6, e7 = _DP_E

    def dp_step(n, s, k1, h):
        k1n, k1s = k1
        k2n, k2s = rhs(n + h * (a21 * k1n), s + h * (a21 * k1s))
        k3n, k3s = rhs(n + h * (a31 * k1n + a32 * k2n),
                       s + h * (a31 * k1s + a32 * k2s))
        k4n, k4s = rhs(n + h * (a41 * k1n + a42 * k2n + a43 * k3n),
                       s + h * (a41 * k1s + a42 * k2s + a43 * k3s))
        k5n, k5s = rhs(
            n + h * (a51 * k1n + a52 * k2n + a53 * k3n + a54 * k4n),
            s + h * (a51 * k1s + a52 * k2s + a53 * k3s + a54 * k4s))
        k6n, k6s = rhs(
            n + h * (a61 * k1n + a62 * k2n + a63 * k3n + a64 * k4n
                     + a65 * k5n),
            s + h * (a61 * k1s + a62 * k2s + a63 * k3s + a64 * k4s
                     + a65 * k5s))
        y = (n + h * (a71 * k1n + a72 * k2n + a73 * k3n + a74 * k4n
                      + a75 * k5n + a76 * k6n),
             s + h * (a71 * k1s + a72 * k2s + a73 * k3s + a74 * k4s
                      + a75 * k5s + a76 * k6s))
        k7 = rhs(*y)
        k7n, k7s = k7
        return y, k7, (h * (e1 * k1n + e2 * k2n + e3 * k3n + e4 * k4n
                            + e5 * k5n + e6 * k6n + e7 * k7n),
                       h * (e1 * k1s + e2 * k2s + e3 * k3s + e4 * k4s
                            + e5 * k5s + e6 * k6s + e7 * k7s))

    return dp_step


def adaptive_reference(thermal, constants, drive, t_end, initial=None):
    """Dormand-Prince 5(4) run with step control, for cross-checks only.

    Each drive segment is stepped up to its edge, where its last step is
    clipped, and the next starts with a fresh first stage at its J. Error
    norm and step update follow Hairer, Norsett & Wanner, Solving ODEs I,
    II.4; the first trial step is tau_p / 1000. ds/dt does not depend on
    J, so each maximum of s lies in an accepted step whose ds/dt goes from
    + to -; there one DP step's length is bisected to ds/dt = 0, and the
    highest maximum is the peak. The step (_dp_stepper) is written out
    from _DP_A and _DP_E and calls this run's own right-hand side, which
    divides by tau_n and tau_p. Raises DriveError for a bad initial
    state, and DivergenceError for a non-finite state or error estimate, a
    badly negative density or more than MAX_REFERENCE_STEPS attempts.
    """
    n, s = initial_state(thermal, constants, initial)
    tau_n, tau_p = thermal.tau_n, constants.tau_p
    g0, n0, gamma = thermal.g0, thermal.n0, constants.gamma
    gamma_beta = constants.gamma * constants.beta_sp

    def rhs(n, s):
        gain = g0 * (n - n0)
        return (jq - n / tau_n - gain * s,
                gamma * gain * s - s / tau_p + gamma_beta * n / tau_n)

    dp_step = _dp_stepper(rhs)

    def peak(n, s, k1, h):
        """(theta, s) where ds/dt = 0 in a step whose ds/dt goes + to -."""
        lo, hi = 0.0, h
        while True:
            mid = 0.5 * (lo + hi)
            (_, s_mid), (_, ds_dt), _ = dp_step(n, s, k1, mid)
            if ds_dt == 0.0 or not lo < mid < hi:
                return mid, s_mid
            lo, hi = (mid, hi) if ds_dt > 0.0 else (lo, mid)

    bounds = [n if n > 0.0 else 1.0, s if s > 0.0 else 1.0, 0, 0.0]
    h = 1e-3 * tau_p
    accepted = rejected = 0
    peaks = []
    for t, t1, j in drive.segments(t_end):
        jq = j / (constants.q * constants.d)    # rhs reads it
        k1 = rhs(n, s)
        while t < t1:
            if accepted + rejected >= MAX_REFERENCE_STEPS:
                raise DivergenceError(
                    f"adaptive reference needs more than "
                    f"{MAX_REFERENCE_STEPS} steps; stopped at t = {t:.6e} s")
            clipped = t + h >= t1
            step = t1 - t if clipped else h
            (n1, s1), k7, (en, es) = dp_step(n, s, k1, step)
            # RMS of e_i / (1 m^-3 + REFERENCE_RTOL max(|y_i|, |y1_i|))
            err = math.sqrt(0.5 * (
                (en / (1.0 + REFERENCE_RTOL * max(abs(n), abs(n1)))) ** 2
                + (es / (1.0 + REFERENCE_RTOL * max(abs(s), abs(s1)))) ** 2))
            if not math.isfinite(err + n1 + s1):
                raise DivergenceError(
                    f"non-finite state at t = {t + step:.6e} s")
            h = step * (max(0.2, min(5.0, 0.9 * err ** -0.2)) if err > 0.0
                        else 5.0)
            if err > 1.0:
                rejected += 1
                continue
            accepted += 1
            if k1[1] > 0.0 >= k7[1]:
                theta, s_top = peak(n, s, k1, step)
                peaks.append((s_top, t + theta))
            t = t1 if clipped else t + step
            if n1 < 0.0 or s1 < 0.0:
                if n1 < 0.0:
                    n1 = clamp_density("carrier", n1, bounds[0], t, bounds)
                if s1 < 0.0:
                    s1 = clamp_density("photon", s1, bounds[1], t, bounds)
                k7 = rhs(n1, s1)
            n, s, k1 = n1, s1, k7
            bounds[0], bounds[1] = max(bounds[0], n), max(bounds[1], s)

    s_max, t_at = max(peaks, default=(math.nan, math.nan))
    return ReferenceRun(t_peak=t_at - drive.edge_time(0), s_max=s_max,
                        n_end=n, s_end=s, accepted=accepted,
                        rejected=rejected)


def run_verification_suite(profile, quick=False):
    """Cross-check the closed forms and the integrator; returns OracleReports.

    quick=True skips the trajectory checks: the integrator against
    adaptive_reference, and against itself at half the step.

    The dt_halving_* rows halve the fine step only. Both of their 0.5 ns
    runs take the DC tail, from 300 ps on, in steps of floor(h_max/dt) dt,
    which is 0.8 ps at 100 fs (K = 8) and at 50 fs (K = 16). t_on, t_peak
    and s_max lie before the tail, so their rows compare two step sizes;
    pulse_energy's row halves the step of its sum before the tail only.
    """
    sc = profile.attack
    length = 100.0
    eta = atk.channel_transmittance(sc.eta0, sc.delta_db_per_km, length)
    sol = atk.solve_attack(sc, length)
    reports = [
        _report("count_rate_signal_vs_poisson_sum",
                atk.count_rate_no_attack(sc.mu, eta, sc.y0),
                poisson_gain_oracle(sc.mu, eta, sc.y0), 1e-12),
        _report("count_rate_decoy_vs_poisson_sum",
                atk.count_rate_no_attack(sc.nu, eta, sc.y0),
                poisson_gain_oracle(sc.nu, eta, sc.y0), 1e-12),
        _report("decoy_attacked_vs_poisson_sum",
                atk.count_rate_decoy_attacked(sc, 0.01, 0.5),
                decoy_attacked_gain_oracle(sc, 0.01, 0.5), 1e-12),
        _report("signal_attacked_vs_poisson_sum",
                atk.count_rate_signal_attacked(sc, 0.01),
                signal_attacked_gain_oracle(sc, 0.01), 1e-12),
        _report("signal_balance_residual", sol.residual_signal, 0.0, 1e-10,
                absolute=True),
        _report("decoy_balance_residual", sol.residual_decoy, 0.0, 1e-10,
                absolute=True)]

    if quick:
        return reports

    horizon = 0.5e-9
    thermal, main, main_pm = run_pulse_scenario(profile, 25.0, t_end=horizon)
    ref = adaptive_reference(thermal, profile.constants, main.drive, horizon)
    reports += [
        _report("integrator_smax_vs_fine_step", main_pm.s_max, ref.s_max,
                5e-3),
        _report("integrator_tpeak_vs_fine_step", main_pm.t_peak, ref.t_peak,
                1e-12, absolute=True)]

    _, _, halved_pm = run_pulse_scenario(
        profile, 25.0, dt=DEFAULT_DT_PULSE / 2.0, t_end=horizon)
    for name in ("t_on", "t_peak", "s_max", "pulse_energy"):
        reports.append(_report(
            f"dt_halving_{name}", getattr(main_pm, name),
            getattr(halved_pm, name), 1e-3))
    return reports


ORACLE_COLUMNS = tuple((f.name, attrgetter(f.name))
                       for f in fields(OracleReport))
ORACLE_CSV_HEADER = rows.header(ORACLE_COLUMNS)


def write_oracle_csv(reports, stream):
    """Write OracleReport rows as CSV."""
    rows.write_csv(ORACLE_COLUMNS, reports, stream)

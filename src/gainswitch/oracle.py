"""Brute-force cross-checks for the closed-form and integrator paths.

Everything here trades speed for independence: count rates are evaluated
as explicitly truncated Poisson sums, and trajectories are re-integrated
with a first-order scheme at a much finer step. Shared code is limited to
`yield_n` and the integration frame: the Euler reference runs on
`dynamics.march`, the integration core, so it gets the same input checks,
start state, grid, drive segment plan (`step_plan`; tests check its
segments against `DriveWaveform.current` separately), sub-stepping of a
step that a drive edge cuts, and clamp guard for a density that went
negative (`clamp_density`). It keeps its own scheme, forward Euler in
sub-steps of at most EULER_DT, and its own right-hand side, written in
its own form (divisions by the lifetimes where the RK4 kernel multiplies
by hoisted reciprocals). These checks therefore exercise the algebra and
the integration scheme rather than re-testing transcription of the
physics.
"""

import math
from dataclasses import dataclass, fields
from operator import attrgetter

from . import attack as atk
from . import metrics as met
from . import rows
from .dynamics import (DEFAULT_DT_PULSE, DivergenceError, clamp_density,
                       grid_floor, march)
from .sweeps import run_pulse_scenario

POISSON_TAIL_LIMIT = 1e-15
EULER_DT = 2e-16   # s, the longest sub-step the Euler reference takes


class TruncationError(RuntimeError):
    """Truncated Poisson sum left a tail above the allowed bound."""


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
    if n_max < 20:
        raise ValueError("n_max must be at least 20")
    if mean < 0:
        raise ValueError("mean must be non-negative")
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
    """Count rate as an explicit photon-number sum over untouched yields."""
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


def _euler_run(n, s, j, h, i0, i1, t_base, thermal, constants, bounds,
               keep_n, keep_s):
    """Euler step kernel for march: steps i0..i1-1 of length h at current
    density j, each taken as the fewest equal sub-steps of at most EULER_DT.

    Every sub-step is checked (finite, clamp, running maximum); only the
    state at the end of each step is kept. Returns the final (n, s).
    """
    m, on_grid = grid_floor(h, EULER_DT)
    m = max(m if on_grid else m + 1, 1)
    h_sub = h / m
    jq = j / (constants.q * constants.d)
    tau_n = thermal.tau_n
    tau_p = constants.tau_p
    g0 = thermal.g0
    n0 = thermal.n0
    gamma = constants.gamma
    gamma_beta = constants.gamma * constants.beta_sp
    isfinite = math.isfinite
    max_n, max_s = bounds[0], bounds[1]

    for i in range(i0, i1):
        for f in range(m):
            gain = g0 * (n - n0)
            dn_dt = jq - n / tau_n - gain * s
            ds_dt = gamma * gain * s - s / tau_p + gamma_beta * n / tau_n
            n += h_sub * dn_dt
            s += h_sub * ds_dt
            if not (isfinite(n) and isfinite(s)):
                raise DivergenceError(
                    f"non-finite state at t = "
                    f"{t_base + i * h + (f + 1) * h_sub:.6e} s")
            if n < 0.0:
                n = clamp_density("carrier", n, max_n,
                                  t_base + i * h + (f + 1) * h_sub, bounds)
            elif n > max_n:
                max_n = n
            if s < 0.0:
                s = clamp_density("photon", s, max_s,
                                  t_base + i * h + (f + 1) * h_sub, bounds)
            elif s > max_s:
                max_s = s
        keep_n(n)
        keep_s(s)

    bounds[0], bounds[1] = max_n, max_s
    return n, s


def euler_reference_trajectory(thermal, constants, drive, dt, t_end,
                               initial=None):
    """First-order integration on integrate's grid, for cross-checks only.

    Same signature, checks, grid, stats and Trajectory as integrate (both
    run on march); each grid step, and each part of a step that a drive
    edge cuts, is taken as equal Euler sub-steps of at most EULER_DT.
    """
    return march(_euler_run, thermal, constants, drive, dt, t_end, initial)


def run_verification_suite(profile, quick=False):
    """Cross-check the closed forms and the integrator; returns OracleReports.

    quick=True skips the slow fine-step trajectory comparisons.
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
    fine = euler_reference_trajectory(
        thermal, profile.constants, main.drive, DEFAULT_DT_PULSE, horizon)
    fine_pm = met.extract_metrics(fine)
    reports += [
        _report("integrator_smax_vs_fine_step", main_pm.s_max, fine_pm.s_max,
                5e-3),
        _report("integrator_tpeak_vs_fine_step", main_pm.t_peak,
                fine_pm.t_peak, 1e-12, absolute=True)]

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

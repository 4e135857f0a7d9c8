"""Brute-force cross-checks for the closed-form and integrator paths.

Everything here trades speed for independence: count rates are evaluated
as explicitly truncated Poisson sums, and trajectories are re-integrated
with a first-order scheme at a much finer step. Shared code is limited to
`yield_n`, the start state, input checks, the clamp guard for a density
that went negative (`clamp_density`) and the drive's segment plan
(`step_plan`; tests check its segments against `DriveWaveform.current`
separately). The Euler reference keeps its own right-hand side, written
in its own form (divisions by the lifetimes where the RK4 core
multiplies by hoisted reciprocals), and its own edge handling: it takes
a step cut by a drive edge at its mean current where the RK4 core
sub-steps. These checks therefore exercise the algebra and the
integration scheme rather than re-testing transcription of the physics.
"""

import math
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from . import attack as atk
from . import metrics as met
from . import rows
from .dynamics import (DEFAULT_DT_PULSE, MAX_STEPS, DivergenceError,
                       DriveError, IntegrationStats, Trajectory,
                       clamp_density, initial_state, require_finite,
                       step_plan)
from .sweeps import run_pulse_scenario

POISSON_TAIL_LIMIT = 1e-15
EULER_DT = 2e-16   # s, the Euler reference's step and the cap on dt_fine


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


def euler_reference_trajectory(thermal, constants, drive, dt_fine, t_end,
                               initial=None, store_every=1):
    """Forward first-order integration at a fine step, for cross-checks only.

    store_every decimates storage (the step count must divide evenly, and
    at most MAX_STEPS samples are stored, else DriveError); the stored
    grid stays uniform so the result is a normal Trajectory.
    The drive is taken segment by segment from step_plan; a step that an
    off-grid edge cuts uses its mean current, so the injected charge stays
    exact (the RK4 core sub-steps instead).
    """
    require_finite("dt_fine", dt_fine)
    if dt_fine <= 0:
        raise ValueError("dt_fine must be positive")
    if dt_fine > EULER_DT:
        raise ValueError(f"dt_fine must not exceed {EULER_DT:.1e} s")
    require_finite("t_end", t_end)
    steps = int(round(t_end / dt_fine))
    if steps < 1:
        raise ValueError("t_end must cover at least one step")
    if store_every < 1 or steps % store_every:
        raise ValueError("store_every must evenly divide the step count")
    stored = steps // store_every
    if stored > MAX_STEPS:
        raise DriveError(f"t_end={t_end!r} s at dt_fine={dt_fine!r} s and "
                         f"store_every={store_every} stores more than "
                         f"{MAX_STEPS} samples")

    n, s = initial_state(thermal, constants, initial)
    h = dt_fine
    qd = constants.q * constants.d
    tau_n = thermal.tau_n
    tau_p = constants.tau_p
    g0 = thermal.g0
    n0 = thermal.n0
    gamma = constants.gamma
    gamma_beta = constants.gamma * constants.beta_sp
    isfinite = math.isfinite
    n_out = [n]
    s_out = [s]
    max_n = n if n > 0.0 else 1.0
    max_s = s if s > 0.0 else 1.0
    bounds = [max_n, max_s, 0, 0.0]   # clamp_density counts in [2] and [3]
    split = 0

    for i0, i1, parts in step_plan(drive, h, steps):
        if len(parts) == 1:
            j = parts[0][1]
        else:
            split += 1
            j = math.fsum(length * jp for length, jp in parts) / h
        jq = j / qd
        for i in range(i0, i1):
            gain = g0 * (n - n0)
            dn_dt = jq - n / tau_n - gain * s
            ds_dt = gamma * gain * s - s / tau_p + gamma_beta * n / tau_n
            n += h * dn_dt
            s += h * ds_dt
            if not (isfinite(n) and isfinite(s)):
                raise DivergenceError(
                    f"non-finite state at t = {(i + 1) * h:.6e} s")
            if n < 0.0:
                n = clamp_density("carrier", n, max_n, (i + 1) * h, bounds)
            elif n > max_n:
                max_n = n
            if s < 0.0:
                s = clamp_density("photon", s, max_s, (i + 1) * h, bounds)
            elif s > max_s:
                max_s = s
            if (i + 1) % store_every == 0:
                n_out.append(n)
                s_out.append(s)

    return Trajectory(dt=h * store_every, n=np.asarray(n_out),
                      s=np.asarray(s_out), thermal=thermal, drive=drive,
                      stats=IntegrationStats(steps=steps, split_steps=split,
                                             clamps=bounds[2],
                                             worst_clamp=bounds[3]))


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
        thermal, profile.constants, main.drive, EULER_DT, horizon,
        store_every=50)
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

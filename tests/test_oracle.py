import io
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from gainswitch import oracle
from gainswitch.attack import count_rate_decoy_attacked
from gainswitch.dynamics import (CLAMP_LIMIT, DEFAULT_DT_PULSE,
                                 DivergenceError, DriveWaveform,
                                 clamp_density, derivatives, integrate,
                                 turn_on_delay)
from gainswitch.errors import (AboveThresholdBiasError,
                               BelowThresholdPulseError, ConfigError)
from gainswitch.metrics import REFERENCE_TEMPS, extract_metrics
from gainswitch.oracle import (ORACLE_COLUMNS, OracleReport,
                               TruncationError, adaptive_reference,
                               poisson_gain_oracle, run_verification_suite)
from gainswitch.rows import header, write_csv
from gainswitch.sweeps import (DEFAULT_HORIZON, run_pulse_scenario,
                               run_train_scenario, state_amplitude)
from gainswitch.thermal import scale_parameters, thermal_state


def test_poisson_oracle_trivials():
    assert poisson_gain_oracle(0.0, 0.5, 1.7e-6) == pytest.approx(
        1.7e-6, rel=1e-12)
    assert poisson_gain_oracle(0.48, 1.0, 0.0) == pytest.approx(
        1.0 - math.exp(-0.48), rel=1e-12)


def test_poisson_oracle_validation():
    with pytest.raises(ValueError):
        poisson_gain_oracle(0.48, 0.5, 0.0, n_max=19)
    with pytest.raises(ValueError):
        poisson_gain_oracle(-0.1, 0.5, 0.0)
    # every comparison with nan is false, so the tail bound alone passes it
    for mean in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="^mean must lie in"):
            poisson_gain_oracle(mean, 0.5, 0.0)
    # (1 - eta)^n overflows for eta = 1e308
    for eta, y0, key in ((1e308, 0.0, "eta"), (math.nan, 0.0, "eta"),
                         (0.5, math.inf, "y0")):
        with pytest.raises(ConfigError, match=f"^{key} must lie in"):
            poisson_gain_oracle(0.48, eta, y0)


@pytest.mark.parametrize("call, key", [
    (lambda sc: oracle.decoy_attacked_gain_oracle(sc, math.nan, 0.5),
     "eta_prime"),
    (lambda sc: oracle.decoy_attacked_gain_oracle(sc, -0.01, 0.5),
     "eta_prime"),
    # past eta_prime = 2 the multiphoton terms grow with n: the truncated
    # sum gave -1.05e116 at 1e5 and overflowed at 1.5e5 and 1e10
    (lambda sc: oracle.decoy_attacked_gain_oracle(
        sc, math.nextafter(2.0, 3.0), 0.5), "eta_prime"),
    (lambda sc: oracle.decoy_attacked_gain_oracle(sc, 1e5, 0.5),
     "eta_prime"),
    (lambda sc: oracle.decoy_attacked_gain_oracle(sc, 1.5e5, 0.5),
     "eta_prime"),
    (lambda sc: oracle.decoy_attacked_gain_oracle(sc, 1e10, 0.5),
     "eta_prime"),
    (lambda sc: oracle.decoy_attacked_gain_oracle(sc, 0.01, math.inf),
     "p_block"),
    (lambda sc: oracle.decoy_attacked_gain_oracle(sc, 0.01, math.nan),
     "p_block"),
    (lambda sc: oracle.signal_attacked_gain_oracle(sc, math.inf),
     "eta_prime"),
    (lambda sc: oracle.signal_attacked_gain_oracle(sc, 10**400),
     "eta_prime")],
    ids=["decoy_nan", "decoy_negative", "decoy_past_2", "decoy_1e5",
         "decoy_1.5e5", "decoy_1e10", "decoy_p_inf", "decoy_p_nan",
         "signal_inf", "signal_huge_int"])
def test_attacked_gain_oracles_refuse_bad_inputs(profile, call, key):
    with pytest.raises(ConfigError, match=f"^{key} must lie in"):
        call(profile.attack)


@pytest.mark.parametrize("eta_prime", [1.377, 2.0])
def test_attacked_decoy_oracle_agrees_up_to_eta_prime_2(profile, eta_prime):
    """The largest eta_prime the attack_map scenarios solve to (about
    1.38) and the bound of the oracle's range give the closed form's
    gain."""
    sc = profile.attack
    assert oracle.decoy_attacked_gain_oracle(sc, eta_prime, 0.5) == \
        pytest.approx(count_rate_decoy_attacked(sc, eta_prime, 0.5),
                      rel=1e-12)


def test_attacked_decoy_oracle_takes_any_finite_p_block(profile):
    """An infeasible solve's p_block may lie outside [0, 1], and the sum
    still balances it, so only a non-finite p_block is refused."""
    sc = profile.attack
    gains = [oracle.decoy_attacked_gain_oracle(sc, 0.01, p)
             for p in (-3.0, 0.5, 7.0)]
    assert gains[0] > gains[1] > 0.0 > gains[2]


def test_poisson_sum_bounds():
    """n_max is at most MAX_POISSON_N, past which every weight is 0.0 for
    any accepted mean, and mean at most MAX_POISSON_MEAN, the largest whose
    exp(-mean) is a normal float: exp(-760) underflows, which made every
    weight 0 and the sum 0.0."""
    top = oracle.MAX_POISSON_MEAN
    assert math.exp(-math.nextafter(top, math.inf)) < sys.float_info.min
    weights = oracle._poisson_weights(top, oracle.MAX_POISSON_N)
    assert weights[0] == math.exp(-top) >= sys.float_info.min
    assert weights[1957] > 0.0 and not any(weights[1958:])
    assert math.fsum(weights) == pytest.approx(1.0, rel=1e-12)
    assert poisson_gain_oracle(0.5, 0.5, 0.0, n_max=oracle.MAX_POISSON_N) == \
        poisson_gain_oracle(0.5, 0.5, 0.0)
    with pytest.raises(ConfigError, match="^n_max must lie in"):
        poisson_gain_oracle(0.5, 0.5, 0.0, n_max=oracle.MAX_POISSON_N + 1)
    for mean in (math.nextafter(top, math.inf), 760.0):
        with pytest.raises(ConfigError, match="^mean must lie in"):
            poisson_gain_oracle(mean, 0.5, 0.0, n_max=oracle.MAX_POISSON_N)


def test_poisson_truncation_guard():
    with pytest.raises(TruncationError):
        poisson_gain_oracle(5.0, 0.5, 0.0, n_max=20)
    with pytest.raises(TruncationError):
        poisson_gain_oracle(30.0, 0.5, 0.0, n_max=20)


def test_poisson_oracle_truncation_independent():
    short = poisson_gain_oracle(0.48, 0.5, 1.7e-6, n_max=60)
    long = poisson_gain_oracle(0.48, 0.5, 1.7e-6, n_max=120)
    assert short == pytest.approx(long, rel=1e-15)


def test_reference_validation(profile, pulse25):
    thermal, traj, _ = pulse25
    for t_end in (0.0, math.nan):
        with pytest.raises(ValueError, match="t_end"):
            adaptive_reference(thermal, traj.drive, t_end)


@pytest.mark.parametrize("initial", [(math.nan, 0.0), (1e24, math.inf),
                                     (-1.0, 0.0), (10**400, 0.0),
                                     (True, 0.0), (1e24, "1"), 1e24,
                                     (1e24, 0.0, 0.0)],
                         ids=["nan_n", "inf_s", "negative_n", "huge_int_n",
                              "bool_n", "str_s", "no_pair", "triple"])
def test_bad_initial_state_is_rejected(profile, pulse25, initial):
    # bad input, not divergence: both integrators refuse it before a step
    thermal, traj, _ = pulse25
    with pytest.raises(ValueError, match="initial"):
        integrate(thermal, traj.drive, DEFAULT_DT_PULSE, 1e-11,
                  initial=initial)
    with pytest.raises(ValueError, match="initial"):
        adaptive_reference(thermal, traj.drive, 1e-11, initial=initial)


def test_reference_step_cap(profile, pulse25, monkeypatch):
    thermal, traj, _ = pulse25
    monkeypatch.setattr(oracle, "MAX_REFERENCE_STEPS", 50)
    with pytest.raises(DivergenceError,
                       match=r"more than 50 steps; stopped at t = \S+ s"):
        adaptive_reference(thermal, traj.drive, 0.5e-9)


def test_reference_zero_drive_fixed_point(profile, pulse25):
    # zero current everywhere: no DC bias, AC pulse deferred past the horizon
    drive = DriveWaveform(j_dc=0.0, j_ac=profile.j_ac_signal,
                          pulse_duration=profile.pulse_duration,
                          start_offset=1.0)
    run = adaptive_reference(pulse25[0], drive, 5e-9,
                             initial=(0.0, 0.0))
    assert (run.n_end, run.s_end) == (0.0, 0.0)
    assert math.isnan(run.t_peak) and math.isnan(run.s_max)
    # zero error: each step 5x the last from tau_p / 1000 = 5 fs, 10 in 5 ns
    assert (run.accepted, run.rejected) == (10, 0)


def test_reference_reports_divergence_as_integrate_does(profile, pulse25):
    # 1e300 A/m^2 overflows j / (q d): the first step is non-finite
    thermal = pulse25[0]
    drive = DriveWaveform(j_dc=profile.j_dc, j_ac=1e300,
                          pulse_duration=profile.pulse_duration)
    text = r"non-finite state at t = \S+ s"
    with pytest.raises(DivergenceError, match=text):
        adaptive_reference(thermal, drive, 1e-10)
    with pytest.raises(DivergenceError, match=text):
        integrate(thermal, drive, DEFAULT_DT_PULSE, 1e-10)


@pytest.mark.parametrize("temp_c,state", [(25.0, "signal"), (45.0, "decoy")])
def test_reference_matches_main_integrator(profile, temp_c, state):
    """The peak, and the end state after the 100 ps fall edge."""
    horizon = 0.5e-9
    thermal, traj, main = run_pulse_scenario(profile, temp_c, state,
                                             t_end=horizon)
    run = adaptive_reference(thermal, traj.drive, horizon)
    assert abs(main.s_max - run.s_max) / run.s_max < 1e-6
    assert abs(main.t_peak - run.t_peak) < 1e-17
    assert run.n_end == pytest.approx(traj.n[-1], rel=1e-7)
    assert run.s_end == pytest.approx(traj.s[-1], rel=1e-7)


# the floor stage's stride at each table2 temperature, default profile
FLOOR_STRIDES = {15.0: 18, 20.0: 18, 25.0: 17, 30.0: 17, 35.0: 16, 40.0: 16,
                 45.0: 16}


def test_reference_matches_the_whole_table_sweep(profile):
    """Every default table2 pulse (7 temperatures x signal/decoy, 2 ns at
    100 fs) against the reference: S_max, t_peak and the end state (n, s),
    which the DC tail's 1.2 ps steps (stride 12) and then the floor
    stage's 1.6-1.8 ps steps (FLOOR_STRIDES) reach (no step is cut in
    these runs).

    The gap is at most the sum of the two runs' errors:
    - RK4 is fourth order: at h = 100 fs its global error is about
      (h / tau_p)^4 = (100 fs / 5 ps)^4 = 1.6e-7 (relative) on a pulse
      that moves on the photon lifetime tau_p. In the tail, the carriers
      move on tau_n >= 1.1 ns, so 1.8 ps steps add (1.8 ps / tau_n)^4 <
      7e-12; the photon density follows them, and its own mode is damped
      at each step (h lambda <= TAIL_STABILITY = 1.5 at the carrier
      floor n_dc, h lambda_max <= 2.25 at any n >= 0, inside RK4's
      2.785).
    - The reference holds each step's error to REFERENCE_RTOL, so its
      global error is at most REFERENCE_RTOL per accepted step.
    t_peak: a relative error eps in the build-up's rate moves the peak by
    eps times its delay t_peak.
    """
    dt = DEFAULT_DT_PULSE
    for temp_c in REFERENCE_TEMPS:
        for state in ("signal", "decoy"):
            thermal, traj, main = run_pulse_scenario(profile, temp_c, state)
            assert traj.stats.split_steps == 0
            assert max(stride for _, _, stride, _ in traj.plan) \
                == FLOOR_STRIDES[temp_c]
            run = adaptive_reference(thermal, traj.drive,
                                     DEFAULT_HORIZON)
            eps = ((dt / profile.constants.tau_p) ** 4
                   + run.accepted * oracle.REFERENCE_RTOL)
            assert abs(main.s_max / run.s_max - 1.0) <= eps
            assert abs(main.t_peak - run.t_peak) <= eps * run.t_peak
            assert abs(traj.n[-1] / run.n_end - 1.0) <= eps
            assert abs(traj.s[-1] / run.s_end - 1.0) <= eps


# the drawn-profile properties' settings: the same examples on every run,
# and a failure reported as drawn, without shrinking it, which would take
# minutes of full 2 ns pulse pairs (a property that passes in 1.5 s took
# 5 minutes to report a failure)
DRAWN_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                          phases=[p for p in Phase if p != Phase.shrink])

# each laser constant the step plan reads, times 10^U(-0.3, 0.3)
DRAWN_CONSTANTS = st.fixed_dictionaries({
    name: st.floats(-0.3, 0.3).map(lambda u: 10.0 ** u)
    for name in ("g0_ref", "n0_ref", "tau_n_ref", "tau_p", "beta_sp",
                 "gamma")})


def gain_switches(profile, temp_c, state):
    """Whether the pulse crosses threshold before its fall edge, from the
    closed forms: n_dc < n_th, and below threshold n relaxes on tau_n to
    n_inf = (J_dc + J_ac) tau_n / (q d), so it needs the turn-on delay
    from n_dc (turn_on_delay, infinite unless n_inf > n_th) to be shorter
    than the pulse."""
    c = profile.constants
    g0, n0, tau_n = scale_parameters(c, temp_c - c.t_ref)
    n_th = n0 + 1.0 / (g0 * c.gamma * c.tau_p)
    n_dc = profile.j_dc * tau_n / (c.q * c.d)
    n_inf = (profile.j_dc + state_amplitude(profile, state)) * tau_n \
        / (c.q * c.d)
    return n_dc < n_th and turn_on_delay(
        n_dc, n_th, n_inf, tau_n) < profile.pulse_duration


@settings(DRAWN_SETTINGS, max_examples=50)
@given(DRAWN_CONSTANTS, st.sampled_from((15.0, 25.0, 45.0)),
       st.sampled_from(("signal", "decoy")))
def test_reference_matches_across_profiles(profile, factors, temp_c, state):
    """The whole-table check above, away from the default profile: every
    laser constant the step plan reads is scaled by up to 2x either way.
    The bound is the same sum of the two runs' errors, at the drawn tau_p.
    A pulse that the closed forms say never reaches threshold is refused
    (below-threshold pulse, or a DC bias above threshold); every other
    draw is compared, with no clamp."""
    c = profile.constants
    drawn = replace(profile, constants=replace(
        c, **{name: getattr(c, name) * f for name, f in factors.items()}))
    if not gain_switches(drawn, temp_c, state):
        with pytest.raises((AboveThresholdBiasError,
                            BelowThresholdPulseError)):
            run_pulse_scenario(drawn, temp_c, state)
        return
    thermal, traj, main = run_pulse_scenario(drawn, temp_c, state)
    assert traj.stats.clamps == 0
    run = adaptive_reference(thermal, traj.drive, DEFAULT_HORIZON)
    eps = ((DEFAULT_DT_PULSE / drawn.constants.tau_p) ** 4
           + run.accepted * oracle.REFERENCE_RTOL)
    assert abs(main.s_max / run.s_max - 1.0) <= eps
    assert abs(main.t_peak - run.t_peak) <= eps * run.t_peak
    assert abs(traj.n[-1] / run.n_end - 1.0) <= eps
    assert abs(traj.s[-1] / run.s_end - 1.0) <= eps


@settings(DRAWN_SETTINGS, max_examples=40)
@given(DRAWN_CONSTANTS, st.sampled_from((15.0, 25.0, 45.0)),
       st.sampled_from(("signal", "decoy")), st.floats(0.5e9, 1.2e9),
       st.integers(2, 3))
def test_train_matches_reference_across_profiles(profile, factors, temp_c,
                                                 state, frequency, pulses):
    """The drawn profiles above as trains of 2-3 pulses at 0.5-1.2 GHz,
    against the reference on the same drive, within the same bound: the
    largest cycle's S_max; the peak time, from the first rising edge, of
    the cycle that holds the reference's peak, so that two cycles of
    nearly equal S_max cannot swap; and the run's end state, at its last
    grid point, which rounds the train's end to the grid. A train whose
    first pulse the closed forms say never reaches threshold is refused;
    every other draw is compared, with no clamp."""
    c = profile.constants
    drawn = replace(profile, constants=replace(
        c, **{name: getattr(c, name) * f for name, f in factors.items()}))
    if not gain_switches(drawn, temp_c, state):
        with pytest.raises((AboveThresholdBiasError,
                            BelowThresholdPulseError)):
            run_train_scenario(drawn, temp_c, frequency, pulses, state)
        return
    thermal, traj, _ = run_train_scenario(drawn, temp_c, frequency, pulses,
                                          state)
    assert traj.stats.clamps == 0
    drive = traj.drive
    cycles = [extract_metrics(traj, k) for k in range(pulses)]
    run = adaptive_reference(thermal, drive, traj.times[-1].item())
    eps = ((DEFAULT_DT_PULSE / drawn.constants.tau_p) ** 4
           + run.accepted * oracle.REFERENCE_RTOL)
    s_max = max(cycle.s_max for cycle in cycles)
    assert abs(s_max / run.s_max - 1.0) <= eps
    k = min(int(run.t_peak / drive.period), pulses - 1)
    t_peak = cycles[k].t_peak + k * drive.period
    assert abs(t_peak - run.t_peak) <= eps * run.t_peak
    assert abs(traj.n[-1] / run.n_end - 1.0) <= eps
    assert abs(traj.s[-1] / run.s_end - 1.0) <= eps


@settings(DRAWN_SETTINGS, max_examples=15)
@given(DRAWN_CONSTANTS, st.sampled_from((15.0, 25.0, 45.0)),
       st.sampled_from(("signal", "decoy")))
def test_energy_matches_an_all_fine_run_across_profiles(profile, factors,
                                                        temp_c, state):
    """The energy of the drawn pulses above, 2 ns on the planned steps,
    against an all-fine run at dt / 5 (TAIL_STABILITY = 0 keeps every
    step on the grid), within RK4's error on the pulse at the drawn
    photon lifetime, (dt / tau_p)^4, as for the default profile's pulses
    in test_tail_energy_matches_an_all_fine_run. A draw that never
    reaches threshold has no energy to compare; the property above checks
    that it is refused."""
    c = profile.constants
    drawn = replace(profile, constants=replace(
        c, **{name: getattr(c, name) * f for name, f in factors.items()}))
    if not gain_switches(drawn, temp_c, state):
        return
    _, _, pm = run_pulse_scenario(drawn, temp_c, state)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("gainswitch.dynamics.TAIL_STABILITY", 0.0)
        _, fine, ref = run_pulse_scenario(drawn, temp_c, state,
                                          dt=DEFAULT_DT_PULSE / 5)
    assert {e[2] for e in fine.plan} == {1}
    bound = (DEFAULT_DT_PULSE / drawn.constants.tau_p) ** 4
    assert abs(pm.pulse_energy / ref.pulse_energy - 1.0) <= bound


def matrix_poly(z, coeffs):
    """sum_i coeffs[i] z^i for each matrix of a stack z of 2 x 2 ones."""
    out = np.zeros_like(z)
    power = np.broadcast_to(np.eye(2), z.shape)
    for c in coeffs:
        out = out + c * power
        power = power @ z
    return out


def jacobian(thermal, n, s):
    """The rate equations' Jacobian d(dn/dt, ds/dt) / d(n, s) at each of
    the states (n, s), as a stack of 2 x 2 matrices."""
    c = thermal.constants
    g0, n0, tau_n = thermal.g0, thermal.n0, thermal.tau_n
    a = np.empty((len(n), 2, 2))
    a[:, 0, 0] = -1.0 / tau_n - g0 * s
    a[:, 0, 1] = -g0 * (n - n0)
    a[:, 1, 0] = c.gamma * (g0 * s + c.beta_sp / tau_n)
    a[:, 1, 1] = c.gamma * g0 * (n - n0) - 1.0 / c.tau_p
    return a


# RK4's local error on y' = A y + f(t), one step of length h from a point
# of the solution y, in powers of Z = -h A: the term in h^m y^(m) has the
# coefficient polynomial sum_i c_i Z^i, for m = 2, 3 and 4 (4 doubled:
# see test_every_sample_within_rk4_error_across_profiles)
RK4_LOCAL_ERROR = ((2, (0, 0, 0, 1 / 96)),
                   (3, (0, 0, 2 / 576, 1 / 576)),
                   (4, (0, 2 * 8 / 4608, 2 * 4 / 4608, 2 * 1 / 4608)))


def rk4_deviation_bound(thermal, traj, fine):
    """(bound, z): at each sample of the planned run traj, the bound on
    |n - n_fine| and |s - s_fine| argued in the property below, as a
    (samples, 2) array, and h lambda at the start of each of its steps."""
    dt, index, n, s = traj.dt, traj.index, traj.n, traj.s
    stride = np.diff(index)
    h = (stride * dt)[:, None, None]
    a = jacobian(thermal, n[:-1], s[:-1])
    damp = np.abs(matrix_poly(h * a, (1, 1, 1 / 2, 1 / 6, 1 / 24)))
    z = np.maximum(np.abs(h * a),
                   np.abs(h * jacobian(thermal, n[1:], s[1:])))

    def largest(y, m):
        """max |y^(m)| over each planned step and its two neighbours, from
        the all-fine run's m-th differences"""
        d = np.append(np.abs(np.diff(y, m)) / dt ** m, np.zeros(m))
        step = np.maximum.reduceat(d, index[:-1])
        return np.maximum(step, np.maximum(np.roll(step, 1),
                                           np.roll(step, -1)))

    local = np.zeros((len(stride), 2))
    for m, coeffs in RK4_LOCAL_ERROR:
        y = np.stack([largest(fine.n, m), largest(fine.s, m)], axis=1)
        local += ((matrix_poly(z, coeffs) @ y[:, :, None])[:, :, 0]
                  * (stride[:, None] * dt) ** m)
    local *= (1.0 + stride.astype(float) ** -4)[:, None]
    local[stride == 1] = 0.0
    first = int(np.argmax(stride > 1))
    scale = np.stack([np.abs(n) + np.abs(n - thermal.n0), s], axis=1)
    local[first:] += (16 * 2.0 ** -53 * (1 + stride[first:, None])
                      * scale[first:-1])
    bound = np.zeros((len(n), 2))
    e_n = e_s = 0.0
    for k, ((d_nn, d_ns), (d_sn, d_ss)), (l_n, l_s) in zip(
            range(first, len(stride)), damp[first:].tolist(),
            local[first:].tolist()):
        e_n, e_s = (d_nn * e_n + d_ns * e_s + l_n,
                    d_sn * e_n + d_ss * e_s + l_s)
        bound[k + 1] = e_n, e_s
    return bound, -h[:, 0, 0] * a[:, 1, 1]


@settings(DRAWN_SETTINGS, max_examples=40)
@given(DRAWN_CONSTANTS, st.sampled_from((15.0, 25.0, 45.0)),
       st.sampled_from(("signal", "decoy")))
def test_every_sample_within_rk4_error_across_profiles(profile, factors,
                                                       temp_c, state):
    """Every stored sample of the drawn pulses above, 2 ns at 100 fs, in
    n and in s, against the all-fine run of the same pulse
    (TAIL_STABILITY = 0), phase by phase of the plan it took, within a
    bound argued from RK4's error, not fitted.

    Up to the first step longer than dt both runs take the same steps from
    the same state, so they agree bit for bit. After it, let e_k be the
    deviation (dn, ds) at sample k. Linearized about the planned state,
    with A the rate equations' Jacobian there, a step of length h carries
    it over as R(h A) e_k, R(x) = 1 + x + x^2/2 + x^3/6 + x^4/24, and adds
    the step's local error l_k, so |e_(k+1)| <= |R(h A)| |e_k| + |l_k|
    entrywise. A step of dt, which both runs take, adds no local error of
    its own.

    The local error. On y' = A y + f(t), RK4's step from a point of the
    solution misses y(t + h) by
        (Z^3/96) h^2 y'' + Z^2 (Z + 2)/576 h^3 y''' +
        Z (Z^2 + 4 Z + 8)/4608 h^4 y'''' + ...,   Z = -h A
    (expanding the four stages; the terms in y and y' vanish, as RK4
    follows a solution linear in t exactly). In a stage the photon
    density is the slow manifold s_M, which lags its quasi-steady value
    steady_state_s(n) by L = -(ds_M/dt) / lambda, plus the fast mode
    delta left at the stage's start, decaying at the photon loss rate
    lambda = 1/tau_p - gamma g0 (n - n0): s'' = s_M'' + lambda^2 delta.
    So the first term holds RK4's damping error on the fast mode, z^5/96
    of delta at z = h lambda (its exact value e^-z - R(-z) is 0.05 at
    z = 1.5, inside 1.5^5/96 = 0.08), and its error on the manifold's
    curvature, which the lag sets (s_M' = -lambda L); the Z^3 makes it
    large where h lambda is. The bound reads the derivatives from the
    all-fine run's differences over each step and its neighbours, and
    takes |Z| entrywise at the larger of the step's two ends: the
    coefficients are positive, so that holds for A anywhere between.
    With h lambda <= 2.25 (the floor stage's bound (b), asserted) each
    later term is at most half the one before, so the fourth-derivative
    term counted twice covers them. The all-fine run's own error over the
    step, K steps of h/K, is K^-4 of it: a factor 1 + K^-4. Rounding adds
    16 eps (|n| + |n - n0|) in n and 16 eps s at each step of either run
    (see test_scaled_step_matches_a_natural_rk4_step), 1 + K of them for
    each planned step from the first coarse one on.

    The bound is sharp: its first term is within about 1 % of the true
    local error, and over 600 seeded draws the worst sample reached 0.97
    of it, most 0.8. A plan that steps where this error model does not
    hold (past RK4's stability, at the wrong J, or over a grid point it
    records) leaves it. A draw that never reaches threshold has no tail
    to compare."""
    c = profile.constants
    drawn = replace(profile, constants=replace(
        c, **{name: getattr(c, name) * f for name, f in factors.items()}))
    if not gain_switches(drawn, temp_c, state):
        return
    thermal, traj, _ = run_pulse_scenario(drawn, temp_c, state)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("gainswitch.dynamics.TAIL_STABILITY", 0.0)
        _, fine, _ = run_pulse_scenario(drawn, temp_c, state)
    assert {e[2] for e in fine.plan} == {1}
    bound, z = rk4_deviation_bound(thermal, traj, fine)
    assert np.all(z[np.diff(traj.index) > 1] <= 2.25)
    dev = np.abs(np.stack([traj.n - fine.n[traj.index],
                           traj.s - fine.s[traj.index]], axis=1))
    for i0, i1, stride, _ in traj.plan:
        phase = slice(*np.searchsorted(traj.index, (i0, i1 + 1)))
        assert np.all(dev[phase] <= bound[phase]), (i0, i1, stride)


@settings(DRAWN_SETTINGS, max_examples=15)
@given(DRAWN_CONSTANTS, st.sampled_from((15.0, 25.0, 45.0)),
       st.sampled_from(("signal", "decoy")), st.floats(0.5e9, 1.2e9))
def test_every_train_sample_within_rk4_error_across_profiles(
        profile, factors, temp_c, state, frequency):
    """The property above on trains of 3 pulses at 0.5-1.2 GHz: every
    stored sample, in n and in s, against the all-fine run of the same
    train, phase by phase, within the same argued bound. Cycles 1 and 2
    start where the cycle before left the carriers, above n_dc, so this
    checks every stage that a plan decides from the state at a rising
    edge, and the deviation a tail leaves carried through the next
    pulse's gain by R(h A). An edge off the grid cuts a step of dt, which
    both runs take. A draw whose first pulse never reaches threshold has
    no tail to compare."""
    c = profile.constants
    drawn = replace(profile, constants=replace(
        c, **{name: getattr(c, name) * f for name, f in factors.items()}))
    if not gain_switches(drawn, temp_c, state):
        return
    thermal, traj, _ = run_train_scenario(drawn, temp_c, frequency, 3, state)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("gainswitch.dynamics.TAIL_STABILITY", 0.0)
        _, fine, _ = run_train_scenario(drawn, temp_c, frequency, 3, state)
    assert {e[2] for e in fine.plan} == {1}
    bound, z = rk4_deviation_bound(thermal, traj, fine)
    assert np.all(z[np.diff(traj.index) > 1] <= 2.25)
    dev = np.abs(np.stack([traj.n - fine.n[traj.index],
                           traj.s - fine.s[traj.index]], axis=1))
    for i0, i1, stride, _ in traj.plan:
        phase = slice(*np.searchsorted(traj.index, (i0, i1 + 1)))
        assert np.all(dev[phase] <= bound[phase]), (i0, i1, stride)


def natural_rk4_step(state, j, h, thermal):
    """One classic RK4 step of length h on derivatives, in (n, s), and for
    each variable the largest sum of its right-hand side's term
    magnitudes over the four stages, n0 / tau_n counted with n / tau_n."""
    c = thermal.constants
    g0, n0, tau_n = thermal.g0, thermal.n0, thermal.tau_n

    def terms(n, s):
        gain = g0 * abs(n - n0) * s
        spont = (abs(n) + n0) / tau_n
        return (j / (c.q * c.d) + spont + gain,
                c.gamma * gain + s / c.tau_p + c.gamma * c.beta_sp * spont)

    stages, slopes = [state], [derivatives(state, j, thermal)]
    for frac in (0.5, 0.5, 1.0):
        stages.append(tuple(y + frac * h * k
                            for y, k in zip(state, slopes[-1])))
        slopes.append(derivatives(stages[-1], j, thermal))
    end = tuple(y + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
                for y, k1, k2, k3, k4 in zip(state, *slopes))
    return end, [max(t) for t in zip(*(terms(*y) for y in stages))]


@settings(DRAWN_SETTINGS, max_examples=60)
@given(DRAWN_CONSTANTS, st.sampled_from((15.0, 25.0, 45.0)),
       st.sampled_from(("signal", "decoy")),
       st.none() | st.tuples(st.floats(-0.3, 0.3), st.floats(17.0, 23.0)))
def test_scaled_step_matches_a_natural_rk4_step(profile, factors, temp_c,
                                                state, start):
    """One integrate step, at the pulse's J and at J_dc, from the DC start
    or from n = n_th 10^x, s = 10^y m^-3, against the RK4 step on
    derivatives that natural_rk4_step writes out in (n, s).

    integrate steps m = gamma g0 (n - n0), u = g0 s, an affine map of
    (n, s), and RK4 commutes with affine maps: its stages are linear
    combinations of states and slopes, and the slopes map by the linear
    part. So in exact arithmetic the two steps agree, and only rounding
    separates them, at most eps = 2^-53 of each operation's result:
    - each stage slope takes at most 12 roundings on terms whose
      magnitudes sum to at most T (natural_rk4_step's sums; the scaled
      slopes' terms are gamma g0 or g0 times these), and the weights
      h/6, h/3, h/3, h/6 sum to h: 12 eps h T;
    - the stage states and the final sum take 8 roundings of values at
      most |y| + h T, which later stages see through h times the
      Jacobian, below 1 for every draw (0.83 at n = 2 n_th, s = 1e23
      m^-3 and the fastest drawn constants): 8 eps (|y| + h T);
    - the kernel's conversions, n - n0 to m and back, take 6 roundings
      of |n - n0| (3 each way, gamma g0 and its reciprocal included),
      and s to u and back 3 of s.
    Each side is within 16 eps (|n| + |n - n0| + h T_n) in n and 16 eps
    (s + h T_s) in s of the exact step, so they differ by at most twice
    that. A draw whose bias is above threshold has no DC start and is
    refused."""
    c = profile.constants
    drawn = replace(c, **{name: getattr(c, name) * f
                          for name, f in factors.items()})
    try:
        thermal = thermal_state(drawn, temp_c, profile.j_dc)
    except AboveThresholdBiasError:
        return
    if start is not None:
        start = (thermal.n_th * 10.0 ** start[0], 10.0 ** start[1])
    h = DEFAULT_DT_PULSE
    j_ac = state_amplitude(profile, state)
    eps = 2.0 ** -53
    for j, rise in ((profile.j_dc + j_ac, 0.0), (profile.j_dc, 5 * h)):
        drive = DriveWaveform(j_dc=profile.j_dc, j_ac=j_ac,
                              pulse_duration=10 * h, start_offset=rise)
        traj = integrate(thermal, drive, h, h, initial=start)
        (n, s), (t_n, t_s) = natural_rk4_step(
            (float(traj.n[0]), float(traj.s[0])), j, h, thermal)
        assert abs(traj.n[1] - n) <= 32 * eps * (
            abs(n) + abs(n - thermal.n0) + h * t_n)
        assert abs(traj.s[1] - s) <= 32 * eps * (s + h * t_s)


def test_reference_off_grid_edge(profile, pulse25):
    # at 15 fs the 100 ps fall edge lands at grid step 6666.7: integrate
    # cuts one step there, the reference clips its step to the edge
    thermal, traj, _ = pulse25
    main = integrate(thermal, traj.drive, 1.5e-14, 0.12e-9)
    assert main.stats.split_steps == 1
    run = adaptive_reference(thermal, traj.drive, 0.12e-9)
    assert run.n_end == pytest.approx(main.n[-1], rel=1e-9)
    assert run.s_end == pytest.approx(main.s[-1], rel=1e-8)


def test_tableau_rows_sum_to_their_nodes():
    """A mistyped coefficient moves a row sum off its node. The last row,
    the 5th-order weights, sums to 1; the error weights sum to 0."""
    nodes = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
    assert [len(row) for row in oracle._DP_A] == [1, 2, 3, 4, 5, 6]
    for row, c in zip(oracle._DP_A, nodes):
        assert math.fsum(row) == pytest.approx(c, rel=1e-15)
    assert abs(math.fsum(oracle._DP_E)) < 1e-16
    assert len(oracle._DP_E) == len(oracle._DP_A) + 1


def generic_stepper(rhs):
    """The Dormand-Prince step as a loop over the tableau's rows."""
    def dp_step(n, s, k1, h):
        k = [k1]
        for row in oracle._DP_A:
            y = (n + h * sum(a * kk[0] for a, kk in zip(row, k)),
                 s + h * sum(a * kk[1] for a, kk in zip(row, k)))
            k.append(rhs(*y))
        return y, k[-1], (
            h * sum(e * kk[0] for e, kk in zip(oracle._DP_E, k)),
            h * sum(e * kk[1] for e, kk in zip(oracle._DP_E, k)))
    return dp_step


@pytest.mark.parametrize("temp_c,state,t_end", [
    (15.0, "signal", 0.5e-9), (15.0, "decoy", 0.5e-9),
    (25.0, "signal", 0.5e-9), (25.0, "decoy", 0.5e-9),
    (45.0, "signal", 0.5e-9), (45.0, "decoy", 0.5e-9),
    (25.0, "signal", 0.12e-9)])     # test_reference_off_grid_edge's run
def test_written_out_step_equals_tableau_loop(profile, monkeypatch, temp_c,
                                              state, t_end):
    """The written-out step drops only sum()'s leading integer 0, which
    changes at most the sign of an all-zero sum, and so only a zero state:
    every field, the step counts included, is bit for bit the loop's."""
    c = profile.constants
    thermal = thermal_state(c, temp_c, profile.j_dc)
    drive = DriveWaveform(j_dc=profile.j_dc,
                          j_ac=state_amplitude(profile, state),
                          pulse_duration=profile.pulse_duration)
    written = adaptive_reference(thermal, drive, t_end)
    monkeypatch.setattr(oracle, "_dp_stepper", generic_stepper)
    assert repr(adaptive_reference(thermal, drive, t_end)) == repr(written)


def test_quick_suite_passes(profile):
    reports = run_verification_suite(profile, quick=True)
    assert len(reports) == 6
    for r in reports:
        assert r.passed == (r.deviation <= r.tolerance)
        assert r.passed, f"{r.quantity}: deviation {r.deviation:.3e}"
    assert {"count_rate_signal_vs_poisson_sum",
            "signal_balance_residual"} <= {r.quantity for r in reports}


def test_oracle_csv_writes_numpy_values_as_numbers():
    # deviations of numpy-valued metrics (t_on) arrive as numpy scalars
    buf = io.StringIO()
    write_csv(ORACLE_COLUMNS,
              [OracleReport("dt_halving_t_on", np.float64(5e-11),
                            np.float64(6e-11), np.float64(0.25), 1e-3,
                            np.float64(0.25) <= 1e-3)], buf)
    assert buf.getvalue().splitlines()[1] == \
        "dt_halving_t_on,5e-11,6e-11,0.25,0.001,false"


def test_oracle_csv(profile):
    reports = run_verification_suite(profile, quick=True)
    buf = io.StringIO()
    write_csv(ORACLE_COLUMNS, reports, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == header(ORACLE_COLUMNS)
    assert len(lines) == len(reports) + 1
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 6
        assert fields[5] == "true"
        assert float(fields[3]) <= float(fields[4])
    buf = io.StringIO()
    write_csv(ORACLE_COLUMNS, [
        OracleReport("count_rate_signal_vs_poisson_sum", 0.1 + 0.2, 0.3,
                     1.8e-16, 1e-12, True),
        OracleReport("dt_halving_t_on", 5e-11, 6e-11, 0.16666666666666666,
                     1e-3, np.False_)], buf)
    assert buf.getvalue() == (
        "quantity,main_value,oracle_value,deviation,tolerance,passed\n"
        "count_rate_signal_vs_poisson_sum,0.30000000000000004,0.3,1.8e-16,"
        "1e-12,true\n"
        "dt_halving_t_on,5e-11,6e-11,0.16666666666666666,0.001,false\n")


@pytest.mark.parametrize("initial,t_end,name", [
    ((1e10, 1e7), 3e-8, "carrier"), ((1e13, 0.0), 1e-7, "photon")])
def test_reference_clamps_roundoff_below_zero(profile, monkeypatch, initial,
                                              t_end, name):
    """No drive, and a state far below transparency that decays towards 0:
    once a density is well under the 1 m^-3 absolute tolerance, the error
    control lets the step outgrow its decay, and accepted steps end a few
    hundredths of 1 m^-3 below zero. That is within CLAMP_LIMIT of the
    running maximum, so the clamp sets it to 0 and the run goes on."""
    thermal = thermal_state(profile.constants, 25.0, 0.0)
    drive = DriveWaveform(j_dc=0.0, j_ac=profile.j_ac_signal,
                          pulse_duration=profile.pulse_duration,
                          start_offset=1.0)
    clamped = []

    def recorded(kind, value, scale, t, bounds):
        clamped.append((kind, value, scale))
        return clamp_density(kind, value, scale, t, bounds)

    monkeypatch.setattr("gainswitch.dynamics.clamp_density", recorded)
    run = adaptive_reference(thermal, drive, t_end, initial=initial)
    assert clamped and {kind for kind, _, _ in clamped} == {name}
    assert all(0.0 < -value <= CLAMP_LIMIT * scale
               for _, value, scale in clamped)
    assert run.n_end >= 0.0 and run.s_end >= 0.0


@pytest.mark.parametrize("initial,t_end,name", [
    ((1e10, 1e7), 3e-8, "carrier"), ((1e13, 0.0), 1e-7, "photon")])
def test_reference_refuses_a_clamp_past_the_limit(profile, monkeypatch,
                                                  initial, t_end, name):
    """The set-up of test_reference_clamps_roundoff_below_zero with no
    clamp allowed: the first negative density is refused in integrate's
    words, naming the density and the end of the step that made it."""
    monkeypatch.setattr("gainswitch.dynamics.CLAMP_LIMIT", 0.0)
    thermal = thermal_state(profile.constants, 25.0, 0.0)
    drive = DriveWaveform(j_dc=0.0, j_ac=profile.j_ac_signal,
                          pulse_duration=profile.pulse_duration,
                          start_offset=1.0)
    with pytest.raises(DivergenceError, match=(
            rf"^{name} density -\d\.\d{{3}}e[-+]\d\d at t = "
            r"\d\.\d{6}e[-+]\d\d s exceeds the clamp limit$")):
        adaptive_reference(thermal, drive, t_end, initial=initial)

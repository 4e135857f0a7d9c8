"""End-to-end checks of the headline results, one test per criterion.

Each test records a PASS/FAIL line that the terminal summary prints, then
asserts. Tolerances are stated inline next to the reference values.
"""

import math
import time

import numpy as np
from conftest import record_criterion

from gainswitch.attack import (count_rate_no_attack, min_feasible_distance,
                               scan_distance, solve_attack)
from gainswitch.metrics import (REFERENCE_TABLE, REFERENCE_TEMPS, _cubic,
                                _hermite, compare_states,
                                max_repetition_rate)
from gainswitch.oracle import poisson_gain_oracle, run_verification_suite
from gainswitch.sweeps import run_pulse_scenario
from gainswitch.thermal import scale_parameters, thermal_state


def test_criterion_1_reference_table(table_sweep):
    rows, elapsed = table_sweep
    cells = []
    for i, row in enumerate(rows):
        temp = row.temp_c
        cells.append((f"smax_signal@{temp:g}C",
                      REFERENCE_TABLE["smax_signal_1e23_m3"][i] * 1e23,
                      row.signal.s_max, False))
        cells.append((f"smax_decoy@{temp:g}C",
                      REFERENCE_TABLE["smax_decoy_1e22_m3"][i] * 1e22,
                      row.decoy.s_max, False))
        cells.append((f"t_on_signal@{temp:g}C",
                      REFERENCE_TABLE["t_on_signal_ps"][i] * 1e-12,
                      row.signal.t_on, True))
        cells.append((f"t_peak_signal@{temp:g}C",
                      REFERENCE_TABLE["t_peak_signal_ps"][i] * 1e-12,
                      row.signal.t_peak, True))
        cells.append((f"t_on_decoy@{temp:g}C",
                      REFERENCE_TABLE["t_on_decoy_ps"][i] * 1e-12,
                      row.decoy.t_on, True))
        cells.append((f"t_peak_decoy@{temp:g}C",
                      REFERENCE_TABLE["t_peak_decoy_ps"][i] * 1e-12,
                      row.decoy.t_peak, True))
    failures = []
    for label, ref, sim, is_timing in cells:
        bad = abs(sim - ref) > 0.10 * abs(ref)
        if is_timing:
            bad = bad or abs(sim - ref) > 5e-12
        if bad:
            failures.append(f"{label} sim {sim:.4g} vs ref {ref:.4g}")
    ok = not failures and elapsed < 30.0
    detail = (f"runtime {elapsed:.1f} s; "
              f"{len(cells) - len(failures)}/{len(cells)} table cells within "
              f"10 % (timing also within 5 ps)")
    if failures:
        detail += f"; first misses: {'; '.join(failures[:3])}"
    record_criterion(1, "reference table reproduction", ok, detail)
    assert elapsed < 30.0
    assert not failures, "\n".join(failures)


def test_criterion_2_recovery_time(recovery_sweep):
    by_temp = dict(recovery_sweep)
    pm15 = by_temp[15.0]
    pm45 = by_temp[45.0]
    ok15 = pm15.recovered and abs(pm15.t_re - 1.24e-9) <= 0.10 * 1.24e-9
    ok45 = pm45.recovered and abs(pm45.t_re - 1.60e-9) <= 0.10 * 1.60e-9
    rate15 = max_repetition_rate(pm15)
    rate45 = max_repetition_rate(pm45)
    assert rate15 == 1.0 / pm15.t_re
    assert rate45 == 1.0 / pm45.t_re
    ok = ok15 and ok45
    detail = (f"t_re(15C) {pm15.t_re * 1e9:.3f} ns vs 1.24 ns, "
              f"t_re(45C) {pm45.t_re * 1e9:.3f} ns vs 1.60 ns (tol 10 %); "
              f"implied rates {rate15 / 1e6:.1f} / {rate45 / 1e6:.1f} MHz")
    record_criterion(2, "carrier recovery time", ok, detail)
    assert ok, detail


def test_criterion_3_timing_skew(table_sweep):
    rows, _ = table_sweep
    pairs = [compare_states(r.signal, r.decoy) for r in rows]
    d_peak = [p.delta_t_peak for p in pairs]
    d_on = [p.delta_t_on for p in pairs]
    monotone = all(a < b for a, b in zip(d_peak, d_peak[1:]))
    lo_ok = abs(d_peak[0] - 15.1e-12) <= 5e-12
    hi_ok = abs(d_peak[-1] - 45.0e-12) <= 5e-12
    spread = max(d_on) - min(d_on)
    spread_ok = spread < 10e-12
    ok = monotone and lo_ok and hi_ok and spread_ok
    detail = (f"delta_t_peak {d_peak[0] * 1e12:.1f} -> {d_peak[-1] * 1e12:.1f} ps "
              f"(refs 15.1 / 45.0, tol 5 ps), monotone={monotone}; "
              f"delta_t_on spread {spread * 1e12:.1f} ps (< 10 ps)")
    record_criterion(3, "signal/decoy timing skew", ok, detail)
    assert ok, detail


def test_criterion_4_intensity_ratio(table_sweep):
    rows, _ = table_sweep
    r15 = compare_states(rows[0].signal, rows[0].decoy).smax_ratio
    r45 = compare_states(rows[-1].signal, rows[-1].decoy).smax_ratio
    ok15 = abs(r15 - 1.61) <= 0.15 * 1.61
    ok45 = abs(r45 - 14.56) <= 0.15 * 14.56
    ok = ok15 and ok45
    detail = (f"smax ratio {r15:.3f} at 15C vs 1.61, {r45:.3f} at 45C "
              f"vs 14.56 (tol 15 %)")
    record_criterion(4, "signal/decoy intensity ratio", ok, detail)
    assert ok, detail


def test_criterion_5_pulse_train_instability(trains):
    hot = trains[(800e6, 45.0)]
    cold = trains[(800e6, 15.0)]
    slow = trains[(500e6, 45.0)]
    grow = hot[1].s_max / hot[0].s_max
    cold_dev = abs(cold[1].s_max / cold[0].s_max - 1.0)
    slow_dev = abs(slow[1].s_max / slow[0].s_max - 1.0)
    ok_grow = grow > 1.01
    ok_cold = cold_dev < 1e-3
    ok_slow = slow_dev < 1e-3
    ok = ok_grow and ok_cold and ok_slow
    detail = (f"800MHz/45C second pulse x{grow:.3f} (> 1.01); "
              f"800MHz/15C dev {cold_dev:.2e}, 500MHz/45C dev {slow_dev:.2e} "
              f"(both < 1e-3)")
    record_criterion(5, "pulse train instability", ok, detail)
    assert ok, detail


def test_criterion_6_attack_feasibility(profile):
    sc = profile.attack
    t0 = time.perf_counter()
    boundary = min_feasible_distance(sc)
    sols = scan_distance(sc, 48.6, 140.0, 0.5)
    at_100 = solve_attack(sc, 100.0)
    elapsed = time.perf_counter() - t0
    ratios = [s.eta_ratio for s in sols]
    blocks = [s.p_block for s in sols]
    residual = max(max(abs(s.residual_signal), abs(s.residual_decoy))
                   for s in sols)
    ok_boundary = abs(boundary - 48.6) <= 0.1
    ok_ratio = all(10.40 <= r <= 10.50 for r in ratios)
    ok_block = all(0.714 <= b <= 0.716 for b in blocks)
    ok_delta = abs(at_100.delta_prime_db_per_km - 0.11) <= 0.005
    ok_residual = residual < 1e-10
    ok_time = elapsed < 1.0
    ok = (ok_boundary and ok_ratio and ok_block and ok_delta and ok_residual
          and ok_time)
    detail = (f"boundary {boundary:.2f} km vs 48.6 +- 0.1; eta'/eta in "
              f"[{min(ratios):.3f}, {max(ratios):.3f}]; p_block in "
              f"[{min(blocks):.4f}, {max(blocks):.4f}]; delta'(100km) "
              f"{at_100.delta_prime_db_per_km:.4f} dB/km; max residual "
              f"{residual:.1e}; runtime {elapsed:.2f} s")
    record_criterion(6, "attack feasibility window", ok, detail)
    assert ok, detail


def test_criterion_7_oracle_suites(profile, halving_runs):
    y0 = profile.attack.y0
    worst_grid = 0.0
    for mean in np.linspace(0.1, 1.0, 10):
        for eta in np.linspace(0.0, 1.0, 10):
            closed = count_rate_no_attack(mean, eta, y0)
            oracle = poisson_gain_oracle(mean, eta, y0)
            dev = abs(closed - oracle) / max(abs(closed), abs(oracle))
            worst_grid = max(worst_grid, dev)
    ok_grid = worst_grid <= 1e-12

    reports = run_verification_suite(profile, quick=False)
    failing = [r.quantity for r in reports if not r.passed]
    ok_suite = not failing

    coarse, fine = halving_runs
    worst_halving = 0.0
    for name in ("t_on", "t_peak", "s_max", "pulse_energy", "t_re"):
        a = getattr(coarse, name)
        b = getattr(fine, name)
        worst_halving = max(worst_halving, abs(a - b) / abs(b))
    ok_halving = worst_halving < 1e-3

    ok = ok_grid and ok_suite and ok_halving
    detail = (f"poisson grid worst dev {worst_grid:.1e} (100 points, "
              f"tol 1e-12); verification suite "
              f"{len(reports) - len(failing)}/{len(reports)} passed; "
              f"dt-halving worst dev {worst_halving:.1e} (tol 1e-3)")
    if failing:
        detail += f"; failing: {', '.join(failing)}"
    record_criterion(7, "oracle agreement", ok, detail)
    assert ok, detail


def test_criterion_8_analytic_identities(profile, constants):
    reference = constants.g0_ref * constants.n0_ref
    worst_product = 0.0
    for offset in (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0):
        g0, n0, _ = scale_parameters(constants, offset)
        worst_product = max(worst_product,
                            abs(g0 * n0 - reference) / reference)
    ok_product = worst_product <= 1e-12

    base = thermal_state(constants, 25.0, profile.j_dc)
    worst_ratio = 0.0
    for temp in REFERENCE_TEMPS:
        state = thermal_state(constants, temp, profile.j_dc)
        expected = math.exp((temp - 25.0) / constants.t0)
        worst_ratio = max(worst_ratio,
                          abs(state.j_th / base.j_th - expected) / expected)
    ok_ratio = worst_ratio <= 1e-10

    # N at extract_metrics' t_peak, from the cubic Hermite interpolant of
    # the step that holds it, found through the grid index; the edge is
    # at t = 0
    worst_peak = 0.0
    for temp in REFERENCE_TEMPS:
        thermal, traj, pm = run_pulse_scenario(profile, temp, "signal")
        x = pm.t_peak / traj.dt
        k = int(np.searchsorted(traj.index, x, side="right")) - 1
        stride = int(traj.index[k + 1] - traj.index[k])
        u = (x - int(traj.index[k])) / stride
        (dn_start, _), (dn_end, _) = traj.step_slopes(k)
        p = _hermite(traj.n, k, (dn_start, dn_end), stride * traj.dt)
        worst_peak = max(worst_peak, abs(_cubic(p, u) / thermal.n_th - 1.0))
    ok_peak = worst_peak <= 0.01

    ok = ok_product and ok_ratio and ok_peak
    detail = (f"g0*n0 drift {worst_product:.1e} (tol 1e-12); threshold "
              f"current ratio dev {worst_ratio:.1e} (tol 1e-10); N at S peak "
              f"off n_th by {worst_peak * 100:.3f} % (tol 1 %)")
    record_criterion(8, "analytic identities", ok, detail)
    assert ok, detail

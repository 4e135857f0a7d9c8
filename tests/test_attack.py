import dataclasses
import io
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gainswitch
from gainswitch import attack
from gainswitch.attack import (MAX_SCAN_POINTS, SCAN_COLUMNS, AttackScan,
                               AttackScenario, AttackSolution,
                               DegenerateAttackError, NoCrossingError,
                               ScanRangeError, channel_transmittance,
                               count_rate_decoy_attacked,
                               count_rate_no_attack,
                               count_rate_signal_attacked,
                               min_feasible_distance, scan_distance,
                               solve_attack, summarize_scan, yield_n)
from gainswitch.oracle import (decoy_attacked_gain_oracle,
                               poisson_gain_oracle,
                               signal_attacked_gain_oracle)
from gainswitch.rows import header, write_array_csv


@pytest.fixture(scope="module")
def gys(profile):
    return profile.attack


def test_scenario_validation(gys):
    with pytest.raises(ValueError):
        replace(gys, mu=0.05, nu=0.05)
    with pytest.raises(ValueError):
        replace(gys, alpha=1.0)
    with pytest.raises(ValueError):
        replace(gys, beta_d=0.9)   # must stay below alpha
    with pytest.raises(ValueError):
        replace(gys, beta_d=0.0)
    with pytest.raises(ValueError):
        replace(gys, p_dis=0.0)
    with pytest.raises(ValueError):
        replace(gys, p_dis=1.1)
    with pytest.raises(ValueError):
        replace(gys, y0=-1e-6)
    with pytest.raises(ValueError):
        replace(gys, eta0=1.5)
    with pytest.raises(ValueError):
        replace(gys, delta_db_per_km=0.0)
    for field in dataclasses.fields(gys):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError,
                               match=f"^{field.name} must lie in"):
                replace(gys, **{field.name: value})


def test_channel_transmittance(gys):
    assert channel_transmittance(gys.eta0, gys.delta_db_per_km, 0.0) == gys.eta0
    assert channel_transmittance(0.045, 0.21, 100.0) == pytest.approx(
        0.045 * 10.0 ** -2.1, rel=1e-12)
    ten_db = 10.0 / gys.delta_db_per_km
    assert channel_transmittance(gys.eta0, gys.delta_db_per_km,
                                 ten_db) == pytest.approx(gys.eta0 / 10.0,
                                                          rel=1e-12)


def test_yield_trivials():
    assert yield_n(0, 0.3, 1.7e-6) == 1.7e-6
    assert yield_n(1, 1.0, 1.7e-6) == 1.0 + 1.7e-6
    assert yield_n(2, 0.1, 0.0) == pytest.approx(0.19, rel=1e-12)


def test_yield_bounds_and_monotonicity():
    y0 = 1.7e-6
    for eta in (0.0, 0.045, 0.5, 1.0):
        values = [yield_n(n, eta, y0) for n in range(6)]
        assert all(y0 <= v <= 1.0 + y0 + 1e-15 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_count_rate_trivials():
    assert count_rate_no_attack(0.48, 0.0, 0.0) == 0.0
    assert count_rate_no_attack(0.48, 1.0, 0.0) == pytest.approx(
        1.0 - math.exp(-0.48), rel=1e-12)


def test_count_rate_matches_poisson_oracle(gys):
    eta = channel_transmittance(gys.eta0, gys.delta_db_per_km, 100.0)
    for mean in (gys.mu, gys.nu):
        closed = count_rate_no_attack(mean, eta, gys.y0)
        oracle = poisson_gain_oracle(mean, eta, gys.y0)
        assert closed == pytest.approx(oracle, rel=1e-12)


def test_decoy_attacked_blocking_off(gys):
    nu_p = gys.beta_d * gys.nu
    for eta_p in (0.001, 0.01, 0.045):
        expected = (gys.p_dis * count_rate_no_attack(nu_p, eta_p, gys.y0)
                    + (1.0 - gys.p_dis) * gys.y0)
        assert count_rate_decoy_attacked(gys, eta_p, 0.0) == expected


def test_decoy_attacked_reduces_to_channel_swap():
    # alpha and beta_d sit a hair below their excluded endpoint 1
    sc = AttackScenario(mu=0.48, nu=0.05, alpha=1.0 - 1e-13,
                        beta_d=1.0 - 1e-12, p_dis=1.0, y0=1.7e-6,
                        eta0=0.045, delta_db_per_km=0.21)
    got = count_rate_decoy_attacked(sc, 0.01, 0.0)
    assert got == pytest.approx(count_rate_no_attack(sc.nu, 0.01, sc.y0),
                                rel=1e-9)


def test_decoy_attacked_matches_term_oracle(gys):
    got = count_rate_decoy_attacked(gys, 0.01, 0.5)
    oracle = decoy_attacked_gain_oracle(gys, 0.01, 0.5)
    assert got == pytest.approx(oracle, rel=1e-12)


def test_signal_attacked_trivials(gys):
    dark_free = replace(gys, y0=0.0)
    assert count_rate_signal_attacked(dark_free, 0.0) == 0.0


def test_signal_attacked_asymptotic_multiphoton():
    # at mu' = 50 essentially every pulse is multiphoton
    sc = AttackScenario(mu=100.0, nu=0.05, alpha=0.5, beta_d=0.4,
                        p_dis=1.0, y0=0.0, eta0=0.045, delta_db_per_km=0.21)
    mu_p = sc.alpha * sc.mu
    assert (mu_p + 1.0) * math.exp(-mu_p) < 1e-20
    eta_p = 0.37
    assert abs(count_rate_signal_attacked(sc, eta_p) - eta_p) <= 1e-20 * eta_p


def test_signal_attacked_matches_term_oracle(gys):
    got = count_rate_signal_attacked(gys, 0.01)
    oracle = signal_attacked_gain_oracle(gys, 0.01)
    assert got == pytest.approx(oracle, rel=1e-12)


def test_solve_at_100_km(gys):
    sol = solve_attack(gys, 100.0)
    assert sol.feasible
    assert 10.4 < sol.eta_ratio < 10.5
    assert 0.714 < sol.p_block < 0.716
    assert sol.eta_prime > sol.eta
    assert sol.eta_prime <= gys.eta0
    assert abs(sol.residual_signal) < 1e-10
    assert abs(sol.residual_decoy) < 1e-10
    assert 0.0 <= sol.delta_prime_db_per_km <= gys.delta_db_per_km


def test_solve_at_40_km_infeasible(gys):
    sol = solve_attack(gys, 40.0)
    assert not sol.feasible
    assert sol.eta_prime > gys.eta0


def test_solve_near_degenerate_pns():
    sc = AttackScenario(mu=0.48, nu=0.05, alpha=1.0 - 1e-13,
                        beta_d=1.0 - 1e-12, p_dis=1.0, y0=0.0,
                        eta0=0.045, delta_db_per_km=0.21)
    sol = solve_attack(sc, 100.0)
    assert abs(sol.residual_signal) < 1e-12
    assert abs(sol.residual_decoy) < 1e-12
    assert 0.0 < sol.p_block < 1.0


def test_solve_degenerate_inputs(gys):
    # eta = 0.045 * 10^(-0.021 L) underflows to 0 near L = 15,345 km
    with pytest.raises(DegenerateAttackError, match="L = 20000.0 km"):
        solve_attack(gys, 20000.0)
    # 1 - (mu'+1) exp(-mu') rounds to 0 for mu' below about 1.5e-8
    tiny = replace(gys, mu=1e-9, nu=1e-10)
    with pytest.raises(DegenerateAttackError, match="multiphoton"):
        solve_attack(tiny, 100.0)
    with pytest.raises(DegenerateAttackError, match="multiphoton"):
        min_feasible_distance(tiny)
    # nu' exp(-nu') eta' underflows once eta' is tiny; nu = 1e-310 is valid
    # (without dark counts, which would bury the decoy photon term first)
    with pytest.raises(DegenerateAttackError, match="decoy single-photon"):
        scan_distance(replace(gys, nu=1e-310, y0=0.0), 1.0, 1500.0, 0.5)
    with pytest.raises(DegenerateAttackError,
                       match="decoy photon term .* at L = 1.0 km"):
        scan_distance(replace(gys, nu=1e-310), 1.0, 1500.0, 0.5)
    # the photon terms sink below the rounding of y0: the decoy term past
    # 608.4 km
    assert solve_attack(gys, 608.3).feasible
    with pytest.raises(DegenerateAttackError,
                       match="decoy photon term .* at L = 608.4 km"):
        solve_attack(gys, 608.4)
    with pytest.raises(DegenerateAttackError, match="L = 900.0 km"):
        solve_attack(gys, 900)
    # y0 cancels from the boundary, so rounding against y0 cannot reach it:
    # at p_dis = 1e-9 it lies at 472.5 km for every y0 (see
    # test_min_feasible_distance_independent_of_y0), though solve_attack
    # there loses the photon term (2.7e-13) against y0 = 0.05
    assert min_feasible_distance(gys, l_max=1000.0) == 48.54482427554037
    with pytest.raises(DegenerateAttackError, match="decoy photon term"):
        solve_attack(replace(gys, p_dis=1e-9, y0=0.05), 472.5228440015135)
    # at p_dis = 1e-15 the boundary lies near 758 km, past l_max = 500 km
    with pytest.raises(NoCrossingError):
        min_feasible_distance(replace(gys, p_dis=1e-15, y0=1e-2))
    assert min_feasible_distance(replace(gys, p_dis=1e-15, y0=1e-2),
                                 l_max=1000.0) == 758.2371297158259
    # a subnormal p_dis*multi*eta0 over mu > 1 underflows the transmittance
    # at the boundary
    with pytest.raises(DegenerateAttackError,
                       match=r"boundary transmittance .* underflows to 0"):
        min_feasible_distance(replace(gys, mu=2.0, nu=1.0, p_dis=1e-323,
                                      eta0=1.0))


@pytest.mark.parametrize("length", [
    math.nan, -5.0, -5e-324, math.inf, -math.inf, True, False,
    pytest.param(np.True_, id="np.True_"),
    pytest.param(np.False_, id="np.False_")])
def test_solve_attack_refuses_lengths_no_grid_holds(gys, length):
    """solve_attack takes the lengths a scan's grid can hold,
    0 <= length_km < inf: nan, a negative length (whose eta exceeds eta0)
    and inf are refused by name, not solved. So is a bool, though
    0 <= True < inf: it is no length."""
    with pytest.raises(ScanRangeError, match="length_km"):
        solve_attack(gys, length)


@pytest.mark.parametrize("length", [100, np.int64(100), np.float32(100.0)],
                         ids=["int", "np.int64", "np.float32"])
def test_solve_attack_solves_a_float(gys, length):
    """An integer or narrower length is solved as the float it equals:
    length_km is a Python float, as AttackSolution declares, and every
    field is that of the float solve."""
    sol = solve_attack(gys, length)
    assert type(sol.length_km) is float
    assert repr(sol) == repr(solve_attack(gys, 100.0))


@pytest.mark.parametrize("call, key", [
    (lambda sc: solve_attack(sc, 10**400), "length_km"),
    (lambda sc: scan_distance(sc, 0, 10**400, 1), "l_max"),
    (lambda sc: scan_distance(sc, 10**400, 10**401, 1.0), "l_min"),
    (lambda sc: scan_distance(sc, 0.0, 10.0, 10**400), "step")],
    ids=["solve_attack", "scan_l_max", "scan_l_min_and_l_max", "scan_step"])
def test_int_too_large_for_a_float_is_no_length(gys, call, key):
    """An int past the float range passes 0 <= x < inf, which Python
    decides exactly, but has no float to solve or scan at: it is a
    ScanRangeError naming the key, not the OverflowError of converting
    it."""
    with pytest.raises(ScanRangeError,
                       match=f"^{key} must lie in .*, got 1000000"):
        call(gys)
    # nor is it an l_max for the boundary's closed form, as for a scan
    with pytest.raises(ScanRangeError, match="^l_max must lie in"):
        min_feasible_distance(gys, 10**400)


@pytest.mark.parametrize("length", [10**5000, -10**5000], ids=["pos", "neg"])
def test_int_too_long_to_print_is_no_length(gys, length):
    """An int of more digits than Python prints by default is refused as
    any huge int is, and the message gives its size, not its digits."""
    with pytest.raises(ScanRangeError,
                       match=r"^length_km must lie in \[0, inf\), "
                             r"got an int of about 5000 digits$"):
        solve_attack(gys, length)


def test_solve_attack_at_zero(gys):
    for zero in (0.0, -0.0):
        sol = solve_attack(gys, zero)
        assert repr(sol) == repr(scan_distance(gys, zero, 1.0, 0.5)[0])
        assert math.copysign(1.0, sol.length_km) == math.copysign(1.0, zero)
        assert sol.eta == gys.eta0


def _first_failure(scenario, l_min, l_max, step):
    """(type, message) of the first grid length at which solve_attack
    raises, walking the grid one length at a time."""
    k = 0
    length = l_min
    while length <= l_max + 1e-9 * step:
        try:
            solve_attack(scenario, length)
        except DegenerateAttackError as exc:
            return type(exc), str(exc)
        k += 1
        length = l_min + k * step
    return None


DEGENERATE_SCANS = pytest.mark.parametrize("change, grid, message", [
    ({}, (1.0, 1000.0, 0.5), "decoy photon term .* at L = 608.5 km"),
    ({}, (0.0, 700.0, 0.37), "decoy photon term .* at L = 608.65 km"),
    ({}, (16000.0, 20000.0, 0.5),
     "channel transmittance underflows to 0 at L = 16000.0 km"),
    ({"nu": 1e-310, "y0": 0.0}, (1.0, 1500.0, 0.5), "decoy single-photon"),
    ({"nu": 1e-310}, (1.0, 1500.0, 0.5), "decoy photon term .* L = 1.0 km"),
    # several checks fail at the first length: eta, then the photon term,
    # then the multiphoton fraction
    ({"mu": 1e-9, "nu": 1e-10}, (1.0, 200.0, 0.5), "multiphoton fraction"),
    ({"mu": 1e-9, "nu": 1e-10}, (16000.0, 16010.0, 1.0),
     "channel transmittance underflows"),
    ({"mu": 1e-9, "nu": 1e-10, "y0": 0.05}, (1.0, 200.0, 0.5),
     "decoy photon term .* L = 1.0 km")],
    ids=("photon_limit", "photon_limit_0.37", "eta_underflow",
         "single_underflow", "nu_1e-310_photon", "multiphoton",
         "multiphoton_eta", "multiphoton_photon"))


def _assert_first_failure(scenario, grid, message):
    with pytest.raises(DegenerateAttackError, match=message) as info:
        scan_distance(scenario, *grid)
    assert (type(info.value), str(info.value)) == _first_failure(scenario,
                                                                 *grid)


@DEGENERATE_SCANS
def test_scan_degenerate_precedence(gys, change, grid, message):
    """A scan raises the error solve_attack raises at the first failing
    length of its grid, with the same message and L."""
    _assert_first_failure(replace(gys, **change), grid, message)


@DEGENERATE_SCANS
def test_scan_degenerate_precedence_in_chunks(gys, monkeypatch, change, grid,
                                              message):
    """The same when the grid is solved 7 lengths at a time: the first
    failing length lies in the first chunk or in a later one."""
    monkeypatch.setattr(attack, "_CHUNK", 7)
    monkeypatch.setattr(attack, "_last_grid", (None, None))
    _assert_first_failure(replace(gys, **change), grid, message)


def test_scan_failure_in_a_later_chunk(gys):
    """At the real chunk size: the decoy photon term, which falls with
    distance, is lost from about 608.4 km, past the first chunk of a
    0-700 km grid in steps of 0.005 km; the scan raises what solve_attack
    raises at the first failing grid length."""
    step = 0.005

    def failure(k):
        try:
            solve_attack(gys, 0.0 + k * step)
        except DegenerateAttackError as exc:
            return str(exc)
        return None

    ok, failing = 0, round(700.0 / step)
    while failing - ok > 1:
        mid = (ok + failing) // 2
        if failure(mid) is None:
            ok = mid
        else:
            failing = mid
    assert failing > attack._CHUNK
    with pytest.raises(DegenerateAttackError) as info:
        scan_distance(gys, 0.0, 700.0, step)
    assert str(info.value) == failure(failing)


def test_degenerate_scenario_on_a_shared_grid(gys):
    """The checks run on every scan, also one that reuses the no-attack
    columns of the grid before it: a tiny alpha (the multiphoton fraction
    rounds to 0) and beta_d = 1e-310 (the single-photon gain underflows
    from 570.5 km) raise what solve_attack raises at the first failing
    length."""
    grid = (1.0, 600.0, 0.5)
    shared = scan_distance(gys, *grid)
    for change, message in (
            ({"alpha": 1e-9, "beta_d": 1e-10}, "multiphoton fraction"),
            ({"beta_d": 1e-310},
             "decoy single-photon gain .* L = 570.5 km")):
        _assert_first_failure(replace(gys, **change), grid, message)
    assert scan_distance(gys, *grid).eta is shared.eta


def test_min_feasible_distance(gys):
    boundary = min_feasible_distance(gys)
    assert abs(boundary - 48.6) <= 0.1
    assert boundary == 48.54482427554037
    assert abs(boundary - _bisect_with_solve_attack(gys, 1e-13)) <= 1e-12
    # the solved transmittance sits on the detector budget at the boundary
    sol = solve_attack(gys, boundary)
    assert sol.eta_prime == pytest.approx(gys.eta0, rel=1e-12)
    # lossier fibre or more dark counts put the signal term at 500 km below
    # solve_attack's rounding limit; the closed form never evaluates it
    for change, expected in (({"delta_db_per_km": 0.3}, 33.98137699287826),
                             ({"delta_db_per_km": 0.35}, 29.126894565324225),
                             ({"y0": 1e-2}, boundary)):
        lossy = replace(gys, **change)
        assert min_feasible_distance(lossy) == expected
        assert solve_attack(lossy, expected).eta_prime == pytest.approx(
            lossy.eta0, rel=1e-12)


def test_min_feasible_distance_independent_of_y0(gys):
    """y0 cancels from the signal balance, so every dark count rate gives
    the same boundary to the last bit, also where y0 buries the photon
    term in solve_attack."""
    for scenario, expected in ((gys, 48.54482427554037),
                               (replace(gys, p_dis=1e-9), 472.5228440015135)):
        assert {min_feasible_distance(replace(scenario, y0=y0))
                for y0 in (0.0, 1.7e-6, 1e-2, 0.05)} == {expected}


def test_min_feasible_distance_always_feasible(gys):
    # p_dis * multi * eta0 rounds to 1: eta_prime < eta0 = 1 everywhere
    sure = replace(gys, mu=100.0, alpha=0.5, p_dis=1.0, eta0=1.0)
    assert min_feasible_distance(sure) == 0.0


def test_min_feasible_distance_easier_when_always_distinguished(gys):
    assert min_feasible_distance(replace(gys, p_dis=1.0)) < \
        min_feasible_distance(gys)


def test_min_feasible_distance_perfect_coupling(gys):
    ideal = replace(gys, eta0=1.0)
    boundary = min_feasible_distance(ideal)
    assert boundary > 0.0
    assert solve_attack(ideal, boundary).eta_prime == pytest.approx(
        1.0, abs=2e-3)


def test_min_feasible_distance_no_crossing(gys):
    hopeless = replace(gys, p_dis=1e-13, y0=0.0)
    with pytest.raises(NoCrossingError):
        min_feasible_distance(hopeless)
    for l_max in (math.inf, math.nan, 1e-9, -1.0):
        with pytest.raises(ScanRangeError, match="^l_max must lie in"):
            min_feasible_distance(gys, l_max=l_max)


def test_scan_grid_inclusive(gys):
    sols = scan_distance(gys, 50.0, 52.0, 1.0)
    assert [s.length_km for s in sols] == [50.0, 51.0, 52.0]
    assert len(scan_distance(gys, 50.0, 52.0, 0.5)) == 5
    # the rounding slack past l_max scales with the step
    assert len(scan_distance(gys, 0.0, 1e-12, 1e-13)) == 11
    assert [s.length_km for s in scan_distance(gys, 0.0, 1e-320, 1e-320)] \
        == [0.0, 1e-320]
    # the grid starts at l_min itself, sign of -0.0 included
    start = scan_distance(gys, -0.0, 1.0, 0.5)[0].length_km
    assert math.copysign(1.0, start) == -1.0
    for bad in ((52.0, 50.0, 1.0), (50.0, 52.0, 0.0), (-1.0, 52.0, 1.0),
                (50.0, math.inf, 1.0), (math.nan, 52.0, 1.0),
                (50.0, 52.0, math.inf), (50.0, 52.0, math.nan)):
        with pytest.raises(ScanRangeError):
            scan_distance(gys, *bad)


def test_grid_ends_at_the_first_point_past_its_end():
    """_grid counts up from k = int(span) to the first grid point past
    top = l_max + 1e-9 step. It never needs to count down: span has two
    roundings and is under MAX_SCAN_POINTS, so it is off by far less than
    a step, and point int(span) - 1 lies at or below top. The ends lie
    within ulps of l_min + (m - 1e-9) step, where span can round up onto
    m past the true count (at_edge), next to starts that dwarf the step
    (points that round onto each other)."""
    rng = random.Random(29)
    at_edge = 0
    for _ in range(3000):
        step = rng.uniform(0.05, 1.0) * 10.0 ** rng.randint(-12, 3)
        l_min = rng.choice((0.0, rng.random() * 10.0 ** rng.randint(-3, 17)))
        l_max = l_min + (rng.randint(1, 300) - 1e-9) * step
        for _ in range(rng.randint(0, 40)):
            l_max = math.nextafter(l_max, rng.choice((0.0, math.inf)))
        top = l_max + 1e-9 * step
        span = (top - l_min) / step
        if not (l_min < l_max and span < 10**4):   # small grids only
            continue
        k = int(span)
        at_edge += l_min + k * step > top
        assert k == 0 or l_min + (k - 1) * step <= top
        lengths = attack._grid(l_min, l_max, step)
        count = len(lengths)
        assert lengths[-1] == l_min + (count - 1) * step <= top
        assert l_min + count * step > top
    assert at_edge > 0


def test_scan_grid_is_bounded_before_allocation(gys):
    """A grid of more than MAX_SCAN_POINTS points raises ScanRangeError
    before any of it is built: 10**9 points would need 8 GB a column."""
    assert MAX_SCAN_POINTS == 10**7
    tracemalloc.start()
    try:
        for grid in ((0.0, 1e6, 1e-3), (0.0, 1e300, 1e-300),
                     (0.0, float(MAX_SCAN_POINTS), 1.0)):   # 10**7 + 1 points
            with pytest.raises(ScanRangeError,
                               match="more than MAX_SCAN_POINTS = 10000000"):
                scan_distance(gys, *grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_scan_in_chunks_bounds_memory(gys, monkeypatch):
    """A scan of many chunks allocates the columns it keeps and the
    temporaries of one chunk (its AttackScan, its no-attack columns,
    libm's lists), whatever its length; its length and eta columns are
    read-only, as a scan of one chunk's are."""
    chunk = 2**12
    monkeypatch.setattr(attack, "_CHUNK", chunk)
    tracemalloc.start()
    try:
        scan = scan_distance(gys, 1.0, 1.0 + 16 * chunk * 0.005, 0.005)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scan) == 16 * chunk + 1
    kept = sum(column.nbytes for column in scan._columns())
    assert peak < kept + 32 * 8 * chunk
    assert not (scan.length_km.flags.writeable or scan.eta.flags.writeable)
    for k in (0, chunk - 1, chunk, 16 * chunk):
        assert scan[k] == solve_attack(gys, scan.length_km[k].item())


def test_scans_of_one_grid_share_no_attack_columns(gys):
    """Scans that differ only in the heating (alpha, beta_d, p_dis) share
    the read-only length and eta columns of their grid, and every solution
    is the one solve_attack gives."""
    grid = (1.0, 200.0, 2.5)
    first = scan_distance(gys, *grid)
    for alpha, beta_d, p_dis in ((0.6, 0.2, 0.55), (0.9, 0.85, 1.0),
                                 (gys.alpha, gys.beta_d, 0.7)):
        sc = replace(gys, alpha=alpha, beta_d=beta_d, p_dis=p_dis)
        scan = scan_distance(sc, *grid)
        assert scan.length_km is first.length_km and scan.eta is first.eta
        assert [repr(sol) for sol in scan] == [
            repr(solve_attack(sc, length))
            for length in scan.length_km.tolist()]
    for column in (first.length_km, first.eta):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1.0


def test_scan_memo_key(gys):
    """A scan that changes any one channel, source or grid input of the
    scan before it solves its grid again, 0.0 and -0.0 included."""
    grid = (0.0, 10.0, 0.5)
    for before, (change, after) in (
            (({}, grid), ({"eta0": 0.05}, grid)),
            (({}, grid), ({"delta_db_per_km": 0.2}, grid)),
            (({}, grid), ({"mu": 0.5}, grid)),
            (({}, grid), ({"nu": 0.06}, grid)),
            (({}, grid), ({"y0": 2e-6}, grid)),
            (({"y0": 0.0}, grid), ({"y0": -0.0}, grid)),
            (({}, grid), ({}, (-0.0, 10.0, 0.5))),
            (({}, grid), ({}, (0.0, 10.5, 0.5))),
            (({}, grid), ({}, (0.0, 10.0, 0.25)))):
        first = scan_distance(replace(gys, **before[0]), *before[1])
        sc = replace(gys, **change)
        scan = scan_distance(sc, *after)
        assert scan.eta is not first.eta
        assert math.copysign(1.0, scan[0].length_km) == math.copysign(
            1.0, after[0])
        assert [repr(sol) for sol in scan] == [
            repr(solve_attack(sc, length))
            for length in scan.length_km.tolist()]


def test_scan_monotonic_and_stable(gys):
    sols = scan_distance(gys, 49.0, 140.0, 1.0)
    etas = [s.eta for s in sols]
    primes = [s.eta_prime for s in sols]
    assert all(a > b for a, b in zip(etas, etas[1:]))
    assert all(a > b for a, b in zip(primes, primes[1:]))
    assert all(s.feasible for s in sols)
    ratios = [s.eta_ratio for s in sols]
    assert max(ratios) / min(ratios) - 1.0 < 0.002
    assert all(10.4 < r < 10.5 for r in ratios)
    blocks = [s.p_block for s in sols]
    assert max(blocks) - min(blocks) < 1e-3
    assert all(0.714 < b < 0.716 for b in blocks)


def test_scan_boundary_consistency(gys):
    boundary = min_feasible_distance(gys)
    sols = scan_distance(gys, 40.0, 60.0, 0.5)
    feasible_lengths = [s.length_km for s in sols if s.feasible]
    assert feasible_lengths
    assert feasible_lengths[0] >= boundary - 0.5


def test_summarize_scan(gys):
    sols = scan_distance(gys, 49.0, 60.0, 1.0)
    summary = summarize_scan(sols, minimum_distance=48.5)
    assert summary["points"] == 12
    assert summary["feasible_points"] == 12
    assert summary["min_feasible_distance_km"] == 48.5
    assert 10.4 < summary["eta_ratio_min"] <= summary["eta_ratio_max"] < 10.5
    assert 0.714 < summary["p_block_min"] <= summary["p_block_max"] < 0.716
    # json.dumps takes Python numbers only
    assert type(summary["points"]) is type(summary["feasible_points"]) is int
    assert {type(summary[f"{name}_{end}"]) for name in ("eta_ratio", "p_block")
            for end in ("min", "max")} == {float}


def test_summarize_empty_region(gys):
    sols = scan_distance(gys, 1.0, 30.0, 1.0)
    summary = summarize_scan(sols, minimum_distance=None)
    assert summary["feasible_points"] == 0
    assert summary["eta_ratio_min"] is None
    assert summary["p_block_max"] is None


def test_scan_csv(gys):
    sols = scan_distance(gys, 40.0, 50.0, 5.0)
    buf = io.StringIO()
    write_array_csv(SCAN_COLUMNS, sols, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == header(SCAN_COLUMNS)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 40.0
    assert float(first[2]) == sols[0].eta_prime
    assert first[6] in ("true", "false")
    assert lines[3].split(",")[6] == "true"
    # exact text: residuals are not written, nan and false are spelled out
    buf = io.StringIO()
    write_array_csv(SCAN_COLUMNS, AttackScan(
        length_km=np.array([40.0, 100.5]), eta=np.array([0.1 + 0.2, 1e-3]),
        eta_prime=np.array([-1e-3, 0.01]), eta_ratio=np.array([-1 / 3, 10.0]),
        p_block=np.array([math.nan, 0.7157]),
        delta_prime_db_per_km=np.array([math.nan, 0.1]),
        feasible=np.array([False, True]),
        residual_signal=np.array([1e-18, 0.0]),
        residual_decoy=np.array([-2e-18, 0.0])), buf)
    assert buf.getvalue() == (
        "L_km,eta,eta_prime,eta_ratio,p_block,delta_prime_db_km,feasible\n"
        "40.0,0.30000000000000004,-0.001,-0.3333333333333333,nan,nan,false\n"
        "100.5,0.001,0.01,10.0,0.7157,0.1,true\n")


def test_scan_is_a_sequence_of_solutions(gys):
    """An AttackScan is its columns, and also a sequence of AttackSolution
    built on demand: len, integer indexing, iteration and random.choice."""
    scan = scan_distance(gys, 40.0, 60.0, 0.5)
    assert isinstance(scan, AttackScan) and len(scan) == 41
    assert scan.length_km.dtype == float and scan.feasible.dtype == bool
    solutions = list(scan)
    assert len(solutions) == 41
    assert solutions == [scan[i] for i in range(len(scan))]
    assert scan[-1] == solutions[-1] and scan[0].length_km == 40.0
    for i in (41, -42):
        with pytest.raises(IndexError):
            scan[i]
    with pytest.raises(TypeError):
        scan[0:2]
    for sol in (scan[3], random.Random(0).choice(scan)):
        assert isinstance(sol, AttackSolution)
        # plain Python values, as a per-distance solve would hold
        assert all(type(getattr(sol, name)) is float
                   for name in ("length_km", "eta", "eta_prime", "p_block"))
        assert type(sol.feasible) is bool
        i = round((sol.length_km - 40.0) / 0.5)
        assert sol == solutions[i]
        assert sol.eta_prime == scan.eta_prime[i]
    assert sum(1 for _ in scan) == 41   # iteration can be repeated


def _solve_inline(sc, length):
    """solve_attack's closed forms written out per distance, every term
    recomputed, in the operation order the solver must keep."""
    eta = channel_transmittance(sc.eta0, sc.delta_db_per_km, length)
    q_mu = count_rate_no_attack(sc.mu, eta, sc.y0)
    q_nu = count_rate_no_attack(sc.nu, eta, sc.y0)
    mu_p = sc.alpha * sc.mu
    single_or_vacuum = (mu_p + 1.0) * math.exp(-mu_p)
    multi = 1.0 - single_or_vacuum
    eta_prime = ((q_mu - (1.0 - sc.p_dis) * sc.y0) / sc.p_dis
                 - single_or_vacuum * sc.y0) / multi - sc.y0
    residual_signal = (sc.p_dis * (multi * (eta_prime + sc.y0)
                                   + single_or_vacuum * sc.y0)
                       + (1.0 - sc.p_dis) * sc.y0) - q_mu
    nu_p = sc.beta_d * sc.nu
    p_block = ((sc.y0 - math.expm1(-nu_p * eta_prime)
                - (q_nu - (1.0 - sc.p_dis) * sc.y0) / sc.p_dis)
               / (nu_p * math.exp(-nu_p) * eta_prime))
    residual_decoy = (sc.p_dis * (sc.y0 - math.expm1(-nu_p * eta_prime)
                                  - p_block * nu_p * math.exp(-nu_p)
                                  * eta_prime)
                      + (1.0 - sc.p_dis) * sc.y0) - q_nu
    return AttackSolution(
        length_km=length, eta=eta, eta_prime=eta_prime,
        eta_ratio=eta_prime / eta, p_block=p_block,
        delta_prime_db_per_km=(sc.delta_db_per_km - 10.0
                               * math.log10(eta_prime / eta) / length),
        feasible=(0.0 <= eta_prime <= sc.eta0) and (0.0 < p_block < 1.0),
        residual_signal=residual_signal, residual_decoy=residual_decoy)


def _bisect_with_solve_attack(scenario, resolution_km, l_max=500.0):
    """The boundary by bisection on solve_attack's eta_prime, a reference
    for min_feasible_distance's closed form; None when l_max is
    infeasible."""
    def excess(length):
        return solve_attack(scenario, length).eta_prime - scenario.eta0

    lo = 1e-9
    if excess(lo) <= 0.0:
        return 0.0
    if excess(l_max) > 0.0:
        return None
    hi = l_max
    while hi - lo > resolution_km:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_scan_and_bisection_match_solve_attack(gys):
    """Every scan solution equals, bit for bit, the closed forms with every
    term recomputed per distance, and the one solve_attack gives; the
    closed-form boundary agrees with a 1e-9 km bisection on solve_attack.
    Scenarios span wide ranges and the bench's own (perfbench's
    attack_map: alpha 0.55-0.95, beta_d 0.15 to alpha - 0.05, p_dis
    0.5-1)."""
    rng = random.Random(11)
    scenarios = [gys, replace(gys, p_dis=1e-13, y0=0.0)]
    for _ in range(12):
        alpha = rng.uniform(0.05, 0.99)
        scenarios.append(replace(
            gys, alpha=alpha, beta_d=alpha * rng.uniform(0.05, 0.95),
            p_dis=rng.uniform(0.01, 1.0), y0=10.0 ** rng.uniform(-9, -3)))
    for _ in range(6):
        alpha = rng.uniform(0.55, 0.95)
        scenarios.append(replace(
            gys, alpha=alpha, beta_d=rng.uniform(0.15, alpha - 0.05),
            p_dis=rng.uniform(0.5, 1.0)))
    for sc in scenarios:
        for sol in scan_distance(sc, 1.0, 200.0, 0.5):
            assert repr(sol) == repr(solve_attack(sc, sol.length_km))
            assert repr(sol) == repr(_solve_inline(sc, sol.length_km))
        reference = _bisect_with_solve_attack(sc, 1e-9)
        try:
            boundary = min_feasible_distance(sc)
        except NoCrossingError:
            assert reference is None
        else:
            assert abs(boundary - reference) <= 1e-9


@st.composite
def valid_scenarios(draw):
    """Scenarios that pass AttackScenario's checks, over decades of mu,
    p_dis and y0."""
    unit = st.floats(1e-6, 1.0 - 1e-9)
    mu = 10.0 ** draw(st.floats(-6.0, math.log10(30.0)))
    alpha = draw(unit)
    return AttackScenario(
        mu=mu, nu=mu * draw(unit), alpha=alpha, beta_d=alpha * draw(unit),
        p_dis=10.0 ** draw(st.floats(-6.0, 0.0)),
        y0=10.0 ** draw(st.floats(-12.0, -2.0)),
        eta0=draw(st.floats(1e-6, 1.0)),
        delta_db_per_km=draw(st.floats(0.01, 1.0)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(valid_scenarios(), st.floats(1e-9, 500.0))
def test_closed_forms_balance_within_bound(sc, length):
    """Both closed forms hold to the 1e-10 bound of criterion 6 and the
    oracle over valid scenarios; the solver has no other safety net."""
    try:
        sol = solve_attack(sc, length)
    except DegenerateAttackError:
        return
    assert abs(sol.residual_signal) <= 1e-10
    if sol.eta_prime > 0.0:
        assert abs(sol.residual_decoy) <= 1e-10
    else:
        assert math.isnan(sol.p_block) and not sol.feasible


@st.composite
def scan_grids(draw):
    """(l_min, l_max, step) of grids of at most about 2,000 points, from 0
    or from a drawn length."""
    l_min = draw(st.one_of(st.just(0.0), st.floats(1e-9, 300.0)))
    step = draw(st.floats(1e-3, 10.0))
    return l_min, l_min + draw(st.integers(1, 2000)) * step, step


def _scan_or_error(scenario, grid):
    """The scan's columns as bytes, or the text of the error it raises."""
    try:
        scan = scan_distance(scenario, *grid)
    except DegenerateAttackError as exc:
        return str(exc), None
    return [column.tobytes() for column in scan._columns()], scan


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(valid_scenarios(), scan_grids())
def test_scan_bits_over_drawn_grids(sc, grid):
    """A scan of a drawn scenario and grid holds, at each length, the
    solution of the closed forms written out per distance; solved in
    chunks of 7, or again from the memo, it has the same column bytes;
    and a scan that raises gives the text solve_attack gives at the first
    failing length of the grid."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attack, "_last_grid", (None, None))
        columns, scan = _scan_or_error(sc, grid)
        again, memo = _scan_or_error(sc, grid)
        mp.setattr(attack, "_CHUNK", 7)
        mp.setattr(attack, "_last_grid", (None, None))
        chunked, _ = _scan_or_error(sc, grid)
    assert again == chunked == columns
    if scan is None:
        assert (DegenerateAttackError, columns) == _first_failure(sc, *grid)
        return
    assert memo.eta is scan.eta
    for sol in scan:
        if sol.length_km > 0.0 and sol.eta_prime > 0.0:
            expected = _solve_inline(sc, sol.length_km)
        else:   # no logarithm of the ratio to take
            expected = solve_attack(sc, sol.length_km)
        assert repr(sol) == repr(expected)


def test_import_does_not_load_scipy():
    """The closed-form attack needs no root finder: importing every module
    of the package loads no scipy module."""
    src = str(Path(gainswitch.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, gainswitch; print(gainswitch.__file__); "
            "[getattr(gainswitch, m) for m in gainswitch._SUBMODULES]; "
            "print(all(f'gainswitch.{m}' in sys.modules "
            "for m in gainswitch._SUBMODULES)); "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    where, every, loaded = done.stdout.splitlines()
    assert Path(where).resolve() == Path(gainswitch.__file__).resolve()
    assert every == "True" and loaded == "[]"

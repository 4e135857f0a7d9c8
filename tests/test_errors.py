"""The error hierarchy, and a property over the public API: a call with
one odd argument returns, or raises a GainswitchError that names it."""

import functools
import io
from contextlib import redirect_stderr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gainswitch as gs
from gainswitch import cli, errors
from gainswitch.errors import GainswitchError
from test_cli import ODD_VALUES, PROFILE_ENTRIES, profile_with

# each class, the module it was defined in before errors.py, its builtin
# base, and its stderr label
CLASSES = {
    "ConfigError": ("profiles", ValueError, "config error"),
    "DriveError": ("dynamics", ValueError, "drive error"),
    "NoSteadyStateError": ("dynamics", ValueError, "operating point error"),
    "DivergenceError": ("dynamics", RuntimeError, "divergence"),
    "OperatingPointError": ("thermal", ValueError, "operating point error"),
    "AboveThresholdBiasError": ("thermal", ValueError,
                                "operating point error"),
    "BelowThresholdPulseError": ("metrics", RuntimeError,
                                 "operating point error"),
    "UndefinedRateError": ("metrics", ValueError, "operating point error"),
    "InvalidRegimeError": ("metrics", ValueError, "operating point error"),
    "NoCrossingError": ("attack", ValueError, "attack error"),
    "DegenerateAttackError": ("attack", ValueError, "attack error"),
    "ScanRangeError": ("attack", ValueError, "attack error"),
    "TruncationError": ("oracle", RuntimeError, "attack error"),
}


def test_every_class_is_under_the_base_and_keeps_its_old_home():
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)}
    assert defined == set(CLASSES) | {"GainswitchError"}
    for name, (module, builtin, label) in CLASSES.items():
        cls = getattr(errors, name)
        assert issubclass(cls, GainswitchError) and issubclass(cls, builtin)
        assert getattr(getattr(gs, module), name) is cls
        assert getattr(gs, name) is cls
        assert (cls.label, cls.exit_code) == (
            label, 3 if label == "divergence" else 2)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_main_reports_each_class_by_its_label(name, monkeypatch):
    cls = getattr(errors, name)

    def fail(path):
        raise cls("bad key")

    monkeypatch.setattr(cli, "load_profile", fail)
    err = io.StringIO()
    with redirect_stderr(err):
        assert cli.main(["dump-config"]) == cls.exit_code
    assert err.getvalue() == f"{cls.label}: bad key\n"


@functools.cache
def pulse_context():
    """(profile, 25 C thermal state, signal drive, a 2-pulse train
    trajectory of 12,500 grid steps)."""
    profile = gs.default_profile()
    thermal = gs.thermal_state(profile.constants, 25.0, profile.j_dc)
    drive = gs.DriveWaveform(profile.j_dc, profile.j_ac_signal,
                             profile.pulse_duration)
    train = gs.DriveWaveform(profile.j_dc, profile.j_ac_signal,
                             profile.pulse_duration, period=1.25e-9,
                             n_pulses=2)
    traj = gs.integrate(thermal, train, 2e-13, 2.5e-9)
    return profile, thermal, drive, traj


def _integrate(**kw):
    _, thermal, drive, _ = pulse_context()
    return gs.integrate(thermal, drive, **kw)


# function -> (call taking keyword arguments, {key: usual values}); a run
# that integrates takes at most 10^4 steps of dt
CASES = {
    "LaserConstants": (gs.LaserConstants, {
        "d": st.floats(5e-8, 2e-7), "gamma": st.floats(0.1, 1.0),
        "beta_sp": st.floats(1e-4, 1e-2), "tau_p": st.floats(1e-12, 1e-11),
        "t_ref": st.floats(0.0, 50.0), "g0_ref": st.floats(1e-12, 5e-12),
        "n0_ref": st.floats(5e23, 2e24), "tau_n_ref": st.floats(5e-10, 2e-9),
        "t0": st.floats(50.0, 150.0), "t0a": st.floats(50.0, 150.0),
        "q": st.floats(1e-19, 2e-19)}),
    "scale_parameters": (
        lambda **kw: gs.scale_parameters(gs.default_profile().constants,
                                         **kw),
        {"delta_t": st.floats(-30.0, 30.0)}),
    "threshold_current_ratio": (
        lambda **kw: gs.threshold_current_ratio(
            gs.default_profile().constants, **kw),
        {"delta_t": st.floats(-30.0, 30.0)}),
    "thermal_state": (
        lambda **kw: gs.thermal_state(gs.default_profile().constants, **kw),
        {"temperature": st.floats(0.0, 60.0), "j_dc": st.floats(0.0, 5e6)}),
    "DriveWaveform": (gs.DriveWaveform, {
        "j_dc": st.floats(0.0, 1e7), "j_ac": st.floats(1e6, 1e9),
        "pulse_duration": st.floats(1e-11, 1e-10),
        "period": st.floats(2e-10, 1e-9), "n_pulses": st.integers(1, 4),
        "start_offset": st.floats(0.0, 1e-9)}),
    "DriveWaveform.segments": (
        lambda **kw: pulse_context()[2].segments(**kw),
        {"t_end": st.floats(1e-10, 1e-9)}),
    "integrate": (_integrate, {
        "dt": st.floats(1e-13, 1e-12), "t_end": st.floats(3e-10, 1e-9),
        "initial": st.tuples(st.floats(1e23, 5e23), st.floats(0.0, 1e18))}),
    "run_pulse_scenario": (
        lambda **kw: gs.run_pulse_scenario(gs.default_profile(), **kw),
        {"temp_c": st.floats(15.0, 45.0),
         "state": st.sampled_from(("signal", "decoy")),
         "dt": st.floats(1e-13, 1e-12), "t_end": st.floats(3e-10, 1e-9),
         "band": st.floats(1e-3, 0.1)}),
    "extract_metrics": (
        lambda **kw: gs.extract_metrics(pulse_context()[3], **kw),
        {"cycle_index": st.integers(0, 1),
         "recovery_band": st.floats(1e-3, 0.1)}),
    "AttackScenario": (gs.AttackScenario, {
        "mu": st.floats(0.3, 1.0), "nu": st.floats(0.01, 0.2),
        "alpha": st.floats(0.6, 0.95), "beta_d": st.floats(0.1, 0.5),
        "p_dis": st.floats(0.1, 1.0), "y0": st.floats(0.0, 1e-5),
        "eta0": st.floats(0.01, 1.0), "delta_db_per_km": st.floats(0.1, 0.4)}),
    "solve_attack": (
        lambda **kw: gs.solve_attack(gs.default_profile().attack, **kw),
        {"length_km": st.floats(0.0, 500.0)}),
    "scan_distance": (
        lambda **kw: gs.scan_distance(gs.default_profile().attack, **kw),
        {"l_min": st.floats(0.0, 100.0), "l_max": st.floats(200.0, 600.0),
         "step": st.floats(0.5, 50.0)}),
    "min_feasible_distance": (
        lambda **kw: gs.min_feasible_distance(gs.default_profile().attack,
                                              **kw),
        {"l_max": st.floats(50.0, 500.0)}),
    "poisson_gain_oracle": (gs.poisson_gain_oracle, {
        "mean": st.floats(0.0, 1.0), "eta": st.floats(0.0, 1.0),
        "y0": st.floats(0.0, 1e-5), "n_max": st.integers(20, 80)}),
    "write_trajectory_csv": (
        lambda **kw: gs.write_trajectory_csv(pulse_context()[3],
                                             io.StringIO(), **kw),
        {"decimate": st.integers(1, 1000)}),
    # at dt = 1 ps: 1,250 steps a cycle, at most 5 cycles
    "run_train_scenario": (
        lambda **kw: gs.run_train_scenario(gs.default_profile(), 25.0, 8e8,
                                           dt=1e-12, **kw),
        {"n_pulses": st.integers(2, 3), "settle_cycles": st.integers(0, 2)}),
}

# the words a message may use for a key, where it is not the key itself:
# the closed forms name a length L = ... km, whether a scan's or the one
# solve_attack was given
SPOKEN = {"temp_c": ("temperature",), "length_km": ("length_km", "L = ")}

# odd values that are no float: an int too large for one, a bool, a string
NOT_FLOATS = (10**400, True, "1")
# and, where no profile text comes between, an int too long to print
API_NOT_FLOATS = (*NOT_FLOATS, 10**5000)


def check_odd_arguments(call, usual, not_floats=API_NOT_FLOATS):
    """Call with each key in turn set to each odd value: it returns, or
    raises a GainswitchError naming that key; any other error escapes."""
    for key in usual:
        for value in (*map(float, ODD_VALUES), *not_floats):
            try:
                call(**{**usual, key: value})
            except GainswitchError as exc:
                assert any(word in str(exc)
                           for word in SPOKEN.get(key, (key,))), (
                    key, value, exc)


@pytest.mark.parametrize("name", list(CASES))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_odd_argument_returns_or_is_named(name, data):
    call, strategies = CASES[name]
    usual = {key: data.draw(strategy, label=key)
             for key, strategy in strategies.items()}
    check_odd_arguments(call, usual)


def test_odd_profile_value_returns_or_is_named():
    for entries in PROFILE_ENTRIES.values():
        for key, _ in entries:
            check_odd_arguments(
                lambda **kw: gs.parse_profile(profile_with(key, kw[key])),
                {key: None}, NOT_FLOATS)

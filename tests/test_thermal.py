import dataclasses
import importlib
import inspect
import math
import pkgutil

import pytest

import gainswitch
from gainswitch.dynamics import Trajectory
from gainswitch.thermal import (ELEMENTARY_CHARGE, AboveThresholdBiasError,
                                ConfigError, LaserConstants,
                                OperatingPointError, scale_parameters,
                                thermal_state, threshold_current_ratio)

REFERENCE_TEMPS = (15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0)
N_DC_REFERENCE_1E23 = (3.69, 3.65, 3.60, 3.56, 3.51, 3.47, 3.42)


def test_elementary_charge_value():
    assert ELEMENTARY_CHARGE == 1.602176634e-19


def test_constants_validation():
    with pytest.raises(ValueError):
        LaserConstants(d=-1e-7, gamma=0.5, beta_sp=1e-3, tau_p=5e-12,
                       t_ref=25.0, g0_ref=2e-12, n0_ref=1e24,
                       tau_n_ref=1.2e-9, t0=80.0, t0a=100.0)
    with pytest.raises(ValueError):
        LaserConstants(d=1e-7, gamma=1.5, beta_sp=1e-3, tau_p=5e-12,
                       t_ref=25.0, g0_ref=2e-12, n0_ref=1e24,
                       tau_n_ref=1.2e-9, t0=80.0, t0a=100.0)
    with pytest.raises(ValueError):
        LaserConstants(d=1e-7, gamma=0.5, beta_sp=0.0, tau_p=5e-12,
                       t_ref=25.0, g0_ref=2e-12, n0_ref=1e24,
                       tau_n_ref=1.2e-9, t0=80.0, t0a=100.0)
    with pytest.raises(ValueError):
        LaserConstants(d=1e-7, gamma=0.5, beta_sp=1e-3, tau_p=5e-12,
                       t_ref=25.0, g0_ref=2e-12, n0_ref=1e24,
                       tau_n_ref=1.2e-9, t0=0.0, t0a=100.0)


def test_scale_parameters_at_reference(constants):
    g0, n0, tau_n = scale_parameters(constants, 0.0)
    assert g0 == constants.g0_ref
    assert n0 == constants.n0_ref
    assert tau_n == constants.tau_n_ref


def test_scale_parameters_one_characteristic_step(constants):
    g0, n0, tau_n = scale_parameters(constants, constants.t0a)
    assert g0 == pytest.approx(constants.g0_ref / math.e, rel=1e-14)
    assert n0 == pytest.approx(constants.n0_ref * math.e, rel=1e-14)
    expected = (constants.tau_n_ref * math.e
                / math.exp(constants.t0a / constants.t0))
    assert tau_n == pytest.approx(expected, rel=1e-14)


def test_gain_transparency_product_invariant(constants):
    base = constants.g0_ref * constants.n0_ref
    for delta_t in (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0):
        g0, n0, _ = scale_parameters(constants, delta_t)
        assert abs(g0 * n0 - base) / base < 1e-12


def test_carrier_lifetime_at_45(constants):
    _, _, tau_n = scale_parameters(constants, 20.0)
    assert tau_n == pytest.approx(1.1415e-9, rel=1e-4)


def test_thermal_state_at_reference(profile, constants):
    th = thermal_state(constants, 25.0, profile.j_dc)
    assert th.n_th == pytest.approx(1.2e24, rel=1e-12)
    assert th.n_dc == pytest.approx(3.5951092268893996e23, rel=1e-12)
    # DC bias sits at 30 % of threshold at the reference temperature
    assert th.n_dc / th.n_th == pytest.approx(0.3, rel=5e-3)


def test_dc_carrier_density_across_temperatures(profile, constants):
    for temp_c, ref in zip(REFERENCE_TEMPS, N_DC_REFERENCE_1E23):
        th = thermal_state(constants, temp_c, profile.j_dc)
        assert th.n_dc / 1e23 == pytest.approx(ref, rel=1e-2)


def test_threshold_current_ratio_from_states(profile, constants):
    th25 = thermal_state(constants, 25.0, profile.j_dc)
    th45 = thermal_state(constants, 45.0, profile.j_dc)
    ratio = th45.j_th / th25.j_th
    assert abs(ratio - math.exp(20.0 / constants.t0)) < 1e-10


def test_threshold_current_ratio_closed_form(constants):
    assert threshold_current_ratio(constants, 0.0) == 1.0
    doubling = constants.t0 * math.log(2.0)
    assert threshold_current_ratio(constants, doubling) == pytest.approx(2.0, rel=1e-14)


def test_bias_above_threshold_rejected(profile, constants):
    th = thermal_state(constants, 25.0, profile.j_dc)
    with pytest.raises(AboveThresholdBiasError):
        thermal_state(constants, 25.0, th.j_th * 1.01)


def test_temperature_outside_scaling_range(profile, constants):
    # exp(delta_t / t0) overflows near 56,810 degC and underflows to 0 near
    # -59,600 degC; either way there is no operating point
    for temp in (1e5, 6e4, -6e4, -1e5):
        with pytest.raises(OperatingPointError, match="scaling laws"):
            thermal_state(constants, temp, profile.j_dc)
    assert issubclass(AboveThresholdBiasError, OperatingPointError)


@pytest.mark.parametrize("temp", [math.nan, math.inf, -math.inf])
def test_non_finite_temperature_is_named(profile, constants, temp):
    # named as the temperature, not as scale_parameters' delta_t
    with pytest.raises(OperatingPointError,
                       match=rf"^temperature must lie in \(-inf, inf\), "
                             rf"got {temp!r}$"):
        thermal_state(constants, temp, profile.j_dc)


def test_scale_parameters_rejects_non_finite(constants):
    with pytest.raises(ValueError):
        scale_parameters(constants, math.nan)
    with pytest.raises(ValueError):
        threshold_current_ratio(constants, math.inf)


def test_non_finite_reference_temperature_rejected():
    """t_ref may be any finite temperature, negative ones included, but
    not nan; a profile cannot give one, as its numbers refuse nan first."""
    with pytest.raises(ConfigError, match=r"t_ref must lie in \(-inf, inf\), got nan"):
        LaserConstants(d=1e-7, gamma=0.5, beta_sp=1e-3, tau_p=5e-12,
                       t_ref=math.nan, g0_ref=2e-12, n0_ref=1e24,
                       tau_n_ref=1.2e-9, t0=80.0, t0a=100.0)


def test_thermal_state_carries_its_constants(profile, constants):
    assert thermal_state(constants, 25.0, profile.j_dc).constants is constants
    assert "constants" not in {f.name for f in dataclasses.fields(Trajectory)}


def package_functions():
    """(qualified name, function) of every function and method defined in
    a gainswitch module, dataclass-generated __init__ methods excepted."""
    for info in pkgutil.iter_modules(gainswitch.__path__):
        module = importlib.import_module(f"gainswitch.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    generated = (attr == "__init__"
                                 and dataclasses.is_dataclass(obj))
                    if inspect.isfunction(member) and not generated:
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_function_takes_constants_beside_a_thermal_state():
    """A ThermalState carries the LaserConstants it was scaled from, so
    only the functions that scale constants to a state take them."""
    takes = {}
    for name, function in package_functions():
        for param in inspect.signature(function).parameters:
            takes.setdefault(param, set()).add(name)
    assert takes["constants"] == {"gainswitch.thermal.thermal_state",
                                  "gainswitch.thermal.scale_parameters",
                                  "gainswitch.thermal.threshold_current_ratio"}
    state_takers = takes["thermal"] | takes["thermal_a"]
    assert {"gainswitch.dynamics.integrate", "gainswitch.dynamics.derivatives",
            "gainswitch.oracle.adaptive_reference",
            "gainswitch.metrics.smax_prediction_delta"} <= state_takers
    assert not state_takers & takes["constants"]

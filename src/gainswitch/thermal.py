"""Temperature scaling of semiconductor laser parameters.

Everything here is SI (m, s, A/m^2, m^-3, m^3/s). Temperatures are degrees
Celsius; the scaling laws use only temperature differences, which are the
same in celsius and kelvin.
"""

import math
from dataclasses import dataclass

from .errors import (AboveThresholdBiasError, ConfigError, OperatingPointError,
                     check_range)

ELEMENTARY_CHARGE = 1.602176634e-19  # C, exact SI value


@dataclass(frozen=True)
class LaserConstants:
    """Device constants plus the reference parameter values quoted at t_ref."""

    d: float          # active region thickness, m
    gamma: float      # mode confinement factor
    beta_sp: float    # spontaneous emission coupling fraction
    tau_p: float      # photon lifetime, s
    t_ref: float      # reference temperature, degC
    g0_ref: float     # differential gain at t_ref, m^3/s
    n0_ref: float     # transparency carrier density at t_ref, m^-3
    tau_n_ref: float  # carrier lifetime at t_ref, s
    t0: float         # diode characteristic temperature, K
    t0a: float        # active region characteristic temperature, K
    q: float = ELEMENTARY_CHARGE  # elementary charge, C

    # each field's range, in SI units
    RANGES = {"d": "(0, inf)", "gamma": "(0, 1]", "beta_sp": "(0, 1]",
              "tau_p": "(0, inf)", "t_ref": "(-inf, inf)",
              "g0_ref": "(0, inf)", "n0_ref": "(0, inf)",
              "tau_n_ref": "(0, inf)", "t0": "(0, inf)", "t0a": "(0, inf)",
              "q": "(0, inf)"}

    def __post_init__(self):
        for name, interval in self.RANGES.items():
            check_range(getattr(self, name), name, interval, ConfigError)


@dataclass(frozen=True)
class ThermalState:
    """The laser at one temperature and DC bias, its constants included."""

    temperature: float  # degC
    g0: float           # differential gain, m^3/s
    n0: float           # transparency carrier density, m^-3
    tau_n: float        # carrier lifetime, s
    n_th: float         # threshold carrier density, m^-3
    n_dc: float         # photon-free carrier balance J_dc tau_n/(q d), m^-3;
                        # with the default profile the joint (n, s) DC fixed
                        # point lies 7.5-7.8e-4 (relative) above it at
                        # 15-45 degC, as absorption adds carriers
    j_th: float         # threshold current density, A/m^2
    constants: LaserConstants  # q, d, gamma, beta_sp, tau_p for the model


def scale_parameters(constants, delta_t):
    """(g0, n0, tau_n) at delta_t kelvin from t_ref; a negative delta_t
    (cooling) is valid.

    The gain falls and the transparency density rises with the same
    characteristic temperature t0a, so their product is invariant in
    temperature. The carrier lifetime combines both characteristic
    temperatures so that the threshold current density scales as
    exp(delta_t / t0). Raises OperatingPointError naming delta_t unless
    it is finite and the laws' exponentials neither overflow nor round
    to 0 there.
    """
    check_range(delta_t, "delta_t", "(-inf, inf)", OperatingPointError)
    try:
        ea = math.exp(delta_t / constants.t0a)
        g0 = constants.g0_ref / ea
        n0 = constants.n0_ref * ea
        tau_n = constants.tau_n_ref * ea / math.exp(delta_t / constants.t0)
    except (OverflowError, ZeroDivisionError):
        raise OperatingPointError(
            f"no finite scaled parameters at delta_t={delta_t!r} K") from None
    return g0, n0, tau_n


def thermal_state(constants, temperature, j_dc):
    """Build the full ThermalState at a temperature (degC) and DC bias (A/m^2)."""
    check_range(j_dc, "j_dc", "[0, inf)", OperatingPointError)
    check_range(temperature, "temperature", "(-inf, inf)",
                OperatingPointError)
    try:
        g0, n0, tau_n = scale_parameters(constants, temperature - constants.t_ref)
        n_th = n0 + 1.0 / (g0 * constants.gamma * constants.tau_p)
        j_th = constants.q * constants.d * n_th / tau_n
    except (OperatingPointError, ZeroDivisionError):
        g0 = n0 = tau_n = n_th = j_th = math.nan
    if not all(0.0 < v < math.inf for v in (g0, n0, tau_n, n_th, j_th)):
        raise OperatingPointError(
            f"the scaling laws give no finite parameters at temperature "
            f"{temperature} degC")
    n_dc = j_dc * tau_n / (constants.q * constants.d)
    if n_dc >= n_th:
        raise AboveThresholdBiasError(
            f"j_dc={j_dc!r} A/m^2 gives n_dc={n_dc:.4e} >= n_th={n_th:.4e} "
            f"at {temperature} degC; not a gain-switched operating point")
    return ThermalState(temperature, g0, n0, tau_n, n_th, n_dc, j_th,
                        constants)


def threshold_current_ratio(constants, delta_t):
    """Ratio j_th(T + delta_t) / j_th(T), which equals exp(delta_t / t0)."""
    check_range(delta_t, "delta_t", "(-inf, inf)", OperatingPointError)
    try:
        return math.exp(delta_t / constants.t0)
    except OverflowError:
        raise OperatingPointError(
            f"j_th overflows at delta_t={delta_t!r} K") from None

"""Temperature scaling of semiconductor laser parameters.

Everything here is SI (m, s, A/m^2, m^-3, m^3/s). Temperatures are degrees
Celsius; the scaling laws use only temperature differences, which are the
same in celsius and kelvin.
"""

import math
from dataclasses import dataclass

from .errors import AboveThresholdBiasError, ConfigError, OperatingPointError

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

    def __post_init__(self):
        for name in ("q", "d", "gamma", "beta_sp", "tau_p", "g0_ref",
                     "n0_ref", "tau_n_ref", "t0", "t0a"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")
        if self.gamma > 1.0:
            raise ConfigError(f"gamma must lie in (0, 1], got {self.gamma!r}")
        if self.beta_sp > 1.0:
            raise ConfigError(f"beta_sp must lie in (0, 1], got {self.beta_sp!r}")
        if not math.isfinite(self.t_ref):
            raise ConfigError(f"t_ref must be finite, got {self.t_ref!r}")


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
    exp(delta_t / t0).
    """
    if not math.isfinite(delta_t):
        raise OperatingPointError(f"delta_t must be finite, got {delta_t!r}")
    ea = math.exp(delta_t / constants.t0a)
    g0 = constants.g0_ref / ea
    n0 = constants.n0_ref * ea
    tau_n = constants.tau_n_ref * ea / math.exp(delta_t / constants.t0)
    return g0, n0, tau_n


def thermal_state(constants, temperature, j_dc):
    """Build the full ThermalState at a temperature (degC) and DC bias (A/m^2)."""
    if not (math.isfinite(j_dc) and j_dc >= 0.0):
        raise OperatingPointError(
            f"j_dc must be finite and nonnegative, got {j_dc!r}")
    if not math.isfinite(temperature):
        raise OperatingPointError(
            f"temperature must be finite, got {temperature!r}")
    try:
        g0, n0, tau_n = scale_parameters(constants, temperature - constants.t_ref)
        n_th = n0 + 1.0 / (g0 * constants.gamma * constants.tau_p)
        j_th = constants.q * constants.d * n_th / tau_n
    except (OverflowError, ZeroDivisionError):
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
    if not math.isfinite(delta_t):
        raise OperatingPointError(f"delta_t must be finite, got {delta_t!r}")
    return math.exp(delta_t / constants.t0)

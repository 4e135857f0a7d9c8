"""Temperature-dependent gain-switched laser simulation and decoy-state
attack feasibility analysis. An exported name or submodule is imported on
first access (PEP 562), so loading a profile imports no numpy."""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "attack": ("AttackScan", "AttackSolution", "channel_transmittance",
               "count_rate_decoy_attacked", "count_rate_no_attack",
               "count_rate_signal_attacked", "min_feasible_distance",
               "scan_distance", "solve_attack", "summarize_scan", "yield_n"),
    "dynamics": ("DEFAULT_DT_PULSE", "DriveWaveform", "IntegrationStats",
                 "Trajectory", "derivatives", "integrate", "steady_state_s",
                 "write_trajectory_csv"),
    "errors": ("AboveThresholdBiasError", "BelowThresholdPulseError",
               "ConfigError", "DegenerateAttackError", "DivergenceError",
               "DriveError", "GainswitchError", "InvalidRegimeError",
               "NoCrossingError", "NoSteadyStateError", "OperatingPointError",
               "ScanRangeError", "TruncationError", "UndefinedRateError"),
    "metrics": ("PulseMetrics", "StatePairMetrics", "analytic_decay_time",
                "compare_states", "energy_prediction_delta",
                "extract_metrics", "max_repetition_rate",
                "smax_prediction_delta"),
    "oracle": ("OracleReport", "ReferenceRun", "adaptive_reference",
               "decoy_attacked_gain_oracle", "poisson_gain_oracle",
               "run_verification_suite", "signal_attacked_gain_oracle"),
    "profiles": ("AttackScenario", "Profile", "default_profile",
                 "dump_profile", "load_profile", "parse_profile"),
    "sweeps": ("CycleRow", "SweepRow", "run_pulse_scenario",
               "run_table_sweep", "run_train_scenario"),
    "thermal": ("ELEMENTARY_CHARGE", "LaserConstants", "ThermalState",
                "scale_parameters", "thermal_state",
                "threshold_current_ratio"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "rows")

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(__getattr__(_HOME[name]), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

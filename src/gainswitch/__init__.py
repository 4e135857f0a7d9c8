"""Temperature-dependent gain-switched laser simulation and decoy-state
attack feasibility analysis."""

from .attack import (AttackScan, AttackScenario, AttackSolution,
                     channel_transmittance,
                     count_rate_decoy_attacked, count_rate_no_attack,
                     count_rate_signal_attacked, min_feasible_distance,
                     scan_distance, solve_attack, summarize_scan, yield_n)
from .dynamics import (DEFAULT_DT_PULSE, DEFAULT_DT_TRAIN, DriveWaveform,
                       IntegrationStats, Trajectory, derivatives, integrate,
                       steady_state_s, write_trajectory_csv)
from .errors import (AboveThresholdBiasError, BelowThresholdPulseError,
                     ConfigError, DegenerateAttackError, DivergenceError,
                     DriveError, GainswitchError, InvalidRegimeError,
                     NoCrossingError, NoSteadyStateError, OperatingPointError,
                     ScanRangeError, TruncationError, UndefinedRateError)
from .metrics import (PulseMetrics, StatePairMetrics, analytic_decay_time,
                      compare_states, energy_prediction_delta,
                      extract_metrics, max_repetition_rate,
                      smax_prediction_delta, write_metrics_csv)
from .oracle import (OracleReport, ReferenceRun, adaptive_reference,
                     decoy_attacked_gain_oracle, poisson_gain_oracle,
                     run_verification_suite, signal_attacked_gain_oracle)
from .profiles import (Profile, default_profile, dump_profile, load_profile,
                       parse_profile)
from .sweeps import (CycleRow, SweepRow, run_pulse_scenario, run_table_sweep,
                     run_train_scenario)
from .thermal import (ELEMENTARY_CHARGE, LaserConstants, ThermalState,
                      scale_parameters, thermal_state,
                      threshold_current_ratio)

__version__ = "0.1.0"

__all__ = [
    "AboveThresholdBiasError", "AttackScan", "AttackScenario",
    "AttackSolution", "BelowThresholdPulseError", "ConfigError", "CycleRow",
    "DEFAULT_DT_PULSE", "DEFAULT_DT_TRAIN", "DegenerateAttackError",
    "DivergenceError", "DriveError", "DriveWaveform", "ELEMENTARY_CHARGE",
    "GainswitchError", "IntegrationStats", "InvalidRegimeError",
    "LaserConstants", "NoCrossingError", "NoSteadyStateError",
    "OperatingPointError", "OracleReport", "Profile", "PulseMetrics",
    "ReferenceRun", "ScanRangeError", "StatePairMetrics", "SweepRow",
    "ThermalState", "Trajectory", "TruncationError", "UndefinedRateError",
    "adaptive_reference", "analytic_decay_time", "channel_transmittance",
    "compare_states", "count_rate_decoy_attacked", "count_rate_no_attack",
    "count_rate_signal_attacked", "decoy_attacked_gain_oracle",
    "default_profile", "derivatives", "dump_profile",
    "energy_prediction_delta", "extract_metrics", "integrate", "load_profile",
    "max_repetition_rate", "min_feasible_distance", "parse_profile",
    "poisson_gain_oracle", "run_pulse_scenario", "run_table_sweep",
    "run_train_scenario", "run_verification_suite", "scale_parameters",
    "scan_distance", "signal_attacked_gain_oracle", "smax_prediction_delta",
    "solve_attack", "steady_state_s", "summarize_scan", "thermal_state",
    "threshold_current_ratio", "write_metrics_csv", "write_trajectory_csv",
    "yield_n",
]

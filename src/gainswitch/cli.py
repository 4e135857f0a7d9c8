"""Command line front end.

Subcommands:
  pulse        simulate single pulses and export trajectories plus metrics
  table2       temperature sweep rendered against the bundled reference table
  train        periodic pulse train with per-cycle recovery flags
  attack       distance scan of the intercept feasibility analysis
  verify       run the internal cross-check suite and emit its report
  dump-config  print the effective parameter profile

Flag values override profile-file values, which override the embedded
defaults. Exit codes, each failure with one stderr line: 0 success
(including infeasible-attack findings), 2 bad input (ConfigError: a bad
profile, flag or repeated temperature; DriveError: a train frequency,
pulse count or settle count that gives no train; OperatingPointError or
BelowThresholdPulseError: no gain-switched pulse at that temperature;
DegenerateAttackError or ScanRangeError: an attack balance with no answer
in double precision, or an unusable scan range), 3 numeric divergence.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from . import attack as atk
from . import rows
from .dynamics import (DEFAULT_DT_PULSE, DEFAULT_DT_TRAIN, DivergenceError,
                       DriveError, write_trajectory_csv)
from .metrics import METRICS_COLUMNS, BelowThresholdPulseError, render_table2
from .oracle import run_verification_suite, write_oracle_csv
from .profiles import ConfigError, dump_profile, load_profile
from .sweeps import (CYCLE_COLUMNS, DEFAULT_HORIZON, run_pulse_scenario,
                     run_table_sweep, run_train_scenario)
from .thermal import OperatingPointError

REFERENCE_TEMPS_ARG = "15,20,25,30,35,40,45"

# metrics columns per --format; the JSON also says whether a pulse recovered
METRICS_TABLES = {"csv": METRICS_COLUMNS, "json": METRICS_COLUMNS + (
    ("recovered", lambda r: r[1].recovered),)}


@dataclass(frozen=True)
class RunConfig:
    """Effective settings after merging flags, profile file, and defaults."""

    profile: object
    temps: tuple
    dt: float
    band: float
    out_dir: str
    fmt: str
    jobs: int
    decimate: int
    horizon: float


def parse_temps(text):
    """Comma-separated Celsius list -> sorted ascending tuple of floats.

    Entries named alike in output files (25 and 25.0) are rejected.
    """
    try:
        values = tuple(sorted(float(part) for part in text.split(",") if part.strip()))
    except ValueError:
        raise ConfigError(f"bad temperature list {text!r}") from None
    if not values:
        raise ConfigError("temperature list is empty")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"temperature list {text!r} has non-finite entries")
    labels = [f"{v:g}" for v in values]
    repeated = [label for label in labels if labels.count(label) > 1]
    if repeated:
        raise ConfigError(f"temperature {repeated[0]} repeats in {text!r}")
    return values


def _flag(args, name, default):
    """A flag's value, or default when the flag is absent or not given."""
    value = getattr(args, name, None)
    return default if value is None else value


def build_config(args, default_dt):
    profile = load_profile(args.profile)
    temps = parse_temps(args.temps) if getattr(args, "temps", None) else (25.0,)
    dt = _flag(args, "dt", default_dt)
    band = _flag(args, "band", 0.01)
    if not (dt > 0 and math.isfinite(dt)):
        raise ConfigError(f"dt must be positive and finite, got {dt!r}")
    if not 0.0 < band <= 0.1:
        raise ConfigError(f"band must lie in (0, 0.1], got {band!r}")
    jobs, decimate = _flag(args, "jobs", 1), _flag(args, "decimate", 1)
    for name, value in (("jobs", jobs), ("decimate", decimate)):
        if value < 1:
            raise ConfigError(f"{name} must be at least 1, got {value!r}")
    horizon = _flag(args, "horizon", DEFAULT_HORIZON)
    if not 3 * dt <= horizon < math.inf:
        raise ConfigError(f"horizon must be finite and cover at least 3 "
                          f"steps of dt, got {horizon!r}")
    return RunConfig(profile=profile, temps=temps, dt=dt, band=band,
                     out_dir=args.out, fmt=args.format, jobs=jobs,
                     decimate=decimate, horizon=horizon)


def _write(config, name, fill):
    """Create name in the output directory, fill it, return its path."""
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fill(fh)
    return path


def _write_table(config, stem, columns, records):
    """Write records to stem.csv or stem.json, as --format asks."""
    write = rows.write_json if config.fmt == "json" else rows.write_csv
    return _write(config, f"{stem}.{config.fmt}",
                  lambda fh: write(columns, records, fh))


def cmd_pulse(args):
    config = build_config(args, DEFAULT_DT_PULSE)
    records = []
    for temp_c in config.temps:
        thermal, traj, pm = run_pulse_scenario(
            config.profile, temp_c, args.state, dt=config.dt,
            t_end=config.horizon, band=config.band)
        _write(config, f"pulse_{temp_c:g}C_{args.state}.csv",
               lambda fh: write_trajectory_csv(traj, fh, config.decimate))
        records.append((temp_c, pm))
        print(f"{temp_c:g} C {args.state}: t_on={pm.t_on * 1e12:.3g} ps, "
              f"t_peak={pm.t_peak * 1e12:.3g} ps, smax={pm.s_max:.3g} m^-3, "
              f"recovered={pm.recovered}")
    path = _write_table(config, f"metrics_{args.state}",
                        METRICS_TABLES[config.fmt], records)
    print(f"wrote {path}")
    return 0


def cmd_table2(args):
    config = build_config(args, DEFAULT_DT_PULSE)
    sweep = run_table_sweep(config.profile, config.temps, dt=config.dt,
                            t_end=config.horizon, band=config.band,
                            jobs=config.jobs)
    report = render_table2(sweep)
    sys.stdout.write(report)
    _write(config, "table2.txt", lambda fh: fh.write(report))
    for state in ("signal", "decoy"):
        _write_table(config, f"metrics_{state}", METRICS_TABLES[config.fmt],
                     [(r.temp_c, getattr(r, state)) for r in sweep])
    return 0


def cmd_train(args):
    config = build_config(args, DEFAULT_DT_TRAIN)
    for temp_c in config.temps:
        thermal, traj, cycles = run_train_scenario(
            config.profile, temp_c, args.freq, args.pulses, state=args.state,
            dt=config.dt, band=config.band, settle_cycles=args.settle)
        path = _write_table(config, f"train_{args.freq:g}Hz_{temp_c:g}C",
                            CYCLE_COLUMNS, cycles)
        for c in cycles:
            mark = "  FLAGGED" if c.flagged else ""
            print(f"{temp_c:g} C cycle {c.cycle}: smax={c.s_max:.4g} m^-3, "
                  f"n_initial={c.n_initial:.4g} m^-3{mark}")
        print(f"{temp_c:g} C: {sum(c.flagged for c in cycles)} of "
              f"{len(cycles)} cycles flagged; wrote {path}")
    return 0


def cmd_attack(args):
    config = build_config(args, DEFAULT_DT_PULSE)
    scenario = config.profile.attack
    solutions = atk.scan_distance(scenario, args.lmin, args.lmax, args.step)
    try:
        minimum = atk.min_feasible_distance(scenario,
                                            resolution_km=args.resolution)
    except atk.NoCrossingError:
        minimum = None
    summary = atk.summarize_scan(solutions, minimum)
    summary["feasible_region_empty"] = summary["feasible_points"] == 0
    scan_path = _write(config, "attack_scan.csv",
                       lambda fh: atk.write_scan_csv(solutions, fh))
    text = json.dumps(summary, indent=2)
    summary_path = _write(config, "attack_summary.json",
                          lambda fh: fh.write(text + "\n"))
    print(text)
    print(f"wrote {scan_path} and {summary_path}")
    return 0


def cmd_verify(args):
    config = build_config(args, DEFAULT_DT_PULSE)
    reports = run_verification_suite(config.profile, quick=args.quick)
    write_oracle_csv(reports, sys.stdout)
    _write(config, "verify.csv", lambda fh: write_oracle_csv(reports, fh))
    failures = [r for r in reports if not r.passed]
    if failures:
        print(f"{len(failures)} of {len(reports)} checks failed",
              file=sys.stderr)
    return 0


def cmd_dump_config(args):
    profile = load_profile(args.profile)
    sys.stdout.write(dump_profile(profile))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gainswitch",
        description="Gain-switched laser pulse simulation and decoy-state "
                    "attack feasibility analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help, temps_default="25"):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--profile", default=None,
                       help="parameter profile file (default: embedded)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="metrics file format")
        p.add_argument("--temps", default=temps_default,
                       help="comma-separated temperature list, deg C")
        p.add_argument("--dt", type=float, default=None,
                       help="integration step, seconds")
        p.add_argument("--band", type=float, default=None,
                       help="relative recovery band (default 0.01)")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for sweeps")
        p.add_argument("--decimate", type=int, default=1,
                       help="keep every k-th trajectory sample")
        p.add_argument("--horizon", type=float, default=None,
                       help="single-pulse integration horizon, seconds")
        return p

    p_pulse = add_command("pulse", cmd_pulse, "single-pulse trajectories")
    p_pulse.add_argument("--state", choices=("signal", "decoy"),
                         default="signal")
    add_command("table2", cmd_table2, "temperature sweep vs reference values",
                REFERENCE_TEMPS_ARG)
    p_train = add_command("train", cmd_train, "periodic pulse train")
    p_train.add_argument("--freq", type=float, default=800e6,
                         help="repetition rate, Hz")
    p_train.add_argument("--pulses", type=int, default=3,
                         help="number of pulses")
    p_train.add_argument("--state", choices=("signal", "decoy"),
                         default="signal")
    p_train.add_argument("--settle", type=int, default=0,
                         help="settle cycles discarded before recording")
    p_attack = add_command("attack", cmd_attack, "attack feasibility scan")
    p_attack.add_argument("--lmin", type=float, default=1.0,
                          help="scan start, km")
    p_attack.add_argument("--lmax", type=float, default=200.0,
                          help="scan end, km")
    p_attack.add_argument("--step", type=float, default=0.5,
                          help="scan step, km")
    p_attack.add_argument("--resolution", type=float, default=0.01,
                          help="bisection resolution for the boundary, km")
    p_verify = add_command("verify", cmd_verify, "internal cross-check report")
    p_verify.add_argument("--quick", action="store_true",
                          help="skip the slow trajectory cross-checks")

    p_dump = sub.add_parser("dump-config",
                            help="print the effective parameter profile")
    p_dump.add_argument("--profile", default=None)
    p_dump.set_defaults(func=cmd_dump_config)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DriveError as exc:
        print(f"drive error: {exc}", file=sys.stderr)
        return 2
    except (OperatingPointError, BelowThresholdPulseError) as exc:
        print(f"operating point error: {exc}", file=sys.stderr)
        return 2
    except (atk.DegenerateAttackError, atk.ScanRangeError) as exc:
        print(f"attack error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

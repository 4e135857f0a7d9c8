"""Command line front end.

Subcommands:
  pulse        simulate single pulses and export trajectories plus metrics
  table2       temperature sweep rendered against the bundled reference table
  train        periodic pulse train with per-cycle recovery flags
  attack       distance scan of the intercept feasibility analysis
  verify       run the internal cross-check suite and emit its report
  dump-config  print the effective parameter profile

Flag values override profile-file values, which override the embedded
defaults. Exit codes: 0 success (including infeasible-attack findings),
2 configuration error or an attack balance that degenerates in double
precision (DegenerateAttackError), 3 numeric divergence.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from . import attack as atk
from .dynamics import (DEFAULT_DT_PULSE, DEFAULT_DT_TRAIN, DivergenceError,
                       write_trajectory_csv)
from .metrics import render_table2, write_metrics_csv
from .oracle import run_verification_suite, write_oracle_csv
from .profiles import ConfigError, dump_profile, load_profile
from .sweeps import (DEFAULT_HORIZON, run_pulse_scenario, run_table_sweep,
                     run_train_scenario, write_cycles_csv)

REFERENCE_TEMPS_ARG = "15,20,25,30,35,40,45"


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
    """Comma-separated Celsius list -> sorted ascending tuple of floats."""
    try:
        values = tuple(sorted(float(part) for part in text.split(",") if part.strip()))
    except ValueError:
        raise ConfigError(f"bad temperature list {text!r}") from None
    if not values:
        raise ConfigError("temperature list is empty")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"temperature list {text!r} has non-finite entries")
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
    jobs = _flag(args, "jobs", 1)
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs!r}")
    decimate = _flag(args, "decimate", 1)
    if decimate < 1:
        raise ConfigError(f"decimate must be at least 1, got {decimate!r}")
    horizon = _flag(args, "horizon", DEFAULT_HORIZON)
    if not math.isfinite(horizon):
        raise ConfigError(f"horizon must be finite, got {horizon!r}")
    if horizon <= dt:
        raise ConfigError("horizon must exceed dt")
    return RunConfig(profile=profile, temps=temps, dt=dt, band=band,
                     out_dir=args.out, fmt=args.format, jobs=jobs,
                     decimate=decimate, horizon=horizon)


def _out_path(config, name):
    os.makedirs(config.out_dir, exist_ok=True)
    return os.path.join(config.out_dir, name)


def _metrics_json_rows(rows):
    out = []
    for temp_c, pm in rows:
        out.append({
            "temp_C": float(temp_c),
            "t_on_ps": pm.t_on * 1e12,
            "t_peak_ps": pm.t_peak * 1e12,
            "smax_m3": pm.s_max,
            "energy_m3s": pm.pulse_energy,
            "t_re_ns": pm.t_re * 1e9 if pm.recovered else None,
            "n_initial_m3": pm.n_initial,
            "recovered": pm.recovered,
        })
    return out


def _write_metrics(config, rows, stem):
    if config.fmt == "json":
        path = _out_path(config, f"{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_metrics_json_rows(rows), fh, indent=2)
            fh.write("\n")
    else:
        path = _out_path(config, f"{stem}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_metrics_csv(rows, fh)
    return path


def cmd_pulse(args):
    config = build_config(args, DEFAULT_DT_PULSE)
    rows = []
    for temp_c in config.temps:
        thermal, traj, pm = run_pulse_scenario(
            config.profile, temp_c, args.state, dt=config.dt,
            t_end=config.horizon, band=config.band)
        name = f"pulse_{temp_c:g}C_{args.state}.csv"
        with open(_out_path(config, name), "w", encoding="utf-8",
                  newline="") as fh:
            write_trajectory_csv(traj, fh, decimate=config.decimate)
        rows.append((temp_c, pm))
        print(f"{temp_c:g} C {args.state}: t_on={pm.t_on * 1e12:.3g} ps, "
              f"t_peak={pm.t_peak * 1e12:.3g} ps, smax={pm.s_max:.3g} m^-3, "
              f"recovered={pm.recovered}")
    path = _write_metrics(config, rows, f"metrics_{args.state}")
    print(f"wrote {path}")
    return 0


def cmd_table2(args):
    config = build_config(args, DEFAULT_DT_PULSE)
    sweep = run_table_sweep(config.profile, config.temps, dt=config.dt,
                            t_end=config.horizon, band=config.band,
                            jobs=config.jobs)
    rows = [(r.temp_c, r.thermal, r.signal, r.decoy) for r in sweep]
    report = render_table2(rows)
    sys.stdout.write(report)
    with open(_out_path(config, "table2.txt"), "w", encoding="utf-8") as fh:
        fh.write(report)
    _write_metrics(config, [(r.temp_c, r.signal) for r in sweep],
                   "metrics_signal")
    _write_metrics(config, [(r.temp_c, r.decoy) for r in sweep],
                   "metrics_decoy")
    return 0


def cmd_train(args):
    config = build_config(args, DEFAULT_DT_TRAIN)
    if args.freq <= 0:
        raise ConfigError(f"freq must be positive, got {args.freq!r}")
    if args.pulses < 2:
        raise ConfigError(f"pulses must be at least 2, got {args.pulses!r}")
    for temp_c in config.temps:
        thermal, traj, cycles = run_train_scenario(
            config.profile, temp_c, args.freq, args.pulses, state=args.state,
            dt=config.dt, band=config.band, settle_cycles=args.settle)
        stem = f"train_{args.freq:g}Hz_{temp_c:g}C"
        if config.fmt == "json":
            path = _out_path(config, f"{stem}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump([{"cycle": c.cycle, "smax_m3": c.s_max,
                            "n_initial_m3": c.n_initial, "flagged": c.flagged}
                           for c in cycles], fh, indent=2)
                fh.write("\n")
        else:
            path = _out_path(config, f"{stem}.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                write_cycles_csv(cycles, fh)
        flagged = [c.cycle for c in cycles if c.flagged]
        for c in cycles:
            mark = "  FLAGGED" if c.flagged else ""
            print(f"{temp_c:g} C cycle {c.cycle}: smax={c.s_max:.4g} m^-3, "
                  f"n_initial={c.n_initial:.4g} m^-3{mark}")
        print(f"{temp_c:g} C: {len(flagged)} of {len(cycles)} cycles flagged; "
              f"wrote {path}")
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
    scan_path = _out_path(config, "attack_scan.csv")
    with open(scan_path, "w", encoding="utf-8", newline="") as fh:
        atk.write_scan_csv(solutions, fh)
    summary_path = _out_path(config, "attack_summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(json.dumps(summary, indent=2))
    print(f"wrote {scan_path} and {summary_path}")
    return 0


def cmd_verify(args):
    config = build_config(args, DEFAULT_DT_PULSE)
    reports = run_verification_suite(config.profile, quick=args.quick)
    write_oracle_csv(reports, sys.stdout)
    with open(_out_path(config, "verify.csv"), "w", encoding="utf-8",
              newline="") as fh:
        write_oracle_csv(reports, fh)
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

    def add_common(p, temps_default):
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

    p_pulse = sub.add_parser("pulse", help="single-pulse trajectories")
    add_common(p_pulse, "25")
    p_pulse.add_argument("--state", choices=("signal", "decoy"),
                         default="signal")
    p_pulse.set_defaults(func=cmd_pulse)

    p_table = sub.add_parser("table2",
                             help="temperature sweep vs reference values")
    add_common(p_table, REFERENCE_TEMPS_ARG)
    p_table.set_defaults(func=cmd_table2)

    p_train = sub.add_parser("train", help="periodic pulse train")
    add_common(p_train, "25")
    p_train.add_argument("--freq", type=float, default=800e6,
                         help="repetition rate, Hz")
    p_train.add_argument("--pulses", type=int, default=3,
                         help="number of pulses")
    p_train.add_argument("--state", choices=("signal", "decoy"),
                         default="signal")
    p_train.add_argument("--settle", type=int, default=0,
                         help="settle cycles discarded before recording")
    p_train.set_defaults(func=cmd_train)

    p_attack = sub.add_parser("attack", help="attack feasibility scan")
    add_common(p_attack, "25")
    p_attack.add_argument("--lmin", type=float, default=1.0,
                          help="scan start, km")
    p_attack.add_argument("--lmax", type=float, default=200.0,
                          help="scan end, km")
    p_attack.add_argument("--step", type=float, default=0.5,
                          help="scan step, km")
    p_attack.add_argument("--resolution", type=float, default=0.01,
                          help="bisection resolution for the boundary, km")
    p_attack.set_defaults(func=cmd_attack)

    p_verify = sub.add_parser("verify", help="internal cross-check report")
    add_common(p_verify, "25")
    p_verify.add_argument("--quick", action="store_true",
                          help="skip the slow trajectory cross-checks")
    p_verify.set_defaults(func=cmd_verify)

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
    except atk.DegenerateAttackError as exc:
        print(f"attack error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

"""Command line front end.

Subcommands:
  pulse        simulate single pulses and export trajectories plus metrics
  table2       temperature sweep rendered against the bundled reference table
  train        periodic pulse train with per-cycle recovery flags
  attack       distance scan of the intercept feasibility analysis
  verify       run the internal cross-check suite and emit its report
  dump-config  print the effective parameter profile

Each subcommand takes --profile, plus --out for all but dump-config, and
only the FLAGS it reads (see build_parser); table2, train and verify
also accept --jobs, which the bench harness passes: a value below 1 is
refused, any other has no effect. main checks --jobs, loads the profile
and passes it to the cmd_* function. Flag values override profile-file
values, which override the embedded defaults; each public function
checks what it takes, scenario functions under flag names. Exit codes,
each failure with one stderr line: 0 success (including
infeasible-attack findings); 2 argparse's usage error; 2 or 3, the
exit_code of a GainswitchError (errors.py), printed as "<label>:
<message>"; 4 a verify check failed (verify.csv is still written); 141
stdout's reader has gone (files are written before anything is printed,
so none is lost).
"""

import argparse
import json
import os
import sys

from . import attack as atk
from . import rows
from .dynamics import DEFAULT_DT_PULSE, write_trajectory_csv
from .errors import ConfigError, GainswitchError, check_integer, check_range
from .metrics import (DEFAULT_RECOVERY_BAND, METRICS_COLUMNS, REFERENCE_TEMPS,
                      render_table2)
from .oracle import ORACLE_COLUMNS, run_verification_suite
from .profiles import dump_profile, load_profile
from .sweeps import (CYCLE_COLUMNS, DEFAULT_HORIZON, run_pulse_scenario,
                     run_table_sweep, run_train_scenario)

REFERENCE_TEMPS_ARG = ",".join(f"{t:g}" for t in REFERENCE_TEMPS)

# metrics columns per --format; the JSON also says whether a pulse recovered
METRICS_TABLES = {"csv": METRICS_COLUMNS, "json": METRICS_COLUMNS + (
    ("recovered", lambda r: r[1].recovered),)}


def parse_temps(text):
    """Comma-separated Celsius list -> sorted ascending tuple of floats,
    -0 read as 0; entries named alike in files (25, 25.0) are refused."""
    try:
        values = tuple(sorted(float(part) + 0.0
                              for part in text.split(",") if part.strip()))
    except ValueError:
        raise ConfigError(f"bad temperature list {text!r}") from None
    if not values:
        raise ConfigError("temperature list is empty")
    for value in values:
        check_range(value, "temperature", "(-inf, inf)")
    labels = [f"{v:g}" for v in values]
    repeated = [label for label in labels if labels.count(label) > 1]
    if repeated:
        raise ConfigError(f"temperature {repeated[0]} repeats in {text!r}")
    return values


def _write(out_dir, name, fill):
    """Create name in out_dir, fill it, return its path. The file is
    removed if fill raises; an OSError becomes a ConfigError."""
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            try:
                fill(fh)
            except BaseException:
                os.remove(path)
                raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from None
    return path


def _write_table(out_dir, fmt, stem, columns, records):
    """Write records to stem.csv or stem.json in out_dir, as fmt asks."""
    write = rows.write_json if fmt == "json" else rows.write_csv
    return _write(out_dir, f"{stem}.{fmt}",
                  lambda fh: write(columns, records, fh))


def cmd_pulse(args, profile):
    records = []
    for temp_c in parse_temps(args.temps):
        thermal, traj, pm = run_pulse_scenario(
            profile, temp_c, args.state, dt=args.dt, t_end=args.horizon,
            band=args.band)
        _write(args.out, f"pulse_{temp_c:g}C_{args.state}.csv",
               lambda fh: write_trajectory_csv(traj, fh, args.decimate))
        records.append((temp_c, pm))
    path = _write_table(args.out, args.format, f"metrics_{args.state}",
                        METRICS_TABLES[args.format], records)
    for temp_c, pm in records:
        print(f"{temp_c:g} C {args.state}: t_on={pm.t_on * 1e12:.3g} ps, "
              f"t_peak={pm.t_peak * 1e12:.3g} ps, smax={pm.s_max:.3g} m^-3, "
              f"recovered={pm.recovered}")
    print(f"wrote {path}")
    return 0


def cmd_table2(args, profile):
    sweep = run_table_sweep(profile, parse_temps(args.temps), dt=args.dt,
                            t_end=args.horizon, band=args.band)
    report = render_table2(sweep)
    _write(args.out, "table2.txt", lambda fh: fh.write(report))
    for state in ("signal", "decoy"):
        _write_table(args.out, args.format, f"metrics_{state}",
                     METRICS_TABLES[args.format],
                     [(r.temp_c, getattr(r, state)) for r in sweep])
    sys.stdout.write(report)
    return 0


def cmd_train(args, profile):
    lines = []
    for temp_c in parse_temps(args.temps):
        thermal, traj, cycles = run_train_scenario(
            profile, temp_c, args.freq, args.pulses, state=args.state,
            dt=args.dt, settle_cycles=args.settle)
        path = _write_table(args.out, args.format,
                            f"train_{args.freq:g}Hz_{temp_c:g}C",
                            CYCLE_COLUMNS, cycles)
        for c in cycles:
            mark = "  FLAGGED" if c.flagged else ""
            lines.append(f"{temp_c:g} C cycle {c.cycle}: smax={c.s_max:.4g} "
                         f"m^-3, n_initial={c.n_initial:.4g} m^-3{mark}")
        lines.append(f"{temp_c:g} C: {sum(c.flagged for c in cycles)} of "
                     f"{len(cycles)} cycles flagged; wrote {path}")
    print("\n".join(lines))
    return 0


def cmd_attack(args, profile):
    scan = atk.scan_distance(profile.attack, args.lmin, args.lmax, args.step)
    try:
        minimum = atk.min_feasible_distance(profile.attack)
    except atk.NoCrossingError:
        minimum = None
    summary = atk.summarize_scan(scan, minimum)
    summary["feasible_region_empty"] = summary["feasible_points"] == 0
    scan_path = _write(
        args.out, "attack_scan.csv",
        lambda fh: rows.write_array_csv(atk.SCAN_COLUMNS, scan, fh))
    text = json.dumps(summary, indent=2)
    summary_path = _write(args.out, "attack_summary.json",
                          lambda fh: fh.write(text + "\n"))
    print(text)
    print(f"wrote {scan_path} and {summary_path}")
    return 0


def cmd_verify(args, profile):
    reports = run_verification_suite(profile, quick=args.quick)
    _write_table(args.out, "csv", "verify", ORACLE_COLUMNS, reports)
    rows.write_csv(ORACLE_COLUMNS, reports, sys.stdout)
    failures = [r for r in reports if not r.passed]
    if failures:
        print(f"{len(failures)} of {len(reports)} checks failed",
              file=sys.stderr)
        return 4
    return 0


def cmd_dump_config(args, profile):
    sys.stdout.write(dump_profile(profile))
    return 0


# every flag a subcommand may take, by name; add_command picks a subset
FLAGS = {
    "format": dict(choices=("csv", "json"), default="csv",
                   help="metrics or cycles file format"),
    "temps": dict(default="25",
                  help="comma-separated temperature list, deg C"),
    "dt": dict(type=float,
               help="fine integration step, seconds; each pulse's DC tail "
                    "steps a stability-bounded multiple of it "
                    "(default %(default)g)"),
    "band": dict(type=float, default=DEFAULT_RECOVERY_BAND,
                 help="relative recovery band (default %(default)g)"),
    "horizon": dict(type=float, default=DEFAULT_HORIZON,
                    help="single-pulse integration horizon, seconds"),
    "decimate": dict(type=int, default=1,
                     help="keep every k-th stored trajectory sample; "
                          "samples are --dt apart, and further apart in "
                          "each pulse's DC tail"),
    "state": dict(choices=("signal", "decoy"), default="signal"),
    "jobs": dict(type=int, default=1,
                 help="accepted for the bench harness; must be at least 1, "
                      "no effect"),
    "freq": dict(type=float, default=800e6, help="repetition rate, Hz"),
    "pulses": dict(type=int, default=3, help="number of pulses"),
    "settle": dict(type=int, default=0,
                   help="settle cycles discarded before recording"),
    "lmin": dict(type=float, default=1.0, help="scan start, km"),
    "lmax": dict(type=float, default=200.0, help="scan end, km"),
    "step": dict(type=float, default=0.5, help="scan step, km"),
    "quick": dict(action="store_true",
                  help="skip the trajectory cross-checks"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gainswitch",
        description="Gain-switched laser pulse simulation and decoy-state "
                    "attack feasibility analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help, *flags, **defaults):
        """A subcommand taking --profile, --out and the named FLAGS, with
        defaults overriding a flag's default for this subcommand."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--profile", default=None,
                       help="parameter profile file (default: embedded)")
        p.add_argument("--out", default=".", help="output directory")
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.set_defaults(func=func, **defaults)

    add_command("pulse", cmd_pulse, "single-pulse trajectories", "format",
                "temps", "dt", "band", "horizon", "decimate", "state",
                dt=DEFAULT_DT_PULSE)
    add_command("table2", cmd_table2, "temperature sweep vs reference values",
                "format", "temps", "dt", "band", "horizon", "jobs",
                temps=REFERENCE_TEMPS_ARG, dt=DEFAULT_DT_PULSE)
    add_command("train", cmd_train, "periodic pulse train", "format", "temps",
                "dt", "freq", "pulses", "state", "settle", "jobs",
                dt=DEFAULT_DT_PULSE)
    add_command("attack", cmd_attack, "attack feasibility scan", "lmin",
                "lmax", "step")
    add_command("verify", cmd_verify, "internal cross-check report", "quick",
                "jobs")

    p_dump = sub.add_parser("dump-config",
                            help="print the effective parameter profile")
    p_dump.add_argument("--profile", default=None)
    p_dump.set_defaults(func=cmd_dump_config)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if "jobs" in args:
            check_integer(args.jobs, "jobs", 1)
        return args.func(args, load_profile(args.profile))
    except GainswitchError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


def entry():
    """Exit with main's code, or 141 (a shell's SIGPIPE code) when
    stdout's reader has gone."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send that nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    entry()

"""gainswitch benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 16 --trace 0

Workloads: table2, pulse_train, attack_map, verify (see workloads.py and
README.md). The run imports gainswitch from ./src, measures set-up in fresh
interpreters, then repeats passes of the workload until --seconds have
elapsed, checking every pass against the stored 1 fs reference or the
package's own oracles. With --trace 0 it reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics. Every reported time is scaled to a reference host
speed measured while the work runs (calibrate.py), because the shared host
drifts. Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. Full results (environment, per-pass times, spans) go to
.bench_out/results/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from calibrate import REFERENCE_S, Sampler  # noqa: E402
from tracer import ROOT_SPAN, Summary, Tracer  # noqa: E402

OUT = wl.ROOT / ".bench_out"
SETUP_RUNS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("profiles.load_ms", "ms"),
    ("thermal.state.calls", "count"),
    ("thermal.state.us", "us"),
    ("dynamics.integrate.calls", "count"),
    ("dynamics.steps", "count"),
    ("dynamics.ns_per_step", "ns"),
    ("dynamics.drive.calls_per_step", "ratio"),
    ("dynamics.drive.self_s", "s"),
    ("dynamics.drive.ns_per_call", "ns"),
    ("dynamics.train.self_s", "s"),
    ("metrics.extract.calls", "count"),
    ("metrics.extract.ms", "ms"),
    ("metrics.render.ms", "ms"),
    ("sweeps.self_s", "s"),
    ("attack.solve.calls", "count"),
    ("attack.solve.us", "us"),
    ("attack.scan.ms", "ms"),
    ("attack.min_distance.solves", "count"),
    ("attack.min_distance.ms", "ms"),
    ("attack.fallbacks", "count"),
    ("oracle.euler.steps", "count"),
    ("oracle.euler.ns_per_step", "ns"),
    ("oracle.poisson.us", "us"),
    ("oracle.checks", "count"),
    ("oracle.checks_failed", "count"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_frac", "ratio"),
    ("trace.uncovered_frac", "ratio"),
    ("trace.spans", "count"),
    ("accuracy.smax_err_rel", "ratio"),
    ("accuracy.tpeak_err_fs", "fs"),
    ("accuracy.ton_err_fs", "fs"),
)

SETUP_CODE = """\
import json, sys, time
sys.path.insert(0, sys.argv[2])
from calibrate import Sampler
sys.path.insert(0, sys.argv[1])
with Sampler() as imported:
    import gainswitch
with Sampler() as profile:
    gainswitch.default_profile()
print(json.dumps({"file": gainswitch.__file__,
                  "import_s": imported.seconds, "import_cal_s": imported.cal_s,
                  "profile_s": profile.seconds, "profile_cal_s": profile.cal_s}))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup():
    """import gainswitch + default_profile() in fresh interpreters, each
    sampled for host speed."""
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(wl.SRC),
                               str(wl.HERE)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(sample["file"]).resolve().parent != wl.SRC / "gainswitch":
            raise ImportError(f"set-up imported {sample['file']}")
        samples.append(sample)
    return samples


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(wl.ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=wl.ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(load_start, load_end):
    nproc = os.cpu_count()
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(load_end),
        "load_exceeded_nproc": max(load_start[0], load_end[0]) > nproc,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": commit,
        "dirty": None if commit is None or status is None else bool(status),
    }


def scaled(seconds, cal_s):
    """Measured seconds expressed at the probe's reference speed."""
    return seconds * REFERENCE_S / cal_s


@dataclass
class Passes:
    """Pass times (probe time removed), the mean probe time during each
    pass, and the outcome of every pass (untraced and traced interleaved)."""

    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    untraced_cal: list = field(default_factory=list)
    traced_cal: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    written: int = 0

    def untraced_ref(self):
        return [scaled(s, c) for s, c in zip(self.untraced, self.untraced_cal)]

    def traced_ref(self):
        return [scaled(s, c) for s, c in zip(self.traced, self.traced_cal)]


def run_passes(workload, seconds, tracer=None):
    """Passes until `seconds` have elapsed (at least one), each calibrated
    for host speed. With a tracer, each untraced pass is followed by a
    traced one."""
    passes = Passes()
    kinds = [(False, passes.untraced, passes.untraced_cal)]
    if tracer is not None:
        kinds.append((True, passes.traced, passes.traced_cal))
    begin = time.perf_counter()
    while True:
        for traced, times, cals in kinds:
            with Sampler() as sampler:
                if traced:
                    raw = tracer.traced(workload.run, sampler.spent)
                else:
                    raw = workload.run()
            times.append(sampler.seconds)
            cals.append(sampler.cal_s)
            passes.written = workload.bytes_written()
            passes.outcomes.append(workload.gate(workload.collect(raw)))
            del raw  # keep one pass's results alive, not two
        if time.perf_counter() - begin >= seconds:
            return passes


def end_to_end(setup, passes):
    """Medians at the reference speed; peak_rss_mb is this process's peak,
    which ran every pass of the workload."""
    return {
        "setup_s": statistics.median(
            scaled(x["import_s"], x["import_cal_s"])
            + scaled(x["profile_s"], x["profile_cal_s"]) for x in setup),
        "wall_s": statistics.median(passes.untraced_ref()),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


ACCURACY_UNITS = {"smax_err_rel": "ratio", "tpeak_err_fs": "fs",
                  "ton_err_fs": "fs"}


def accuracy(outcomes):
    """Worst deviation from the 1 fs reference over every pass."""
    return {key: max(getattr(o, key) for o in outcomes)
            for key in ACCURACY_UNITS}


def per_layer(tracer, passes, setup):
    """Per-layer figures from the traced passes, per pass. Times are scaled
    to the reference speed with the traced passes' own probes."""
    s = Summary(tracer)
    n = max(s.count(ROOT_SPAN), 1)
    k = statistics.median(REFERENCE_S / c for c in passes.traced_cal)

    def per_pass(x):
        return x / n

    def ratio(a, b):
        return a / b if b else 0.0

    steps = s.total("dynamics.integrate", "work")
    drive_calls = s.total("dynamics.integrate", "leaf_calls")
    drive_time = s.total("dynamics.integrate", "leaf_time")
    euler_steps = s.total("oracle.euler", "work")
    render = sum(s.total(name) for name in (
        "metrics.render_table2", "metrics.write_metrics_csv",
        "sweeps.write_cycles_csv"))
    sweeps_self = sum(s.total(name, "self") for name in (
        "sweeps.run_table_sweep", "sweeps.run_train_scenario",
        "sweeps.run_pulse_scenario"))
    min_calls = s.count("attack.min_distance")
    traced_outcomes = passes.outcomes[1::2]  # run_passes interleaves U, T
    return {
        "profiles.load_ms": statistics.median(
            scaled(x["profile_s"], x["profile_cal_s"]) for x in setup) * 1e3,
        "thermal.state.calls": per_pass(s.count("thermal.state")),
        "thermal.state.us": ratio(s.total("thermal.state"),
                                  s.count("thermal.state")) * k * 1e6,
        "dynamics.integrate.calls": per_pass(s.count("dynamics.integrate")),
        "dynamics.steps": per_pass(steps),
        "dynamics.ns_per_step": ratio(s.total("dynamics.integrate"), steps) * k * 1e9,
        "dynamics.drive.calls_per_step": ratio(drive_calls, steps),
        "dynamics.drive.self_s": per_pass(drive_time) * k,
        "dynamics.drive.ns_per_call": ratio(drive_time, drive_calls) * k * 1e9,
        "dynamics.train.self_s": per_pass(s.total("dynamics.simulate_train",
                                                  "self")) * k,
        "metrics.extract.calls": per_pass(s.count("metrics.extract")),
        "metrics.extract.ms": per_pass(s.total("metrics.extract")) * k * 1e3,
        "metrics.render.ms": per_pass(render) * k * 1e3,
        "sweeps.self_s": per_pass(sweeps_self) * k,
        "attack.solve.calls": per_pass(s.count("attack.solve")),
        "attack.solve.us": ratio(s.total("attack.solve"),
                                 s.count("attack.solve")) * k * 1e6,
        "attack.scan.ms": per_pass(s.total("attack.scan")) * k * 1e3,
        "attack.min_distance.solves": ratio(
            s.children_of("attack.solve", "attack.min_distance"), min_calls),
        "attack.min_distance.ms": ratio(s.total("attack.min_distance"),
                                        min_calls) * k * 1e3,
        "attack.fallbacks": per_pass(s.count("attack.fallback")),
        "oracle.euler.steps": per_pass(euler_steps),
        "oracle.euler.ns_per_step": ratio(s.total("oracle.euler"),
                                          euler_steps) * k * 1e9,
        "oracle.poisson.us": ratio(s.total("oracle.poisson"),
                                   s.count("oracle.poisson")) * k * 1e6,
        "oracle.checks": statistics.mean(o.checks for o in traced_outcomes),
        "oracle.checks_failed": statistics.mean(
            o.checks_failed for o in traced_outcomes),
        "cli.self_s": per_pass(s.total("cli.main", "self")) * k,
        "cli.bytes_written": passes.written,
        "trace.overhead_frac": (statistics.median(passes.traced_ref())
                                / statistics.median(passes.untraced_ref())
                                - 1.0),
        "trace.uncovered_frac": s.root_uncovered(),
        "trace.spans": per_pass(len(s.a["name"]) - s.count(ROOT_SPAN)),
        **{f"accuracy.{key}": v
           for key, v in accuracy(passes.outcomes).items()},
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        wl.import_gainswitch()
        reference = wl.load_reference()
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    work_dir = OUT / f"work-{os.getpid()}"
    workload = None
    tracer = None
    try:
        setup = measure_setup()
        workload = wl.make(args.workload, work_dir, args.seed, reference)
        if args.trace:
            tracer = Tracer()
        passes = run_passes(workload, args.seconds, tracer)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    env = environment(load_start, os.getloadavg())

    attempted = sum(o.attempted for o in passes.outcomes)
    failed = sum(o.failed for o in passes.outcomes)
    if args.trace:
        values = per_layer(tracer, passes, setup)
        table = PER_LAYER
    else:
        values = end_to_end(setup, passes)
        table = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in table}

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env,
        "reference_cal_s": REFERENCE_S,
        "setup_samples": setup,
        "untraced_pass_s": passes.untraced,
        "untraced_cal_s": passes.untraced_cal,
        "traced_pass_s": passes.traced,
        "traced_cal_s": passes.traced_cal,
        "failed_frac": failed / attempted if attempted else 1.0,
        "accuracy": accuracy(passes.outcomes),
        "absent_trace_targets": tracer.absent if tracer else [],
        "metrics": metrics,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
        fh.write("\n")
    if tracer is not None:
        tracer.save(results / f"{args.workload}-seed{args.seed}-spans.npz")

    report(detail, passes, attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report(detail, passes, attempted, failed):
    """Human-readable lines: every metric with its unit and sample count."""
    env = detail["env"]
    print(f"# {detail['workload']} seed={detail['seed']} "
          f"trace={detail['trace']} commit={env['commit']} "
          f"dirty={env['dirty']} nproc={env['nproc']} "
          f"load={env['loadavg_start'][0]:.2f}->{env['loadavg_end'][0]:.2f}")
    if env["load_exceeded_nproc"]:
        print("# WARNING: load average exceeded nproc during this run")
    raw = passes.untraced
    cal = passes.untraced_cal
    print(f"#   untraced passes={len(raw)} measured median "
          f"{statistics.median(raw):.4f} s [{min(raw):.4f}, {max(raw):.4f}]; "
          f"probe mean {statistics.median(cal) * 1e3:.4f} ms "
          f"(reference {REFERENCE_S * 1e3} ms)")
    if passes.traced:
        print(f"#   traced passes={len(passes.traced)} measured median "
              f"{statistics.median(passes.traced):.4f} s")
    setup = detail["setup_samples"]
    print(f"#   setup samples={len(setup)} measured median "
          f"{statistics.median(x['import_s'] + x['profile_s'] for x in setup):.4f} s")
    for name, m in detail["metrics"].items():
        print(f"#   {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"#   {'failed_frac':32s} {detail['failed_frac']:.6g} ratio "
          f"({failed} of {attempted} operations)")
    if not detail["trace"]:  # the traced run reports them as accuracy.*
        for name, value in detail["accuracy"].items():
            print(f"#   {name:32s} {value:.6g} {ACCURACY_UNITS[name]}")
    if detail["absent_trace_targets"]:
        print("#   absent trace targets: "
              + ", ".join(detail["absent_trace_targets"]))


if __name__ == "__main__":
    sys.exit(main())

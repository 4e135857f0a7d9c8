"""Self-tests of the benchmark itself.

Run from the root of the checkout with

    python3 -m pytest perfbench -q

They take about half a minute: shrunken workloads run in-process, and two
short subprocess runs check the printed result line.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLE = {"import_s": 0.5, "import_cal_s": 2e-3,
                "profile_s": 1e-3, "profile_cal_s": 2e-3}


@pytest.fixture(scope="module")
def reference():
    return wl.load_reference()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory, reference):
    """One untraced and one traced pass of each shrunken workload."""
    work = tmp_path_factory.mktemp("work")
    small = {
        "table2": wl.Table2(work, reference, temps=(25.0, 45.0)),
        "pulse_train": wl.PulseTrain(work, reference, corners=((5e8, (45.0,)),)),
        "attack_map": wl.AttackMap(seed=7, n_scenarios=10),
        "verify": wl.Verify(work, quick=True),
    }
    runs = {}
    try:
        for name, workload in small.items():
            tracer = tr.Tracer()
            runs[name] = (workload, tracer,
                          bench.run_passes(workload, 0.0, tracer))
    finally:
        small["pulse_train"].close()
    return runs


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180)


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] \
        == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] \
        == list(bench.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)


def test_smoke_run_passes_the_gate(smoke):
    for name, (_, _, passes) in smoke.items():
        assert len(passes.untraced) == len(passes.traced) == 1, name
        assert all(o.attempted > 0 and o.failed == 0
                   for o in passes.outcomes), name


def test_smoke_run_reports_every_metric(smoke):
    for name, (_, tracer, passes) in smoke.items():
        setup = [SETUP_SAMPLE]
        layers = bench.per_layer(tracer, passes, setup)
        assert list(layers) == [n for n, _ in bench.PER_LAYER], name
        assert list(bench.end_to_end(setup, passes)) \
            == [n for n, _ in bench.END_TO_END]
        assert tracer.absent == []


def test_traced_counts_at_this_commit(smoke):
    def layers(name):
        _, tracer, passes = smoke[name]
        return bench.per_layer(tracer, passes, [SETUP_SAMPLE])
    table2 = layers("table2")
    assert table2["dynamics.drive.calls_per_step"] == 3.0
    assert table2["dynamics.steps"] == 4 * 200_000
    assert table2["accuracy.smax_err_rel"] > 1e-5   # 45 C decoy edge jitter
    attack = layers("attack_map")
    assert attack["attack.fallbacks"] == 0
    assert attack["attack.solve.calls"] > 10 * 399
    assert attack["dynamics.steps"] == 0
    verify = layers("verify")
    assert verify["oracle.checks"] == 6
    assert verify["oracle.checks_failed"] == 0


def test_perturbed_smax_is_counted(smoke):
    workload, _, _ = smoke["table2"]
    got = workload.collect(workload.run())
    assert workload.gate(got).failed == 0
    key = (45.0, "decoy")
    got[key] = dict(got[key], s_max_m3=got[key]["s_max_m3"] * (1 + 1e-2))
    assert workload.gate(got).failed == 1


def test_perturbed_attack_residual_is_counted(smoke):
    workload, _, _ = smoke["attack_map"]
    results = workload.run()
    assert workload.gate(results).failed == 0
    boundary, solutions = results[3]
    solutions = list(solutions)
    solutions[10] = dataclasses.replace(solutions[10], residual_decoy=1e-6)
    results[3] = (boundary, solutions)
    assert workload.gate(results).failed == 1


def test_failed_verify_row_is_counted(smoke):
    workload, _, _ = smoke["verify"]
    rows = workload.collect(workload.run())
    rows[0] = dict(rows[0], passed="false")
    outcome = workload.gate(rows)
    assert (outcome.failed, outcome.checks_failed) == (1, 1)


def test_absent_trace_target_is_reported(monkeypatch):
    monkeypatch.setattr(tr, "TARGETS", tr.TARGETS + (
        ("gainswitch.attack", "no_such_function", "attack.gone"),))
    tracer = tr.Tracer()
    assert tracer.traced(lambda: 42) == 42
    assert tracer.absent == ["gainswitch.attack.no_such_function"]


def test_result_line_names_every_metric():
    proc = _run_cli(wl.ROOT, "--workload", "verify", "--seed", "1",
                    "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "table2", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gainswitch as gs
import gainswitch.cli as cli

ROOT = Path(__file__).resolve().parent.parent


def _attack_argv():
    boundary = gs.min_feasible_distance(gs.default_profile().attack)
    return ["attack", "--lmin", repr(boundary), "--lmax", "140",
            "--step", "0.5"]


# demo -> (the CLI arguments of the run it matches, {demo file: CLI file})
CLI_TWINS = {
    "attack_scan": (_attack_argv, {"attack_scan.csv": "attack_scan.csv"}),
    "temperature_sweep": (lambda: ["table2"],
                          {"sweep_signal.csv": "metrics_signal.csv",
                           "sweep_decoy.csv": "metrics_decoy.csv"}),
}


@pytest.mark.parametrize("demo", ["attack_scan", "pulse_train",
                                  "single_pulse", "temperature_sweep"])
def test_demo_runs(demo, tmp_path):
    """Each demo runs from a clean directory against the source tree and
    exits 0; a demo that writes a table the CLI also writes writes the
    CLI's bytes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    if demo not in CLI_TWINS:
        return
    argv, files = CLI_TWINS[demo]
    out = tmp_path / "cli"
    assert cli.main([*argv(), "--out", str(out)]) == 0
    for mine, theirs in files.items():
        assert (tmp_path / mine).read_bytes() == \
            (out / theirs).read_bytes(), mine

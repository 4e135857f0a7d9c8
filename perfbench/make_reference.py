"""Generate perfbench/reference.json: the 1 fs reference for the benchmark.

Usage, from the root of a git checkout:

    python3 perfbench/make_reference.py

It integrates the 14 table2 pulses (7 temperatures x signal/decoy, 2 ns)
and the 9 pulse_train cycles (the three stability corners, 3 pulses each)
at a 1 fs step through the public API, and records the command, commit and
step it used. It takes a few minutes and peaks near 600 MB (the 6 ns train
at 1 fs keeps 6 M samples). The benchmark only reads the file; it never
regenerates it.
"""

import json
import os
import platform
import subprocess
import sys
import time

from workloads import (REFERENCE_PATH, ROOT, STATES, TABLE2_TEMPS,
                       TRAIN_CORNERS, TRAIN_PULSES, import_gainswitch)

REFERENCE_DT = 1e-15


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def pulse_entry(pm):
    return {"t_on_s": pm.t_on, "t_peak_s": pm.t_peak, "s_max_m3": pm.s_max,
            "n_initial_m3": pm.n_initial}


def main():
    gs = import_gainswitch()
    import numpy
    profile = gs.default_profile()
    started = time.perf_counter()

    table2 = []
    for temp in TABLE2_TEMPS:
        for state in STATES:
            _, _, pm = gs.run_pulse_scenario(profile, temp, state,
                                             dt=REFERENCE_DT)
            table2.append({"temp_c": temp, "state": state, **pulse_entry(pm)})
            print(f"table2 {temp:g} C {state}: s_max={pm.s_max!r}",
                  file=sys.stderr)

    train = []
    for freq, temps in TRAIN_CORNERS:
        for temp in temps:
            _, traj, rows = gs.run_train_scenario(profile, temp, freq,
                                                  TRAIN_PULSES, dt=REFERENCE_DT)
            for row in rows:
                pm = gs.extract_metrics(traj, cycle_index=row.cycle)
                train.append({"freq_hz": freq, "temp_c": temp,
                              "cycle": row.cycle, **pulse_entry(pm),
                              "flagged": row.flagged})
            del traj
            print(f"train {freq:g} Hz {temp:g} C done", file=sys.stderr)

    status = git("status", "--porcelain", "--", "src")
    reference = {
        "generated_by": {
            "command": "python3 perfbench/make_reference.py",
            "commit": git("rev-parse", "HEAD"),
            "src_dirty": None if status is None else bool(status),
            "dt_s": REFERENCE_DT,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "seconds": round(time.perf_counter() - started, 1),
        },
        "table2": table2,
        "pulse_train": train,
    }
    tmp = f"{REFERENCE_PATH}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, REFERENCE_PATH)
    print(f"wrote {REFERENCE_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()

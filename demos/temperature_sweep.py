#!/usr/bin/env python3
"""Sweep operating temperature and tabulate pulse observables.

Simulates signal and decoy pulses every 5 C from 15 to 45 C, prints the
comparison table (thermal densities, turn-on and peak delays, peak photon
density), writes per-state metrics CSVs, and plots the trends when
matplotlib is available. The 14 runs take about 0.1 s on a 2-vCPU Xeon VM.

Usage:
    python3 demos/temperature_sweep.py
"""

import gainswitch as gs
from gainswitch import rows
from gainswitch.metrics import METRICS_COLUMNS, render_table2

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    HAVE_MPL = True
except ImportError:
    HAVE_MPL = False

TEMPS = [15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0]


def main():
    profile = gs.default_profile()
    print(f"sweeping {len(TEMPS)} temperatures, signal + decoy each ...")
    sweep = gs.run_table_sweep(profile, TEMPS)

    print(render_table2(sweep))

    for state in ("signal", "decoy"):
        fname = f"sweep_{state}.csv"
        with open(fname, "w", encoding="utf-8", newline="") as fh:
            rows.write_csv(METRICS_COLUMNS,
                           [(r.temp_c, getattr(r, state)) for r in sweep], fh)
        print(f"metrics written to {fname}")

    print("\nsignal/decoy separation:")
    for r in sweep:
        pair = gs.compare_states(r.signal, r.decoy)
        print(f"  {r.temp_c:4.0f} C: delta_t_peak = "
              f"{pair.delta_t_peak * 1e12:5.1f} ps   "
              f"smax_ratio = {pair.smax_ratio:8.3f}")

    if not HAVE_MPL:
        print("matplotlib not available, skipping plot")
        return

    fig, axes = plt.subplots(1, 3, figsize=(12, 3.6))
    smax_s = [r.signal.s_max for r in sweep]
    smax_d = [r.decoy.s_max for r in sweep]
    tp_s = [r.signal.t_peak * 1e12 for r in sweep]
    tp_d = [r.decoy.t_peak * 1e12 for r in sweep]
    dpk = [(r.decoy.t_peak - r.signal.t_peak) * 1e12 for r in sweep]

    axes[0].semilogy(TEMPS, smax_s, "o-", label="signal")
    axes[0].semilogy(TEMPS, smax_d, "s-", label="decoy")
    axes[0].set_ylabel("S_max (m$^{-3}$)")
    axes[0].legend()
    axes[1].plot(TEMPS, tp_s, "o-", label="signal")
    axes[1].plot(TEMPS, tp_d, "s-", label="decoy")
    axes[1].set_ylabel("t_peak (ps)")
    axes[1].legend()
    axes[2].plot(TEMPS, dpk, "d-", color="C2")
    axes[2].set_ylabel("decoy - signal peak delay (ps)")
    for ax in axes:
        ax.set_xlabel("temperature (C)")
    fig.tight_layout()
    fig.savefig("temperature_sweep.png", dpi=150)
    print("plot saved to temperature_sweep.png")


if __name__ == "__main__":
    main()

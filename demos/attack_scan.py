#!/usr/bin/env python3
"""Map the feasibility window of the intercept-and-replace attack.

For a decoy-state link the eavesdropper must keep BOTH measured gains
(signal and decoy) at their expected values while blocking a fraction of
single-photon pulses. This script solves the two gain-balance equations
over transmission distance, reports where the required replacement
channel stays physical (eta' <= eta0), and writes the scan to CSV.

Usage:
    python3 demos/attack_scan.py
"""

import gainswitch as gs
from gainswitch import rows
from gainswitch.attack import SCAN_COLUMNS

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    HAVE_MPL = True
except ImportError:
    HAVE_MPL = False

L_MAX = 140.0
STEP = 0.5


def main():
    scenario = gs.default_profile().attack
    print(f"pulse means: mu = {scenario.mu}, nu = {scenario.nu}; "
          f"channel loss {scenario.delta_db_per_km} dB/km, "
          f"eta0 = {scenario.eta0}")

    boundary = gs.min_feasible_distance(scenario)
    print(f"attack becomes feasible beyond {boundary:.2f} km")

    scan = gs.scan_distance(scenario, boundary, L_MAX, STEP)
    summary = gs.summarize_scan(scan, minimum_distance=boundary)
    print(f"scanned {summary['points']} distances, "
          f"{summary['feasible_points']} feasible")
    print(f"eta'/eta stays within [{summary['eta_ratio_min']:.3f}, "
          f"{summary['eta_ratio_max']:.3f}]")
    print(f"p_block stays within [{summary['p_block_min']:.4f}, "
          f"{summary['p_block_max']:.4f}]")

    at100 = gs.solve_attack(scenario, length_km=100.0)
    print(f"at 100 km: eta' = {at100.eta_prime:.4e} "
          f"(x{at100.eta_ratio:.2f} over eta), p_block = {at100.p_block:.4f}, "
          f"replacement loss {at100.delta_prime_db_per_km:.3f} dB/km "
          f"vs real {scenario.delta_db_per_km} dB/km")

    with open("attack_scan.csv", "w", encoding="utf-8", newline="") as fh:
        rows.write_array_csv(SCAN_COLUMNS, scan, fh)
    print("scan written to attack_scan.csv")

    if not HAVE_MPL:
        print("matplotlib not available, skipping plot")
        return

    fig, (ax_r, ax_p) = plt.subplots(1, 2, figsize=(10, 3.8))
    ax_r.plot(scan.length_km, scan.eta_ratio)
    ax_r.set_xlabel("distance (km)")
    ax_r.set_ylabel("required eta' / eta")
    ax_p.plot(scan.length_km, scan.p_block, color="C1")
    ax_p.set_xlabel("distance (km)")
    ax_p.set_ylabel("decoy blocking probability")
    for ax in (ax_r, ax_p):
        ax.axvline(boundary, color="k", ls=":", lw=0.8)
    fig.suptitle("attack requirements vs transmission distance", fontsize=10)
    fig.tight_layout()
    fig.savefig("attack_scan.png", dpi=150)
    print("plot saved to attack_scan.png")


if __name__ == "__main__":
    main()

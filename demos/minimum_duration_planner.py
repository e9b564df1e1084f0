"""Choosing a subsidy level when the window always stops at the tipping point.

Run the subsidy exactly until adoption reaches the tipping level, then
stop: the market finishes the climb on its own.  Sweeping the level
exposes the tradeoff: tiny levels never get there, slightly larger ones
take very long and cost a lot, very large ones stop saving time but keep
costing more.  The efficient choices sit on the Pareto frontier in
(window length, outlay).
"""

import csv

from netadopt import ModelParams, min_subsidy, sweep

params = ModelParams(u_min=1.0, u_max=2.0, cost=2.5, externality=3.0, gamma=1.0)
start = 0.0

threshold = min_subsidy(params, start)
print(f"smallest level that can flip the market: {threshold}")

# One column per quantity; the frontier is a run of grid indices.
result = sweep(params, start)
levels, _, windows, outlays, frontier = result[:5]
print(f"outlay dips at level ~{result.dip_level:.3f} before rising again")
print(f"{len(frontier)} of {len(levels)} grid levels are Pareto-efficient")
print()
print(f"{'level':>7} {'window':>9} {'outlay':>9} {'frontier':>9}")
for i in range(0, len(levels), len(levels) // 16):
    window = f"{windows[i]:.4f}" if windows[i] is not None else "inf"
    outlay = f"{outlays[i]:.4f}" if outlays[i] is not None else "inf"
    print(f"{levels[i]:>7.3f} {window:>9} {outlay:>9} {str(i in frontier):>9}")

with open("minimum_duration_sweep.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["level", "window", "outlay", "frontier"])
    for i, level in enumerate(levels):
        writer.writerow(
            [level,
             windows[i] if windows[i] is not None else "inf",
             outlays[i] if outlays[i] is not None else "inf",
             i in frontier]
        )
print("\nfull sweep written to minimum_duration_sweep.csv")

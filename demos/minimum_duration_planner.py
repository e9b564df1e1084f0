"""Choosing a subsidy level when the window always stops at the tipping point.

Run the subsidy exactly until adoption reaches the tipping level, then
stop: the market finishes the climb on its own.  Sweeping the level
exposes the tradeoff: tiny levels never get there, slightly larger ones
take very long and cost a lot, very large ones stop saving time but keep
costing more.  The efficient choices sit on the Pareto frontier in
(window length, outlay).
"""

import csv

from netadopt import ModelParams, cost_sign_pattern, min_subsidy, sweep

params = ModelParams(u_min=1.0, u_max=2.0, cost=2.5, externality=3.0, gamma=1.0)
start = 0.0

threshold = min_subsidy(params, start)
print(f"smallest level that can flip the market: {threshold}")

rows, frontier = sweep(params, start)
pattern = cost_sign_pattern(rows, params, start)
print(f"outlay dips at level ~{pattern.dip_level:.3f} before rising again")
print(f"{len(frontier)} of {len(rows)} grid levels are Pareto-efficient")
print()
print(f"{'level':>7} {'window':>9} {'outlay':>9} {'frontier':>9}")
for row in rows[:: len(rows) // 16]:
    window = f"{row.duration:.4f}" if row.duration is not None else "inf"
    outlay = f"{row.cost:.4f}" if row.cost is not None else "inf"
    print(f"{row.level:>7.3f} {window:>9} {outlay:>9} {str(row in frontier):>9}")

with open("minimum_duration_sweep.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["level", "window", "outlay", "frontier"])
    for row in rows:
        writer.writerow(
            [row.level,
             row.duration if row.duration is not None else "inf",
             row.cost if row.cost is not None else "inf",
             row in frontier]
        )
print("\nfull sweep written to minimum_duration_sweep.csv")

"""The four equilibrium regimes of a service with network effects.

Sweeping the cost against the affinity range and the externality strength
produces four qualitatively different equilibrium sets.  The most
interesting one is the bistable regime: empty and full markets are both
stable, separated by a tipping level, so where you start decides where
you end up.
"""

from netadopt import ModelParams, classify_equilibria, unsubsidized_trajectory

CASES = [
    ("cost out of reach", ModelParams(1.0, 2.0, 5.0, 2.0, 1.0)),
    ("settles partway", ModelParams(1.0, 2.0, 1.75, 0.5, 1.0)),
    ("bistable", ModelParams(1.0, 2.0, 2.5, 2.0, 1.0)),
    ("adopted by everyone", ModelParams(1.0, 2.0, 1.0, 0.5, 1.0)),
]

print(f"{'regime':>22} {'case':>4} {'interior':>9} {'band':>16}  equilibria")
for name, params in CASES:
    report = classify_equilibria(params)
    band = f"[{report.band_low:.2f}, {report.band_high:.2f}]"
    eq = ", ".join(f"{lvl:.2f} ({s})" for lvl, s in report.equilibria)
    print(f"{name:>22} {report.case_id:>4} {report.interior:>9.2f} {band:>16}  {eq}")

print()
print("bistable regime: the start level picks the long-run outcome")
params = CASES[2][1]
for x0 in (0.2, 0.45, 0.55, 0.9):
    traj = unsubsidized_trajectory(params, 0.0, x0)
    samples = "  ".join(f"{traj.value(float(t)):.3f}" for t in range(7))
    print(f"  x0={x0:.2f}: {samples}  ->  {traj.final_level:.0f}")

"""Subsidizing a service without network effects.

With no externality a finite subsidy cannot change the long-run adoption
level; it can only get the market to a target level sooner.  The window
length needed shrinks as the subsidy grows, while the total outlay can go
either way.  Here (affinities well above the cost at the high end) the
outlay grows with the level, so speed is bought with money.
"""

import numpy as np

from netadopt import (
    ConstantLevelSubsidy,
    ModelParams,
    noext_cost_at_target,
    noext_cost_decreasing_condition,
    noext_required_duration,
    subsidized_trajectory,
)

wide = ModelParams(u_min=1.0, u_max=6.0, cost=3.0, externality=0.0, gamma=1.0)
target = 0.5

print(f"target level {target}, cost {wide.cost}, affinities uniform on [1, 6]")
print(f"outlay guaranteed to fall with the level? "
      f"{noext_cost_decreasing_condition(wide, 1.0)}")
print()
print(f"{'level':>6} {'window':>8} {'outlay':>8}")
for level in (0.0, 0.5, 1.0, 1.5, 2.0):
    window = noext_required_duration(wide, 0.0, level, target)
    outlay = noext_cost_at_target(wide, 0.0, level, target)
    print(f"{level:>6.2f} {window:>8.4f} {outlay if outlay is not None else 0.0:>8.4f}")

print()
print("a half-cost subsidy for one time unit, then back to full price:")
market = ModelParams(u_min=0.0, u_max=1.0, cost=0.5, externality=0.0, gamma=1.0)
cls = ConstantLevelSubsidy(0.5, 1.0)
traj = subsidized_trajectory(market, cls, 0.0)
for t in np.linspace(0.0, 5.0, 11):
    marker = "subsidized" if t <= 1.0 else "full price"
    print(f"  t={t:>4.1f}  y={traj.value(float(t)):.4f}  ({marker})")
print(f"long-run level: {traj.final_level}")

"""Shared randomized-scenario generators for the test suite."""

from __future__ import annotations

import numpy as np

from netadopt import ModelParams, interior_equilibrium


def random_params(rng: np.random.Generator, case: int) -> ModelParams:
    """A parameter set that classifies into the requested regime.

    Margins keep the set away from regime boundaries, the externality
    away from the degenerate e == u_max - u_min line, and the in-band
    slope moderate so fixed-step RK4 stays sharp across band crossings.
    """
    for _ in range(500):
        u_min = rng.uniform(0.2, 2.0)
        spread = rng.uniform(0.4, 2.2)
        u_max = u_min + spread
        gamma = rng.uniform(0.25, 3.0)
        margin = 0.06 * spread
        if case == 1:
            e = rng.uniform(0.15, 2.5) * spread
            if abs(e - spread) < 0.25 * spread:
                continue
            c = max(u_max, u_min + e) + rng.uniform(margin, 1.2 * spread)
        elif case == 2:
            e = rng.uniform(0.15, 0.7) * spread
            lo, hi = u_min + e, u_max
            if hi - lo < 3 * margin:
                continue
            c = rng.uniform(lo + margin, hi - margin)
        elif case == 3:
            e = rng.uniform(1.35, 3.0) * spread
            lo, hi = u_max, u_min + e
            if hi - lo < 3 * margin:
                continue
            c = rng.uniform(lo + margin, hi - margin)
        elif case == 4:
            e = rng.uniform(0.15, 2.5) * spread
            if abs(e - spread) < 0.25 * spread:
                continue
            hi = min(u_max, u_min + e) - margin
            if hi <= 0.05:
                continue
            c = rng.uniform(0.05, hi)
        else:
            raise ValueError(case)
        if c < 0:
            continue
        return ModelParams(u_min, u_max, float(c), float(e), float(gamma))
    raise RuntimeError(f"could not generate case-{case} parameters")


def sample_times(sampled) -> list[float]:
    """The oracle's sample times start_time + dt*i, one per level."""
    return [sampled.start_time + sampled.dt * i for i in range(len(sampled.levels))]


def max_gap(traj, sampled) -> float:
    """max |closed form - rk4| over the oracle's samples (NaN if any is NaN)."""
    return np.max(np.abs(np.asarray(traj.values(sample_times(sampled)))
                         - np.asarray(sampled.levels)))


def random_start(rng: np.random.Generator, params: ModelParams) -> float:
    """A start level in [0, 1] kept away from the unstable interior point."""
    while True:
        x0 = float(rng.uniform(0.0, 1.0))
        try:
            x_int = interior_equilibrium(params.cost, params)
        except Exception:
            return x0
        if abs(x0 - x_int) > 1e-3:
            return x0


def random_planner_setup(
    rng: np.random.Generator, positive_y0: bool = False
) -> tuple[ModelParams, float]:
    """Bistable parameters plus a start level below the tipping point."""
    while True:
        params = random_params(rng, 3)
        x_int = interior_equilibrium(params.cost, params)
        lo = 0.02 if positive_y0 else 0.0
        if x_int - 0.06 <= lo:
            continue
        y0 = float(rng.uniform(lo, x_int - 0.06))
        return params, y0

"""Reference computations that only the tests use.

Brute-force and finite-difference counterparts of the library's closed
forms: a fixed-point scan, the adoption map with its stability query,
central differences, first-passage detection on oracle samples, a
dominance scan for the sweep's Pareto frontier and a count of the
outlay's slope sign switches on range 4.  Tests import this
module the way they import ``conftest``.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from netadopt import InvalidParameterError, ModelParams, SampledTrajectory, SubsidySweep
from netadopt.model import STABLE, UNSTABLE
from netadopt.subsidy import FLAT_TOL

# Levels supplied by callers arrive through text and get a looser check
# than the constructed equilibria.
USER_EQUILIBRIUM_TOL = 1e-9


class NotAnEquilibriumError(ValueError):
    """A level handed to a stability query is not a fixed point of the dynamics."""


def would_adopt(x: float, params: ModelParams) -> float:
    """Fraction of users with positive net utility at adoption level x.

    Continuous and nondecreasing in x; defined for all real x.
    """
    return params.ccdf(params.cost - params.externality * x)


def stability_of(x_bar: float, params: ModelParams) -> str:
    """Stability of an equilibrium level.

    Stable iff the local slope of ``would_adopt`` at ``x_bar`` is below 1;
    at kinks of the map the larger one-sided slope decides.  The slopes
    are the difference quotients of ``would_adopt`` over [x_bar - h,
    x_bar] and [x_bar, x_bar + h], with h = 2**-20 (about 9.5e-7).  The
    map is flat outside the band [band_low, band_high] and linear on it,
    so a quotient is its side's exact slope unless a second kink lies
    within h of x_bar, which needs a band narrower than h.  The bands the
    tests hand it are (u_max - u_min)/externality = 0.5 wide, or absent
    (externality 0): over 5e5 steps.  Rounding the levels near [0, 1]
    moves a quotient by about 1e-16/h, 1e-10, so the verdict holds for
    every slope farther than that from 1.

    Raises:
        NotAnEquilibriumError: when x_bar is not a fixed point within 1e-9.
    """
    here = would_adopt(x_bar, params)
    residual = here - x_bar
    if abs(residual) > USER_EQUILIBRIUM_TOL:
        raise NotAnEquilibriumError(
            f"{x_bar} is not an equilibrium (residual {residual:.3e})"
        )
    h = 2.0**-20
    left = (here - would_adopt(x_bar - h, params)) / h
    right = (would_adopt(x_bar + h, params) - here) / h
    return STABLE if max(left, right) < 1.0 else UNSTABLE


def brute_force_equilibria(
    params: ModelParams, grid_n: int = 2000
) -> list[tuple[float, str]]:
    """Fixed points of would_adopt on [0, 1] by sign-change scan.

    Scans would_adopt(x) - x on a uniform grid, refines each sign change
    by bisection to 1e-12, and reads stability off the sign of the
    residual on either side.
    """
    if grid_n < 1000:
        raise InvalidParameterError("grid_n must be >= 1000")
    spread = params.u_max - params.u_min
    c, e = params.cost, params.externality

    def g(x: float) -> float:
        return min(1.0, max(0.0, (params.u_max - c + e * x) / spread)) - x

    step = 1.0 / grid_n  # np.linspace(0, 1, grid_n + 1), bit for bit
    xs = [i * step for i in range(grid_n)] + [1.0]
    gs = list(map(g, xs))

    roots: list[float] = []
    for i in range(grid_n):
        if gs[i] == 0.0:
            roots.append(xs[i])
        elif gs[i] * gs[i + 1] < 0.0:
            lo, hi = xs[i], xs[i + 1]
            glo = gs[i]
            while hi - lo > 1e-13:
                mid = 0.5 * (lo + hi)
                gm = g(mid)
                if gm == 0.0:
                    lo = hi = mid
                    break
                if glo * gm < 0.0:
                    hi = mid
                else:
                    lo, glo = mid, gm
            roots.append(0.5 * (lo + hi))
    if gs[-1] == 0.0:
        roots.append(1.0)

    merged: list[float] = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > 1e-9:
            merged.append(r)

    out: list[tuple[float, str]] = []
    delta = 1e-6
    for r in merged:
        left_ok = r < delta or g(r - delta) > 0
        right_ok = r > 1 - delta or g(r + delta) < 0
        out.append((r, STABLE if (left_ok and right_ok) else UNSTABLE))
    return out


def finite_diff(f: Callable[[float], float], at: float, h: float = 1e-6) -> float:
    """Central difference (f(at+h) - f(at-h)) / (2h)."""
    return (f(at + h) - f(at - h)) / (2.0 * h)


def first_passage(sampled: SampledTrajectory, target: float) -> float | None:
    """Linear-interpolated first time the samples cross the target level.

    Returns None when the target is never crossed before the end of the
    samples.
    """
    levels = sampled.levels
    d0 = levels[0] - target
    if d0 == 0.0:
        return sampled.start_time
    above = d0 > 0.0
    for i, (x_i, x_j) in enumerate(zip(levels, levels[1:])):
        if (x_j > target) != above or x_j == target:
            frac = (target - x_i) / (x_j - x_i)
            return sampled.start_time + sampled.dt * (i + frac)
    return None


class SweepRow(NamedTuple):
    """One level of a sweep, as the frontier reference reads it."""

    level: float
    duration: float | None
    cost: float | None


def sweep_rows(result: SubsidySweep) -> list[SweepRow]:
    """The sweep's columns as rows, in grid order."""
    return list(map(SweepRow._make, zip(result.levels, result.durations, result.outlays)))


def pareto_frontier(rows: Sequence[SweepRow]) -> tuple[SweepRow, ...]:
    """The rows on the (duration, cost) frontier, by increasing duration.

    A row dominates another when it is no worse in both objectives and
    strictly better in one; exact ties keep the smallest level.  Rows
    without a finite duration and cost never reach the frontier.
    """
    candidates = [r for r in rows if r.duration is not None and r.cost is not None]
    ranked = sorted(candidates, key=lambda r: (r.duration, r.cost, r.level))
    frontier: list[SweepRow] = []
    best_cost = math.inf
    for row in ranked:
        if row.cost < best_cost:
            frontier.append(row)
            best_cost = row.cost
    return tuple(frontier)


def range4_switch_count(regimes: Sequence[int], outlays: Sequence[float | None]) -> int | None:
    """How often the outlay's slope changes sign between neighbouring
    range-4 levels, counting only steps larger than FLAT_TOL and skipping
    levels without an outlay; None when range 4 has no neighbouring pair.
    A dip inside range 4 switches once."""
    finite = [(k, v) for k, v in zip(regimes, outlays) if v is not None]
    diffs = [b - a for (ka, a), (kb, b) in zip(finite, finite[1:]) if ka == kb == 4]
    if not diffs:
        return None
    signs = [1 if d > FLAT_TOL else -1 for d in diffs if abs(d) > FLAT_TOL]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

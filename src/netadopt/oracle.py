"""Independent numerical ground truth for the closed forms.

Fixed-step RK4 integration of the raw dynamics, composite-Simpson cost
integration over the samples, a brute-force fixed-point scan, central
differences, and first-passage detection.  Nothing here touches the
closed-form machinery, so agreement between the two routes is meaningful.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable

from .errors import InvalidParameterError, InvalidStepError
from .model import STABLE, UNSTABLE, ModelParams, Stability

DEFAULT_STEP_SCALE = 1e-3  # dt * gamma for default integrations
MAX_STEP_SCALE = 1e-2
DEFAULT_HORIZON_SCALE = 60.0  # (t_end - t0) * gamma for limit checks
MAX_STEPS = 10**7  # per run; the samples alone take 80 MB there


@dataclass(frozen=True, eq=False)
class SampledTrajectory:
    """Uniformly sampled adoption path."""

    start_time: float
    dt: float
    levels: array  # array('d'), one level per sample

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise InvalidStepError("dt must be > 0")

    @property
    def times(self) -> list[float]:
        return [self.start_time + self.dt * i for i in range(len(self.levels))]

    @property
    def end_time(self) -> float:
        return self.start_time + self.dt * (len(self.levels) - 1)


def integrate_ode(
    params: ModelParams,
    subsidy_schedule=None,
    t0: float = 0.0,
    x0: float = 0.0,
    t_end: float | None = None,
    dt: float | None = None,
) -> SampledTrajectory:
    """Fixed-step RK4 samples of xdot = gamma*(ccdf(c - s(t) - e*x) - x).

    The effective cost is constant before, during and after the subsidy
    window, so the integration runs phase by phase.  Steps that straddle
    the window's start or end are split there, so each RK4 evaluation
    sees a smooth field; the sample grid itself stays uniform.

    Args:
        params: Market parameters (supply cost, externality, gamma).
        subsidy_schedule: A ``ConstantLevelSubsidy``, or None for the
            plain dynamics.  Only its ``level``, ``start`` and ``end``
            attributes are read, so the oracle needs no planner import.

    Raises:
        InvalidStepError: when dt*gamma exceeds 1e-2, t_end <= t0, or the
            run would take more than MAX_STEPS steps.
    """
    gamma = params.gamma
    if dt is None:
        dt = DEFAULT_STEP_SCALE / gamma
    if t_end is None:
        t_end = t0 + DEFAULT_HORIZON_SCALE / gamma
    if dt <= 0 or dt * gamma > MAX_STEP_SCALE * (1 + 1e-12):
        raise InvalidStepError(f"need 0 < dt*gamma <= {MAX_STEP_SCALE}, got {dt * gamma}")
    if t_end <= t0:
        raise InvalidStepError("t_end must exceed t0")
    steps = (t_end - t0) / dt
    if not steps <= MAX_STEPS:  # also refuses an overflow to inf
        raise InvalidStepError(
            f"oracle run of {steps:.3g} steps exceeds the limit of {MAX_STEPS}"
        )

    u_min, u_max = params.u_min, params.u_max
    spread = u_max - u_min
    cost, e = params.cost, params.externality
    n = max(1, round(steps))
    t_end = t0 + n * dt  # snap to a whole number of steps
    if subsidy_schedule is None:
        level, start, end = 0.0, t0, t0
    else:
        level = subsidy_schedule.level
        start, end = float(subsidy_schedule.start), float(subsidy_schedule.end)
    cuts = sorted({b for b in (start, end) if t0 < b < t_end})
    levels = array("d", [x0]) * (n + 1)

    # Integrate phase by phase with a tight loop: grid steps up to the
    # phase end b, then one split step onto b when it falls between grid
    # times.  Each step is xdot = gamma*(ccdf(ceff - e*x) - x) under
    # classical RK4, with the uniform ccdf written out at every stage.
    edges = [t0, *cuts, t_end]
    x, t, i = x0, t0, 1
    for a, b in zip(edges, edges[1:]):
        ceff = cost - (level if start <= 0.5 * (a + b) <= end else 0.0)
        while True:
            t_next = t0 + i * dt
            on_grid = i <= n and t_next <= b
            if not on_grid:
                if t >= b:
                    break
                t_next = b
            h = t_next - t
            if h != 0.0:
                u = ceff - e * x
                k1 = gamma * ((1.0 if u <= u_min else 0.0 if u >= u_max
                               else (u_max - u) / spread) - x)
                x2 = x + 0.5 * h * k1
                u = ceff - e * x2
                k2 = gamma * ((1.0 if u <= u_min else 0.0 if u >= u_max
                               else (u_max - u) / spread) - x2)
                x3 = x + 0.5 * h * k2
                u = ceff - e * x3
                k3 = gamma * ((1.0 if u <= u_min else 0.0 if u >= u_max
                               else (u_max - u) / spread) - x3)
                x4 = x + h * k3
                u = ceff - e * x4
                k4 = gamma * ((1.0 if u <= u_min else 0.0 if u >= u_max
                               else (u_max - u) / spread) - x4)
                x = x + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            t = t_next
            if on_grid:
                levels[i] = x
                i += 1
    return SampledTrajectory(start_time=t0, dt=dt, levels=levels)


def _composite_simpson(y: array, dx: float) -> float:
    """Composite Simpson over uniform samples; 3/8 rule absorbs odd tails."""
    n = len(y) - 1
    if n <= 0:
        return 0.0
    if n == 1:
        return 0.5 * dx * (y[0] + y[1])
    total = 0.0
    if n % 2 == 1:
        # Simpson 3/8 on the last three intervals, regular rule before.
        total += 3.0 * dx / 8.0 * (y[n - 3] + 3 * y[n - 2] + 3 * y[n - 1] + y[n])
        y = y[: n - 2]
        n -= 3
        if n == 0:
            return total
    total += dx / 3.0 * (y[0] + y[-1] + 4.0 * math.fsum(y[1:-1:2]) + 2.0 * math.fsum(y[2:-2:2]))
    return total


def integrate_cost(sampled: SampledTrajectory, subsidy_schedule) -> float:
    """Total provider outlay: level times the integral of x(t) over the window.

    ``subsidy_schedule`` is a constant level subsidy or None.  The
    integral is split at the window end; a window end falling between
    samples is closed with a trapezoid on the interpolated remainder.
    """
    if subsidy_schedule is None or subsidy_schedule.level == 0.0:
        return 0.0
    levels, t0, dt = sampled.levels, sampled.start_time, sampled.dt
    hi = min(subsidy_schedule.end, sampled.end_time)
    lo = max(subsidy_schedule.start, t0)
    if hi <= lo:
        return 0.0
    i_lo = int(math.ceil((lo - t0) / dt - 1e-9))
    i_hi = int(math.floor((hi - t0) / dt + 1e-9))
    total = _composite_simpson(levels[i_lo : i_hi + 1], dt)
    # The level at a window edge is interpolated in np.interp's arithmetic.
    t_hi = t0 + dt * i_hi
    if t_hi < hi:  # partial trailing interval
        slope = (levels[i_hi + 1] - levels[i_hi]) / (t0 + dt * (i_hi + 1) - t_hi)
        total += 0.5 * (levels[i_hi] + (slope * (hi - t_hi) + levels[i_hi])) * (hi - t_hi)
    t_lo = t0 + dt * i_lo
    if t_lo > lo:  # partial leading interval
        t_j = t0 + dt * (i_lo - 1)
        slope = (levels[i_lo] - levels[i_lo - 1]) / (t_lo - t_j)
        total += 0.5 * (slope * (lo - t_j) + levels[i_lo - 1] + levels[i_lo]) * (t_lo - lo)
    return subsidy_schedule.level * total


def brute_force_equilibria(
    params: ModelParams, grid_n: int = 2000
) -> list[tuple[float, Stability]]:
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

    out: list[tuple[float, Stability]] = []
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

"""Independent numerical ground truth for the closed forms.

Fixed-step RK4 integration of the raw dynamics and composite-Simpson
cost integration over the samples, as ``validate`` runs them.  Nothing
here touches the closed-form machinery, so agreement between the two
routes is meaningful.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from .errors import InvalidStepError
from .model import ModelParams

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
    def end_time(self) -> float:
        return self.start_time + self.dt * (len(self.levels) - 1)


def _rk4_step(
    x: float, h: float, ceff: float, e: float, gamma: float,
    u_min: float, u_max: float, spread: float,
) -> float:
    """One classical RK4 step of xdot = gamma*(ccdf(ceff - e*x) - x)."""

    def slope(y: float) -> float:
        u = ceff - e * y
        return gamma * ((1.0 if u <= u_min else 0.0 if u >= u_max
                         else (u_max - u) / spread) - y)

    k1 = slope(x)
    k2 = slope(x + 0.5 * h * k1)
    k3 = slope(x + 0.5 * h * k2)
    k4 = slope(x + h * k3)
    return x + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


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
    window, so the integration runs phase by phase.  A phase ending at b
    takes grid steps onto t0 + i*dt up to the last i <= n with
    t0 + i*dt <= b (its grid range, found once), then one split step
    onto b when b falls between grid times.  Each RK4 evaluation thus
    sees a smooth field, and the sample grid itself stays uniform.

    Every step is the classical one of ``_rk4_step``.  Once a grid step
    starts on a clamp of the ccdf, the rest of its phase runs without
    the ccdf's comparisons, bit for bit the same: with e == 0 the ccdf
    is constant in x; with u = ceff - e*x <= u_min and x <= 1 (or
    u >= u_max and x >= 0) it stays 1 (or 0) for every later stage.
    The stages move x toward that value c, and with dt*gamma <= 1e-2
    none passes it; as e >= 0 and rounding is monotone, a stage between
    x and c has its u on the same side of the clamp as x.

    Args:
        params: Market parameters (supply cost, externality, gamma).
        subsidy_schedule: A ``ConstantLevelSubsidy``, or None for the
            plain dynamics.  Only its ``level``, ``start`` and ``end``
            attributes are read, so the oracle needs no planner import.
        x0: Starting level, finite.

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

    edges = [t0, *cuts, t_end]
    x, t, i = x0, t0, 1
    if x == 0.0 and math.copysign(1.0, x) < 0.0:
        # A step of length 0 (t0 + i*dt == t0) leaves the state as it is,
        # but RK4 arithmetic would turn -0.0 into 0.0: skip those steps.
        while i <= n and t0 + i * dt == t0:
            i += 1
    for a, b in zip(edges, edges[1:]):
        ceff = cost - (level if start <= 0.5 * (a + b) <= end else 0.0)
        # The phase's last grid index: the largest j <= n with
        # t0 + j*dt <= b, adjusted from an estimate with that expression.
        j = min(n, max(i - 1, int((b - t0) / dt)))
        while j < n and t0 + (j + 1) * dt <= b:
            j += 1
        while t0 + j * dt > b:
            j -= 1
        # Grid steps i..j: _rk4_step written out, as a call would cost a
        # quarter of the step, until the state sits on a clamp.
        for i in range(i, j + 1):
            u = ceff - e * x
            if u <= u_min and x <= 1.0 or u >= u_max and x >= 0.0 or e == 0.0:
                break
            t_next = t0 + i * dt
            h = t_next - t
            hh = 0.5 * h
            k1 = gamma * ((1.0 if u <= u_min else 0.0 if u >= u_max
                           else (u_max - u) / spread) - x)
            x2 = x + hh * k1
            u = ceff - e * x2
            k2 = gamma * ((1.0 if u <= u_min else 0.0 if u >= u_max
                           else (u_max - u) / spread) - x2)
            x3 = x + hh * k2
            u = ceff - e * x3
            k3 = gamma * ((1.0 if u <= u_min else 0.0 if u >= u_max
                           else (u_max - u) / spread) - x3)
            x4 = x + h * k3
            u = ceff - e * x4
            k4 = gamma * ((1.0 if u <= u_min else 0.0 if u >= u_max
                           else (u_max - u) / spread) - x4)
            x = x + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            t = t_next
            levels[i] = x
        else:
            i = j + 1
        if i <= j:
            # On a clamp: every later stage of the phase sees the ccdf value c.
            c = 1.0 if u <= u_min else 0.0 if u >= u_max else (u_max - u) / spread
            for i in range(i, j + 1):
                t_next = t0 + i * dt
                h = t_next - t
                hh = 0.5 * h
                k1 = gamma * (c - x)
                k2 = gamma * (c - (x + hh * k1))
                k3 = gamma * (c - (x + hh * k2))
                k4 = gamma * (c - (x + h * k3))
                x = x + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
                t = t_next
                levels[i] = x
            i = j + 1
        if t < b:
            x = _rk4_step(x, b - t, ceff, e, gamma, u_min, u_max, spread)
            t = b
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

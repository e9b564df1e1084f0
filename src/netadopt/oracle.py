"""Independent numerical ground truth for the closed forms.

Fixed-step RK4 integration of the raw dynamics and composite-Simpson
cost integration over the samples, as ``validate`` runs them.  Nothing
here touches the closed-form machinery, so agreement between the two
routes is meaningful.

The field gamma*(ccdf(ceff - e*x) - x) is affine on each of the uniform
ccdf's three branches (the top clamp, the band, the bottom clamp) and
has a kink where they meet.  RK4 keeps its fourth order only while a
step stays on one branch, so a step that crosses a kink is split there:
the oracle finds the crossing from its own field, at the clamp levels
(ceff - u_min)/e and (ceff - u_max)/e (event location; Hairer, Norsett
& Wanner, Solving ODEs I, II.6).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from .errors import InvalidStepError
from .model import ModelParams

STEP_SCALE = 1e-2  # dt * gamma: the default oracle step, and the largest
DEFAULT_HORIZON_SCALE = 60.0  # (t_end - t0) * gamma for limit checks
MAX_STEPS = 10**7  # per run; the samples alone take 80 MB there
BISECTIONS = 48  # locate a kink to h/2**48, below rounding at h*gamma <= 1e-2


@dataclass(frozen=True, eq=False)
class SampledTrajectory:
    """Uniformly sampled adoption path.

    ``splits`` counts the kinks of the ccdf at which the oracle split a
    step on its way.
    """

    start_time: float
    dt: float
    levels: array  # array('d'), one level per sample
    splits: int = 0

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise InvalidStepError("dt must be > 0")

    @property
    def end_time(self) -> float:
        return self.start_time + self.dt * (len(self.levels) - 1)


def _kink_step(
    x: float, h: float, ceff: float, e: float, gamma: float,
    u_min: float, u_max: float, spread: float,
) -> tuple[float, int]:
    """One RK4 step of length h, split at each kink the state crosses.

    Returns the new state and the number of kinks located.  The branch
    is named by its ccdf value: 1.0 or 0.0 on a clamp, None in the band.
    """

    def branch(y: float) -> float | None:
        u = ceff - e * y
        return 1.0 if u <= u_min else 0.0 if u >= u_max else None

    def step(c: float | None, y: float, tau: float) -> float:
        # Classical RK4 with every stage on branch c.
        hh = 0.5 * tau
        if c is None:
            k1 = gamma * ((u_max - (ceff - e * y)) / spread - y)
            y2 = y + hh * k1
            k2 = gamma * ((u_max - (ceff - e * y2)) / spread - y2)
            y3 = y + hh * k2
            k3 = gamma * ((u_max - (ceff - e * y3)) / spread - y3)
            y4 = y + tau * k3
            k4 = gamma * ((u_max - (ceff - e * y4)) / spread - y4)
        else:
            k1 = gamma * (c - y)
            k2 = gamma * (c - (y + hh * k1))
            k3 = gamma * (c - (y + hh * k2))
            k4 = gamma * (c - (y + tau * k3))
        return y + tau * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0

    c = branch(x)
    y = step(c, x, h)
    splits = 0
    # A 1-D autonomous path is monotone and the branches are ordered, so
    # a step meets at most two kinks.
    while splits < 2 and branch(y) != c:
        # The fixed-branch map is monotone in tau: bisect for the first
        # time its state leaves branch c, step there, go on from the new
        # branch for the rest of the step.
        lo, hi = 0.0, h
        for _ in range(BISECTIONS):
            mid = 0.5 * (lo + hi)
            if branch(step(c, x, mid)) == c:
                lo = mid
            else:
                hi = mid
        x = step(c, x, hi)
        h -= hi
        splits += 1
        c = branch(x)
        y = step(c, x, h)
    return y, splits


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
    t0 + i*dt <= b (its grid range, found once), then one shorter step
    onto b when b falls between grid times.  The sample grid stays
    uniform.

    Each step evaluates its four stages on the ccdf branch where it
    starts, whose field is affine, so no stage needs a comparison.  The
    branch is checked once, at the step's end.  On a change the step is
    split at the kink (``_kink_step``): a bisection of the fixed-branch
    RK4 map finds when the state reaches the clamp level, the step runs
    to there, and it finishes on the new branch.  Every RK4 evaluation
    thus sees an affine field, and the order is 4 across kinks too.

    Once a grid step starts on a clamp that the state cannot leave, the
    rest of its phase runs without the end-of-step check, bit for bit
    the same: with e == 0 the ccdf is constant in x; with
    u = ceff - e*x <= u_min and x <= 1 (or u >= u_max and x >= 0) the
    clamp's value c is 1 (or 0) and every stage moves x toward c.  With
    dt*gamma <= 1e-2 each stage and the step's end advance x by at most
    about 1e-2 of its distance to c, so none reaches past c (c is a
    float, and rounding to nearest never crosses it); as e >= 0 and
    rounding is monotone, the end's u stays on x's side of the clamp,
    and the end again satisfies the condition.

    Args:
        params: Market parameters (supply cost, externality, gamma).
        subsidy_schedule: A ``ConstantLevelSubsidy``, or None for the
            plain dynamics.  Only its ``level``, ``start`` and ``end``
            attributes are read, so the oracle needs no planner import.
        x0: Starting level, finite.
        dt: The step; ``STEP_SCALE/gamma`` by default.

    Raises:
        InvalidStepError: when dt*gamma exceeds 1e-2, t_end <= t0, or the
            run would take more than MAX_STEPS steps.
    """
    gamma = params.gamma
    if dt is None:
        dt = STEP_SCALE / gamma
    if t_end is None:
        t_end = t0 + DEFAULT_HORIZON_SCALE / gamma
    if dt <= 0 or dt * gamma > STEP_SCALE * (1 + 1e-12):
        raise InvalidStepError(f"need 0 < dt*gamma <= {STEP_SCALE}, got {dt * gamma}")
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
    splits = 0
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
        while i <= j:
            u = ceff - e * x
            if u <= u_min and x <= 1.0 or u >= u_max and x >= 0.0 or e == 0.0:
                # On a clamp it cannot leave: every later stage of the
                # phase sees the ccdf value c.
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
            elif u_min < u < u_max:
                # In the band: the stages of _kink_step written out (a
                # call per step costs about 40% more on band-heavy runs),
                # until a step's end leaves the band; that step is redone
                # with the split.
                for i in range(i, j + 1):
                    t_next = t0 + i * dt
                    h = t_next - t
                    hh = 0.5 * h
                    k1 = gamma * ((u_max - (ceff - e * x)) / spread - x)
                    x2 = x + hh * k1
                    k2 = gamma * ((u_max - (ceff - e * x2)) / spread - x2)
                    x3 = x + hh * k2
                    k3 = gamma * ((u_max - (ceff - e * x3)) / spread - x3)
                    x4 = x + h * k3
                    k4 = gamma * ((u_max - (ceff - e * x4)) / spread - x4)
                    y = x + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
                    t = t_next
                    if u_min < ceff - e * y < u_max:
                        levels[i] = x = y
                        continue
                    x, k = _kink_step(x, h, ceff, e, gamma, u_min, u_max, spread)
                    splits += k
                    levels[i] = x
                    break
            else:
                # On a clamp outside [0, 1]: x moves toward 1 (or 0) and
                # may cross into the band.
                t_next = t0 + i * dt
                x, k = _kink_step(x, t_next - t, ceff, e, gamma, u_min, u_max, spread)
                splits += k
                t = t_next
                levels[i] = x
            i += 1
        if t < b:
            x, k = _kink_step(x, b - t, ceff, e, gamma, u_min, u_max, spread)
            splits += k
            t = b
    return SampledTrajectory(start_time=t0, dt=dt, levels=levels, splits=splits)


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

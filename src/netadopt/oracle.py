"""Independent numerical ground truth for the closed forms.

Fixed-step RK4 integration of the raw dynamics and composite-Simpson
cost integration over the samples, as ``validate`` runs them.  Nothing
here touches the closed-form machinery, so agreement between the two
routes is meaningful.

The field gamma*(ccdf(ceff - e*x) - x) is affine on each of the uniform
ccdf's three branches (the top clamp, the band, the bottom clamp) and
has a kink where they meet.  On one branch, with f(x) = lam*x + mu,
RK4's four stages sum exactly to x + h*P(h*lam)*f(x), where
P(z) = 1 + z/2 + z**2/6 + z**3/24 is its stability polynomial (Hairer &
Wanner, Solving ODEs II, IV.2), so a step evaluates the field once and
scales it by a factor.  RK4 keeps its fourth order only while a step
stays on one branch, so a step that crosses a kink is split there: the
oracle finds the crossing from its own field, at the clamp levels
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
MAX_STEPS = 10**7  # per run; the samples alone take 80 MB there
BISECTIONS = 48  # locate a kink to h/2**48, below rounding at h*gamma <= 1e-2
CHUNK = 256  # steps between checks for a fixed point; samples per block of its fill


@dataclass(frozen=True, eq=False)
class SampledTrajectory:
    """Uniformly sampled adoption path.

    ``splits`` counts the kinks of the ccdf at which the oracle split a
    step on its way, and ``settled`` the samples it copied from a fixed
    point of its step rather than stepped to.
    """

    start_time: float
    dt: float
    levels: array  # array('d'), one level per sample
    splits: int = 0
    settled: int = 0

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise InvalidStepError("dt must be > 0")


def _factor(h: float, slope: float) -> float:
    """h*P(h*slope): an RK4 step of length h on an affine field of this
    slope adds the factor times the field at x."""
    z = h * slope
    return h * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z * (1.0 / 24.0))))


def _kink_step(
    x: float, h: float, ceff: float, e: float, gamma: float,
    u_min: float, u_max: float, spread: float,
) -> tuple[float, int]:
    """One RK4 step of length h, split at each kink the state crosses.

    Returns the new state and the number of kinks located.  The branch
    is named by its ccdf value: 1.0 or 0.0 on a clamp, None in the band.
    """
    lam = gamma * (e / spread - 1.0)  # the field's slope in the band

    def branch(y: float) -> float | None:
        u = ceff - e * y
        return 1.0 if u <= u_min else 0.0 if u >= u_max else None

    def step(c: float | None, y: float, tau: float) -> float:
        # Classical RK4 with every stage on branch c, as one evaluation.
        if c is None:
            return y + _factor(tau, lam) * (gamma * ((u_max - (ceff - e * y)) / spread - y))
        return y + _factor(tau, -gamma) * (gamma * (c - y))

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
    *,
    t_end: float,
    dt: float | None = None,
) -> SampledTrajectory:
    """Fixed-step RK4 samples of xdot = gamma*(ccdf(c - s(t) - e*x) - x).

    The effective cost is constant before, during and after the subsidy
    window, so the integration runs phase by phase.  A phase ending at b
    takes grid steps onto t0 + i*dt up to the last i <= n with
    t0 + i*dt <= b (its grid range, found once), then one shorter step
    onto b when b falls between grid times; the next phase's first step
    runs from b to the grid.  The sample grid stays uniform.  A step
    from a grid time has length dt, whatever the spacing of the floats
    t0 + i*dt; only the steps from or onto a phase edge are shorter.

    Each step runs on the ccdf branch where it starts, whose field is
    affine with slope lam: -gamma on a clamp, gamma*(e/spread - 1) in the
    band.  Its four RK4 stages sum to one evaluation of the field times
    h*P(h*lam) (see the module docstring).  A grid step's factor depends
    only on dt and the branch, so it is computed once per run; a shorter
    step computes its own.  The branch is checked once, at the step's
    end.  On a change the step is split at the kink (``_kink_step``): a
    bisection of the fixed-branch RK4 map finds when the state reaches
    the clamp level, the step runs to there, and it finishes on the new
    branch.  Every step thus sees an affine field, and the order is 4
    across kinks too.

    Once a grid step starts on a clamp that the state cannot leave, the
    rest of its phase runs without the end-of-step check, bit for bit
    the same: with e == 0 the ccdf is constant in x; with
    u = ceff - e*x <= u_min and x <= 1 (or u >= u_max and x >= 0) the
    clamp's value c is 1 (or 0).  A step adds q*(gamma*(c - x)) to x,
    and q*gamma = dt*gamma*P(-dt*gamma) lies in (0, 1e-2] for
    dt*gamma <= 1e-2, so even with the rounding of its three products
    the added term has the sign of c - x and is smaller than it: the
    exact sum lies between x and c, and rounding to nearest never
    crosses the float c.  As e >= 0 and rounding is monotone, the end's
    u stays on x's side of the clamp, and the end again satisfies the
    condition.

    Once a grid step returns its input, the rest of its phase is filled
    with that value, bit for bit the same.  Within a phase a grid step
    is one map F of x's value: the branch, and so the formula, follows
    from the value.  The sign of a zero x does not matter either: from
    x = +-0.0 the term c - x (in the band p - x, with p =
    (u_max - u)/spread >= 0) is c (or p) itself, so the step adds the
    same term d, +0.0 or positive, and +-0.0 + d is d.  So when
    F(x) == x, y = F(x) has x's value and F(y) = F(x) = y: every
    later step of the phase returns y.  The fill writes y, not x: from
    -0.0 the step returns +0.0, which compares equal.  The check runs
    once per CHUNK steps on a clamp or in the band (once per step off
    [0, 1]), only after a step without a kink split, so ``splits`` stays
    exact.  The fill writes CHUNK samples at a time, so it needs no
    memory in proportion to its length.

    Args:
        params: Market parameters (supply cost, externality, gamma).
        subsidy_schedule: A ``ConstantLevelSubsidy``, or None for the
            plain dynamics.  Only its ``level``, ``start`` and ``end``
            attributes are read, so the oracle needs no planner import.
        x0: Starting level, finite.
        dt: The step; ``STEP_SCALE/gamma`` by default.

    Raises:
        InvalidStepError: when dt*gamma exceeds 1e-2, t_end <= t0, x0 or
            the run's last level is not finite, or the run would take
            more than MAX_STEPS steps.
    """
    gamma = params.gamma
    if dt is None:
        dt = STEP_SCALE / gamma
    if dt <= 0 or dt * gamma > STEP_SCALE * (1 + 1e-12):
        raise InvalidStepError(f"need 0 < dt*gamma <= {STEP_SCALE}, got {dt * gamma}")
    if t_end <= t0:
        raise InvalidStepError("t_end must exceed t0")
    if not math.isfinite(x0):
        raise InvalidStepError(f"x0 must be finite, got {x0}")
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
    clamp_q = _factor(dt, -gamma)
    band_q = _factor(dt, gamma * (e / spread - 1.0))

    edges = [t0, *cuts, t_end]
    x, t, i = x0, t0, 1  # t: the time of x
    splits = settled = 0
    for a, b in zip(edges, edges[1:]):
        ceff = cost - (level if start <= 0.5 * (a + b) <= end else 0.0)
        # The phase's last grid index: the largest j <= n with
        # t0 + j*dt <= b, adjusted from an estimate with that expression.
        j = min(n, max(i - 1, int((b - t0) / dt)))
        while j < n and t0 + (j + 1) * dt <= b:
            j += 1
        while t0 + j * dt > b:
            j -= 1
        if i <= j and t > t0 + (i - 1) * dt:
            # x sits on the phase's start a, between grid times.
            x, k = _kink_step(x, t0 + i * dt - t, ceff, e, gamma, u_min, u_max, spread)
            splits += k
            levels[i] = x
            i += 1
        while i <= j:
            k, last = 0, min(j, i + CHUNK - 1)  # k: kink splits; last: the chunk's end
            u = ceff - e * x
            if u <= u_min and x <= 1.0 or u >= u_max and x >= 0.0 or e == 0.0:
                # On a clamp it cannot leave: every later step of the
                # phase sees the ccdf value c.
                c = 1.0 if u <= u_min else 0.0 if u >= u_max else (u_max - u) / spread
                for i in range(i, last + 1):
                    x = x + clamp_q * (gamma * (c - x))
                    levels[i] = x
            elif u_min < u < u_max:
                # In the band: _kink_step's step written out (a call per
                # step costs about 40% more on band-heavy runs), each
                # step's end u reused by the next, until a step's end
                # leaves the band; that step is redone with the split.
                for i in range(i, last + 1):
                    y = x + band_q * (gamma * ((u_max - u) / spread - x))
                    u = ceff - e * y
                    if u_min < u < u_max:
                        levels[i] = x = y
                        continue
                    x, k = _kink_step(x, dt, ceff, e, gamma, u_min, u_max, spread)
                    levels[i] = x
                    break
            else:
                # On a clamp outside [0, 1]: x moves toward 1 (or 0) and
                # may cross into the band.
                x, k = _kink_step(x, dt, ceff, e, gamma, u_min, u_max, spread)
                levels[i] = x
            splits += k
            if not k and i < j and x == levels[i - 1]:
                # The last step returned its input: so does every later
                # step of the phase.  Fill them with its output.
                block = array("d", [x]) * min(CHUNK, j - i)
                for lo in range(i + 1, j + 1, CHUNK):
                    hi = min(lo + CHUNK, j + 1)
                    levels[lo:hi] = block[:hi - lo]
                settled += j - i
                i = j
            i += 1
        t = max(t, t0 + (i - 1) * dt)  # a or the last grid time reached
        if t < b:
            x, k = _kink_step(x, b - t, ceff, e, gamma, u_min, u_max, spread)
            splits += k
            t = b
    if not math.isfinite(x):
        # A step adds a term to x, and a float sum with a NaN or infinite
        # operand is not finite: so is every level after a non-finite one.
        raise InvalidStepError(f"oracle level is not finite at t_end, got {x}")
    return SampledTrajectory(start_time=t0, dt=dt, levels=levels, splits=splits,
                             settled=settled)


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
    """Total provider outlay: level times the composite-Simpson integral of
    x(t) over the window.

    ``subsidy_schedule`` is a constant level subsidy or None.  ``sampled``
    must be the run over exactly the window, as ``integrate_ode`` returns
    it for t0 = start and t_end = end: it starts where the window opens
    and takes round(duration/dt) steps.  Any other run raises
    InvalidStepError.
    """
    if subsidy_schedule is None or subsidy_schedule.level == 0.0:
        return 0.0
    levels, dt = sampled.levels, sampled.dt
    steps = subsidy_schedule.duration / dt
    if sampled.start_time != subsidy_schedule.start or not (
            math.isfinite(steps) and len(levels) - 1 == round(steps)):
        raise InvalidStepError("integrate_cost needs the run over exactly the window")
    return subsidy_schedule.level * _composite_simpson(levels, dt)

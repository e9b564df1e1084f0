"""Cost-subsidy analytics.

Without network effects a finite subsidy can only speed adoption up, so
the interesting quantities are the duration and outlay needed to reach a
target level.  With network effects and a bistable market, a constant
level subsidy can permanently flip the long-run outcome from the empty to
the full market; this module computes the minimum subsidy level that can
do it, the minimum duration at each level, the provider's total outlay,
and the duration/outlay Pareto frontier over a grid of levels.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import sub
from typing import NamedTuple, Sequence

from .closed_form import PiecewiseTrajectory, band_rate_step, hit_time, unsubsidized_trajectory
from .errors import AssumptionViolationError, InvalidParameterError
from .model import ModelParams, interior_equilibrium, require_finite, require_start

# Outlay steps between neighbouring sweep levels this small count as flat.
FLAT_TOL = 1e-8


@dataclass(frozen=True, slots=True)
class ConstantLevelSubsidy:
    """A fixed cost reduction over a fixed window.

    Adopters pay cost - level on [start, start + duration] and the full
    cost afterwards.
    """

    level: float
    duration: float
    start: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.level):
            raise InvalidParameterError("subsidy level must be finite")
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise InvalidParameterError("subsidy duration must be finite and >= 0")
        if self.duration > 0 and self.start + self.duration == self.start:
            raise InvalidParameterError(
                f"subsidy window of {self.duration!r} rounds away at start {self.start!r}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def inert(self) -> bool:
        """True for a window of zero level or zero length: it leaves the
        plain dynamics as they are."""
        return self.level == 0.0 or self.duration == 0.0


@dataclass(frozen=True, slots=True)
class FullSubsidyReport:
    """Outcome of a full (level == cost) subsidy of a given duration.

    The three thresholds are the durations at which the fully subsidized
    path reaches, in order, the lower band edge, the interior (tipping)
    equilibrium, and the upper band edge.  Each is None when that level
    is never reached, and 0.0 when the start already lies at or above
    it.  Whether ``duration`` exceeds ``to_interior`` decides the
    long-run outcome.
    """

    to_band_low: float | None
    to_interior: float | None
    to_band_high: float | None
    duration: float
    trajectory: PiecewiseTrajectory
    final_equilibrium: float
    cost: float


@dataclass(frozen=True, slots=True)
class CostResult:
    """Subsidy outlay with the level range (1..5) whose closed form gave it.

    ``value`` is None only on the knife edge where the subsidized level
    balances forever and the outlay grows without bound.
    """

    value: float | None
    row: int


class SubsidySweep(NamedTuple):
    """The minimum-duration planner over a grid of levels, one column per field.

    ``levels`` is the grid in increasing order; ``regimes``, ``durations``
    and ``outlays`` give each level's range (1..5), minimum window (None
    where no window tips the market) and outlay (None on the knife edge),
    as ``min_duration_cost`` and ``min_duration`` give them.

    ``frontier`` holds the grid indices of the (duration, outlay) Pareto
    frontier: the rows from the dip, the cheapest row with a window and an
    outlay (the lowest level on a tie), up to the last row of range 4.
    The dip dominates every row below it: its outlay is lower and its
    duration no longer.  On ranges 3-4 the duration falls as the level
    rises, while past the dip the outlay rises, so each of those rows
    trades time for money.  On range 5 the duration equals the b4 row's
    bit for bit (see ``edge`` in ``_plan_grid``) and the outlay rises, so
    the b4 row dominates every range-5 row.

    ``verdicts`` and ``switch_count`` are the outlay's slope signs, range
    by range, as ``_slope_verdicts`` decides them.
    """

    levels: list[float]
    regimes: list[int]
    durations: list[float | None]
    outlays: list[float | None]
    frontier: range
    verdicts: tuple[bool | None, ...]
    switch_count: int | None

    @property
    def dip_level(self) -> float | None:
        """The cheapest level with a window, the lowest one on a tie."""
        return self.levels[self.frontier.start] if self.frontier else None


# ---------------------------------------------------------------------------
# No-externality analytics
# ---------------------------------------------------------------------------


def _require_no_externality(params: ModelParams) -> None:
    if params.externality != 0.0:
        raise InvalidParameterError(
            f"no-externality planners require externality = 0, got {params.externality}"
        )


def noext_required_duration(
    params: ModelParams, y0: float, level: float, target: float
) -> float | None:
    """Window length needed to steer the e == 0 path from y0 to target.

    Feasible when the target lies strictly between y0 and the subsidized
    resting level ccdf(cost - level); a target equal to y0 needs no time.
    The subsidy level may be negative (a surcharge).  Raises
    InvalidParameterError if the duration overflows (a tiny gamma).
    """
    _require_no_externality(params)
    if target == y0:
        return 0.0
    resting = params.ccdf(params.cost - level)
    if y0 < target < resting or resting < target < y0:
        duration = math.log((resting - y0) / (resting - target)) / params.gamma
        require_finite([duration], "no-externality duration", gamma=params.gamma)
        return duration
    return None


def noext_subsidy_cost(params: ModelParams, cls: ConstantLevelSubsidy, y0: float) -> float:
    """Provider outlay of a constant level subsidy without network effects.

    Raises InvalidParameterError if the outlay overflows.
    """
    _require_no_externality(params)
    resting = params.ccdf(params.cost - cls.level)
    t, gamma = cls.duration, params.gamma
    outlay = cls.level * (
        resting * t - (resting - y0) * -math.expm1(-gamma * t) / gamma
    ) + 0.0  # an empty window pays +0.0, not a surcharge's -0.0
    require_finite([outlay], "no-externality outlay", level=cls.level, duration=t,
                   gamma=gamma)
    return outlay


def noext_cost_at_target(
    params: ModelParams, y0: float, level: float, target: float
) -> float | None:
    """Outlay of running the subsidy exactly until the target is reached,
    or None when it cannot be.  Raises InvalidParameterError if the
    duration or the outlay overflows."""
    duration = noext_required_duration(params, y0, level, target)
    if duration is None:
        return None
    resting = params.ccdf(params.cost - level)
    outlay = level * (resting * duration - (target - y0) / params.gamma)
    require_finite([outlay], "no-externality outlay", level=level, gamma=params.gamma)
    return outlay


def noext_cost_decreasing_condition(params: ModelParams, level: float) -> bool:
    """Sufficient condition for the target-outlay to fall as level rises.

    For uniform affinities it is u_max < cost, wherever the subsidized
    cost does not saturate the whole population (once cost - level drops
    to u_min everyone subscribes and the outlay grows linearly with the
    level).
    """
    _require_no_externality(params)
    return params.cost - level > params.u_min and params.u_max < params.cost


# ---------------------------------------------------------------------------
# Subsidies with network effects
# ---------------------------------------------------------------------------


def subsidized_trajectory(
    params: ModelParams, cls: ConstantLevelSubsidy, y0: float
) -> PiecewiseTrajectory:
    """Exact path from (cls.start, y0) under a constant level subsidy: run
    the plain dynamics at cost - level over the window, then at the full
    cost from wherever the window left the state, so the window's end is
    a junction.  A window of zero level or length gives the plain path.

    With network effects the level must lie in [0, cost].  Without them
    any level is accepted, a surcharge included, as in the no-externality
    planners: the window relaxes the level toward ccdf(cost - level),
    then toward ccdf(cost).
    """
    if params.externality > 0 and not 0.0 <= cls.level <= params.cost:
        raise InvalidParameterError(
            f"with network effects the subsidy level must lie in [0, cost], got {cls.level}"
        )
    if cls.inert:
        return unsubsidized_trajectory(params, cls.start, y0)

    switch = cls.end
    subsidized = unsubsidized_trajectory(
        params, cls.start, y0, effective_cost=params.cost - cls.level
    )
    after = unsubsidized_trajectory(params, switch, subsidized.value(switch))
    kept = tuple(seg for seg in subsidized.segments if seg.start_time < switch)
    return PiecewiseTrajectory(kept + after.segments)


def _require_planner_regime(params: ModelParams, y0: float) -> tuple[float, float]:
    """Validate the starting level, the bistable regime and a start below
    the tipping level; returns the start, as ``require_start`` returns it,
    and x_interior."""
    y0 = require_start(y0, "y0")
    u_min, u_max = params.u_min, params.u_max
    c, e = params.cost, params.externality
    if not u_max <= c:
        raise AssumptionViolationError("u_max <= cost", f"{u_max} > {c}")
    if not c <= u_min + e:
        raise AssumptionViolationError(
            "cost <= u_min + externality", f"{c} > {u_min + e}"
        )
    x_int = interior_equilibrium(c, params)
    if not y0 < x_int:
        raise AssumptionViolationError(
            "y0 < interior equilibrium", f"{y0} >= {x_int}"
        )
    return y0, x_int


def _log_duration(numerator: float, denominator: float, gamma: float) -> float | None:
    if denominator <= 0 or numerator <= 0:
        return None
    return max(0.0, math.log(numerator / denominator) / gamma)


def full_subsidy_analysis(
    params: ModelParams, t0: float, y0: float, duration: float
) -> FullSubsidyReport:
    """Analyze a full-cost subsidy (level == cost) of the given duration.

    During the window everyone would adopt and the level relaxes toward
    1; the report carries the three duration thresholds, the complete
    path, the resulting long-run level, and the provider outlay
    cost * (duration - (1 - y0)(1 - exp(-gamma*duration)) / gamma).
    Everyone adopts from the first instant only when u_min +
    externality*y0 >= 0, so the analysis requires it.  The window
    ``ConstantLevelSubsidy(cost, duration, t0)`` refuses a negative or
    non-finite duration.  Raises InvalidParameterError if a threshold or
    the outlay overflows (a tiny gamma or a huge finite duration).
    """
    cls = ConstantLevelSubsidy(level=params.cost, duration=duration, start=t0)
    y0, x_int = _require_planner_regime(params, y0)
    u_min, u_max = params.u_min, params.u_max
    c, e, gamma = params.cost, params.externality, params.gamma
    if not u_min + e * y0 >= 0.0:
        raise AssumptionViolationError(
            "u_min + externality*y0 >= 0", f"{u_min + e * y0} < 0"
        )

    one_minus = 1.0 - y0
    to_interior = _log_duration(one_minus, 1.0 - x_int, gamma)
    to_band_high = _log_duration(one_minus * e, u_min + e - c, gamma)
    to_band_low = _log_duration(one_minus * e, u_max + e - c, gamma)

    outlay = c * (duration - one_minus * -math.expm1(-gamma * duration) / gamma)
    require_finite([to_band_low, to_interior, to_band_high, outlay],
                   "planner thresholds or outlay", cost=c, duration=duration, gamma=gamma)
    trajectory = subsidized_trajectory(params, cls, y0)
    return FullSubsidyReport(
        to_band_low=to_band_low,
        to_interior=to_interior,
        to_band_high=to_band_high,
        duration=duration,
        trajectory=trajectory,
        final_equilibrium=trajectory.final_level,
        cost=outlay,
    )


def min_subsidy(params: ModelParams, y0: float) -> float:
    """Smallest level able to flip the long-run outcome from 0 to 1.

    Levels at or below it leave the subsidized path in the low basin;
    anything strictly above sends it to full adoption.  In the degenerate
    band (externality == u_max - u_min) any positive level works.
    """
    if params.externality + params.u_min - params.u_max == 0.0:
        require_start(y0, "y0")
        u_min, u_max, c = params.u_min, params.u_max, params.cost
        if not (u_max <= c <= u_min + params.externality):
            raise AssumptionViolationError(
                "u_max <= cost <= u_min + externality", f"cost={c}"
            )
        return 0.0
    return subsidy_interval_bounds(params, y0)[1]


def min_duration(params: ModelParams, y0: float, level: float) -> float | None:
    """Shortest window after which the plain dynamics tip to full adoption.

    The window ends exactly when the subsidized path reaches the interior
    equilibrium of the unsubsidized dynamics: the path is
    ``subsidized_trajectory`` of ``ConstantLevelSubsidy(level, duration)``.
    Returns None when the level cannot get there: level <= min_subsidy,
    or, within rounding of it, a subsidized path that rests on its own
    fixed point.  Constant in the level once the whole climb happens above
    the subsidized band.  Raises InvalidParameterError if the duration
    overflows (a tiny gamma).
    """
    duration = _plan_level(params, y0, level)[1]
    require_finite([duration], "planner duration", gamma=params.gamma)
    return duration


def subsidy_interval_bounds(params: ModelParams, y0: float) -> tuple[float, float, float, float]:
    """Levels separating the five outlay formulas, in subsidy units.

    Returns (below which the start never enters the subsidized band,
    min_subsidy, above which the climb exits the subsidized band before
    tipping, above which the whole climb is out of band).  The first
    bound is min_subsidy - y0 * (u_max - u_min) in exact arithmetic; it
    is clamped to min_subsidy so that rounding at y0 = 0 cannot order
    them the other way.
    """
    return _planner_bounds(params, y0)[2]


def _planner_bounds(
    params: ModelParams, y0: float
) -> tuple[float, float, tuple[float, float, float, float]]:
    """Check the planner regime; returns the start, x_interior and the
    four bounds."""
    y0, x_int = _require_planner_regime(params, y0)
    if not x_int < 1.0:
        # cost == u_min + externality (up to rounding): no finite window
        # reaches a tipping level of full adoption.
        raise AssumptionViolationError(
            "cost < u_min + externality", f"the tipping level is {x_int}"
        )
    c = params.cost
    e = params.externality
    # min_subsidy past its degenerate band, which the regime check excludes.
    s_hat = (e + params.u_min - params.u_max) * (x_int - y0)
    return y0, x_int, (
        min(c - params.u_max - e * y0, s_hat),
        s_hat,
        c - params.u_min - e * x_int,
        c - params.u_min - e * y0,
    )


def min_duration_cost(params: ModelParams, y0: float, level: float) -> CostResult:
    """Provider outlay of the minimum-duration subsidy at the given level.

    Each of the five level ranges has a closed form.  On the fourth the
    climb exits the subsidized band partway, so its outlay joins the
    in-band climb of the third range to the out-of-band climb of the
    fifth at the band edge.  Levels at or below min_subsidy pay for an
    unbounded window while the state settles back down; their outlay is
    still finite except exactly at min_subsidy with y0 > 0, reported as
    value None.  Raises InvalidParameterError if the outlay overflows (a
    tiny gamma).
    """
    row, _, outlay = _plan_level(params, y0, level)
    require_finite([outlay], "planner outlay", level=level, gamma=params.gamma)
    return CostResult(outlay, row=row)


def _plan_level(
    params: ModelParams, y0: float, level: float
) -> tuple[int, float | None, float | None]:
    y0, x_int, bounds = _planner_bounds(params, y0)
    if not 0.0 <= level <= params.cost:
        raise InvalidParameterError(
            f"level must lie in [0, cost], got {level} with cost {params.cost}"
        )
    regimes, durations, outlays = _plan_grid(params, y0, [level], x_int, bounds)
    return regimes[0], durations[0], outlays[0]


def _plan_grid(
    params: ModelParams,
    y0: float,
    levels: Sequence[float],
    x_int: float,
    bounds: tuple[float, float, float, float],
) -> tuple[list[int], list[float | None], list[float | None]]:
    """(range, minimum duration, outlay) of the planner at nondecreasing
    levels.  The levels are split once against ``bounds`` into the five
    ranges (a level on a bound is in the lower one), and each range is
    evaluated with its own closed forms.  On ranges 1-2 (at or below
    min_subsidy) no window tips the market.  A duration or outlay can
    overflow to inf when gamma is tiny; the callers refuse those.
    """
    u_min, u_max = params.u_min, params.u_max
    c, e, gamma = params.cost, params.externality, params.gamma
    spread = u_max - u_min
    inv_a = spread / (e - spread)  # 1/a of the in-band dynamics
    knife_edge = None if y0 > 0 else 0.0
    log, log1p = math.log, math.log1p

    ends = [bisect_right(levels, b) for b in accumulate(bounds, max)]
    ranges = [levels[lo:hi] for lo, hi in zip([0, *ends], [*ends, len(levels)])]
    regimes = [k for k, part in enumerate(ranges, start=1) for _ in part]
    durations: list[float | None] = [None] * (len(ranges[0]) + len(ranges[1]))
    outlays: list[float | None] = [s * y0 / gamma for s in ranges[0]]

    for s in ranges[1]:
        ceff = c - s
        sub_int = interior_equilibrium(ceff, params)
        if sub_int - y0 <= 0.0:
            # Knife edge (up to rounding): the level balances forever.
            outlays.append(knife_edge)
            continue
        low = params.band_low(ceff)
        inner = sub_int * log((sub_int - low) / (sub_int - y0)) - (y0 - low)
        outlays.append(s / gamma * (inv_a * inner + low))

    for s in ranges[2]:
        ceff = c - s
        sub_int = interior_equilibrium(ceff, params)
        durations.append(hit_time(0.0, y0, *band_rate_step(params, ceff, y0), x_int))
        if y0 - sub_int <= 0.0:
            outlays.append(knife_edge)
            continue
        inner = sub_int * log((x_int - sub_int) / (y0 - sub_int)) + x_int - y0
        outlays.append(s / gamma * inv_a * inner)

    rest = 1.0 - x_int
    for s in ranges[3]:
        ceff = c - s
        sub_int = interior_equilibrium(ceff, params)
        # The subsidized band edge band_high(ceff), written so that it is
        # exactly y0 at b4: there the climb is all out of band and the
        # duration equals range 5's to the last bit.
        edge = y0 + (bounds[3] - s) / e
        exit_time = hit_time(0.0, y0, *band_rate_step(params, ceff, y0), edge)
        # None: the subsidized path sits on its own fixed point.
        durations.append(
            None if exit_time is None else exit_time + log((1.0 - edge) / rest) / gamma
        )
        if y0 - sub_int <= 0.0:
            outlays.append(knife_edge)
            continue
        # In-band climb from y0 to the subsidized band edge, then the
        # climb toward 1 up to x_int.  log1p keeps the in-band term
        # accurate when externality is close to u_max - u_min.
        top = min(edge, x_int)
        in_band = sub_int * log1p((top - y0) / (y0 - sub_int)) + top - y0
        above = log1p((x_int - top) / rest) - (x_int - top)
        outlays.append(s / gamma * (inv_a * in_band + above))

    if ranges[4]:
        climb = log((1.0 - y0) / rest)
        net = climb - (x_int - y0)
        durations += [climb / gamma] * len(ranges[4])
        outlays += [s / gamma * net for s in ranges[4]]
    return regimes, durations, outlays


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` evenly spaced points from start to stop, both included.

    The points are ``i*step + start`` with the last one set to stop, or
    ``i/div*delta + start`` where the step underflows to 0, which is
    numpy.linspace's arithmetic: the two agree bit for bit.
    """
    if num < 0:
        raise InvalidParameterError(f"need num >= 0 points, got {num}")
    div, delta = num - 1, stop - start
    if div <= 0:
        return [0.0 * delta + start] * num
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def sweep(params: ModelParams, y0: float, grid_points: int = 512) -> SubsidySweep:
    """Evaluate the minimum-duration planner over a grid of levels.

    The grid spans [0, cost] with the analytic boundary levels inserted
    exactly.  Raises InvalidParameterError if a duration or outlay
    overflows (a tiny gamma).
    """
    y0, x_int, bounds = _planner_bounds(params, y0)
    inside = [b for b in bounds if 0.0 <= b <= params.cost]
    grid = sorted({*linspace(0.0, params.cost, grid_points), *inside})

    regimes, durations, outlays = _plan_grid(params, y0, grid, x_int, bounds)
    require_finite(chain(durations, outlays), "planner durations or outlays",
                   cost=params.cost, gamma=params.gamma)
    feasible = [i for i, d in enumerate(durations) if d is not None and outlays[i] is not None]
    dip = min(feasible, key=outlays.__getitem__, default=None)
    frontier = range(0) if dip is None else range(dip, bisect_right(regimes, 4))
    return SubsidySweep(grid, regimes, durations, outlays, frontier,
                        *_slope_verdicts(regimes, outlays, y0))


def _slope_verdicts(
    regimes: Sequence[int], outlays: Sequence[float | None], y0: float
) -> tuple[tuple[bool | None, ...], int | None]:
    """How the outlay moves with the level across its five ranges.

    One verdict per range, None when the range has fewer than two
    outlays: rising on the first two (flat when y0 == 0, where the outlay
    is identically zero there), falling on the third, falling-then-rising
    on the fourth, rising on the fifth.  Also returns the number of slope
    sign changes inside the fourth range (None when it has no pair).  A
    range is the run of levels with that regime, as the planner assigned
    it, so ``regimes`` is nondecreasing; levels without an outlay are
    skipped.
    """
    priced = [(k, v) for k, v in zip(regimes, outlays) if v is not None]
    ranges, costs = zip(*priced) if priced else ((), ())

    verdicts: list[bool | None] = []
    switch_count: int | None = None
    for k in range(1, 6):
        # The neighbouring pairs of the range, in one slice.
        first, stop = bisect_left(ranges, k), bisect_right(ranges, k)
        diffs = list(map(sub, costs[first + 1:stop], costs[first:stop - 1]))
        if not diffs:
            verdicts.append(None)
            continue
        if k == 3:
            verdicts.append(all(d < 0 for d in diffs))
        elif k == 4:
            # The slope signs past FLAT_TOL may fall and then rise, never
            # the other way round.
            nz = [1 if d > FLAT_TOL else -1 for d in diffs if abs(d) > FLAT_TOL]
            switch_count = sum(a != b for a, b in zip(nz, nz[1:]))
            verdicts.append(bool(nz) and (1, -1) not in zip(nz, nz[1:]))
        elif k < 3 and y0 == 0.0:
            verdicts.append(all(abs(d) <= FLAT_TOL for d in diffs))
        else:
            verdicts.append(all(d > 0 for d in diffs))
    return tuple(verdicts), switch_count

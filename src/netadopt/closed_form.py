"""Exact piecewise trajectories of the adoption dynamics.

The dynamics xdot = gamma * (ccdf(cost - e*x) - x) are piecewise linear in
x: below the band [band_low, band_high] the level decays exponentially
toward 0, above it it rises exponentially toward 1, and inside it follows
a linear ODE whose fixed point is the interior equilibrium.  A trajectory
is therefore an ordered list of segments x0 + step * expm1(rate * tau),
glued at the exact band-crossing times; on the degenerate band
(externality == u_max - u_min) the in-band segment has rate 0 and drifts
linearly.  Written from the start level, a segment stays accurate when
the in-band fixed point is huge, and ``hit_time`` inverts it with log1p.
Without network effects the band is empty and the path is a single
exponential.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .errors import InvalidParameterError
from .model import ModelParams, require_start

CONTINUITY_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class Segment:
    """x(t) = start_level + step * expm1(rate * (t - start_time)).

    With rate < 0 the level relaxes toward ``start_level - step`` and with
    rate > 0 it moves away from it; with rate == 0 it drifts linearly,
    x(t) = start_level + step * (t - start_time).  Measuring from the
    start level keeps the displacement accurate even when that limit is
    huge, as it is in a nearly degenerate band.
    """

    start_time: float
    start_level: float
    rate: float
    step: float

    def value(self, t: float) -> float:
        tau = t - self.start_time
        if self.rate == 0.0:
            return self.start_level + self.step * tau
        return self.start_level + self.step * math.expm1(self.rate * tau)


def hit_time(t0: float, x0: float, rate: float, step: float, x: float) -> float | None:
    """First time >= t0 at which ``Segment(t0, x0, rate, step)`` reaches x.

    Returns None when the level is never reached (wrong side of the
    limit, motion away from the target, or asymptotic approach only).
    """
    if x == x0:
        return t0
    if step == 0.0:
        return None  # standing still
    ratio = (x - x0) / step
    if rate == 0.0:
        tau = ratio
    elif ratio <= -1.0:
        return None
    else:
        tau = math.log1p(ratio) / rate
    return t0 + tau if tau >= 0.0 else None


@dataclass(frozen=True, slots=True)
class PiecewiseTrajectory:
    """An exact adoption path: contiguous segments, the last one unbounded.

    A subsidy window is not part of the path; its end is a junction.
    Each segment must end within CONTINUITY_TOL of the next one's start
    level; the largest junction gap of the package's own paths, over the
    test suite and ``tools/same_outputs.py``, is 1.9e-15.

    Attributes:
        segments: Ordered segments with strictly increasing start times;
            each segment extends to the next one's start time, the final
            segment to +infinity.
    """

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise InvalidParameterError("trajectory needs at least one segment")
        for prev, nxt in zip(self.segments, self.segments[1:]):
            if not nxt.start_time > prev.start_time:
                raise InvalidParameterError("segment start times must increase")
            gap = abs(prev.value(nxt.start_time) - nxt.start_level)
            if gap > CONTINUITY_TOL:
                raise InvalidParameterError(
                    f"discontinuous segments: gap {gap:.3e} at t={nxt.start_time}"
                )

    @property
    def start_time(self) -> float:
        return self.segments[0].start_time

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Interior junction times between segments."""
        return tuple(seg.start_time for seg in self.segments[1:])

    @property
    def final_level(self) -> float:
        """Asymptotic level as t goes to infinity."""
        last = self.segments[-1]
        if last.rate >= 0.0 and last.step != 0.0:
            raise InvalidParameterError("diverging or drifting final segment has no limit")
        return last.start_level - last.step

    def value(self, t: float) -> float:
        """Adoption level at time t >= start_time."""
        return self.values([t])[0]

    def values(self, times) -> list[float]:
        """Adoption levels at nondecreasing times >= start_time.

        Each segment's times are located once with a bisection; a time on
        a junction takes the later segment.  Each sample repeats its
        segment's ``value`` arithmetic in the same order, so the levels
        equal the segments' scalar values bit for bit.
        """
        try:
            times = list(map(float, times))
        except TypeError:
            raise InvalidParameterError("times must be one-dimensional") from None
        if times and times[0] < self.start_time:
            raise InvalidParameterError(
                f"t={times[0]} precedes trajectory start {self.start_time}"
            )
        if times != sorted(times):
            raise InvalidParameterError("times must be nondecreasing")
        bounds = [bisect_left(times, seg.start_time) for seg in self.segments]
        out: list[float] = []
        for seg, lo, hi in zip(self.segments, bounds, bounds[1:] + [len(times)]):
            t0, x0, rate, step = seg.start_time, seg.start_level, seg.rate, seg.step
            if rate == 0.0:
                out += [x0 + step * (t - t0) for t in times[lo:hi]]
            else:
                expm1 = math.expm1
                out += [x0 + step * expm1(rate * (t - t0)) for t in times[lo:hi]]
        return out


def band_rate_step(
    params: ModelParams, effective_cost: float, x0: float
) -> tuple[float, float]:
    """(rate, step) of the in-band segment from x0 of xdot = gamma * (a*x + b),
    where a = (e + u_min - u_max)/(u_max - u_min) and b = (u_max - c)/(u_max - u_min).

    For a != 0 it relaxes toward (or, with a > 0, away from) the fixed
    point -b/a; on the degenerate band a == 0 it drifts at speed gamma*b.
    """
    spread = params.u_max - params.u_min
    a = (params.externality + params.u_min - params.u_max) / spread
    b = (params.u_max - effective_cost) / spread
    if a == 0.0:
        return 0.0, params.gamma * b
    return a * params.gamma, x0 + b / a


def unsubsidized_trajectory(
    params: ModelParams,
    t0: float,
    x0: float,
    effective_cost: float | None = None,
) -> PiecewiseTrajectory:
    """Exact adoption path of the plain dynamics from (t0, x0).

    Walks the state through the at most three linear regions (below the
    band, inside it, above it), gluing segments at the exact crossing
    times.  Without network effects the band is empty and the path is one
    exponential toward ccdf(effective_cost).  ``effective_cost``
    substitutes the cost without touching the other parameters, which is
    how subsidized phases are built.

    Raises:
        InvalidParameterError: when x0 is outside [0, 1].
    """
    x0 = require_start(x0, "x0")
    ceff = params.cost if effective_cost is None else effective_cost
    gamma = params.gamma
    e = params.externality
    if e == 0.0:
        return PiecewiseTrajectory((Segment(t0, x0, rate=-gamma, step=x0 - params.ccdf(ceff)),))
    low = params.band_low(ceff)
    high = params.band_high(ceff)

    segments: list[Segment] = []
    t, x = t0, x0
    while True:
        f = gamma * (params.ccdf(ceff - e * x) - x)
        if x < low or (x == low and f < 0):
            segments.append(Segment(t, x, rate=-gamma, step=x))  # toward 0
            break
        if x > high or (x == high and f > 0):
            segments.append(Segment(t, x, rate=-gamma, step=x - 1.0))  # toward 1
            break
        seg = Segment(t, x, *band_rate_step(params, ceff, x))
        if f == 0.0 or seg.step == 0.0:
            # Fixed point (possibly the unstable interior one): stays put.
            # On the singular line every in-band level is one, even where
            # rounding leaves f != 0.
            segments.append(Segment(t, x, rate=-gamma, step=0.0))
            break
        target = high if f > 0 else low
        t_exit = hit_time(t, x, seg.rate, seg.step, target)
        if t_exit is None:
            segments.append(seg)
            break  # converges to the interior fixed point inside the band
        if t_exit <= t:
            # Zero-length crossing within rounding: already at the edge.
            x = target
            continue
        segments.append(seg)
        t, x = t_exit, target
    return PiecewiseTrajectory(tuple(segments))

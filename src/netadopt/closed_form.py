"""Exact piecewise trajectories of the adoption dynamics.

The dynamics xdot = gamma * (would_adopt(x) - x) are piecewise linear in
x: below the band [band_low, band_high] the level decays exponentially
toward 0, above it it rises exponentially toward 1, and inside it follows
a linear ODE whose fixed point is the interior equilibrium.  A trajectory
is therefore an ordered list of exponential (or, in one degenerate case,
linear-drift) segments glued at the exact band-crossing times.  Without
network effects the band is empty and the path is a single exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .model import ModelParams

CONTINUITY_TOL = 1e-12
SAMPLE_BLOCK = 4096  # samples evaluated per pass; bounds the floats held at once


@dataclass(frozen=True, slots=True)
class LinearODE:
    """Coefficients of xdot = gamma * (a * x + b)."""

    a: float
    b: float


def solve_linear(ode: LinearODE, gamma: float, t0: float, x0: float, t: float) -> float:
    """Exact solution of xdot = gamma*(a*x + b) with x(t0) = x0, at time t.

    For a == 0 the analytic limit x0 + gamma*b*(t - t0) is used.
    """
    a, b = ode.a, ode.b
    tau = t - t0
    if a == 0.0:
        return x0 + gamma * b * tau
    return ((a * x0 + b) * math.exp(a * gamma * tau) - b) / a


def hit_time(
    ode: LinearODE, gamma: float, t0: float, x0: float, x: float
) -> float | None:
    """First time t >= t0 at which the linear ODE solution reaches x.

    Returns None when the level is never reached (wrong side of the fixed
    point, motion away from the target, or asymptotic approach only).
    """
    a, b = ode.a, ode.b
    if x == x0:
        return t0
    if a == 0.0:
        if b == 0.0:
            return None
        dt = (x - x0) / (gamma * b)
        return t0 + dt if dt >= 0.0 else None
    start = a * x0 + b
    if start == 0.0:
        return None  # sitting on the fixed point, x != x0 unreachable
    ratio = (a * x + b) / start
    if ratio <= 0.0:
        return None
    dt = math.log(ratio) / (gamma * a)
    return t0 + dt if dt >= 0.0 else None


@dataclass(frozen=True, slots=True)
class ExponentialSegment:
    """x(t) = limit + (start_level - limit) * exp(rate * (t - start_time))."""

    start_time: float
    start_level: float
    limit: float
    rate: float

    def value(self, t: float) -> float:
        return self.limit + (self.start_level - self.limit) * math.exp(
            self.rate * (t - self.start_time)
        )


@dataclass(frozen=True, slots=True)
class LinearDriftSegment:
    """x(t) = start_level + slope * (t - start_time); degenerate in-band case."""

    start_time: float
    start_level: float
    slope: float

    def value(self, t: float) -> float:
        return self.start_level + self.slope * (t - self.start_time)


Segment = ExponentialSegment | LinearDriftSegment


@dataclass(frozen=True, slots=True)
class PiecewiseTrajectory:
    """An exact adoption path: contiguous segments, the last one unbounded.

    Attributes:
        segments: Ordered segments with strictly increasing start times;
            each segment extends to the next one's start time, the final
            segment to +infinity.
        subsidy_end: Time at which a subsidy window closes, if the path
            was built under one; used only for reporting.
    """

    segments: tuple[Segment, ...]
    subsidy_end: float | None = None

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
        if isinstance(last, LinearDriftSegment):
            raise InvalidParameterError("unbounded drift has no final level")
        if last.rate > 0 and last.start_level != last.limit:
            raise InvalidParameterError("diverging final segment has no limit")
        return last.limit if last.start_level != last.limit else last.start_level

    def value(self, t: float) -> float:
        """Adoption level at time t >= start_time."""
        return float(self.values([t])[0])

    def values(self, times) -> np.ndarray:
        """Adoption levels at nondecreasing times >= start_time, as float64.

        The segments are located once over the sorted times; a time on a
        junction takes the later segment.  Each sample repeats its
        segment's ``value`` arithmetic in the same order, with ``math.exp``
        per element (a vector exp rounds differently on some arguments),
        so the levels equal the segments' scalar values bit for bit.
        """
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise InvalidParameterError("times must be one-dimensional")
        if len(times) and times[0] < self.start_time:
            raise InvalidParameterError(
                f"t={times[0]} precedes trajectory start {self.start_time}"
            )
        if np.any(times[1:] < times[:-1]):
            raise InvalidParameterError("times must be nondecreasing")
        bounds = np.searchsorted(
            times, [seg.start_time for seg in self.segments], side="left"
        ).tolist() + [len(times)]
        out = np.empty(len(times))
        for seg, lo, hi in zip(self.segments, bounds, bounds[1:]):
            for a in range(lo, hi, SAMPLE_BLOCK):
                b = min(a + SAMPLE_BLOCK, hi)
                elapsed = times[a:b] - seg.start_time
                if isinstance(seg, LinearDriftSegment):
                    out[a:b] = seg.start_level + seg.slope * elapsed
                else:
                    growth = np.fromiter(
                        map(math.exp, (seg.rate * elapsed).tolist()), float, count=b - a
                    )
                    out[a:b] = seg.limit + (seg.start_level - seg.limit) * growth
        return out


def band_ode(params: ModelParams, effective_cost: float | None = None) -> LinearODE:
    """In-band coefficients: a = (e + u_min - u_max)/(u_max - u_min), etc."""
    spread = params.u_max - params.u_min
    c = params.cost if effective_cost is None else effective_cost
    return LinearODE(
        a=(params.externality + params.u_min - params.u_max) / spread,
        b=(params.u_max - c) / spread,
    )


def band_hit_time(
    x: float, t0: float, x0: float, effective_cost: float, params: ModelParams
) -> float | None:
    """Time for the in-band closed form to reach level x, or None."""
    return hit_time(band_ode(params, effective_cost), params.gamma, t0, x0, x)


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
    if x0 < -1e-9 or x0 > 1 + 1e-9:
        raise InvalidParameterError(f"x0 must lie in [0, 1], got {x0}")
    x0 = min(1.0, max(0.0, x0))

    ceff = params.cost if effective_cost is None else effective_cost
    gamma = params.gamma
    e = params.externality
    dist = params.affinity
    if e == 0.0:
        return PiecewiseTrajectory(
            (ExponentialSegment(t0, x0, limit=dist.ccdf(ceff), rate=-gamma),)
        )
    low = params.band_low(ceff)
    high = params.band_high(ceff)
    ode = band_ode(params, ceff)

    segments: list[Segment] = []
    t, x = t0, x0
    while True:
        f = gamma * (dist.ccdf(ceff - e * x) - x)
        if x < low or (x == low and f < 0):
            segments.append(ExponentialSegment(t, x, limit=0.0, rate=-gamma))
            break
        if x > high or (x == high and f > 0):
            segments.append(ExponentialSegment(t, x, limit=1.0, rate=-gamma))
            break
        if f == 0.0 or (ode.a == 0.0 and ode.b == 0.0):
            # Fixed point (possibly the unstable interior one): stays put.
            # On the singular line every in-band level is one, even where
            # rounding leaves f != 0.
            segments.append(ExponentialSegment(t, x, limit=x, rate=-gamma))
            break
        if ode.a == 0.0:
            target = high if ode.b > 0 else low
            t_exit = hit_time(ode, gamma, t, x, target)
            if t_exit <= t:
                x = target
                continue
            segments.append(LinearDriftSegment(t, x, slope=gamma * ode.b))
            t, x = t_exit, target
            continue
        fixed = -ode.b / ode.a
        target = high if f > 0 else low
        t_exit = hit_time(ode, gamma, t, x, target)
        seg = ExponentialSegment(t, x, limit=fixed, rate=ode.a * gamma)
        if t_exit is None:
            segments.append(seg)
            break  # converges to the interior fixed point inside the band
        if t_exit <= t:
            # Zero-length crossing within rounding: already at the edge.
            x = target
            continue
        # Newton-polish the junction: rounding in log/exp is amplified by
        # long near-threshold crawls, so land the segment on the edge to
        # machine accuracy before handing over.
        for _ in range(2):
            value = seg.value(t_exit)
            speed = seg.rate * (value - seg.limit)
            if speed == 0.0:
                break
            polished = t_exit + (target - value) / speed
            if polished <= t:
                break
            t_exit = polished
        segments.append(seg)
        t, x = t_exit, target
    return PiecewiseTrajectory(tuple(segments))


"""Market model: parameters and equilibria.

A unit population of potential subscribers is described by the fraction
``x`` in [0, 1] currently adopting the service.  Each user has a private
per-unit-time affinity drawn uniformly from [u_min, u_max]; a user would
adopt whenever affinity plus the network benefit ``externality * x``
exceeds the subscription cost.  The fraction that *would* adopt at level
``x`` is ``params.ccdf(cost - externality * x)``; its fixed points are the
equilibria of the dynamics, classified into four regimes by
``classify_equilibria``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable

from .errors import InvalidParameterError, SingularParametersError

STABLE = "stable"
UNSTABLE = "unstable"


class ModelParams(namedtuple("ModelParams", "u_min u_max cost externality gamma")):
    """Market parameters governing the adoption dynamics.

    Attributes:
        u_min: Lower bound of the uniform affinity distribution
            (utility per unit time).
        u_max: Upper bound of the uniform affinity distribution; must
            exceed ``u_min``.
        cost: Subscription cost per unit time, nonnegative.
        externality: Network benefit per unit adoption level,
            nonnegative.  Zero disables network effects.
        gamma: Time-scale of the dynamics (1/time), positive.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, values):
        return cls(*values)  # so that _replace checks the fields too

    def __init__(self, *args, **kwargs) -> None:
        # The tuple holds the fields already; this checks them.
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite")
        if not self.u_min < self.u_max:
            raise InvalidParameterError(
                f"u_min must be < u_max, got [{self.u_min}, {self.u_max}]"
            )
        require_finite([self.u_max - self.u_min], "u_max - u_min",
                       u_min=self.u_min, u_max=self.u_max)
        if self.externality < 0:
            raise InvalidParameterError("externality must be >= 0")
        require_finite([self.u_min + self.externality], "u_min + externality",
                       u_min=self.u_min, externality=self.externality)
        if self.gamma <= 0:
            raise InvalidParameterError("gamma must be > 0")
        if self.cost < 0:
            raise InvalidParameterError("cost must be >= 0")

    def ccdf(self, u: float) -> float:
        """Fraction of users whose affinity exceeds u."""
        if u <= self.u_min:
            return 1.0
        if u >= self.u_max:
            return 0.0
        return (self.u_max - u) / (self.u_max - self.u_min)

    def band_low(self, effective_cost: float | None = None) -> float:
        """Level below which nobody would adopt.  Requires externality > 0."""
        c = self.cost if effective_cost is None else effective_cost
        return (c - self.u_max) / self.externality

    def band_high(self, effective_cost: float | None = None) -> float:
        """Level above which everybody would adopt.  Requires externality > 0."""
        c = self.cost if effective_cost is None else effective_cost
        return (c - self.u_min) / self.externality


class EquilibriumReport(namedtuple(
        "EquilibriumReport", "case_id equilibria interior band_low band_high")):
    """Equilibrium set of the dynamics and the regime it falls in.

    Attributes:
        case_id: Regime label 1..4 (low-adoption only, interior only,
            bistable, full-adoption only).
        equilibria: Sorted (level, stability) pairs.
        interior: Interior fixed point of the unsaturated dynamics, or
            None when it is undefined; it may lie outside [0, 1].
        band_low: Level where adoption intent starts (None when
            externality is zero).
        band_high: Level where adoption intent saturates (None when
            externality is zero).
    """

    __slots__ = ()


def require_finite(values: Iterable[float | None], what: str, **inputs: float) -> None:
    """Refuse an overflow to inf, naming the result and the inputs it scales with."""
    if not all(map(math.isfinite, filter(None, values))):
        given = ", ".join(f"{name} = {value!r}" for name, value in inputs.items())
        raise InvalidParameterError(
            f"{what} overflowed to inf (inputs it scales with: {given})")


def require_start(level: float, name: str) -> float:
    """The start level ``name``, refused outside [0, 1] (NaN included) and
    returned with -0.0 read as 0.0, so that no result carries its sign."""
    if not 0.0 <= level <= 1.0:
        raise InvalidParameterError(f"{name} must lie in [0, 1], got {level}")
    return level + 0.0


def interior_equilibrium(effective_cost: float, params: ModelParams) -> float:
    """Fixed point of the unsaturated dynamics at the given effective cost.

    Returns (u_max - c') / (u_max - (u_min + externality)), which callers
    interpret per regime; the value may fall outside [0, 1].

    Raises:
        SingularParametersError: when u_max == u_min + externality, where
            no isolated interior fixed point exists.
    """
    denom = params.u_max - (params.u_min + params.externality)
    if denom == 0.0:
        raise SingularParametersError(
            "interior equilibrium undefined: u_max == u_min + externality"
        )
    return (params.u_max - effective_cost) / denom


def classify_equilibria(params: ModelParams) -> EquilibriumReport:
    """Classify the equilibrium set into one of four regimes.

    Regimes, selected by the ordering of cost against u_max and
    u_min + externality (first matching row wins on boundary ties):

    1. cost >= both: only the empty market is an equilibrium.
    2. u_min + externality <= cost <= u_max: a single interior equilibrium.
    3. u_max <= cost <= u_min + externality: bistable; empty and full
       markets are stable, separated by the unstable interior level.
    4. cost <= both: only the full market is an equilibrium.

    Raises:
        SingularParametersError: when u_max == u_min + externality == cost,
            where every level in the band is a fixed point.
        InvalidParameterError: when the interior level or a band edge
            overflows to inf.
    """
    u_min, u_max = params.u_min, params.u_max
    c, e = params.cost, params.externality

    singular = (u_max == u_min + e)
    if singular and c == u_max:
        raise SingularParametersError(
            "every level in the band is an equilibrium: "
            "u_max == u_min + externality == cost"
        )
    interior = None if singular else interior_equilibrium(c, params)
    band_low, band_high = (params.band_low(), params.band_high()) if e > 0 else (None, None)
    require_finite([interior, band_low, band_high], "equilibrium levels",
                   u_min=u_min, u_max=u_max, cost=c, externality=e)

    if max(u_max, u_min + e) <= c:
        case_id, levels = 1, [0.0]
    elif u_min + e <= c <= u_max:
        case_id, levels = 2, [interior]
    elif u_max <= c <= u_min + e:
        case_id, levels = 3, [0.0, interior, 1.0]
    else:
        case_id, levels = 4, [1.0]

    # A level is unstable where the larger one-sided slope of
    # ccdf(c - e*x) is at least 1.  That map has slope e/(u_max - u_min) on
    # the closed band and is flat outside it, so the slope is e/spread on a
    # band of positive width and 0 elsewhere.  A correctly rounded e/spread
    # is below 1 exactly when e < spread, so e is compared with the spread.
    steep = e > 0 and e >= u_max - u_min and band_low < band_high
    # Only equal levels merge: an interior level one ulp inside [0, 1] is
    # a fixed point of its own, with its own stability.  At cost == u_max
    # the interior is -0.0, which merges into the 0.0 before it.
    pairs = tuple(
        (level, UNSTABLE if steep and band_low <= level <= band_high else STABLE)
        for level in dict.fromkeys(sorted(levels))  # type: ignore[arg-type]
    )

    return EquilibriumReport(
        case_id=case_id,
        equilibria=pairs,
        interior=interior,
        band_low=band_low,
        band_high=band_high,
    )

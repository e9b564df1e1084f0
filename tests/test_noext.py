"""No-externality subsidy analytics."""

import math
import re

import numpy as np
import pytest
from conftest import sample_times
from reference import finite_diff

from netadopt import (
    ConstantLevelSubsidy,
    InvalidParameterError,
    ModelParams,
    integrate_cost,
    integrate_ode,
    noext_cost_at_target,
    noext_cost_decreasing_condition,
    noext_required_duration,
    noext_subsidy_cost,
    subsidized_trajectory,
    unsubsidized_trajectory,
)

WIDE = ModelParams(1.0, 6.0, 3.0, 0.0, 1.0)  # ccdf(cost) = 0.6
UNIT_MARKET = ModelParams(0.0, 1.0, 0.5, 0.0, 1.0)
NARROW = ModelParams(1.0, 2.0, 3.0, 0.0, 1.0)  # every affinity below the cost


def test_cls_trajectory_phases():
    cls = ConstantLevelSubsidy(0.5, 1.0)
    traj = subsidized_trajectory(UNIT_MARKET, cls, 0.0)
    # Fully subsidized phase climbs toward 1, then falls back toward 1/2.
    assert traj.value(1.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)
    assert traj.value(0.4) == pytest.approx(1 - math.exp(-0.4), abs=1e-12)
    assert traj.final_level == 0.5
    assert cls.end in traj.breakpoints
    y1 = traj.value(1.0)
    assert traj.value(3.0) == pytest.approx(0.5 + (y1 - 0.5) * math.exp(-2.0), abs=1e-12)


def test_cls_trajectory_zero_window():
    traj = subsidized_trajectory(UNIT_MARKET, ConstantLevelSubsidy(0.5, 0.0), 0.0)
    assert len(traj.segments) == 1
    assert traj.final_level == 0.5
    # A zero level is no window either, as with network effects.
    free = subsidized_trajectory(UNIT_MARKET, ConstantLevelSubsidy(0.0, 2.0), 0.0)
    assert free == unsubsidized_trajectory(UNIT_MARKET, 0.0, 0.0)


def test_cls_trajectory_level_above_cost():
    # Without network effects a level above the cost is allowed: everyone
    # adopts during the window, exactly as at level == cost.
    over = subsidized_trajectory(UNIT_MARKET, ConstantLevelSubsidy(0.8, 1.0), 0.0)
    full = subsidized_trajectory(UNIT_MARKET, ConstantLevelSubsidy(0.5, 1.0), 0.0)
    for t in (0.5, 1.0, 3.0):
        assert over.value(t) == full.value(t)


def test_required_duration_values():
    # Frozen: log 2 with the window cost fully under u_min, log 6 unsubsidized.
    assert noext_required_duration(WIDE, 0.0, 2.0, 0.5) == pytest.approx(
        math.log(2.0), abs=1e-12
    )
    assert noext_required_duration(WIDE, 0.0, 0.0, 0.5) == pytest.approx(
        math.log(6.0), abs=1e-12
    )


def test_required_duration_feasibility_boundary():
    # Reaching 1/2 from 0 needs ccdf(3 - s) > 1/2, i.e. s > -1/2.
    assert noext_required_duration(WIDE, 0.0, -0.49, 0.5) is not None
    assert noext_required_duration(WIDE, 0.0, -0.5, 0.5) is None
    assert noext_required_duration(WIDE, 0.0, -0.51, 0.5) is None
    assert noext_required_duration(WIDE, 0.3, 1.0, 0.3) == 0.0


def test_required_duration_matches_first_passage():
    for s in (0.5, 1.0, 2.0):
        cls = ConstantLevelSubsidy(s, 50.0)
        sampled = integrate_ode(WIDE, cls, t_end=20.0, dt=1e-3)
        crossing = None
        for t, x in zip(sample_times(sampled), sampled.levels):
            if x >= 0.5:
                crossing = t
                break
        expected = noext_required_duration(WIDE, 0.0, s, 0.5)
        assert crossing == pytest.approx(expected, abs=2e-3)


def test_subsidy_cost_values():
    assert noext_subsidy_cost(UNIT_MARKET, ConstantLevelSubsidy(0.5, 0.0), 0.0) == 0.0
    assert noext_subsidy_cost(UNIT_MARKET, ConstantLevelSubsidy(0.0, 5.0), 0.0) == 0.0
    got = noext_subsidy_cost(UNIT_MARKET, ConstantLevelSubsidy(0.5, 1.0), 0.0)
    assert got == pytest.approx(0.18393972058572117, abs=1e-12)


def test_cost_at_target_values():
    # Frozen from the quadrature oracle below.
    assert noext_cost_at_target(WIDE, 0.0, 2.0, 0.5) == pytest.approx(
        0.38629436111989062, abs=1e-12
    )
    assert noext_cost_at_target(WIDE, 0.0, 1.0, 0.5) == pytest.approx(
        0.28466340240938095, abs=1e-12
    )
    assert noext_cost_at_target(WIDE, 0.0, -0.6, 0.5) is None


def test_cost_at_target_matches_quadrature():
    for s in (0.5, 1.0, 2.0):
        duration = noext_required_duration(WIDE, 0.0, s, 0.5)
        cls = ConstantLevelSubsidy(s, duration)
        sampled = integrate_ode(WIDE, cls, t_end=duration, dt=duration / 4000)
        numeric = integrate_cost(sampled, cls)
        analytic = noext_cost_at_target(WIDE, 0.0, s, 0.5)
        assert analytic == pytest.approx(numeric, abs=1e-6)


def test_cost_duration_substitution_identity():
    # Outlay via the window formula at the required duration matches the
    # direct target formula exactly.
    rng = np.random.default_rng(7)
    for _ in range(50):
        u_min = rng.uniform(0.0, 2.0)
        u_max = u_min + rng.uniform(0.5, 4.0)
        c = rng.uniform(u_min + 0.2, u_max + 1.0)
        gamma = rng.uniform(0.3, 2.5)
        params = ModelParams(u_min, u_max, c, 0.0, gamma)
        y0 = rng.uniform(0.0, 0.3)
        s = rng.uniform(0.1, c)
        resting = params.ccdf(c - s)
        if resting <= y0 + 0.05:
            continue
        target = rng.uniform(y0 + 0.02, resting - 0.02)
        duration = noext_required_duration(params, y0, s, target)
        direct = noext_cost_at_target(params, y0, s, target)
        windowed = noext_subsidy_cost(params, ConstantLevelSubsidy(s, duration), y0)
        assert direct == pytest.approx(windowed, abs=1e-12)


def test_cost_increasing_on_example_range():
    # With u_max > cost the sufficient condition fails and the outlay is
    # in fact increasing over the whole feasible range here.
    costs = [noext_cost_at_target(WIDE, 0.0, s, 0.5) for s in np.linspace(0.01, 2.0, 100)]
    assert all(b > a for a, b in zip(costs, costs[1:]))


def test_cost_decreasing_condition_uniform_rule():
    assert noext_cost_decreasing_condition(WIDE, 1.0) is False  # 6 < 3 fails
    assert noext_cost_decreasing_condition(NARROW, 0.5) is True


def test_condition_implies_decreasing_cost():
    # Narrow affinities below the cost: condition holds, outlay falls.
    assert noext_cost_decreasing_condition(NARROW, 1.6)
    f = lambda s: noext_cost_at_target(NARROW, 0.0, s, 0.3)
    for s in (1.45, 1.6, 1.8):
        assert finite_diff(f, s, 1e-6) < 0


def test_planners_require_zero_externality():
    market = ModelParams(1.0, 6.0, 3.0, 0.5, 1.0)
    calls = (
        lambda: noext_required_duration(market, 0.0, 1.0, 0.5),
        lambda: noext_cost_at_target(market, 0.0, 1.0, 0.5),
        lambda: noext_subsidy_cost(market, ConstantLevelSubsidy(1.0, 1.0), 0.0),
        lambda: noext_cost_decreasing_condition(market, 1.0),
    )
    for call in calls:
        with pytest.raises(InvalidParameterError, match="externality = 0"):
            call()


def test_planners_refuse_an_overflow():
    # A huge level and window, or a subnormal gamma, overflow the outlay or
    # the duration to inf: refused, not returned.  None stays for a target
    # the level cannot reach.
    huge = ModelParams(0.0, 1.0, 1e308, 0.0, 1.0)
    with pytest.raises(InvalidParameterError, match="no-externality outlay overflowed"):
        noext_subsidy_cost(huge, ConstantLevelSubsidy(1e308, 1e308), 0.0)
    slow = ModelParams(1.0, 6.0, 3.0, 0.0, 1e-320)
    for planner in (noext_required_duration, noext_cost_at_target):
        with pytest.raises(InvalidParameterError, match="no-externality duration overflowed"):
            planner(slow, 0.0, 1.0, 0.5)
    # A finite duration of about 7e299 times a level of 1e10.
    with pytest.raises(InvalidParameterError, match="no-externality outlay overflowed"):
        noext_cost_at_target(ModelParams(1.0, 6.0, 3.0, 0.0, 1e-300), 0.0, 1e10, 0.5)
    assert noext_cost_at_target(slow, 0.0, 0.0, 0.9) is None


def test_planners_refuse_a_start_outside_the_unit_interval():
    # The start rule of every other planner.  Unchecked, a NaN start read
    # as an unreachable target (None) or overflowed the outlay, a start of
    # -0.2 got a window of 0.81 and one of 1.5 an outlay of 0.603.
    calls = (
        lambda y0: noext_required_duration(WIDE, y0, 0.5, 0.3),
        lambda y0: noext_cost_at_target(WIDE, y0, 0.5, 0.3),
        lambda y0: noext_subsidy_cost(WIDE, ConstantLevelSubsidy(0.5, 1.0), y0),
    )
    for call in calls:
        for y0 in (math.nan, -0.2, 1.5):
            with pytest.raises(InvalidParameterError,
                               match=re.escape(f"y0 must lie in [0, 1], got {y0}")):
                call(y0)
        assert repr(call(-0.0)) == repr(call(0.0))

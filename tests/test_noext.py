"""No-externality subsidy analytics."""

import math

import numpy as np
import pytest

from netadopt import (
    ConstantLevelSubsidy,
    ModelParams,
    UniformAffinity,
    finite_diff,
    integrate_cost,
    integrate_ode,
    noext_cost_at_target,
    noext_cost_decreasing_condition,
    noext_required_duration,
    noext_subsidy_cost,
    subsidized_trajectory,
)

WIDE = UniformAffinity(1.0, 6.0)  # ccdf(3) = 0.6
UNIT = UniformAffinity(0.0, 1.0)
UNIT_MARKET = ModelParams(0.0, 1.0, 0.5, 0.0, 1.0)  # UNIT affinities, cost 0.5


def test_cls_trajectory_phases():
    cls = ConstantLevelSubsidy(0.5, 1.0)
    traj = subsidized_trajectory(UNIT_MARKET, cls, 0.0, 0.0)
    # Fully subsidized phase climbs toward 1, then falls back toward 1/2.
    assert traj.value(1.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)
    assert traj.value(0.4) == pytest.approx(1 - math.exp(-0.4), abs=1e-12)
    assert traj.final_level == 0.5
    assert traj.subsidy_end == 1.0
    y1 = traj.value(1.0)
    assert traj.value(3.0) == pytest.approx(0.5 + (y1 - 0.5) * math.exp(-2.0), abs=1e-12)


def test_cls_trajectory_zero_window():
    traj = subsidized_trajectory(UNIT_MARKET, ConstantLevelSubsidy(0.5, 0.0), 0.0, 0.0)
    assert len(traj.segments) == 1
    assert traj.final_level == 0.5
    # A zero level is no window either, as with network effects.
    free = subsidized_trajectory(UNIT_MARKET, ConstantLevelSubsidy(0.0, 2.0), 0.0, 0.0)
    assert len(free.segments) == 1 and free.subsidy_end is None


def test_cls_trajectory_level_above_cost():
    # Without network effects a level above the cost is allowed: everyone
    # adopts during the window, exactly as at level == cost.
    over = subsidized_trajectory(UNIT_MARKET, ConstantLevelSubsidy(0.8, 1.0), 0.0, 0.0)
    full = subsidized_trajectory(UNIT_MARKET, ConstantLevelSubsidy(0.5, 1.0), 0.0, 0.0)
    for t in (0.5, 1.0, 3.0):
        assert over.value(t) == full.value(t)


def test_required_duration_values():
    # Frozen: log 2 with the window cost fully under u_min, log 6 unsubsidized.
    assert noext_required_duration(WIDE, 3.0, 1.0, 2.0, 0.0, 0.5) == pytest.approx(
        math.log(2.0), abs=1e-12
    )
    assert noext_required_duration(WIDE, 3.0, 1.0, 0.0, 0.0, 0.5) == pytest.approx(
        math.log(6.0), abs=1e-12
    )


def test_required_duration_feasibility_boundary():
    # Reaching 1/2 from 0 needs ccdf(3 - s) > 1/2, i.e. s > -1/2.
    assert noext_required_duration(WIDE, 3.0, 1.0, -0.49, 0.0, 0.5) is not None
    assert noext_required_duration(WIDE, 3.0, 1.0, -0.5, 0.0, 0.5) is None
    assert noext_required_duration(WIDE, 3.0, 1.0, -0.51, 0.0, 0.5) is None
    assert noext_required_duration(WIDE, 3.0, 1.0, 1.0, 0.3, 0.3) == 0.0


def test_required_duration_matches_first_passage():
    params = ModelParams(1.0, 6.0, 3.0, 0.0, 1.0)
    for s in (0.5, 1.0, 2.0):
        cls = ConstantLevelSubsidy(s, 50.0)
        sampled = integrate_ode(params, WIDE, cls, t_end=20.0, dt=1e-3)
        crossing = None
        for t, x in zip(sampled.times, sampled.levels):
            if x >= 0.5:
                crossing = t
                break
        expected = noext_required_duration(WIDE, 3.0, 1.0, s, 0.0, 0.5)
        assert crossing == pytest.approx(expected, abs=2e-3)


def test_subsidy_cost_values():
    assert noext_subsidy_cost(UNIT, 0.5, 1.0, ConstantLevelSubsidy(0.5, 0.0), 0.0) == 0.0
    assert noext_subsidy_cost(UNIT, 0.5, 1.0, ConstantLevelSubsidy(0.0, 5.0), 0.0) == 0.0
    got = noext_subsidy_cost(UNIT, 0.5, 1.0, ConstantLevelSubsidy(0.5, 1.0), 0.0)
    assert got == pytest.approx(0.18393972058572117, abs=1e-12)


def test_cost_at_target_values():
    # Frozen from the quadrature oracle below.
    assert noext_cost_at_target(WIDE, 3.0, 1.0, 2.0, 0.0, 0.5) == pytest.approx(
        0.38629436111989062, abs=1e-12
    )
    assert noext_cost_at_target(WIDE, 3.0, 1.0, 1.0, 0.0, 0.5) == pytest.approx(
        0.28466340240938095, abs=1e-12
    )
    assert noext_cost_at_target(WIDE, 3.0, 1.0, -0.6, 0.0, 0.5) is None


def test_cost_at_target_matches_quadrature():
    params = ModelParams(1.0, 6.0, 3.0, 0.0, 1.0)
    for s in (0.5, 1.0, 2.0):
        duration = noext_required_duration(WIDE, 3.0, 1.0, s, 0.0, 0.5)
        cls = ConstantLevelSubsidy(s, duration)
        sampled = integrate_ode(
            params, WIDE, cls, t_end=duration, dt=duration / 4000
        )
        numeric = integrate_cost(sampled, cls)
        analytic = noext_cost_at_target(WIDE, 3.0, 1.0, s, 0.0, 0.5)
        assert analytic == pytest.approx(numeric, abs=1e-6)


def test_cost_duration_substitution_identity():
    # Outlay via the window formula at the required duration matches the
    # direct target formula exactly.
    rng = np.random.default_rng(7)
    for _ in range(50):
        u_min = rng.uniform(0.0, 2.0)
        u_max = u_min + rng.uniform(0.5, 4.0)
        dist = UniformAffinity(u_min, u_max)
        c = rng.uniform(u_min + 0.2, u_max + 1.0)
        gamma = rng.uniform(0.3, 2.5)
        y0 = rng.uniform(0.0, 0.3)
        s = rng.uniform(0.1, c)
        resting = dist.ccdf(c - s)
        if resting <= y0 + 0.05:
            continue
        target = rng.uniform(y0 + 0.02, resting - 0.02)
        duration = noext_required_duration(dist, c, gamma, s, y0, target)
        direct = noext_cost_at_target(dist, c, gamma, s, y0, target)
        windowed = noext_subsidy_cost(
            dist, c, gamma, ConstantLevelSubsidy(s, duration), y0
        )
        assert direct == pytest.approx(windowed, abs=1e-12)


def test_cost_increasing_on_example_range():
    # With u_max > cost the sufficient condition fails and the outlay is
    # in fact increasing over the whole feasible range here.
    costs = [noext_cost_at_target(WIDE, 3.0, 1.0, s, 0.0, 0.5) for s in np.linspace(0.01, 2.0, 100)]
    assert all(b > a for a, b in zip(costs, costs[1:]))


def test_cost_decreasing_condition_uniform_rule():
    assert noext_cost_decreasing_condition(WIDE, 3.0, 1.0) is False  # 6 < 3 fails
    assert noext_cost_decreasing_condition(UniformAffinity(1.0, 2.0), 3.0, 0.5) is True


def test_cost_decreasing_condition_general_distribution():
    class Exponential:
        def ccdf(self, u):
            return math.exp(-u) if u > 0 else 1.0

        def density(self, u):
            return math.exp(-u) if u > 0 else 0.0

    dist = Exponential()
    # ccdf < s * density iff 1 < s (for positive effective cost).
    assert noext_cost_decreasing_condition(dist, 3.0, 2.0) is True
    assert noext_cost_decreasing_condition(dist, 3.0, 0.5) is False


def test_condition_implies_decreasing_cost():
    # Narrow affinities below the cost: condition holds, outlay falls.
    dist = UniformAffinity(1.0, 2.0)
    assert noext_cost_decreasing_condition(dist, 3.0, 1.6)
    f = lambda s: noext_cost_at_target(dist, 3.0, 1.0, s, 0.0, 0.3)
    for s in (1.45, 1.6, 1.8):
        assert finite_diff(f, s, 1e-6) < 0

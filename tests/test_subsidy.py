"""Subsidy planners in the bistable regime."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import max_gap, random_planner_setup, sample_times
from reference import SweepRow, first_passage, pareto_frontier, sweep_rows

from netadopt import (
    AssumptionViolationError,
    ConstantLevelSubsidy,
    InvalidParameterError,
    ModelParams,
    SingularParametersError,
    full_subsidy_analysis,
    integrate_cost,
    integrate_ode,
    interior_equilibrium,
    min_duration,
    min_duration_cost,
    min_subsidy,
    subsidized_trajectory,
    subsidy_interval_bounds,
    sweep,
    unsubsidized_trajectory,
)
from netadopt.closed_form import band_rate_step, hit_time
from netadopt.subsidy import FLAT_TOL, _slope_verdicts, linspace

TIPPING = ModelParams(1.0, 2.0, 3.0, 3.0, 1.0 / 3.0)  # interior 0.5, y0 below
PLANNER = ModelParams(1.0, 2.0, 2.5, 3.0, 1.0)  # interior 0.25

# Frozen threshold values for TIPPING with y0 = 1/4:
TO_BAND_LOW = 0.3533491069691504  # 3*log(9/8)
TO_INTERIOR = 1.2163953243244932  # 3*log(3/2)
TO_BAND_HIGH = 2.4327906486489863  # 3*log(9/4)


def test_cls_validation():
    # A window checks only that its level is finite; the path decides
    # which levels a market takes.
    for level in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameterError):
            ConstantLevelSubsidy(level, 1.0)
    with pytest.raises(InvalidParameterError):
        ConstantLevelSubsidy(1.0, -1.0)
    cls = ConstantLevelSubsidy(1.0, 2.0, start=3.0)
    assert cls.end == 5.0
    surcharge = ConstantLevelSubsidy(-0.1, 1.0)
    for level in (-0.1, -0.0 - 5e-324, 3.0 + 4e-16):  # outside [0, cost] = [0, 3]
        with pytest.raises(InvalidParameterError, match=r"must lie in \[0, cost\]"):
            subsidized_trajectory(TIPPING, ConstantLevelSubsidy(level, 1.0), 0.25)
    # Without network effects a surcharge slows the climb toward ccdf(cost).
    noext = ModelParams(1.0, 6.0, 3.0, 0.0, 1.0)
    slowed = subsidized_trajectory(noext, surcharge, 0.0).value(1.0)
    assert slowed < unsubsidized_trajectory(noext, 0.0, 0.0).value(1.0)


def test_subsidized_trajectory_zero_level_identity():
    cls = ConstantLevelSubsidy(0.0, 2.0)
    a = subsidized_trajectory(TIPPING, cls, 0.25)
    b = unsubsidized_trajectory(TIPPING, 0.0, 0.25)
    for t in np.linspace(0.0, 10.0, 50):
        assert a.value(float(t)) == b.value(float(t))


def test_subsidized_trajectory_flips_outcome_with_window_length():
    short = subsidized_trajectory(TIPPING, ConstantLevelSubsidy(3.0, 0.177), 0.25)
    assert short.final_level == 0.0
    long = subsidized_trajectory(TIPPING, ConstantLevelSubsidy(3.0, 1.824), 0.25)
    assert long.final_level == 1.0


def test_subsidized_trajectory_continuous_at_switch():
    cls = ConstantLevelSubsidy(1.5, 2.0)
    traj = subsidized_trajectory(TIPPING, cls, 0.25)
    assert cls.end in traj.breakpoints
    before = traj.value(2.0 - 1e-12)
    after = traj.value(2.0 + 1e-12)
    assert abs(before - after) <= 1e-9


def test_subsidized_trajectory_matches_oracle():
    cls = ConstantLevelSubsidy(1.5, 2.0)
    traj = subsidized_trajectory(TIPPING, cls, 0.25)
    sampled = integrate_ode(
        TIPPING, subsidy_schedule=cls, x0=0.25, t_end=30.0, dt=3e-3
    )
    err = max_gap(traj, sampled)
    assert err <= 1e-6


def test_full_subsidy_thresholds():
    report = full_subsidy_analysis(TIPPING, 0.0, 0.25, 1.0)
    assert report.to_band_low == pytest.approx(TO_BAND_LOW, abs=1e-12)
    assert report.to_interior == pytest.approx(TO_INTERIOR, abs=1e-12)
    assert report.to_band_high == pytest.approx(TO_BAND_HIGH, abs=1e-12)
    # Reproduces the published roundings.
    assert report.to_band_low == pytest.approx(0.353, abs=1e-3)
    assert report.to_interior == pytest.approx(1.216, abs=1e-3)
    assert report.to_band_high == pytest.approx(2.433, abs=1e-3)
    assert max(report.to_band_low, 0.0) < report.to_interior < report.to_band_high


def test_full_subsidy_outcomes_bracket_threshold():
    for duration, final in ((0.0, 0.0), (1.156, 0.0), (1.277, 1.0), (3.041, 1.0)):
        report = full_subsidy_analysis(TIPPING, 0.0, 0.25, duration)
        assert report.final_equilibrium == final
    zero = full_subsidy_analysis(TIPPING, 0.0, 0.25, 0.0)
    assert zero.cost == 0.0


def test_full_subsidy_cost_value():
    report = full_subsidy_analysis(TIPPING, 0.0, 0.25, TO_INTERIOR)
    assert report.cost == pytest.approx(1.3991859729734795, abs=1e-12)


def test_full_subsidy_window_is_pure_climb():
    report = full_subsidy_analysis(TIPPING, 0.0, 0.25, 1.824)
    for t in np.linspace(0.0, 1.824, 40):
        expected = 1 - 0.75 * math.exp(-TIPPING.gamma * t)
        assert report.trajectory.value(float(t)) == pytest.approx(expected, abs=1e-12)


def test_full_subsidy_post_window_structure():
    # The state the window leaves decides the post-window path shape:
    # before the lower edge -> single decay; between edges -> in-band
    # segment then saturation decay/climb; past the upper edge -> climb.
    lo, mid, hi = TO_BAND_LOW, TO_INTERIOR, TO_BAND_HIGH
    for duration, final in (
        (0.5 * lo, 0.0),
        (0.5 * (lo + mid), 0.0),
        (0.5 * (mid + hi), 1.0),
        (hi + 0.5, 1.0),
    ):
        report = full_subsidy_analysis(TIPPING, 0.0, 0.25, duration)
        assert report.final_equilibrium == final
        sampled = integrate_ode(
            TIPPING,
            subsidy_schedule=ConstantLevelSubsidy(3.0, duration),
            x0=0.25,
            t_end=25.0,
            dt=3e-3,
        )
        err = max_gap(report.trajectory, sampled)
        assert err <= 1e-6
    past_high = full_subsidy_analysis(TIPPING, 0.0, 0.25, hi + 0.5)
    tail = past_high.trajectory.segments[-1]
    assert tail.rate < 0 and past_high.trajectory.final_level == 1.0


def test_full_subsidy_assumption_checks():
    with pytest.raises(AssumptionViolationError, match="u_max <= cost"):
        full_subsidy_analysis(ModelParams(1, 2, 1.5, 3.0, 1.0), 0.0, 0.1, 1.0)
    with pytest.raises(AssumptionViolationError, match="cost <= u_min \\+ externality"):
        full_subsidy_analysis(ModelParams(1, 2, 5.0, 3.0, 1.0), 0.0, 0.1, 1.0)
    with pytest.raises(AssumptionViolationError, match="interior"):
        full_subsidy_analysis(TIPPING, 0.0, 0.6, 1.0)  # y0 above the boundary
    # Bistable, but at y0 = 0.1 the free service still leaves users with
    # affinity below -0.3 out: the path does not climb purely toward 1.
    bistable = ModelParams(-1.0, 0.5, 1.0, 3.0, 1.0)
    with pytest.raises(AssumptionViolationError, match="u_min \\+ externality\\*y0 >= 0"):
        full_subsidy_analysis(bistable, 0.0, 0.1, 0.5)


def test_full_subsidy_negative_u_min_matches_oracle():
    # u_min < 0 but u_min + externality*y0 >= 0: everyone adopts from the
    # first instant of the window, so the closed forms still hold.
    params = ModelParams(-0.2, 0.5, 1.0, 3.0, 1.0)
    y0 = 0.1
    report = full_subsidy_analysis(params, 0.0, y0, 0.5)
    cls = ConstantLevelSubsidy(params.cost, 0.5)
    window = integrate_ode(params, subsidy_schedule=cls, x0=y0, t_end=0.5, dt=1e-4)
    assert report.cost == pytest.approx(integrate_cost(window, cls), abs=1e-5)
    free = integrate_ode(
        params, subsidy_schedule=ConstantLevelSubsidy(params.cost, 10.0), x0=y0,
        t_end=2.0, dt=1e-4,
    )
    x_int = interior_equilibrium(params.cost, params)
    for duration, level in (
        (report.to_band_low, params.band_low()),
        (report.to_interior, x_int),
        (report.to_band_high, params.band_high()),
    ):
        assert first_passage(free, level) == pytest.approx(duration, abs=1e-6)


def test_min_subsidy_values():
    assert min_subsidy(PLANNER, 0.0) == 0.5
    assert min_subsidy(PLANNER, 0.125) == 0.25
    assert min_subsidy(PLANNER, 0.0) / 3.0 == 1.0 / 6.0
    assert min_subsidy(PLANNER, 0.125) / 3.0 == 1.0 / 12.0


def test_min_subsidy_degenerate_band():
    # On the singular line u_max == u_min + e == cost every level in [0, 1]
    # is an equilibrium: a window leaves the state where it ends, so no
    # level tips the market, and min_subsidy refuses it as min_duration does.
    singular = ModelParams(1.0, 2.0, 2.0, 1.0, 1.0)
    with pytest.raises(SingularParametersError, match="u_max == u_min"):
        min_subsidy(singular, 0.3)
    with pytest.raises(SingularParametersError, match="u_max == u_min"):
        min_duration(singular, 0.3, 1.0)
    # The degenerate band's other costs are outside the bistable regime.
    for cost in (1.5, 2.5):
        with pytest.raises(AssumptionViolationError):
            min_subsidy(singular._replace(cost=cost), 0.3)


@pytest.mark.parametrize("y0", [5.0, -0.1, math.nan])
def test_min_subsidy_degenerate_band_refuses_a_start_outside_0_1(y0):
    # The start is checked first, as on every other planner entry.
    with pytest.raises(InvalidParameterError, match="y0 must lie in"):
        min_subsidy(ModelParams(1, 2, 2, 1, 1), y0)


def test_min_subsidy_separates_outcomes():
    s_hat = min_subsidy(PLANNER, 0.0)
    below = unsubsidized_trajectory(PLANNER, 0.0, 0.0, effective_cost=PLANNER.cost - 0.9 * s_hat)
    above = unsubsidized_trajectory(PLANNER, 0.0, 0.0, effective_cost=PLANNER.cost - 1.1 * s_hat)
    assert below.final_level == 0.0
    assert above.final_level == 1.0


def test_min_duration_rows():
    # Top range: constant log((1-y0)/(1-interior)).
    assert min_duration(PLANNER, 0.0, 2.0) == pytest.approx(math.log(4 / 3), abs=1e-12)
    assert min_duration(PLANNER, 0.0, 1.7) == pytest.approx(math.log(4 / 3), abs=1e-12)
    # Middle range at its lower boundary equals the band-exit time 0.5*ln 3.
    assert min_duration(PLANNER, 0.0, 0.75) == pytest.approx(0.5493061443340549, abs=1e-12)
    # In-band range, frozen 0.5*ln 6.
    assert min_duration(PLANNER, 0.0, 0.6) == pytest.approx(0.8958797346140275, abs=1e-9)


def test_min_duration_infeasible_levels():
    assert min_duration(PLANNER, 0.0, 0.4) is None
    assert min_duration(PLANNER, 0.0, 0.5) is None  # exactly the threshold
    assert min_duration(PLANNER, 0.0, 0.5000001) is not None


def test_min_duration_matches_first_passage():
    for y0, s in ((0.0, 0.75), (0.0, 1.2), (0.125, 0.6), (0.125, 2.2)):
        expected = min_duration(PLANNER, y0, s)
        cls = ConstantLevelSubsidy(s, 50.0)
        sampled = integrate_ode(
            PLANNER, subsidy_schedule=cls, x0=y0, t_end=30.0, dt=1e-3
        )
        crossed = None
        for t, x in zip(sample_times(sampled), sampled.levels):
            if x >= 0.25:
                crossed = t
                break
        assert crossed == pytest.approx(expected, abs=2e-3)


def test_min_duration_nonincreasing():
    s_hat = min_subsidy(PLANNER, 0.0)
    grid = np.linspace(s_hat + 0.02, PLANNER.cost, 120)
    durations = [min_duration(PLANNER, 0.0, float(s)) for s in grid]
    assert all(b <= a + 1e-9 for a, b in zip(durations, durations[1:]))


def _min_duration_path(params, y0, level):
    """The minimum-duration path and its window's length."""
    duration = min_duration(params, y0, level)
    return subsidized_trajectory(params, ConstantLevelSubsidy(level, duration), y0), duration


def _window_segments(traj, duration):
    return [seg for seg in traj.segments if seg.start_time < duration]


def test_min_duration_trajectory_regimes():
    # Above the out-of-band bound: the window is one climb toward 1.
    high, duration = _min_duration_path(PLANNER, 0.0, 2.0)
    [seg] = _window_segments(high, duration)
    assert seg.rate == -PLANNER.gamma and seg.start_level - seg.step == 1.0
    for t in (0.1, 0.2):
        assert high.value(t) == pytest.approx(1 - math.exp(-t), abs=1e-12)
    # In-band range: the window is covered by one in-band segment.
    low, duration = _min_duration_path(PLANNER, 0.0, 0.6)
    [first] = _window_segments(low, duration)
    assert first.start_time == 0.0
    sub_int = (2.0 - 1.9) / (2.0 - 4.0)  # interior of the subsidized dynamics
    assert first.start_level - first.step == pytest.approx(sub_int, abs=1e-12)


def test_min_duration_trajectory_hits_target():
    for y0, s in ((0.0, 0.55), (0.0, 1.0), (0.0, 2.4), (0.125, 0.3), (0.125, 1.4)):
        traj, duration = _min_duration_path(PLANNER, y0, s)
        assert traj.value(duration) == pytest.approx(0.25, abs=1e-9)


def test_min_duration_path_is_plain_past_the_window():
    # The subsidy stops at D: D is a junction, and from there the path is
    # the plain dynamics from the tipping level (within rounding).
    rng = np.random.default_rng(2718)
    for _ in range(20):
        params, y0 = random_planner_setup(rng, positive_y0=bool(rng.integers(2)))
        s_hat = min_subsidy(params, y0)
        level = float(rng.uniform(s_hat + 0.05 * (params.cost - s_hat), params.cost))
        traj, duration = _min_duration_path(params, y0, level)
        assert duration in traj.breakpoints
        at_end = traj.value(duration)
        assert at_end == pytest.approx(interior_equilibrium(params.cost, params), abs=1e-9)
        later = traj.segments[traj.breakpoints.index(duration) + 1:]
        assert later == unsubsidized_trajectory(params, duration, at_end).segments


def test_min_duration_trajectory_infeasible():
    # At min_subsidy no window exists, so there is no path to build.
    assert min_duration(PLANNER, 0.0, 0.5) is None


def test_interval_bounds_values():
    assert subsidy_interval_bounds(PLANNER, 0.0) == (0.5, 0.5, 0.75, 1.5)
    assert subsidy_interval_bounds(PLANNER, 0.125) == (0.125, 0.25, 0.75, 1.125)


def test_cost_rows_and_methods():
    rows = {0.3: 1, 0.6: 3, 1.0: 4, 2.0: 5}
    for s, row in rows.items():
        assert min_duration_cost(PLANNER, 0.0, s).row == row
    assert min_duration_cost(PLANNER, 0.125, 0.2).row == 2


def test_cost_values_frozen():
    # y0 = 0 makes the infeasible rows free.
    assert min_duration_cost(PLANNER, 0.0, 0.3).value == 0.0
    assert min_duration_cost(PLANNER, 0.0, 0.5).value == 0.0
    # Frozen closed forms, cross-checked against the rk4 quadrature below.
    assert min_duration_cost(PLANNER, 0.0, 0.75).value == pytest.approx(
        0.042252548968682355, abs=1e-12
    )
    assert min_duration_cost(PLANNER, 0.0, 2.0).value == pytest.approx(
        2.0 * (math.log(4 / 3) - 0.25), abs=1e-12
    )


def test_cost_knife_edge():
    # Exactly at the threshold with a positive start the outlay is unbounded.
    res = min_duration_cost(PLANNER, 0.125, 0.25)
    assert res.value is None
    assert min_duration_cost(PLANNER, 0.0, 0.5).value == 0.0


def test_cost_row4_matches_high_precision_reference():
    # Frozen row-4 outlays, computed once with mpmath at 50 digits from
    # the exact binary values of the inputs.  With spread = u_max - u_min,
    # a = (e - spread)/spread, ceff = cost - s, the subsidized interior
    # sub = (u_max - ceff)/(spread - e), its band edge top = (ceff - u_min)/e
    # and the tipping level x_int = (u_max - cost)/(spread - e), the path
    # climbs in band x = sub + (y0 - sub) exp(a gamma t) until
    # t1 = log((top - sub)/(y0 - sub))/(a gamma), then above the band
    # x = 1 - (1 - top) exp(-gamma (t - t1)) for t2 = log((1 - top)/(1 - x_int))/gamma.
    # The outlay is s times the integral of x:
    #   s * (sub t1 + (top - y0)/(a gamma) + t2 - (x_int - top)/gamma).
    # The last two markets have externality/spread of 1.005 and 1.00032,
    # where the in-band term cancels heavily in double precision.
    cases = [
        (PLANNER, 0.0, 1.0, 0.041507312687077465827),
        (PLANNER, 0.125, 1.0, 0.029690451200598013574),
        (ModelParams(1.0, 2.0, 2.003, 1.005, 0.7), 0.2, 0.6, 0.26203457720777668571),
        (ModelParams(0.5, 1.75, 1.7502, 1.2504, 2.5), 0.0, 0.9, 0.071674251251955546303),
        (ModelParams(0.5, 1.75, 1.7502, 1.2504, 2.5), 0.3, 0.8, 0.044096062291787175761),
    ]
    for params, y0, s, expected in cases:
        res = min_duration_cost(params, y0, s)
        assert res.row == 4
        assert res.value == pytest.approx(expected, abs=1e-12)


def test_row4_junction_matches_high_precision_reference():
    # Frozen with mpmath at 50 digits from the exact binary values of the
    # inputs; ceff = cost - s is exact in binary for each.  With spread =
    # u_max - u_min, externality/spread - 1 runs from 1e-6 to 1e-2, so the
    # subsidized in-band fixed point sub = -b/a, a = (e - spread)/spread,
    # b = (u_max - ceff)/spread, lies far below the path.  The in-band climb x = sub + (y0 - sub)
    # exp(a gamma t) leaves the band at top = (ceff - u_min)/e at
    #   t1 = log((top - sub)/(y0 - sub))/(a gamma),
    # and x_mid is its level at t_mid (a float near t1/2).
    cases = [
        (ModelParams(1.0, 2.0, 2.0000005, 1.000001, 1.0), 0.0, 0.75,
         0.33333383333319768735, 0.16666691666659883, 0.1250001145831823276),
        (ModelParams(1.0, 2.0, 2.000005, 1.00001, 0.5), 0.0, 0.75,
         0.66667666663950594886, 0.333338333319753, 0.1250011458182291925),
        (ModelParams(1.0, 2.0, 2.00005, 1.0001, 2.0), 0.0, 0.75,
         0.16669166598777921218, 0.0833458329938896, 0.12501145682304065435),
        (ModelParams(1.0, 2.0, 2.0005, 1.001, 1.0), 0.0, 0.75,
         0.33383319778071737868, 0.1669165988903587, 0.12511443241560326626),
        (ModelParams(1.0, 2.0, 2.005, 1.01, 0.7), 0.0, 0.75,
         0.48331428804244332008, 0.24165714402122165, 0.12613085200514434395),
        (ModelParams(0.5, 1.75, 1.750001875, 1.2500037499999999, 1.5), 0.0, 0.9375,
         0.22222322222140737405, 0.11111161111070368, 0.12500034374864060895),
        (ModelParams(0.5, 1.75, 1.7501875, 1.250375, 0.4), 0.0, 0.9375,
         0.83370830279464976339, 0.4168541513973249, 0.12503436140959861869),
        (ModelParams(0.5, 1.75, 1.7500125, 1.250025, 1.0), 0.1, 1.0,
         0.1250085936658872095, 0.0625042968329436, 0.15000296868597768723),
    ]
    for params, y0, s, t1, t_mid, x_mid in cases:
        assert Fraction(params.cost) - Fraction(s) == Fraction(params.cost - s)
        assert min_duration_cost(params, y0, s).row == 4
        traj, _ = _min_duration_path(params, y0, s)
        assert abs(traj.breakpoints[0] - t1) <= 1e-13 * t1
        assert abs(traj.value(t_mid) - x_mid) <= 1e-15


def test_range4_meets_range5_exactly_at_b4():
    # At b4 the whole climb is out of band: the duration equals range 5's
    # constant to the last bit, so the b4 row dominates every range-5 row
    # (same duration, lower outlay) and none of them is on the frontier.
    rng = np.random.default_rng(1717)
    for i in range(60):
        params, y0 = random_planner_setup(rng, positive_y0=bool(i % 2))
        if i % 4 == 0:
            y0 = 0.0
        b4 = subsidy_interval_bounds(params, y0)[3]
        assert 0.0 < b4 < params.cost
        assert min_duration_cost(params, y0, b4).row == 4
        assert min_duration(params, y0, b4) == min_duration(params, y0, params.cost)
        result = sweep(params, y0, grid_points=257)
        at_b4 = result.levels.index(b4)
        assert result.frontier.stop == at_b4 + 1
        assert set(result.durations[at_b4:]) == {result.durations[at_b4]}


def test_min_duration_knife_edge_is_infeasible():
    # Just above min_subsidy the subsidized interior level rounds onto y0:
    # the path rests there, so no window reaches the tipping level.
    params = ModelParams(
        0.681422225356519, 1.3677228018445504, 2.4477802459972486,
        1.8913485043702145, 4.024480697946498,
    )
    y0 = 0.5106237380143381
    level = math.nextafter(min_subsidy(params, y0), math.inf)
    assert level == 0.46473136673106535
    assert min_duration(params, y0, level) is None
    assert min_duration_cost(params, y0, level).value is None


def test_interval_bounds_ordered_at_zero_start():
    # At y0 = 0, cost - u_max equals min_subsidy in exact arithmetic, but
    # rounding can put it one ulp above.  The bound is clamped, so no level
    # above min_subsidy falls in the first two outlay ranges.
    params = ModelParams(
        0.935609791532341, 1.685870423705207, 1.8797231588513614,
        1.346491514237461, 1.099522908476864,
    )
    raw_b1 = params.cost - params.u_max
    b1, s_hat, _, _ = subsidy_interval_bounds(params, 0.0)
    assert raw_b1 > s_hat
    assert b1 == s_hat
    result = sweep(params, 0.0)
    for level, regime in zip(result.levels, result.regimes):
        if level > s_hat:
            assert regime >= 3
    assert False not in result.verdicts
    assert min_duration_cost(params, 0.0, raw_b1).row >= 3


def test_duration_uses_the_range_of_the_outlay_at_a_bound():
    # At the band-exit bound b3 the level is in range 3 for the outlay, so
    # the duration is range 3's in-band hit time of x_int, to the last bit.
    params = ModelParams(
        1.0547039535418055, 1.7436614309227543, 1.8839248325971452,
        1.1652682708125288, 0.30489378044815596,
    )
    y0 = 0.03673535991006957
    b3 = subsidy_interval_bounds(params, y0)[2]
    assert b3 == 0.486074148430436
    assert min_duration_cost(params, y0, b3).row == 3
    x_int = interior_equilibrium(params.cost, params)
    expected = hit_time(0.0, y0, *band_rate_step(params, params.cost - b3, y0), x_int)
    assert min_duration(params, y0, b3) == expected
    result = sweep(params, y0)
    at_b3 = result.levels.index(b3)
    assert (result.regimes[at_b3], result.durations[at_b3]) == (3, expected)


def _reference_plan(params, y0, level, x_int, bounds):
    """The planner one level at a time, as a cascade over the four bounds:
    the per-level form the range-by-range evaluator replaced, kept as the
    reference that it must match bit for bit."""
    c, e, gamma = params.cost, params.externality, params.gamma
    spread = params.u_max - params.u_min
    inv_a = spread / (e - spread)  # 1/a of the in-band dynamics
    b1, s_hat, b3, b4 = bounds

    if level <= b1:
        return 1, None, level * y0 / gamma

    ceff = c - level
    sub_int = interior_equilibrium(ceff, params)
    knife_edge = None if y0 > 0 else 0.0
    if level <= s_hat:
        if sub_int - y0 <= 0.0:
            # Knife edge (up to rounding): the level balances forever.
            return 2, None, knife_edge
        low = params.band_low(ceff)
        inner = sub_int * math.log((sub_int - low) / (sub_int - y0)) - (y0 - low)
        return 2, None, level / gamma * (inv_a * inner + low)

    if level <= b3:
        duration = hit_time(0.0, y0, *band_rate_step(params, ceff, y0), x_int)
        if y0 - sub_int <= 0.0:
            return 3, duration, knife_edge
        inner = sub_int * math.log((x_int - sub_int) / (y0 - sub_int)) + x_int - y0
        return 3, duration, level / gamma * inv_a * inner

    if level <= b4:
        edge = y0 + (b4 - level) / e
        exit_time = hit_time(0.0, y0, *band_rate_step(params, ceff, y0), edge)
        duration = None  # the subsidized path sits on its own fixed point
        if exit_time is not None:
            duration = exit_time + math.log((1.0 - edge) / (1.0 - x_int)) / gamma
        if y0 - sub_int <= 0.0:
            return 4, duration, knife_edge
        top = min(edge, x_int)
        in_band = sub_int * math.log1p((top - y0) / (y0 - sub_int)) + top - y0
        above = math.log1p((x_int - top) / (1.0 - x_int)) - (x_int - top)
        return 4, duration, level / gamma * (inv_a * in_band + above)

    climb = math.log((1.0 - y0) / (1.0 - x_int))
    return 5, climb / gamma, level / gamma * (climb - (x_int - y0))


def _reference_markets():
    """Fixed bistable markets: random ones (every fourth at y0 = 0), the
    clamped-bound market at y0 = 0 and PLANNER at both starts."""
    rng = np.random.default_rng(2024)
    markets = []
    for i in range(40):
        params, y0 = random_planner_setup(rng, positive_y0=bool(i % 2))
        markets.append((params, 0.0 if i % 4 == 0 else y0))
    clamped = ModelParams(
        0.935609791532341, 1.685870423705207, 1.8797231588513614,
        1.346491514237461, 1.099522908476864,
    )
    return markets + [(clamped, 0.0), (PLANNER, 0.0), (PLANNER, 0.125)]


def test_sweep_matches_reference_cascade_bitwise():
    seen = {"y0 = 0": 0, "y0 > 0": 0, "b3 < s_hat": 0, "sub_int - y0 == 0": 0,
            "b1": 0, "s_hat": 0, "b3": 0, "b4": 0}
    for params, y0 in _reference_markets():
        bounds = subsidy_interval_bounds(params, y0)
        x_int = interior_equilibrium(params.cost, params)
        levels, *columns = sweep(params, y0, grid_points=129)[:4]
        for level, regime, duration, outlay in zip(levels, *columns):
            expected = _reference_plan(params, y0, level, x_int, bounds)
            assert repr((regime, duration, outlay)) == repr(expected)
            assert repr(min_duration(params, y0, level)) == repr(duration)
            result = min_duration_cost(params, y0, level)
            assert repr((result.row, result.value)) == repr((regime, outlay))
            if bounds[0] < level <= bounds[3]:
                sub_int = interior_equilibrium(params.cost - level, params)
                seen["sub_int - y0 == 0"] += sub_int - y0 == 0.0
        for name, bound in zip(("b1", "s_hat", "b3", "b4"), bounds):
            seen[name] += bound in levels
        seen["y0 = 0" if y0 == 0.0 else "y0 > 0"] += 1
        seen["b3 < s_hat"] += bounds[2] < bounds[1]
    assert all(seen.values()), seen


def test_knife_edge_level_matches_reference_cascade():
    # Just above min_subsidy, where y0 - sub_int rounds to <= 0 in range 3.
    params = ModelParams(
        0.681422225356519, 1.3677228018445504, 2.4477802459972486,
        1.8913485043702145, 4.024480697946498,
    )
    y0 = 0.5106237380143381
    bounds = subsidy_interval_bounds(params, y0)
    x_int = interior_equilibrium(params.cost, params)
    for level in (bounds[1], math.nextafter(bounds[1], math.inf), bounds[2], bounds[3]):
        result = min_duration_cost(params, y0, level)
        got = (result.row, min_duration(params, y0, level), result.value)
        assert repr(got) == repr(_reference_plan(params, y0, level, x_int, bounds))


def _reference_verdicts(regimes, outlays, y0):
    """_slope_verdicts with each range's neighbouring pairs filtered out of
    all pairs by their regime: the five-pass form of the regime rule."""
    finite = [(k, v) for k, v in zip(regimes, outlays) if v is not None]
    verdicts, switch_count = [], None
    for k in range(1, 6):
        diffs = [b - a for (ka, a), (kb, b) in zip(finite, finite[1:]) if ka == kb == k]
        if not diffs:
            verdicts.append(None)
        elif k in (1, 2):
            flat = y0 == 0.0
            verdicts.append(all(abs(d) <= FLAT_TOL if flat else d > 0 for d in diffs))
        elif k == 3:
            verdicts.append(all(d < 0 for d in diffs))
        elif k == 5:
            verdicts.append(all(d > 0 for d in diffs))
        else:
            nz = [1 if d > FLAT_TOL else -1 for d in diffs if abs(d) > FLAT_TOL]
            switch_count = sum(1 for a, b in zip(nz, nz[1:]) if a != b)
            verdicts.append(bool(nz) and (1, -1) not in zip(nz, nz[1:]))
    return tuple(verdicts), switch_count


def test_cost_sign_pattern_matches_reference():
    # The sweeps' columns of the reference markets, with levels dropped at
    # random, and with random outlays (some None) so that every verdict is
    # taken.
    rng = np.random.default_rng(77)
    verdicts = set()
    for params, y0 in _reference_markets():
        result = sweep(params, y0, grid_points=65)
        assert result[5:] == _slope_verdicts(result.regimes, result.outlays, y0)
        columns = list(zip(result.regimes, result.outlays))
        kept = [c for c in columns if rng.uniform() < 0.8]
        noisy = [(k, None if u < 0.1 else float(u - 0.5))
                 for k, u in zip(result.regimes, rng.uniform(size=len(columns)))]
        for sample in (columns, kept, noisy):
            regimes, outlays = zip(*sample)
            got = _slope_verdicts(regimes, outlays, y0)
            assert got == _reference_verdicts(regimes, outlays, y0)
            verdicts.update(got[0])
    assert verdicts == {True, False, None}


@pytest.mark.parametrize("gamma, level", [(5e-324, 2.0), (1e-308, 2.0), (5e-324, 0.05)])
def test_overflowing_gamma_is_refused(gamma, level):
    # Dividing by a tiny gamma overflows each of these outlays to inf.  The
    # range-5 duration overflows too at 5e-324 but not at 1e-308 (about
    # 1.8e307), and the range-1 level has none: min_duration refuses only
    # a duration that overflowed and otherwise returns the cascade's.
    params = ModelParams(1.0, 2.0, 2.5, 3.0, gamma)
    bounds = subsidy_interval_bounds(params, 0.1)
    x_int = interior_equilibrium(params.cost, params)
    _, duration, outlay = _reference_plan(params, 0.1, level, x_int, bounds)
    assert outlay == math.inf
    with pytest.raises(InvalidParameterError, match="gamma"):
        sweep(params, 0.1, grid_points=8)
    with pytest.raises(InvalidParameterError, match=r"outlay overflowed to inf \(inputs it scales with: level = "):
        min_duration_cost(params, 0.1, level)
    if duration == math.inf:
        with pytest.raises(InvalidParameterError, match=r"duration overflowed to inf \(inputs it scales with: gamma = "):
            min_duration(params, 0.1, level)
    else:
        assert repr(min_duration(params, 0.1, level)) == repr(duration)


def test_cost_matches_oracle_all_rows():
    for y0, levels in ((0.0, (0.6, 0.9, 1.2, 1.5, 2.0)), (0.125, (0.4, 0.8, 1.0, 1.3, 2.2))):
        for s in levels:
            duration = min_duration(PLANNER, y0, s)
            analytic = min_duration_cost(PLANNER, y0, s).value
            cls = ConstantLevelSubsidy(s, duration)
            sampled = integrate_ode(
                PLANNER, subsidy_schedule=cls, x0=y0,
                t_end=duration, dt=duration / 4000,
            )
            numeric = integrate_cost(sampled, cls)
            assert analytic == pytest.approx(numeric, abs=1e-5)


def test_cost_infeasible_rows_match_oracle():
    # Levels below the threshold subsidize a path that settles back to 0;
    # the outlay integral converges and matches a long-window quadrature.
    y0 = 0.125
    for s in (0.05, 0.2):
        analytic = min_duration_cost(PLANNER, y0, s).value
        cls = ConstantLevelSubsidy(s, 80.0)
        sampled = integrate_ode(
            PLANNER, subsidy_schedule=cls, x0=y0, t_end=80.0, dt=5e-3
        )
        numeric = integrate_cost(sampled, cls)
        assert analytic == pytest.approx(numeric, abs=1e-5)


def test_cost_continuity_at_finite_boundaries():
    for y0 in (0.0, 0.125):
        b1, s_hat, b3, b4 = subsidy_interval_bounds(PLANNER, y0)
        for boundary in (b1, b3, b4):
            if boundary <= 0.0 or boundary >= PLANNER.cost:
                continue
            if boundary == s_hat:
                continue  # outlay genuinely jumps or diverges there
            lo = min_duration_cost(PLANNER, y0, boundary - 1e-9).value
            hi = min_duration_cost(PLANNER, y0, boundary + 1e-9).value
            assert lo == pytest.approx(hi, abs=1e-6)


def test_cost_grows_toward_threshold_with_positive_start():
    # The outlay diverges (logarithmically) on both sides of the minimum
    # feasible level when the start level is positive.
    y0 = 0.125
    s_hat = min_subsidy(PLANNER, y0)
    below = [min_duration_cost(PLANNER, y0, s_hat * (1 - d)).value for d in (1e-2, 1e-4, 1e-6)]
    above = [min_duration_cost(PLANNER, y0, s_hat * (1 + d)).value for d in (1e-2, 1e-4, 1e-6)]
    assert below[0] < below[1] < below[2]
    assert above[0] < above[1] < above[2]


@pytest.mark.parametrize("num", [0, 1, 2, 3, 139, 512, 4096, 99_999])
def test_linspace_equals_numpy_bitwise(num):
    spans = [
        (0.0, 2.5), (-0.45, 3.0), (-3.7, -1.2), (2.0, -1.0), (1.0, 1.0), (-1e300, 1e300),
        (0.0, 5e-324), (5e-324, 3e-323), (-1e-320, 1e-320),  # subnormal spans
    ]
    for start, stop in spans:
        got = linspace(start, stop, num)
        assert all(type(x) is float for x in got)
        assert np.array(got).tobytes() == np.linspace(start, stop, num).tobytes(), (start, stop)


def test_linspace_refuses_a_negative_count():
    with pytest.raises(InvalidParameterError, match="num >= 0"):
        linspace(0.0, 1.0, -1)


def test_sweep_grid_and_flags():
    result = sweep(PLANNER, 0.0)
    levels = result.levels
    assert levels == sorted(set(levels))  # increasing: an index names a level
    for bound in (0.5, 0.75, 1.5):
        assert bound in levels  # analytic boundaries inserted exactly
    for level, duration in zip(levels, result.durations):
        assert (duration is not None) == (level > 0.5)
    assert len(result.frontier) >= 1
    assert result.frontier.stop <= len(levels)


def test_sweep_frontier_contains_cheapest():
    result = sweep(PLANNER, 0.0)
    feasible = [r for r in sweep_rows(result) if r.duration is not None and r.cost is not None]
    cheapest = min(feasible, key=lambda r: r.cost)
    assert result.dip_level == cheapest.level
    assert result.levels.index(cheapest.level) in result.frontier


def test_frontier_strict_tradeoff():
    result = sweep(PLANNER, 0.125)
    rows = sweep_rows(result)[result.frontier.start:result.frontier.stop]
    for a in rows:
        for b in rows:
            if a is b:
                continue
            assert (a.duration - b.duration) * (a.cost - b.cost) < 0


def test_frontier_matches_exhaustive_domination():
    # (level, duration, cost): levels 1.2 and 0.9 tie exactly, 1.0 and
    # 2.0 are dominated, 0.2 has no window.
    tie_rows = [SweepRow(*row) for row in ((1.2, 2.0, 1.0), (1.5, 1.0, 3.0), (0.9, 2.0, 1.0),
                                           (1.0, 2.0, 1.5), (2.0, 3.0, 1.0), (0.2, None, 0.1))]
    tie_frontier = pareto_frontier(tie_rows)
    assert [r.level for r in tie_frontier] == [1.5, 0.9]  # the tie keeps 0.9 only
    result = sweep(PLANNER, 0.0, grid_points=41)
    grid_rows = sweep_rows(result)
    grid_frontier = grid_rows[result.frontier.start:result.frontier.stop]
    for rows, frontier in ((grid_rows, grid_frontier), (tie_rows, tie_frontier)):
        feasible = [r for r in rows if r.duration is not None and r.cost is not None]

        def dominated(r):
            return any(
                (o.duration <= r.duration and o.cost < r.cost)
                or (o.duration < r.duration and o.cost <= r.cost)
                for o in feasible
            )

        expected = {r.level for r in feasible if not dominated(r)}
        got = {r.level for r in frontier}
        # Exact (duration, cost) ties collapse onto their smallest level.
        assert got <= expected
        kept = {(r.duration, r.cost): r.level for r in frontier}
        for level in expected - got:
            row = next(r for r in feasible if r.level == level)
            assert kept[row.duration, row.cost] < level


def test_cost_sign_pattern_example():
    for y0 in (0.0, 0.125):
        result = sweep(PLANNER, y0)
        assert False not in result.verdicts
        assert result.switch_count == 1
        assert result.dip_level is not None
        assert 0.75 <= result.dip_level <= (1.5 if y0 == 0.0 else 1.125)


@pytest.mark.parametrize("points", [0, 1, 2, 8, 41, 512])
def test_sweep_frontier_matches_dominance_scan(points):
    # The frontier, a run of grid indices, selects exactly the rows that
    # the dominance scan keeps, on PLANNER and random markets at both
    # kinds of start.  It ends at the b4 row, because every range-5 row
    # has its duration bit for bit and a higher outlay.
    rng = np.random.default_rng(4096)
    markets = [(PLANNER, 0.0), (PLANNER, 0.125)]
    for _ in range(20):
        params, y0 = random_planner_setup(rng, positive_y0=True)
        markets += [(params, 0.0), (params, y0)]
    for params, y0 in markets:
        result = sweep(params, y0, grid_points=points)
        rows = sweep_rows(result)
        assert result.frontier
        assert tuple(rows[i] for i in reversed(result.frontier)) == pareto_frontier(rows)
        top = result.frontier.stop
        assert result.regimes[top - 1] == 4
        assert set(result.durations[top:]) <= {result.durations[top - 1]}


def test_cost_dip_is_a_feasible_level():
    # Where b3 < s_hat the fourth range starts at s_hat, whose row is not
    # feasible; at y0 = 0 its outlay of 0 undercut every feasible row.
    rng = np.random.default_rng(2024)
    b3_below_s_hat = 0
    for _ in range(40):
        params, y_pos = random_planner_setup(rng, positive_y0=True)
        for y0 in (0.0, y_pos):
            result = sweep(params, y0, grid_points=129)
            _, s_hat, b3, _ = subsidy_interval_bounds(params, y0)
            b3_below_s_hat += b3 < s_hat
            assert result.dip_level > s_hat
            assert result.durations[result.frontier.start] is not None
    assert b3_below_s_hat >= 20


def test_planner_validation():
    with pytest.raises(AssumptionViolationError):
        min_subsidy(ModelParams(1, 2, 5.0, 3.0, 1.0), 0.0)
    with pytest.raises(InvalidParameterError):
        min_duration(PLANNER, 0.0, 3.5)  # level above cost
    with pytest.raises(InvalidParameterError):
        min_duration_cost(PLANNER, 0.0, -0.2)


def test_subsidized_trajectory_validation():
    with pytest.raises(InvalidParameterError):
        subsidized_trajectory(TIPPING, ConstantLevelSubsidy(4.0, 1.0), 0.25)
    with pytest.raises(InvalidParameterError):
        subsidized_trajectory(TIPPING, ConstantLevelSubsidy(1.0, 1.0), 1.5)
    # The path starts where the window opens.
    late = subsidized_trajectory(TIPPING, ConstantLevelSubsidy(1.0, 1.0, start=2.0), 0.25)
    assert late.start_time == 2.0 and 3.0 in late.breakpoints


def test_full_subsidy_threshold_already_passed_takes_no_time():
    # y0 = 0.45 lies above the lower band edge 1/3: log((1 - y0)/(1 - 1/3))
    # is negative, and the threshold is reached at once.
    params = ModelParams(1.0, 2.0, 3.0, 3.0, 1.0)
    report = full_subsidy_analysis(params, 0.0, 0.45, 0.5)
    assert report.to_band_low == 0.0
    assert report.to_interior == pytest.approx(math.log(0.55 / 0.5), abs=1e-15)
    assert report.to_band_high > report.to_interior


def test_window_end_rounding_onto_its_start_is_refused():
    with pytest.raises(InvalidParameterError, match="rounds away"):
        ConstantLevelSubsidy(1.0, 1.0, start=1e308)
    # A window of length 0 has no end to lose.
    assert ConstantLevelSubsidy(1.0, 0.0, start=1e308).end == 1e308


def test_planner_refuses_a_start_outside_the_unit_interval():
    # An impossible start is invalid input, as in unsubsidized_trajectory,
    # not an unsupported regime (exit 2, not 3), with no tolerance: one
    # rule, model.require_start, and one message.
    for y0 in (-0.1, 1.5, math.nextafter(1.0, 2.0), -5e-324):
        message = rf"^y0 must lie in \[0, 1\], got {re.escape(str(y0))}$"
        for planner in (min_subsidy, sweep):
            with pytest.raises(InvalidParameterError, match=message):
                planner(PLANNER, y0)
        with pytest.raises(InvalidParameterError, match=message):
            full_subsidy_analysis(TIPPING, 0.0, y0, 1.0)


def test_subsidized_trajectory_refuses_a_nan_start():
    # The window's path used to start from 0.0.
    for level, duration in ((1.0, 0.5), (0.0, 0.0)):
        with pytest.raises(InvalidParameterError, match=r"^x0 must lie in \[0, 1\], got nan$"):
            subsidized_trajectory(PLANNER, ConstantLevelSubsidy(level, duration), math.nan)


@pytest.mark.parametrize("duration", [math.nan, math.inf])
def test_full_subsidy_refuses_a_non_finite_duration_as_a_bad_duration(duration):
    # The window owns its length: a NaN or infinite one is refused as a
    # bad duration, not as an outlay that overflowed to inf.
    with pytest.raises(InvalidParameterError,
                       match=r"^subsidy duration must be finite and >= 0$"):
        full_subsidy_analysis(TIPPING, 0.0, 0.25, duration)


def test_planners_read_a_negative_zero_start_as_zero():
    # Range 1 pays s*y0/gamma: from -0.0 that outlay read -0.
    plus, minus = sweep(PLANNER, 0.0), sweep(PLANNER, -0.0)
    assert minus == plus
    assert all(math.copysign(1.0, v) == 1.0 for v in minus.outlays if v is not None)
    level = plus.levels[1]  # a range-1 level
    assert plus.regimes[1] == 1
    assert math.copysign(1.0, min_duration_cost(PLANNER, -0.0, level).value) == 1.0
    assert subsidy_interval_bounds(PLANNER, -0.0) == subsidy_interval_bounds(PLANNER, 0.0)

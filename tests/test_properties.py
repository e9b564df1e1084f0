"""Randomized cross-checks between the closed forms and the numeric oracle."""

import math

import numpy as np
import pytest
from conftest import max_gap, random_params, random_planner_setup, random_start
from reference import brute_force_equilibria, finite_diff, would_adopt

from netadopt import (
    ConstantLevelSubsidy,
    ModelParams,
    classify_equilibria,
    full_subsidy_analysis,
    integrate_cost,
    integrate_ode,
    interior_equilibrium,
    min_duration,
    min_duration_cost,
    min_subsidy,
    noext_cost_at_target,
    noext_required_duration,
    subsidized_trajectory,
    subsidy_interval_bounds,
    unsubsidized_trajectory,
)
from netadopt.closed_form import Segment, band_rate_step, hit_time


def max_oracle_gap(params, traj, schedule, t0, x0, t_end, dt=None):
    sampled = integrate_ode(
        params, subsidy_schedule=schedule, t0=t0, x0=x0, t_end=t_end,
        dt=dt if dt is not None else 1e-3 / params.gamma,
    )
    return max_gap(traj, sampled)


def test_classify_matches_brute_force():
    rng = np.random.default_rng(101)
    for i in range(80):
        params = random_params(rng, 1 + i % 4)
        report = classify_equilibria(params)
        found = brute_force_equilibria(params, grid_n=1500)
        assert len(found) == len(report.equilibria)
        for (level, stab), (blevel, bstab) in zip(report.equilibria, found):
            assert level == pytest.approx(blevel, abs=1e-9)
            assert stab == bstab
        # Constructed equilibria are fixed points to machine accuracy, and
        # the bistable label comes exactly with the three-point pattern.
        for level, _ in report.equilibria:
            assert abs(would_adopt(level, params) - level) <= 1e-12
        tristable = (
            len(report.equilibria) == 3
            and [s for _, s in report.equilibria] == ["stable", "unstable", "stable"]
        )
        assert (report.case_id == 3) == tristable
        if report.case_id == 3:
            assert 0.0 <= report.band_low <= report.interior
            assert report.interior <= report.band_high <= 1.0


def test_trajectories_match_rk4_over_long_horizon():
    rng = np.random.default_rng(202)
    for i in range(24):
        params = random_params(rng, 1 + i % 4)
        x0 = random_start(rng, params)
        traj = unsubsidized_trajectory(params, 0.0, x0)
        gap = max_oracle_gap(params, traj, None, 0.0, x0, 50.0 / params.gamma)
        assert gap <= 1e-6


def test_trajectory_field_residual():
    # Centered differences of the path recover gamma*(would_adopt - x)
    # away from the junctions.
    rng = np.random.default_rng(303)
    for i in range(20):
        params = random_params(rng, 1 + i % 4)
        x0 = random_start(rng, params)
        traj = unsubsidized_trajectory(params, 0.0, x0)
        h = 1e-6 / params.gamma
        for t in np.linspace(0.01, 30.0 / params.gamma, 57):
            t = float(t)
            if any(abs(t - b) < 10 * h for b in traj.breakpoints):
                continue
            if t - h < 0:
                continue
            slope = (traj.value(t + h) - traj.value(t - h)) / (2 * h)
            expected = params.gamma * (would_adopt(traj.value(t), params) - traj.value(t))
            assert slope == pytest.approx(expected, abs=1e-6)


def test_band_time_level_round_trip():
    rng = np.random.default_rng(404)
    for _ in range(60):
        params = random_params(rng, 3)
        low, high = params.band_low(), params.band_high()
        x0 = float(rng.uniform(low, high))
        target = float(rng.uniform(low, high))
        rate, step = band_rate_step(params, params.cost, x0)
        seg = Segment(0.0, x0, rate, step)
        t = hit_time(0.0, x0, rate, step, target)
        if t is not None:
            assert seg.value(t) == pytest.approx(target, abs=1e-9)
        # And in the time direction: hit the level reached at a given time.
        t_probe = float(rng.uniform(0.0, 2.0 / params.gamma))
        level = seg.value(t_probe)
        back = hit_time(0.0, x0, rate, step, level)
        if t_probe == 0.0 or level != x0:
            assert back == pytest.approx(t_probe, abs=1e-9)


def test_long_run_level_is_a_stable_equilibrium():
    rng = np.random.default_rng(505)
    for i in range(40):
        params = random_params(rng, 1 + i % 4)
        x0 = random_start(rng, params)
        traj = unsubsidized_trajectory(params, 0.0, x0)
        horizon = 60.0 / params.gamma
        level = traj.value(horizon)
        stable = [s for s, kind in classify_equilibria(params).equilibria if kind == "stable"]
        assert min(abs(level - s) for s in stable) <= 1e-9


def test_trajectories_stay_in_unit_interval():
    rng = np.random.default_rng(606)
    for i in range(40):
        params = random_params(rng, 1 + i % 4)
        x0 = random_start(rng, params)
        traj = unsubsidized_trajectory(params, 0.0, x0)
        for t in np.linspace(0.0, 80.0 / params.gamma, 160):
            v = traj.value(float(t))
            assert -1e-12 <= v <= 1 + 1e-12


def test_degenerate_drift_matches_rk4():
    # externality exactly equal to the affinity spread.
    rng = np.random.default_rng(707)
    for _ in range(6):
        u_min = float(rng.uniform(0.3, 1.5))
        spread = float(rng.uniform(0.5, 1.5))
        params = ModelParams(
            u_min, u_min + spread, u_min + 0.7 * spread, spread, float(rng.uniform(0.4, 2.0))
        )
        x0 = float(rng.uniform(0.0, 1.0))
        traj = unsubsidized_trajectory(params, 0.0, x0)
        assert any(s.rate == 0.0 for s in traj.segments) or len(traj.segments) == 1
        gap = max_oracle_gap(params, traj, None, 0.0, x0, 40.0 / params.gamma)
        assert gap <= 1e-6


def test_cls_composition_matches_rk4():
    rng = np.random.default_rng(808)
    for i in range(20):
        params = random_params(rng, 1 + i % 4)
        x0 = random_start(rng, params)
        cls = ConstantLevelSubsidy(
            float(rng.uniform(0.0, params.cost)),
            float(rng.uniform(0.2, 4.0)) / params.gamma,
        )
        traj = subsidized_trajectory(params, cls, x0)
        gap = max_oracle_gap(params, traj, cls, 0.0, x0, 30.0 / params.gamma)
        assert gap <= 1e-6


def test_full_subsidy_dichotomy_near_threshold():
    rng = np.random.default_rng(909)
    for _ in range(12):
        params, y0 = random_planner_setup(rng)
        tipping = full_subsidy_analysis(params, 0.0, y0, 1.0).to_interior
        longer = full_subsidy_analysis(params, 0.0, y0, tipping * 1.05)
        shorter = full_subsidy_analysis(params, 0.0, y0, tipping * 0.95)
        assert longer.final_equilibrium == 1.0
        assert shorter.final_equilibrium == 0.0


def test_full_subsidy_cost_matches_quadrature():
    rng = np.random.default_rng(111)
    for _ in range(10):
        params, y0 = random_planner_setup(rng)
        tipping = full_subsidy_analysis(params, 0.0, y0, 1.0).to_interior
        duration = float(rng.uniform(0.3, 1.5)) * tipping
        report = full_subsidy_analysis(params, 0.0, y0, duration)
        cls = ConstantLevelSubsidy(params.cost, duration)
        sampled = integrate_ode(
            params, subsidy_schedule=cls, x0=y0, t_end=duration, dt=duration / 4000
        )
        assert report.cost == pytest.approx(integrate_cost(sampled, cls), abs=1e-5)


def test_min_duration_window_ends_on_boundary_and_tips():
    rng = np.random.default_rng(222)
    for _ in range(15):
        params, y0 = random_planner_setup(rng)
        x_int = interior_equilibrium(params.cost, params)
        s_hat = min_subsidy(params, y0)
        level = float(rng.uniform(s_hat + 0.05 * (params.cost - s_hat), params.cost))
        duration = min_duration(params, y0, level)
        traj = subsidized_trajectory(params, ConstantLevelSubsidy(level, duration), y0)
        end_level = traj.value(duration)
        assert end_level == pytest.approx(x_int, abs=1e-9)
        # A nudge past the boundary tips the plain dynamics to 1.
        nudged = unsubsidized_trajectory(params, 0.0, min(1.0, end_level + 1e-6))
        assert nudged.final_level == 1.0


def test_min_duration_monotone_and_cost_sign_claims():
    rng = np.random.default_rng(333)
    for _ in range(10):
        params, y0 = random_planner_setup(rng, positive_y0=True)
        s_hat = min_subsidy(params, y0)
        grid = np.linspace(s_hat * 1.001 + 1e-9, params.cost, 60)
        durations = [min_duration(params, y0, float(s)) for s in grid]
        assert all(d is not None for d in durations)
        assert all(b <= a + 1e-9 for a, b in zip(durations, durations[1:]))


def test_min_duration_cost_matches_quadrature_random():
    rng = np.random.default_rng(444)
    for _ in range(8):
        params, y0 = random_planner_setup(rng)
        s_hat = min_subsidy(params, y0)
        for frac in (0.3, 0.6, 0.9):
            level = s_hat + frac * (params.cost - s_hat)
            duration = min_duration(params, y0, level)
            analytic = min_duration_cost(params, y0, level).value
            cls = ConstantLevelSubsidy(level, duration)
            sampled = integrate_ode(
                params, subsidy_schedule=cls, x0=y0,
                t_end=duration, dt=duration / 4000,
            )
            assert analytic == pytest.approx(integrate_cost(sampled, cls), abs=1e-5)


def test_cost_continuity_random_boundaries():
    rng = np.random.default_rng(555)
    for _ in range(10):
        params, y0 = random_planner_setup(rng, positive_y0=True)
        b1, s_hat, b3, b4 = subsidy_interval_bounds(params, y0)
        for boundary in (b1, b3, b4):
            if not 1e-6 < boundary < params.cost - 1e-6 or boundary == s_hat:
                continue
            lo = min_duration_cost(params, y0, boundary * (1 - 1e-9)).value
            hi = min_duration_cost(params, y0, boundary * (1 + 1e-9)).value
            assert lo == pytest.approx(hi, abs=1e-6)


def test_noext_duration_nonincreasing_in_level():
    rng = np.random.default_rng(666)
    for _ in range(25):
        u_min = float(rng.uniform(0.0, 2.0))
        u_max = u_min + float(rng.uniform(0.5, 3.0))
        c = float(rng.uniform(u_min + 0.3, u_max + 1.0))
        gamma = float(rng.uniform(0.3, 2.0))
        params = ModelParams(u_min, u_max, c, 0.0, gamma)
        y0 = float(rng.uniform(0.0, 0.3))
        target = float(rng.uniform(y0 + 0.05, 0.9))
        f = lambda s: noext_required_duration(params, y0, s, target)
        grid = [s for s in np.linspace(0.0, c, 40) if f(float(s)) is not None]
        for a, b in zip(grid, grid[1:]):
            fa, fb = f(float(a)), f(float(b))
            assert fb <= fa + 1e-9

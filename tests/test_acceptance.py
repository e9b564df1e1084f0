"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
come.  Each criterion carries its tolerance and a runtime budget.
"""

import math
import time

import numpy as np
import pytest
from conftest import max_gap, random_params, random_planner_setup, random_start
from reference import brute_force_equilibria, finite_diff, range4_switch_count

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
    noext_cost_decreasing_condition,
    noext_required_duration,
    subsidized_trajectory,
    subsidy_interval_bounds,
    sweep,
    unsubsidized_trajectory,
)

TIPPING = ModelParams(1.0, 2.0, 3.0, 3.0, 1.0 / 3.0)
PLANNER = ModelParams(1.0, 2.0, 2.5, 3.0, 1.0)


def _report(num: int, failures: list[str], elapsed: float, budget: float) -> None:
    ok = not failures and elapsed < budget
    status = "PASS" if ok else "FAIL"
    detail = "" if not failures else f" [{'; '.join(failures[:4])}]"
    print(f"ACCEPTANCE {num}: {status} ({elapsed:.2f}s, budget {budget:.0f}s){detail}")
    assert not failures, f"criterion {num}: {failures}"
    assert elapsed < budget, f"criterion {num} runtime {elapsed:.2f}s over {budget}s"


def test_criterion_1_regime_table():
    start = time.perf_counter()
    failures: list[str] = []
    rows = [
        (ModelParams(1, 2, 5.0, 2.0, 1.0), 1, 3.0, 1.5, 2.0),
        (ModelParams(1, 2, 1.75, 0.5, 1.0), 2, 0.5, -0.5, 1.5),
        (ModelParams(1, 2, 2.5, 2.0, 1.0), 3, 0.5, 0.25, 0.75),
        (ModelParams(1, 2, 1.0, 0.5, 1.0), 4, 2.0, -2.0, 0.0),
    ]
    for params, case, interior, band_low, band_high in rows:
        report = classify_equilibria(params)
        if report.case_id != case:
            failures.append(f"case {case} misclassified as {report.case_id}")
        for name, got, want in (
            ("interior", report.interior, interior),
            ("band_low", report.band_low, band_low),
            ("band_high", report.band_high, band_high),
        ):
            if abs(got - want) > 1e-12:
                failures.append(f"case {case} {name}: {got} != {want}")
    _report(1, failures, time.perf_counter() - start, 1.0)


def test_criterion_2_full_subsidy_thresholds():
    start = time.perf_counter()
    failures: list[str] = []
    base = full_subsidy_analysis(TIPPING, 0.0, 0.25, 1.0)
    lo, mid, hi = base.to_band_low, base.to_interior, base.to_band_high
    for name, got, want in (
        ("to_band_low", lo, 0.353),
        ("to_interior", mid, 1.216),
        ("to_band_high", hi, 2.433),
    ):
        if abs(got - want) > 1e-3:
            failures.append(f"{name} {got} vs {want}")
    durations = [
        0.0, lo / 2, (lo + mid) / 2, 0.95 * mid, 1.05 * mid,
        (mid + hi) / 2, (3 * hi - mid) / 2,
    ]
    published = [0.0, 0.177, 0.785, 1.156, 1.277, 1.824, 3.041]
    for k, (got, want) in enumerate(zip(durations, published), start=1):
        if abs(got - want) > 1e-3:
            failures.append(f"duration_{k} {got} vs {want}")
    for duration in durations:
        report = full_subsidy_analysis(TIPPING, 0.0, 0.25, duration)
        want = 0.0 if duration < mid else 1.0
        if report.final_equilibrium != want:
            failures.append(f"T={duration}: final {report.final_equilibrium} != {want}")
    _report(2, failures, time.perf_counter() - start, 1.0)


def test_criterion_3_planner_sweep():
    start = time.perf_counter()
    failures: list[str] = []
    e = PLANNER.externality
    for y0, s_hat_norm, b4_norm in ((0.0, 1.0 / 6.0, 0.5), (0.125, 1.0 / 12.0, 0.375)):
        if min_subsidy(PLANNER, y0) / e != s_hat_norm:
            failures.append(f"min_subsidy norm y0={y0}")
        b1, s_hat, b3, b4 = subsidy_interval_bounds(PLANNER, y0)
        if b3 / e != 0.25 or b4 / e != b4_norm or PLANNER.cost / e != 5.0 / 6.0:
            failures.append(f"interval bounds y0={y0}")

        result = sweep(PLANNER, y0)
        if y0 == 0.0:
            flat = [(s, d) for s, d in zip(result.levels, result.durations) if s > b4]
            if not flat:
                failures.append("no rows on the flat range")
            for s, d in flat:
                if abs(d - math.log(4.0 / 3.0)) > 1e-9:
                    failures.append(f"flat duration off at s={s}")
                    break

        # Outlay continuity across the finite formula boundaries.
        for boundary in (b1, b3, b4):
            if not 0.0 < boundary < PLANNER.cost or boundary == s_hat:
                continue
            a = min_duration_cost(PLANNER, y0, boundary * (1 - 1e-9)).value
            b = min_duration_cost(PLANNER, y0, boundary * (1 + 1e-9)).value
            if abs(a - b) > 1e-6:
                failures.append(f"cost jump {abs(a - b):.2e} at {boundary} (y0={y0})")

        if False in result.verdicts:
            failures.append(f"sign pattern y0={y0}: {result.verdicts}")
        switches = range4_switch_count(result.regimes, result.outlays)
        if switches != 1:
            failures.append(f"dip switches y0={y0}: {switches}")
    _report(3, failures, time.perf_counter() - start, 5.0)


def test_criterion_4_noext_feasibility_and_cost_growth():
    start = time.perf_counter()
    failures: list[str] = []
    wide = ModelParams(1.0, 6.0, 3.0, 0.0, 1.0)
    if noext_required_duration(wide, 0.0, -0.49, 0.5) is None:
        failures.append("duration should be finite just above -1/2")
    for s in (-0.5, -0.51):
        if noext_required_duration(wide, 0.0, s, 0.5) is not None:
            failures.append(f"duration should be infeasible at s={s}")
    costs = [
        noext_cost_at_target(wide, 0.0, float(s), 0.5)
        for s in np.linspace(0.01, 2.0, 100)
    ]
    if any(c is None for c in costs):
        failures.append("cost undefined on the grid")
    elif not all(b > a for a, b in zip(costs, costs[1:])):
        failures.append("cost not strictly increasing on [0.01, 2]")
    _report(4, failures, time.perf_counter() - start, 1.0)


def _max_gap(params, traj, schedule, x0, t_end, n=None):
    dt = 1e-3 / params.gamma
    if n is None:
        n = max(100, math.ceil(t_end / dt))
    sampled = integrate_ode(
        params, subsidy_schedule=schedule, t0=0.0, x0=x0, t_end=t_end, dt=t_end / n
    )
    return max_gap(traj, sampled)


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    failures: list[str] = []
    rng = np.random.default_rng(20240917)
    worst_traj, worst_cost = 0.0, 0.0
    for i in range(200):
        case = 1 + i % 4
        params = random_params(rng, case)
        x0 = random_start(rng, params)
        gamma = params.gamma

        traj = unsubsidized_trajectory(params, 0.0, x0)
        worst_traj = max(worst_traj, _max_gap(params, traj, None, x0, 30.0 / gamma))

        if case != 3:
            # General constant-level window over the plain dynamics.
            cls = ConstantLevelSubsidy(
                float(rng.uniform(0.2, 0.9)) * params.cost,
                float(rng.uniform(0.5, 3.0)) / gamma,
            )
            sub = subsidized_trajectory(params, cls, x0)
            worst_traj = max(
                worst_traj, _max_gap(params, sub, cls, x0, cls.duration + 20.0 / gamma)
            )
            continue

        x_int = interior_equilibrium(params.cost, params)
        y0 = float(rng.uniform(0.0, max(1e-6, x_int - 0.06)))
        if i % 2 == 0:
            # Full-cost subsidy, window length away from the tipping length
            # (at the knife edge the comparison is ill-conditioned).
            tipping = full_subsidy_analysis(params, 0.0, y0, 1.0).to_interior
            factor = float(rng.uniform(0.4, 0.85)) if i % 4 == 0 else float(rng.uniform(1.15, 1.5))
            report = full_subsidy_analysis(params, 0.0, y0, factor * tipping)
            cls = ConstantLevelSubsidy(params.cost, report.duration)
            worst_traj = max(
                worst_traj,
                _max_gap(params, report.trajectory, cls, y0,
                         report.duration + 20.0 / gamma),
            )
            window = integrate_ode(
                params, subsidy_schedule=cls, x0=y0,
                t_end=report.duration,
                dt=report.duration / max(100, math.ceil(report.duration * gamma / 1e-3)),
            )
            worst_cost = max(
                worst_cost, abs(report.cost - integrate_cost(window, cls))
            )
        else:
            s_hat = min_subsidy(params, y0)
            level = float(rng.uniform(s_hat + 0.1 * (params.cost - s_hat), params.cost))
            duration = min_duration(params, y0, level)
            cls = ConstantLevelSubsidy(level, duration)
            traj = subsidized_trajectory(params, cls, y0)
            worst_traj = max(
                worst_traj, _max_gap(params, traj, cls, y0, duration)
            )
            window = integrate_ode(
                params, subsidy_schedule=cls, x0=y0, t_end=duration,
                dt=duration / max(100, math.ceil(duration * gamma / 1e-3)),
            )
            analytic = min_duration_cost(params, y0, level).value
            worst_cost = max(
                worst_cost, abs(analytic - integrate_cost(window, cls))
            )
    if worst_traj > 1e-6:
        failures.append(f"trajectory gap {worst_traj:.2e} > 1e-6")
    if worst_cost > 1e-5:
        failures.append(f"cost gap {worst_cost:.2e} > 1e-5")
    elapsed = time.perf_counter() - start
    print(f"  criterion 5 gaps: trajectory {worst_traj:.2e}, cost {worst_cost:.2e}")
    _report(5, failures, elapsed, 60.0)


def test_criterion_6_derivative_claims():
    start = time.perf_counter()
    failures: list[str] = []
    rng = np.random.default_rng(77)

    # Window length to a target never grows with the level (e == 0).
    for _ in range(50):
        u_min = float(rng.uniform(0.0, 2.0))
        u_max = u_min + float(rng.uniform(0.5, 3.0))
        c = float(rng.uniform(u_min + 0.3, u_max + 1.0))
        gamma = float(rng.uniform(0.3, 2.0))
        market = ModelParams(u_min, u_max, c, 0.0, gamma)
        y0 = float(rng.uniform(0.0, 0.3))
        target = float(rng.uniform(y0 + 0.05, 0.9))
        f = lambda s: noext_required_duration(market, y0, s, target)
        h = 1e-5
        for s in np.linspace(0.0, c, 12):
            s = float(s)
            if f(s - h) is None or f(s + h) is None:
                continue
            if finite_diff(f, s, h) > 1e-9:
                failures.append(f"noext duration rises at s={s}")
                break

    # Sufficient condition for a falling outlay, checked wherever it holds
    # and the target stays reachable around the probe.
    checked = 0
    for _ in range(50):
        u_min = float(rng.uniform(0.0, 1.5))
        u_max = u_min + float(rng.uniform(0.4, 1.5))
        c = u_max + float(rng.uniform(0.2, 1.5))  # u_max < cost
        gamma = float(rng.uniform(0.3, 2.0))
        market = ModelParams(u_min, u_max, c, 0.0, gamma)
        y0 = 0.0
        target = float(rng.uniform(0.1, 0.6))
        f = lambda s: noext_cost_at_target(market, y0, s, target)
        h = 1e-6
        for s in np.linspace(0.05, c - 0.05, 24):
            s = float(s)
            if not noext_cost_decreasing_condition(market, s):
                continue
            if f(s - h) is None or f(s + h) is None:
                continue
            checked += 1
            if finite_diff(f, s, h) >= 0:
                failures.append(f"outlay not falling under the condition at s={s}")
                break
    if checked < 50:
        failures.append(f"too few condition probes ({checked})")

    # Minimum window length never grows with the level, and is flat on top.
    for _ in range(50):
        params, y0 = random_planner_setup(rng)
        s_hat = min_subsidy(params, y0)
        grid = np.linspace(s_hat + 0.02 * (params.cost - s_hat), params.cost, 40)
        durations = [min_duration(params, y0, float(s)) for s in grid]
        if any(d is None for d in durations):
            failures.append("unexpected infeasible level above the threshold")
            continue
        if any(b > a + 1e-9 for a, b in zip(durations, durations[1:])):
            failures.append("duration increased with the level")
        _, _, _, b4 = subsidy_interval_bounds(params, y0)
        top = [d for s, d in zip(grid, durations) if s > b4 + 1e-9]
        if top and max(top) - min(top) > 1e-9:
            failures.append("duration not flat past the out-of-band bound")

    # Outlay slope signs across the five level ranges.
    for k in range(50):
        params, y0 = random_planner_setup(rng, positive_y0=(k % 2 == 0))
        verdicts = sweep(params, y0, grid_points=160).verdicts
        if False in verdicts:
            failures.append(f"sign pattern violated: {verdicts}")
    _report(6, failures, time.perf_counter() - start, 30.0)


def test_criterion_7_brute_force_agreement():
    start = time.perf_counter()
    failures: list[str] = []
    rng = np.random.default_rng(4242)
    for i in range(500):
        if i % 10 == 9:
            # No network effect: single equilibrium at the intent level.
            u_min = float(rng.uniform(0.0, 2.0))
            u_max = u_min + float(rng.uniform(0.5, 2.0))
            c = float(rng.uniform(u_min + 0.05, u_max - 0.05))
            params = ModelParams(u_min, u_max, c, 0.0, 1.0)
        else:
            params = random_params(rng, 1 + i % 4)
        report = classify_equilibria(params)
        found = brute_force_equilibria(params, grid_n=1200)
        if len(found) != len(report.equilibria):
            failures.append(f"set size mismatch for {params}")
            continue
        for (level, stab), (blevel, bstab) in zip(report.equilibria, found):
            if abs(level - blevel) > 1e-9 or stab != bstab:
                failures.append(f"mismatch at {level} for {params}")
                break
    _report(7, failures, time.perf_counter() - start, 10.0)

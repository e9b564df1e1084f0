import math

import numpy as np
import pytest

from netadopt import (
    ConstantLevelSubsidy,
    InvalidParameterError,
    InvalidStepError,
    ModelParams,
    full_subsidy_analysis,
    integrate_cost,
    integrate_ode,
    min_duration,
    min_duration_cost,
)
from netadopt.oracle import brute_force_equilibria, finite_diff, first_passage

TIPPING = ModelParams(1.0, 2.0, 3.0, 3.0, 1.0 / 3.0)
PLANNER = ModelParams(1.0, 2.0, 2.5, 3.0, 1.0)


def test_integrate_constant_at_equilibrium():
    sampled = integrate_ode(TIPPING, x0=0.5, t_end=20.0)
    assert np.max(np.abs(np.asarray(sampled.levels) - 0.5)) <= 1e-10


def test_integrate_matches_decay():
    sampled = integrate_ode(TIPPING, x0=0.25, t_end=3.0)
    assert sampled.levels[-1] == pytest.approx(0.25 * math.exp(-1.0), abs=1e-6)


def test_integrate_full_subsidy_is_pure_climb():
    params = ModelParams(0.0, 1.0, 0.5, 0.0, 1.0)
    cls = ConstantLevelSubsidy(0.5, 50.0)
    sampled = integrate_ode(params, cls, t_end=5.0)
    for t, x in zip(sampled.times, sampled.levels):
        assert x == pytest.approx(1.0 - math.exp(-t), abs=1e-6)


def test_integrate_step_validation():
    with pytest.raises(InvalidStepError):
        integrate_ode(TIPPING, dt=0.1, t_end=1.0)  # dt*gamma > 1e-2
    with pytest.raises(InvalidStepError):
        integrate_ode(TIPPING, t_end=0.0)
    # Step counts past the ceiling, or too large to count, are refused
    # before any sample is allocated.
    for t_end in (1e300, 1e308):
        with pytest.raises(InvalidStepError, match="exceeds the limit"):
            integrate_ode(TIPPING, t_end=t_end, dt=0.01)


def _rk4_const_cost(ccdf, ceff, e, gamma, x, h):
    """Reference: one RK4 step of xdot = gamma*(ccdf(ceff - e*x) - x)."""
    if h == 0.0:
        return x
    k1 = gamma * (ccdf(ceff - e * x) - x)
    x2 = x + 0.5 * h * k1
    k2 = gamma * (ccdf(ceff - e * x2) - x2)
    x3 = x + 0.5 * h * k2
    k3 = gamma * (ccdf(ceff - e * x3) - x3)
    x4 = x + h * k3
    k4 = gamma * (ccdf(ceff - e * x4) - x4)
    return x + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def _reference_levels(params, schedule, t0, x0, t_end, dt):
    """Reference: the phase-by-phase scalar-step loop, one call per step."""
    ccdf = params.affinity.ccdf
    n = max(1, round((t_end - t0) / dt))
    t_end = t0 + n * dt
    level, start, end = (
        (0.0, t0, t0) if schedule is None
        else (schedule.level, schedule.start, schedule.end)
    )
    edges = [t0, *sorted({b for b in (start, end) if t0 < b < t_end}), t_end]
    levels = [x0]
    x, t, i = x0, t0, 1
    for a, b in zip(edges, edges[1:]):
        ceff = params.cost - (level if start <= 0.5 * (a + b) <= end else 0.0)
        while i <= n and t0 + i * dt <= b:
            x = _rk4_const_cost(ccdf, ceff, params.externality, params.gamma, x,
                                t0 + i * dt - t)
            t = t0 + i * dt
            levels.append(x)
            i += 1
        if t < b:
            x = _rk4_const_cost(ccdf, ceff, params.externality, params.gamma, x, b - t)
            t = b
    return np.array(levels)


@pytest.mark.parametrize("schedule, t0, x0, t_end", [
    (None, 0.0, 0.2, 6.0),  # no window: falls through the band toward 0
    (ConstantLevelSubsidy(1.0, 1.5), 0.0, 0.0, 4.0),  # edges on grid times
    (ConstantLevelSubsidy(0.7, 0.77031, start=0.30037), 0.1, 0.05, 3.0),  # between them
])
def test_integrate_ode_matches_scalar_steps_bitwise(schedule, t0, x0, t_end):
    sampled = integrate_ode(PLANNER, subsidy_schedule=schedule, t0=t0, x0=x0,
                            t_end=t_end, dt=1e-3)
    expected = _reference_levels(PLANNER, schedule, t0, x0, t_end, 1e-3)
    assert sampled.levels.tobytes() == expected.tobytes()
    # The samples take at least two of the uniform ccdf's three branches.
    ceff = np.full(len(sampled.levels), PLANNER.cost)
    if schedule is not None:
        times = np.asarray(sampled.times)
        ceff[(times >= schedule.start) & (times <= schedule.end)] -= schedule.level
    u = ceff - PLANNER.externality * np.asarray(sampled.levels)
    branches = [u <= PLANNER.u_min, (u > PLANNER.u_min) & (u < PLANNER.u_max),
                u >= PLANNER.u_max]
    assert sum(b.any() for b in branches) >= 2


def test_rk4_self_convergence():
    # Smooth span (no band crossing): halving dt cuts deviation by >= 8x.
    devs = {}
    runs = {
        k: integrate_ode(TIPPING, x0=0.25, t_end=2.0, dt=6e-3 / k) for k in (1, 2, 4)
    }
    devs[1] = max(
        abs(a - b) for a, b in zip(runs[1].levels, runs[2].levels[::2])
    )
    devs[2] = max(
        abs(a - b) for a, b in zip(runs[2].levels, runs[4].levels[::2])
    )
    assert devs[1] / devs[2] >= 8.0


def test_integrate_cost_zero_schedule():
    sampled = integrate_ode(TIPPING, x0=0.25, t_end=2.0)
    assert integrate_cost(sampled, None) == 0.0
    assert integrate_cost(sampled, ConstantLevelSubsidy(0.0, 1.0)) == 0.0


def test_integrate_cost_full_subsidy_threshold():
    # Frozen from the closed form c*(T - (1-y0)(1-e^{-gamma T})/gamma)
    # at the tipping duration; the quadrature must agree.
    report = full_subsidy_analysis(TIPPING, 0.0, 0.25, 1.2163953243244932)
    assert report.cost == pytest.approx(1.3991859729734795, abs=1e-12)
    cls = ConstantLevelSubsidy(3.0, report.duration)
    sampled = integrate_ode(
        TIPPING, subsidy_schedule=cls, x0=0.25,
        t_end=report.duration, dt=report.duration / 2048,
    )
    assert integrate_cost(sampled, cls) == pytest.approx(report.cost, abs=1e-4)


def test_integrate_cost_noext_window():
    # Affinities on [0, 1], half cost fully subsidized for one time unit.
    params = ModelParams(0.0, 1.0, 0.5, 0.0, 1.0)
    cls = ConstantLevelSubsidy(0.5, 1.0)
    sampled = integrate_ode(params, subsidy_schedule=cls, t_end=1.0, dt=1e-3)
    expected = 0.18393972058572117  # 0.5 * (1 - (1 - e^{-1}))
    assert integrate_cost(sampled, cls) == pytest.approx(expected, abs=1e-5)


def test_integrate_cost_unaligned_window():
    # Window end between samples: trapezoid remainder keeps it accurate.
    params = ModelParams(0.0, 1.0, 0.5, 0.0, 1.0)
    cls = ConstantLevelSubsidy(0.5, 0.7703)
    sampled = integrate_ode(params, subsidy_schedule=cls, t_end=2.0, dt=1e-3)
    exact = 0.5 * (0.7703 - (1 - math.exp(-0.7703)))
    assert integrate_cost(sampled, cls) == pytest.approx(exact, abs=1e-6)


def test_brute_force_equilibria_sets():
    found = brute_force_equilibria(ModelParams(1, 2, 2.5, 2.0, 1))
    assert [round(x, 9) for x, _ in found] == [0.0, 0.5, 1.0]
    assert [s for _, s in found] == ["stable", "unstable", "stable"]
    assert [x for x, _ in brute_force_equilibria(ModelParams(1, 2, 5.0, 2.0, 1))] == [0.0]
    only_full = brute_force_equilibria(ModelParams(1, 2, 1.0, 0.5, 1))
    assert [round(x, 9) for x, _ in only_full] == [1.0]


def test_brute_force_grid_precondition():
    with pytest.raises(InvalidParameterError):
        brute_force_equilibria(TIPPING, grid_n=500)


def test_finite_diff_square():
    assert finite_diff(lambda s: s * s, 1.0, 1e-5) == pytest.approx(2.0, abs=1e-8)


def test_finite_diff_cost_slope_on_linear_range():
    # On the top range the outlay is linear in the level with slope
    # log(4/3) - 1/4.
    f = lambda s: min_duration_cost(PLANNER, 0.0, s).value
    slope = finite_diff(f, 2.0, 1e-4)
    assert slope == pytest.approx(math.log(4 / 3) - 0.25, abs=1e-9)
    assert slope > 0


def test_finite_diff_duration_flat_on_top_range():
    f = lambda s: min_duration(PLANNER, 0.0, s)
    assert finite_diff(f, 2.0, 1e-4) == pytest.approx(0.0, abs=1e-6)


def test_first_passage_examples():
    cls = ConstantLevelSubsidy(2.0, 5.0)
    sampled = integrate_ode(PLANNER, subsidy_schedule=cls, x0=0.0, t_end=1.0, dt=1e-3)
    assert first_passage(sampled, 0.25) == pytest.approx(math.log(4 / 3), abs=1e-5)
    assert first_passage(sampled, 0.0) == 0.0
    decay = integrate_ode(TIPPING, x0=0.25, t_end=30.0)
    assert first_passage(decay, 0.5) is None

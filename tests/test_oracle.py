import math

import numpy as np
import pytest

from netadopt import (
    ConstantLevelSubsidy,
    InvalidParameterError,
    InvalidStepError,
    ModelParams,
    brute_force_equilibria,
    finite_diff,
    first_passage,
    full_subsidy_analysis,
    integrate_cost,
    integrate_ode,
    min_duration,
    min_duration_cost,
)

TIPPING = ModelParams(1.0, 2.0, 3.0, 3.0, 1.0 / 3.0)
PLANNER = ModelParams(1.0, 2.0, 2.5, 3.0, 1.0)


def test_integrate_constant_at_equilibrium():
    sampled = integrate_ode(TIPPING, x0=0.5, t_end=20.0)
    assert np.max(np.abs(sampled.levels - 0.5)) <= 1e-10


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

import math
import tracemalloc
from array import array
from fractions import Fraction

import numpy as np
import pytest
from conftest import max_gap, random_params, random_start, sample_times
from reference import brute_force_equilibria, finite_diff, first_passage

from netadopt import (
    ConstantLevelSubsidy,
    InvalidParameterError,
    InvalidStepError,
    ModelParams,
    SampledTrajectory,
    full_subsidy_analysis,
    integrate_cost,
    integrate_ode,
    min_duration,
    min_duration_cost,
    subsidized_trajectory,
)

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
    for t, x in zip(sample_times(sampled), sampled.levels):
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


def test_integrate_refuses_non_finite_levels():
    # A non-finite start is refused, and so is a run whose levels
    # overflow: at gamma = 3 the field at x0 = +-1e308 is infinite.  Both
    # used to return NaN levels.
    for x0 in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidStepError, match="x0 must be finite"):
            integrate_ode(TIPPING, x0=x0, t_end=1.0)
    for x0 in (1e308, -1e308):
        with pytest.raises(InvalidStepError, match="not finite at t_end"):
            integrate_ode(ModelParams(1.0, 2.0, 3.0, 3.0, 3.0), x0=x0, t_end=1.0)
    # Far from full adoption but finite, the path still decays toward 1.
    assert 1.0 < integrate_ode(TIPPING, x0=1e308, t_end=1.0).levels[-1] < 1e308


def _branch(params, ceff, x):
    """The ccdf's branch at level x, named by its value there: 1.0 or 0.0
    on a clamp, None in the band."""
    u = ceff - params.externality * x
    return 1.0 if u <= params.u_min else 0.0 if u >= params.u_max else None


def _rk4_on_branch(params, ceff, c, x, h):
    """Reference: one RK4 step of xdot = gamma*(ccdf - x), every stage on
    branch c.  There the field is affine with slope lam, and the four
    stages sum to one evaluation times h*P(h*lam)."""
    e, gamma, u_max = params.externality, params.gamma, params.u_max
    spread = u_max - params.u_min
    lam = -gamma if c is not None else gamma * (e / spread - 1.0)
    z = h * lam
    p = c if c is not None else (u_max - (ceff - e * x)) / spread
    return x + h * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z * (1.0 / 24.0)))) * (gamma * (p - x))


def _split_step(params, ceff, x, h):
    """Reference: one RK4 step on the branch where it starts; a step that
    ends on another branch is cut where it leaves (48 bisections of its
    length) and finished on the new one.  Returns the state and the cuts."""
    c = _branch(params, ceff, x)
    y = _rk4_on_branch(params, ceff, c, x, h)
    cuts = 0
    while cuts < 2 and _branch(params, ceff, y) != c:
        lo, hi = 0.0, h
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            if _branch(params, ceff, _rk4_on_branch(params, ceff, c, x, mid)) == c:
                lo = mid
            else:
                hi = mid
        x = _rk4_on_branch(params, ceff, c, x, hi)
        h -= hi
        cuts += 1
        c = _branch(params, ceff, x)
        y = _rk4_on_branch(params, ceff, c, x, h)
    return y, cuts


def _reference_levels(params, schedule, t0, x0, t_end, dt):
    """Reference: the phase-by-phase scalar-step loop, one call per step.
    A step from a grid time has length dt; one from a phase edge runs to
    the next grid time.  Returns the levels and the cuts of each step."""
    n = max(1, round((t_end - t0) / dt))
    t_end = t0 + n * dt
    level, start, end = (
        (0.0, t0, t0) if schedule is None
        else (schedule.level, schedule.start, schedule.end)
    )
    edges = [t0, *sorted({b for b in (start, end) if t0 < b < t_end}), t_end]
    levels = [x0]
    cuts = []
    x, t, i = x0, t0, 1
    for a, b in zip(edges, edges[1:]):
        ceff = params.cost - (level if start <= 0.5 * (a + b) <= end else 0.0)
        while i <= n and t0 + i * dt <= b:
            h = dt if t == t0 + (i - 1) * dt else t0 + i * dt - t
            x, k = _split_step(params, ceff, x, h)
            cuts.append(k)
            t = t0 + i * dt
            levels.append(x)
            i += 1
        if t < b:
            x, k = _split_step(params, ceff, x, b - t)
            cuts.append(k)
            t = b
    return np.array(levels), cuts


NOEXT = ModelParams(0.0, 1.0, 0.5, 0.0, 1.0)
# Only empty adoption is an equilibrium; full adoption holds only while
# subsidized.
LOWEXT = ModelParams(1.0, 2.0, 2.5, 1.0, 1.0)
# The band [1.5, 1.501] is narrower than one step of a path falling from 2.
NARROW = ModelParams(1.0, 1.001, 2.501, 1.0, 1.0)
# Regime 2: one stable equilibrium, 0.5, inside the band.
REGIME2 = ModelParams(1.0, 2.0, 1.75, 0.5, 1.0)


# kinks: the kinks each crossing step is split at, in order.  settles:
# whether the run reaches a fixed point of the step, which the oracle fills.
@pytest.mark.parametrize("schedule, t0, x0, t_end, params, dt, kinks, settles", [
    # The first three keep their original ids.
    pytest.param(None, 0.0, 0.2, 6.0, PLANNER, 1e-3,  # falls through the band toward 0
                 (1,), False, id="None-0.0-0.2-6.0"),
    pytest.param(ConstantLevelSubsidy(1.0, 1.5), 0.0, 0.0, 4.0, PLANNER, 1e-3,
                 (1,), False, id="schedule1-0.0-0.0-4.0"),  # edges on grid times
    pytest.param(ConstantLevelSubsidy(0.7, 0.77031, start=0.30037), 0.1, 0.05, 3.0,
                 PLANNER, 1e-3, (1, 1), False,
                 id="schedule2-0.1-0.05-3.0"),  # edges between them
    # e = 0: the ccdf is constant in x within each phase.
    pytest.param(ConstantLevelSubsidy(0.5, 1.0, start=0.5003), 0.0, 0.2, 3.0, NOEXT, 1e-3,
                 (), False, id="no-externality"),
    # Climbs through the band onto the top clamp.
    pytest.param(None, 0.0, 0.3, 4.0, PLANNER, 1e-3, (1,), False, id="climb-to-top-clamp"),
    # Climbs in the window, then falls onto the bottom clamp after it.
    pytest.param(ConstantLevelSubsidy(0.35, 0.5), 0.0, 0.1, 3.0, PLANNER, 1e-3,
                 (), False, id="fall-to-bottom-clamp"),
    # Starts on a clamp: on the top one until the window ends, on the
    # bottom one until it starts (from -0.0 on the second case).  The
    # window start 0.009 lies just below the grid time 9*dt.
    pytest.param(ConstantLevelSubsidy(1.0, 1.0), 0.0, 1.0, 3.0, LOWEXT, 1e-3,
                 (1,), True, id="start-on-top-clamp"),
    pytest.param(ConstantLevelSubsidy(2.0, 1.0, start=0.5003), 0.0, 0.0, 2.0, PLANNER, 1e-3,
                 (), True, id="start-on-bottom-clamp"),
    pytest.param(ConstantLevelSubsidy(2.0, 1.0, start=0.009), 0.0, -0.0, 2.0, PLANNER, 1e-3,
                 (), False, id="start-on-bottom-clamp-negative-zero"),
    # Starts past a clamp's side: above full adoption it leaves the top
    # branch on its way down to 1, below 0 the bottom one on its way up.
    pytest.param(None, 0.0, 2.0, 2.0, LOWEXT, 1e-3, (1,), False, id="start-above-one"),
    pytest.param(ConstantLevelSubsidy(1.0, 3.0), 0.0, -1.0, 2.0, LOWEXT, 1e-3,
                 (1,), False, id="start-below-zero"),
    # dt below the spacing of floats at t0: grid times repeat, but every
    # grid step still has length dt.
    pytest.param(ConstantLevelSubsidy(2.0, 1e-15, start=1.0 + 1e-15), 1.0, -0.0,
                 1.0 + 3e-15, PLANNER, 1e-17, (), False, id="zero-length-steps"),
    # Far from 0, the spacing of grid times varies in its last bits.
    pytest.param(ConstantLevelSubsidy(1.0, 1.5, start=1e6 + 0.3), 1e6, 0.05, 1e6 + 4.0,
                 PLANNER, 1e-3, (1,), False, id="t0-1e6"),
    pytest.param(ConstantLevelSubsidy(0.7, 0.77031, start=0.30037), 0.0, 0.3, 3.0,
                 PLANNER, 1e-2, (), False, id="largest-step"),
    # The window lies between two grid times: its phase has no grid step.
    pytest.param(ConstantLevelSubsidy(2.0, 4e-4, start=0.1003), 0.0, 0.3, 2.0, PLANNER, 1e-3,
                 (1,), False, id="window-within-one-step"),
    # Kinks crossed at the largest step: from the band onto the top clamp;
    # from the top clamp into the band and on to the bottom clamp; and,
    # with a band narrower than one step, both clamps within one step.
    pytest.param(None, 0.0, 0.3, 4.0, PLANNER, 1e-2, (1,), False, id="band-to-clamp"),
    pytest.param(None, 0.0, 2.0, 4.0, LOWEXT, 1e-2, (1, 1), False, id="clamp-to-band"),
    pytest.param(None, 0.0, 2.0, 3.0, NARROW, 1e-2, (2,), False, id="two-clamps-in-one-step"),
    # Runs that reach a fixed point of the step map, whose phase the oracle
    # fills rather than steps: climbing onto the top clamp over 60/gamma;
    # on the bottom clamp from -0.0, whose first step returns +0.0; onto a
    # regime-2 market's stable level inside the band; at e = 0; and in the
    # band before a window opens, after which the path moves again.
    pytest.param(None, 0.0, 0.3, 60.0, PLANNER, 1e-2, (1,), True, id="settle-on-top-clamp"),
    pytest.param(ConstantLevelSubsidy(2.0, 0.5, start=5.0), 0.0, -0.0, 7.0, PLANNER, 1e-2,
                 (1,), True, id="settle-on-bottom-clamp-from-negative-zero"),
    pytest.param(ConstantLevelSubsidy(1.0, 1.0), 0.0, 0.0, 100.0, REGIME2, 1e-2,
                 (), True, id="settle-in-band"),
    pytest.param(ConstantLevelSubsidy(0.5, 5.0), 0.0, 0.2, 60.0, NOEXT, 1e-2,
                 (), True, id="settle-no-externality"),
    pytest.param(ConstantLevelSubsidy(1.0, 2.0, start=90.0), 0.0, 0.3, 95.0, REGIME2, 1e-2,
                 (), True, id="settle-before-window"),
    # Four ulps above full adoption on the top clamp, where a step's
    # decrement rounds away: off [0, 1] the check follows every step.
    pytest.param(ConstantLevelSubsidy(1.0, 5.0), 0.0, 1.0 + 2.0**-50, 8.0, LOWEXT, 1e-2,
                 (1,), True, id="settle-above-one"),
])
def test_integrate_ode_matches_scalar_steps_bitwise(schedule, t0, x0, t_end, params, dt,
                                                    kinks, settles):
    sampled = integrate_ode(params, subsidy_schedule=schedule, t0=t0, x0=x0,
                            t_end=t_end, dt=dt)
    expected, cuts = _reference_levels(params, schedule, t0, x0, t_end, dt)
    assert sampled.levels.tobytes() == expected.tobytes()
    assert tuple(k for k in cuts if k) == kinks
    assert sampled.splits == sum(kinks)
    # The fill ran exactly where it should, and only over samples whose
    # reference step returned its input.
    assert (sampled.settled > 0) == settles
    assert sampled.settled <= np.count_nonzero(expected[1:] == expected[:-1])
    # The samples take at least two of the uniform ccdf's three branches.
    ceff = np.full(len(sampled.levels), params.cost)
    if schedule is not None:
        times = np.asarray(sample_times(sampled))
        ceff[(times >= schedule.start) & (times <= schedule.end)] -= schedule.level
    u = ceff - params.externality * np.asarray(sampled.levels)
    branches = [u <= params.u_min, (u > params.u_min) & (u < params.u_max),
                u >= params.u_max]
    assert sum(b.any() for b in branches) >= 2


def test_fill_holds_no_copy_of_the_tail():
    # From full adoption on the top clamp every step returns its input, so
    # all but the first chunk of this 2*10**5-step run is filled.  The fill
    # writes a bounded block at a time: the peak traced memory stays within
    # the samples plus a fixed 64 KiB margin, set before measuring (one
    # temporary as long as the tail would double the peak).
    n = 200_000
    tracemalloc.start()
    try:
        sampled = integrate_ode(PLANNER, x0=1.0, t_end=n * 1e-2, dt=1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sampled.levels) == n + 1 and sampled.settled == n - 256
    assert set(sampled.levels) == {1.0}
    assert peak <= sampled.levels.itemsize * len(sampled.levels) + 64 * 1024


def test_kink_split_keeps_fourth_order_on_random_windows():
    # Seeded windows over the four regimes, kept when the path crosses a
    # kink of the ccdf.  At the largest step, dt*gamma = 1e-2, the oracle
    # meets the closed form within 1e-7, and halving the step cuts the gap
    # by at least 8x: the split keeps RK4's fourth order across kinks.
    rng = np.random.default_rng(20261019)
    crossed = 0
    for i in range(160):
        params = random_params(rng, 1 + i % 4)
        x0 = random_start(rng, params)
        gamma = params.gamma
        cls = ConstantLevelSubsidy(float(rng.uniform(0.2, 0.9)) * params.cost,
                                   float(rng.uniform(0.5, 3.0)) / gamma,
                                   start=float(rng.uniform(0.0, 1.0)) / gamma)
        runs = [integrate_ode(params, subsidy_schedule=cls, t0=cls.start, x0=x0,
                              t_end=cls.end + 8.0 / gamma, dt=k * 1e-2 / gamma)
                for k in (1.0, 0.5)]
        if not runs[0].splits:
            continue
        crossed += 1
        traj = subsidized_trajectory(params, cls, x0)
        coarse, fine = (max_gap(traj, r) for r in runs)
        assert coarse <= 1e-7 and coarse >= 8.0 * fine, (i, coarse, fine)
    assert crossed >= 30


def _exact_rk4(f, x, h):
    """Reference: one classical four-stage RK4 step in exact rationals."""
    x, h = Fraction(x), Fraction(h)
    k1 = f(x)
    k2 = f(x + h / 2 * k1)
    k3 = f(x + h / 2 * k2)
    k4 = f(x + h * k3)
    return x + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6


def test_one_evaluation_step_is_classical_rk4():
    # One step on a random branch at h*gamma <= 1e-2, against four-stage
    # RK4 in exact rationals.  The error is counted in ulps of the
    # largest magnitude the step's arithmetic handles: x, the exact end,
    # and h*gamma times each term of the raw field.  Measured over 24,000
    # steps: at most 1.59 ulps (the four-stage float form: 1.81).
    rng = np.random.default_rng(20261020)
    seen = {"band": 0, "clamp": 0}
    for i in range(600):
        params = random_params(rng, 1 + i % 4)
        x = float(rng.uniform(-0.2, 1.2)) if i % 8 == 7 else random_start(rng, params)
        h = float(rng.uniform(0.0, 1.0)) * 1e-2 / params.gamma
        ceff, spread = params.cost, params.u_max - params.u_min
        c = _branch(params, ceff, x)
        gamma, e = Fraction(params.gamma), Fraction(params.externality)
        if c is None:
            terms = [params.u_max / spread, ceff / spread, params.externality * x / spread, x]
            lo, hi = Fraction(params.u_min), Fraction(params.u_max)
            exact = _exact_rk4(lambda y: gamma * ((hi - (Fraction(ceff) - e * y)) / (hi - lo) - y),
                               x, h)
        else:
            terms = [c, x]
            exact = _exact_rk4(lambda y: gamma * (Fraction(c) - y), x, h)
        if _branch(params, ceff, float(exact)) != c:
            continue  # a kink-split step
        sampled = integrate_ode(params, x0=x, t_end=h, dt=h)
        assert len(sampled.levels) == 2 and sampled.splits == 0
        scale = max(abs(x), abs(float(exact)), *(h * params.gamma * abs(v) for v in terms))
        ulps = float(abs(Fraction(sampled.levels[1]) - exact)) / math.ulp(scale)
        assert ulps <= 2.0, (i, params, x, h, ulps)
        seen["band" if c is None else "clamp"] += 1
    assert min(seen.values()) >= 200, seen


def _exact_decay_levels(x0, h, n):
    """Exact-rational RK4 on TIPPING's bottom clamp, xdot = -gamma*x, at n
    steps of length h: level i is x0*R**i, R the four-stage step from 1.
    The levels are carried in 2**-256 fixed point (rounding below 1e-70)."""
    gamma = Fraction(TIPPING.gamma)
    r = _exact_rk4(lambda y: -gamma * y, 1, h)
    x = round(Fraction(x0) * 2**256)
    out = [x]
    for _ in range(n):
        x = x * r.numerator // r.denominator
        out.append(x)
    return [Fraction(v, 2**256) for v in out]


def _halving_ratio(runs):
    d1 = max(abs(a - b) for a, b in zip(runs[1], runs[2][::2]))
    d2 = max(abs(a - b) for a, b in zip(runs[2], runs[4][::2]))
    return d1 / d2


def test_rk4_self_convergence():
    # Smooth span (no band crossing): at validate's step, dt*gamma = 1e-2,
    # halving dt cuts the deviation by >= 8x (measured: 16.0).
    runs = {k: integrate_ode(TIPPING, x0=0.25, t_end=2.0, dt=3e-2 / k).levels
            for k in (1, 2, 4)}
    assert _halving_ratio(runs) >= 8.0
    # At dt*gamma = 2e-3 the deviations are about 1e-15, near rounding,
    # and the float ratio says little (measured: 7.2).  There each run
    # stays within 1e-15 of exact-rational RK4 (measured: at most 5.3e-16),
    # whose own ratio shows the order (measured: 16.0).
    exact = {}
    for k in (1, 2, 4):
        sampled = integrate_ode(TIPPING, x0=0.25, t_end=2.0, dt=6e-3 / k)
        exact[k] = _exact_decay_levels(0.25, sampled.dt, len(sampled.levels) - 1)
        gap = max(abs(Fraction(a) - b) for a, b in zip(sampled.levels, exact[k]))
        assert gap <= 1e-15, (k, float(gap))
    assert _halving_ratio(exact) >= 8.0


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


SIMPSON_ULPS = 8  # the bound on a short run's outlay, fixed before measuring


@pytest.mark.parametrize("steps, coefficients", [
    (0, (0.3, 0.2, 0.0, 0.0)),
    (1, (0.3, 0.2, 0.0, 0.0)),  # linear: the trapezoid is exact
    (3, (0.1, 0.3, -0.12, 0.02)),  # cubic: the 3/8 rule alone is exact
    (5, (0.1, 0.3, -0.12, 0.02)),  # cubic: Simpson, then the 3/8 rule
])
def test_integrate_cost_short_runs(steps, coefficients):
    # Hand-built samples of a polynomial on the dyadic grid i/4, so that
    # the only rounding is in the samples and the quadrature's arithmetic.
    a, b, c, d = coefficients
    dt, level = 0.25, 0.5
    levels = array("d", [a + t * (b + t * (c + t * d)) for t in (i * dt for i in range(steps + 1))])
    window = ConstantLevelSubsidy(level, steps * dt)
    T = Fraction(steps * dt)
    exact = level * (Fraction(a) * T + Fraction(b) * T ** 2 / 2 + Fraction(c) * T ** 3 / 3
                     + Fraction(d) * T ** 4 / 4)
    outlay = integrate_cost(SampledTrajectory(0.0, dt, levels), window)
    assert abs(Fraction(outlay) - exact) <= SIMPSON_ULPS * Fraction(math.ulp(float(exact)))


def test_integrate_cost_unaligned_window():
    # The outlay is Simpson over the run of exactly the window; a run past
    # the window's end, from another start, or of another step count than
    # round(duration/dt) is refused rather than clipped.
    params = ModelParams(0.0, 1.0, 0.5, 0.0, 1.0)
    cls = ConstantLevelSubsidy(0.5, 0.7703)
    window = integrate_ode(params, subsidy_schedule=cls, t_end=cls.end, dt=cls.duration / 1000)
    exact = 0.5 * (0.7703 - (1 - math.exp(-0.7703)))
    assert integrate_cost(window, cls) == pytest.approx(exact, abs=1e-6)
    late = ConstantLevelSubsidy(0.5, 0.7703, start=0.5)
    huge = ConstantLevelSubsidy(0.5, 1e308)  # duration/dt overflows to inf
    for run, schedule in (
        (integrate_ode(params, subsidy_schedule=cls, t_end=2.0, dt=1e-3), cls),
        (window, late),
        (SampledTrajectory(0.0, 1e-300, window.levels), huge),
    ):
        with pytest.raises(InvalidStepError, match="exactly the window"):
            integrate_cost(run, schedule)


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

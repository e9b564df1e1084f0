import math

import numpy as np
import pytest

from netadopt import (
    InvalidParameterError,
    ModelParams,
    PiecewiseTrajectory,
    Segment,
    unsubsidized_trajectory,
)
from netadopt.cli import BLOCK_ROWS
from netadopt.closed_form import CONTINUITY_TOL, band_rate_step, hit_time

TIPPING = ModelParams(1.0, 2.0, 3.0, 3.0, 1.0 / 3.0)  # bistable, interior 0.5


def band_segment(params, effective_cost, t0, x0):
    """The in-band segment from (t0, x0), as unsubsidized_trajectory builds it."""
    return Segment(t0, x0, *band_rate_step(params, effective_cost, x0))


def time_to(seg, x):
    """hit_time of a built segment."""
    return hit_time(seg.start_time, seg.start_level, seg.rate, seg.step, x)


def band_level(t, x0):
    """In-band closed form for TIPPING from (0, x0)."""
    return band_segment(TIPPING, 3.0, 0.0, x0).value(t)


def bisect_hit_time(seg, x, hi=200.0):
    """Independent inverse of Segment.value by bisection on time."""
    f = lambda t: seg.value(t) - x
    t0 = seg.start_time
    lo = t0
    if f(lo) == 0.0:
        return lo
    t_hi = t0 + 1e-6
    while f(lo) * f(t_hi) > 0:
        t_hi = t0 + (t_hi - t0) * 2
        if t_hi - t0 > hi:
            return None
    for _ in range(200):
        mid = 0.5 * (lo + t_hi)
        if f(lo) * f(mid) <= 0:
            t_hi = mid
        else:
            lo = mid
    return 0.5 * (lo + t_hi)


def test_solve_linear_basics():
    # Segment.value solves the linear ODE: decay toward 0, relaxation
    # toward 1, and a linear drift.
    assert Segment(0.0, 1.0, rate=-1.0, step=1.0).value(1.0) == pytest.approx(math.exp(-1), abs=1e-15)
    assert Segment(0.0, 0.0, rate=-1.0, step=-1.0).value(1.0) == pytest.approx(1 - math.exp(-1), abs=1e-15)
    assert Segment(0.0, 0.0, rate=0.0, step=1.0).value(0.5) == pytest.approx(0.5, abs=1e-15)


def test_hit_time_decay_inverse():
    seg = Segment(0.0, 1.0, rate=-1.0, step=1.0)
    assert time_to(seg, math.exp(-1)) == pytest.approx(1.0, abs=1e-12)


def test_hit_time_asymptote_infeasible():
    assert time_to(Segment(0.0, 0.0, rate=-1.0, step=-1.0), 1.0) is None


def test_hit_time_growing_branch():
    # Frozen from the bisection oracle below: 1.5*log(5/3).  xdot =
    # (1/3)(2x - 1) from 0.4: rate 2/3, fixed point 0.5, step -0.1.
    seg = Segment(0.0, 0.4, rate=2.0 / 3.0, step=0.4 - 0.5)
    expected = 1.5 * math.log(5.0 / 3.0)
    got = time_to(seg, 1.0 / 3.0)
    assert got == pytest.approx(0.7662384356489861, abs=1e-12)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(bisect_hit_time(seg, 1.0 / 3.0), abs=1e-9)
    assert time_to(seg, 0.45) is None  # moves away from the fixed point


def test_hit_time_degenerate_drift():
    drift = Segment(1.0, 0.0, rate=0.0, step=2.0)
    assert time_to(drift, 1.0) == pytest.approx(1.5, abs=1e-15)
    assert time_to(Segment(1.0, 0.5, rate=0.0, step=2.0), 0.0) is None  # drifts the other way
    assert time_to(Segment(0.0, 0.3, rate=0.0, step=0.0), 0.3) == 0.0
    assert time_to(Segment(0.0, 0.3, rate=0.0, step=0.0), 0.4) is None


def test_band_ode_coefficients():
    # a = 2, b = -1: rate a*gamma, step x0 + b/a; the degenerate band
    # (externality == spread) drifts at gamma*b.
    seg = band_segment(TIPPING, 3.0, 0.0, 0.4)
    assert seg.rate == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert seg.step == pytest.approx(-0.1, abs=1e-15)
    assert seg.start_level - seg.step == pytest.approx(0.5, abs=1e-15)
    drift = band_segment(ModelParams(1.0, 2.0, 2.4, 1.0, 2.0), 2.4, 1.0, 0.8)
    assert (drift.start_time, drift.start_level, drift.rate) == (1.0, 0.8, 0.0)
    assert drift.step == pytest.approx(2.0 * -0.4, abs=1e-15)


def test_band_level_examples():
    assert band_level(0.0, 0.4) == pytest.approx(0.4, abs=1e-15)
    t_exit = 1.5 * math.log(5.0 / 3.0)
    assert band_level(t_exit, 0.4) == pytest.approx(1 / 3, abs=1e-6)
    # The interior fixed point stays put.
    for t in (0.0, 1.0, 7.0):
        assert band_level(t, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_band_hit_time_examples():
    assert time_to(band_segment(TIPPING, 3.0, 0.0, 0.4), 0.4) == 0.0
    assert time_to(band_segment(TIPPING, 3.0, 0.0, 0.4), 1 / 3) == pytest.approx(
        0.7662384356489861, abs=1e-9
    )
    # Starting below the band the in-band form moves away from 2/3.
    assert time_to(band_segment(TIPPING, 3.0, 0.0, 0.25), 2 / 3) is None


def test_band_hit_round_trip():
    for x0 in (0.36, 0.42, 0.55, 0.62):
        for target in (0.345, 0.4, 0.6, 0.66):
            seg = band_segment(TIPPING, 3.0, 0.0, x0)
            t = time_to(seg, target)
            if t is None:
                assert bisect_hit_time(seg, target) is None
                continue
            assert band_level(t, x0) == pytest.approx(target, abs=1e-9)
            assert t == pytest.approx(bisect_hit_time(seg, target), abs=1e-9)


def test_band_exit_times_examples():
    def exit_times(x0):
        seg = band_segment(TIPPING, 3.0, 0.0, x0)
        return time_to(seg, TIPPING.band_low()), time_to(seg, TIPPING.band_high())

    down, up = exit_times(0.4)
    assert down == pytest.approx(0.7662384356489861, abs=1e-9)
    assert up is None
    down, up = exit_times(0.6)
    assert down is None
    assert up == pytest.approx(0.7662384356489861, abs=1e-9)
    down, _ = exit_times(1 / 3)
    assert down == 0.0


def test_trajectory_decay_value():
    # Start below the band: pure decay, x(3) = 0.25 * exp(-1).
    traj = unsubsidized_trajectory(TIPPING, 0.0, 0.25)
    assert len(traj.segments) == 1
    assert traj.value(3.0) == pytest.approx(0.09196986029286058, abs=1e-12)
    assert traj.final_level == 0.0


def test_trajectory_rises_to_full():
    traj = unsubsidized_trajectory(TIPPING, 0.0, 0.6)
    assert traj.final_level == 1.0
    assert len(traj.segments) == 2
    assert traj.breakpoints[0] == pytest.approx(1.5 * math.log(5 / 3), abs=1e-12)


def test_trajectory_interior_convergence():
    params = ModelParams(1.0, 2.0, 1.75, 0.5, 1.0)
    for x0 in (0.0, 0.3, 0.9, 1.0):
        traj = unsubsidized_trajectory(params, 0.0, x0)
        assert traj.final_level == pytest.approx(0.5, abs=1e-12)
        assert len(traj.segments) == 1


def test_trajectory_two_phase_decay_matches_printed_form():
    # Bistable start inside the band below the tipping level: in-band
    # segment to the lower edge, then plain decay.  Independent
    # transcription of the piecewise solution.
    params, x0 = TIPPING, 0.45
    gamma = params.gamma
    x_int, low = 0.5, 1.0 / 3.0
    a = 2.0
    t_low = math.log((low - x_int) / (x0 - x_int)) / (a * gamma)
    traj = unsubsidized_trajectory(params, 0.0, x0)

    def printed(t):
        if t <= t_low:
            return x_int + (x0 - x_int) * math.exp(a * gamma * t)
        return low * math.exp(-gamma * (t - t_low))

    for t in np.linspace(0.0, 25.0, 400):
        assert traj.value(float(t)) == pytest.approx(printed(float(t)), abs=1e-12)


def test_trajectory_case1_two_phase():
    # Low-adoption regime with the band reaching into [0, 1]: starts
    # above the lower edge, slides through it, then decays.
    params = ModelParams(1.0, 2.0, 3.5, 2.0, 1.0)  # band [0.75, 1.25]
    traj = unsubsidized_trajectory(params, 0.0, 0.9)
    assert traj.final_level == 0.0
    assert len(traj.segments) == 2
    x_int = 1.5  # (2 - 3.5) / (2 - 3)
    a, gamma = 1.0, params.gamma  # a = (externality + u_min - u_max)/(u_max - u_min)
    t_low = math.log((0.75 - x_int) / (0.9 - x_int)) / (a * gamma)
    assert traj.breakpoints[0] == pytest.approx(t_low, abs=1e-12)
    assert traj.value(t_low) == pytest.approx(0.75, abs=1e-12)


def test_trajectory_case4_two_phase():
    params = ModelParams(1.0, 2.0, 1.8, 1.6, 1.0)  # band [-0.125, 0.5], rises
    traj = unsubsidized_trajectory(params, 0.0, 0.1)
    assert traj.final_level == 1.0
    assert len(traj.segments) == 2
    assert traj.value(traj.breakpoints[0]) == pytest.approx(0.5, abs=1e-12)


def test_trajectory_from_unstable_point_constant():
    traj = unsubsidized_trajectory(TIPPING, 0.0, 0.5)
    for t in (0.0, 5.0, 80.0):
        assert traj.value(t) == 0.5
    assert traj.final_level == 0.5


def test_trajectory_degenerate_band_drift():
    # externality == spread: the in-band dynamics have constant speed.
    params = ModelParams(1.0, 2.0, 2.4, 1.0, 1.0)  # band [0.4, 1.4], drifts down
    traj = unsubsidized_trajectory(params, 0.0, 0.8)
    assert traj.segments[0].rate == 0.0
    assert traj.final_level == 0.0
    # xdot = gamma * b = -0.4 inside the band
    assert traj.value(0.5) == pytest.approx(0.6, abs=1e-12)
    assert traj.breakpoints[0] == pytest.approx(1.0, abs=1e-12)


def test_trajectory_rejects_bad_inputs():
    # Without network effects the path is one exponential toward ccdf(cost).
    traj = unsubsidized_trajectory(ModelParams(1, 2, 1.5, 0.0, 1.0), 0.0, 0.2)
    assert len(traj.segments) == 1
    assert traj.final_level == 0.5
    with pytest.raises(InvalidParameterError):
        unsubsidized_trajectory(TIPPING, 0.0, 1.5)
    with pytest.raises(InvalidParameterError):
        unsubsidized_trajectory(ModelParams(1, 2, 1.5, 0.0, 1.0), 0.0, -0.1)


def test_noext_trajectory():
    unit = ModelParams(0.0, 1.0, 0.5, 0.0, 1.0)  # ccdf(0.5) = 0.5
    traj = unsubsidized_trajectory(unit, 0.0, 0.0)
    for t in (0.1, 1.0, 4.0):
        assert traj.value(t) == pytest.approx(0.5 * (1 - math.exp(-t)), abs=1e-15)
    assert traj.final_level == 0.5
    assert traj.breakpoints == ()
    const = unsubsidized_trajectory(unit, 0.0, 0.5)
    assert const.value(2.0) == 0.5
    climb = unsubsidized_trajectory(unit, 0.0, 0.0, effective_cost=0.4)
    assert climb.value(math.log(6.0)) == pytest.approx(0.5, abs=1e-12)
    # Effective costs outside the affinity range saturate the ccdf.
    assert unsubsidized_trajectory(unit, 0.0, 0.3, effective_cost=-1.0).final_level == 1.0
    assert unsubsidized_trajectory(unit, 0.0, 0.3, effective_cost=2.0).final_level == 0.0


def test_trajectory_eval_contract():
    traj = unsubsidized_trajectory(TIPPING, 0.0, 0.6)
    assert traj.value(0.0) == 0.6
    with pytest.raises(InvalidParameterError):
        traj.value(-0.1)
    # Both segments agree at the junction.
    b = traj.breakpoints[0]
    first, second = traj.segments
    assert abs(first.value(b) - second.value(b)) <= 1e-12


def _segment_scan_value(traj, t):
    """Reference: the latest segment starting at or before t, evaluated alone."""
    for seg in reversed(traj.segments):
        if t >= seg.start_time:
            return seg.value(t)
    raise AssertionError("t precedes the path")


def _three_segment_path():
    first = Segment(0.5, 0.2, rate=-1.0, step=0.2)
    drift = Segment(1.5, first.value(1.5), rate=0.0, step=0.1)
    last = Segment(2.25, drift.value(2.25), rate=-0.5, step=drift.value(2.25) - 1.0)
    return PiecewiseTrajectory((first, drift, last))


@pytest.mark.parametrize("traj", [
    unsubsidized_trajectory(ModelParams(1, 2, 1.5, 0.0, 1.0), 0.0, 0.2),  # one segment
    unsubsidized_trajectory(TIPPING, 0.0, 0.6),  # band, then above it
    unsubsidized_trajectory(ModelParams(1.0, 2.0, 2.4, 1.0, 1.0), 0.0, 0.8),  # drift first
    _three_segment_path(),
])
def test_values_match_scalar_evaluation_bitwise(traj):
    start = traj.start_time
    junctions = list(traj.breakpoints)
    times = np.sort(np.concatenate([
        # Samples over many CLI blocks, so block edges fall inside segments.
        start + np.linspace(0.0, 12.0, 8 * BLOCK_ROWS + 809), junctions, junctions,
        [start, start],
        np.nextafter(junctions, -np.inf), np.nextafter(junctions, np.inf),
    ])).tolist()
    got = traj.values(times)
    assert type(got) is list and len(got) == len(times)
    assert all(type(x) is float for x in got)
    expected = [_segment_scan_value(traj, t) for t in times]
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    assert np.array(got).tobytes() == np.array([traj.value(t) for t in times]).tobytes()
    # Evaluated a block at a time, as the CLI does, the levels are the same.
    blocks = [x for a in range(0, len(times), BLOCK_ROWS)
              for x in traj.values(times[a:a + BLOCK_ROWS])]
    assert np.array(blocks).tobytes() == np.array(got).tobytes()
    # A junction time takes the later segment.
    for b, seg in zip(traj.breakpoints, traj.segments[1:]):
        assert traj.values([b, b]) == [seg.value(b)] * 2


def test_values_contract():
    traj = _three_segment_path()
    assert traj.values([]) == []
    assert traj.values((0.5, 2.0)) == [traj.value(0.5), traj.value(2.0)]
    with pytest.raises(InvalidParameterError, match="precedes"):
        traj.values([0.0, 1.0])
    with pytest.raises(InvalidParameterError, match="nondecreasing"):
        traj.values([1.0, 3.0, 2.0])
    for two_d in ([[1.0, 2.0]], np.zeros((2, 2))):
        with pytest.raises(InvalidParameterError, match="one-dimensional"):
            traj.values(two_d)


def test_trajectory_continuity_enforced():
    good = Segment(0.0, 0.2, rate=-1.0, step=0.2)
    bad = Segment(1.0, 0.9, rate=-1.0, step=0.9 - 1.0)
    with pytest.raises(InvalidParameterError):
        PiecewiseTrajectory((good, bad))


def test_continuity_tolerance_boundary():
    # A segment resting at 0.0, then one starting at the gap: a gap of
    # exactly CONTINUITY_TOL is a junction, the next float above is not.
    assert CONTINUITY_TOL == 1e-12
    rest = Segment(0.0, 0.0, rate=-1.0, step=0.0)
    for gap, ok in ((1e-12, True), (math.nextafter(1e-12, 1.0), False)):
        after = Segment(1.0, gap, rate=-1.0, step=gap)
        if ok:
            assert PiecewiseTrajectory((rest, after)).breakpoints == (1.0,)
        else:
            with pytest.raises(InvalidParameterError, match="discontinuous segments"):
                PiecewiseTrajectory((rest, after))


def test_trajectory_refuses_segments_out_of_order():
    first = Segment(1.0, 0.2, rate=-1.0, step=0.2)
    for start in (1.0, 0.5):
        with pytest.raises(InvalidParameterError, match="segment start times must increase"):
            PiecewiseTrajectory((first, Segment(start, first.value(start), rate=-1.0, step=0.1)))


def test_final_level_refuses_a_diverging_or_drifting_last_segment():
    for rate in (1.0, 0.0):
        path = PiecewiseTrajectory((Segment(0.0, 0.5, rate=rate, step=0.1),))
        with pytest.raises(InvalidParameterError, match="diverging or drifting final segment"):
            path.final_level
        # A last segment that does not move rests at its start.
        assert PiecewiseTrajectory((Segment(0.0, 0.5, rate=rate, step=0.0),)).final_level == 0.5


def test_zero_length_band_crossing():
    # One ulp below the upper band edge, the climb reaches the edge after
    # about 1e-15: a junction of its own from t0 = 0, while from t0 = 1e6
    # the crossing time rounds to t0 and the path starts at the edge.
    high = TIPPING.band_high()
    x0 = math.nextafter(high, 0.0)
    near = unsubsidized_trajectory(TIPPING, 0.0, x0)
    assert len(near.segments) == 2 and 0.0 < near.breakpoints[0] < 1e-14
    assert near.segments[1].start_level == high
    (far,) = unsubsidized_trajectory(TIPPING, 1e6, x0).segments
    assert far == Segment(1e6, high, rate=-TIPPING.gamma, step=high - 1.0)
    assert near.final_level == 1.0


@pytest.mark.parametrize("x0, shown", [
    (math.nan, "nan"), (math.nextafter(1.0, 2.0), "1.0000000000000002"), (-5e-324, "-5e-324"),
])
def test_trajectory_refuses_a_start_outside_0_1(x0, shown):
    # No tolerance: a NaN start used to give a path from 0.0, and a start
    # one ulp outside [0, 1] was clamped onto it.
    with pytest.raises(InvalidParameterError, match=rf"^x0 must lie in \[0, 1\], got {shown}$"):
        unsubsidized_trajectory(TIPPING, 0.0, x0)


def test_trajectory_reads_a_negative_zero_start_as_zero():
    for params in (TIPPING, ModelParams(0.0, 1.0, 0.5, 0.0, 1.0)):
        path = unsubsidized_trajectory(params, 0.0, -0.0)
        assert math.copysign(1.0, path.segments[0].start_level) == 1.0
        assert path == unsubsidized_trajectory(params, 0.0, 0.0)


def test_final_level_is_exactly_empty_or_full():
    # final_level is start_level - step with step = x0 - limit; for the
    # limits 0 and 1 that round trip is exact for every x0 in [0, 1].
    rng = np.random.default_rng(2718)
    starts = [0.0, 5e-324, 1e-300, 0.5, math.nextafter(1.0, 0.0), 1.0]
    for x0 in starts + rng.uniform(0.0, 1.0, 2000).tolist():
        assert PiecewiseTrajectory((Segment(0.0, x0, rate=-1.0, step=x0),)).final_level == 0.0
        assert PiecewiseTrajectory((Segment(0.0, x0, rate=-1.0, step=x0 - 1.0),)).final_level == 1.0
    for x0 in np.linspace(0.0, 1.0, 41).tolist():
        final = unsubsidized_trajectory(TIPPING, 0.0, x0).final_level
        assert final == (0.0 if x0 < 0.5 else 0.5 if x0 == 0.5 else 1.0)


def test_trajectory_bounded():
    for x0 in np.linspace(0.0, 1.0, 21):
        traj = unsubsidized_trajectory(TIPPING, 0.0, float(x0))
        for t in np.linspace(0.0, 40.0, 300):
            v = traj.value(float(t))
            assert -1e-12 <= v <= 1 + 1e-12

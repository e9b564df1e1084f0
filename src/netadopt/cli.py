"""Command-line front end.

Verbs: ``equilibria``, ``simulate``, ``sweep``, ``full-subsidy``,
``noext``, ``validate``, ``reproduce``.  Every verb is a thin adapter
over the library: numbers come from there, this module only parses
configuration, formats CSV, and maps errors to exit codes (0 ok,
1 validation failure, 2 invalid input, 3 scenario outside the supported
regime).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from operator import sub
from pathlib import Path

from . import closed_form, oracle, subsidy
from .closed_form import PiecewiseTrajectory
from .config import REFERENCE_PATH, ScenarioConfig, load_config
from .errors import (
    AssumptionViolationError,
    InfeasibleSubsidyError,
    InvalidParameterError,
    InvalidStepError,
    SingularParametersError,
)
from .model import ModelParams, classify_equilibria, require_finite

OUTPUT_DIR_ENV = "NETADOPT_OUTPUT_DIR"

TRAJECTORY_TOL = 1e-6
CONVERGENCE_STEPS = 512  # the most main-run steps validate's order check compares
COST_TOL = 1e-5
MAX_ROWS = 10**6  # per trajectory CSV, whose sample times are held in memory
BLOCK_ROWS = 1024  # CSV rows joined into one write


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


_flag = ("false", "true").__getitem__  # a bool's CSV text


def _fmt(value) -> str:
    if value is None:
        return "inf"
    if isinstance(value, bool):
        return _flag(value)
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _write_text(path: Path, header: Sequence[str], chunks: Iterable[str]) -> None:
    """Write the header line, then the CSV text chunk by chunk."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(chunks)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the rows under the header, each cell through ``_fmt``, as the
    short mixed-type tables need."""
    _write_text(path, header, [",".join(map(_fmt, row)) + "\n" for row in rows])


def _row_blocks(row: str, columns: Sequence[Sequence]) -> Iterator[str]:
    """The ``%`` template ``row`` filled from one cell of each column per
    row, BLOCK_ROWS rows per chunk.  One ``%`` on the template repeated k
    times gives the text of k single-row ``%``s ('%.17g' % v is
    format(v, '.17g') for every float, inf and nan included)."""
    width, count = len(columns), len(columns[0])
    for lo in range(0, count, BLOCK_ROWS):
        k = min(BLOCK_ROWS, count - lo)
        cells = [None] * (width * k)
        for i, column in enumerate(columns):
            cells[i::width] = column[lo:lo + k]
        yield row * k % tuple(cells)


def _write_sweep(path: Path, result: subsidy.SubsidySweep, externality: float) -> None:
    # Every outlay is a closed form; the method column keeps the layout.
    # No level of ranges 1-2 has a window, yet each has a finite outlay
    # (s*y0/gamma, or the outlay while the state settles) but at a knife
    # edge.  Ranges 3-4 share one closed form, which decides once whether
    # a level has a window; a level without one lacks its duration and,
    # from y0 > 0, its outlay.  A missing duration or outlay reads inf.
    # The rows go out in runs that share their feasible, regime and
    # frontier cells and their missing values, which the run's template
    # holds as text, as it does range 5's one duration; the runs end at
    # the range ends, at the frontier's ends and around a missing value.
    levels, regimes, durations, outlays, frontier = result[:5]
    ends = [bisect_right(regimes, k) for k in range(1, 5)]
    cuts = {0, len(levels), *ends, frontier.start, frontier.stop}
    for column, lo in ((durations, ends[1]), (outlays, ends[0])):
        holes = [i for i in range(lo, ends[3]) if column[i] is None]
        cuts.update(holes, [i + 1 for i in holes])
    cuts = sorted(cuts)
    runs = []
    for lo, hi in zip(cuts, cuts[1:]):
        k, duration, outlay = regimes[lo], durations[lo], outlays[lo]
        columns = [part := levels[lo:hi], [s / externality for s in part]]
        row = "%.17g,%.17g,"
        if duration is None:
            row += "false,inf,"
        elif k == 5:
            row += "true,%.17g," % duration
        else:
            row += "true,%.17g,"
            columns.append(durations[lo:hi])
        if outlay is None:
            row += "inf,"
        else:
            row += "%.17g,"
            columns.append(outlays[lo:hi])
        runs.append(_row_blocks(f"{row}{k},closed_form,{_flag(lo in frontier)}\n", columns))
    _write_text(
        path,
        ["s", "s_over_e", "feasible", "T_hat", "S", "regime", "method", "frontier"],
        chain.from_iterable(runs),
    )


def _resolve_output(name: str | None, default_name: str) -> Path:
    path = Path(name or default_name)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if not path.is_absolute() and base:
        path = Path(base) / path
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Scenario construction (library calls only)
# ---------------------------------------------------------------------------


def _resolve_scenario(config: ScenarioConfig, params: ModelParams):
    """The scenario's path from t = 0, its subsidy window (None without
    one), the window's analytic outlay (None where no closed form prices
    it) and its horizon: t_end, by default 60/gamma, which must be > 0.
    A subsidy is a level and a window, the path ``subsidized_trajectory``'s.
    A min_duration horizon is cut at its window's end, past which the state
    sits on the basin boundary; a cut to 0 (an empty window) is refused."""
    x0, kind = config.x0, config.kind
    window = outlay = None
    if kind == "none":
        traj = closed_form.unsubsidized_trajectory(params, 0.0, x0)
    else:
        level, duration = params.cost if kind == "full" else config.s, config.T
        if kind == "min_duration":
            duration = subsidy.min_duration(params, x0, level)
            if duration is None:
                raise InfeasibleSubsidyError(f"level {level} cannot reach the tipping level "
                                             f"(min_subsidy {subsidy.min_subsidy(params, x0)})")
            outlay = subsidy.min_duration_cost(params, x0, level).value
        window = subsidy.ConstantLevelSubsidy(level, duration)
        if kind == "full" and params.externality > 0:
            # The full-subsidy analysis checks the bistable regime it needs.
            report = subsidy.full_subsidy_analysis(params, 0.0, x0, config.T)
            traj, outlay = report.trajectory, report.cost
        else:
            traj = subsidy.subsidized_trajectory(params, window, x0)
            if params.externality == 0:
                outlay = subsidy.noext_subsidy_cost(params, window, x0)
    t_end = 60.0 / params.gamma if config.t_end is None else config.t_end
    if t_end <= 0.0:
        raise InvalidParameterError("t_end must be > 0")
    if kind == "min_duration":
        t_end = min(t_end, window.end)
        if t_end <= 0.0:
            raise AssumptionViolationError("y0 < interior equilibrium",
                                           f"{x0} is within rounding of it: the window is empty")
    return traj, window, outlay, t_end


def _sample_times(traj: PiecewiseTrajectory, t_end: float, step: float) -> array:
    """The grid times i*step for i <= t_end/step + 1e-9, t_end itself and
    the path's junctions in (0, t_end], increasing, without repeats (i*step
    strictly increases with i)."""
    count = t_end / step
    if not count <= MAX_ROWS:  # also refuses an overflow to inf
        raise InvalidParameterError(
            f"t_end/dt = {count:.3g} rows exceeds the limit of {MAX_ROWS}"
        )
    n = int(math.floor(count + 1e-9))
    times = array("d", [i * step for i in range(n + 1)])
    for t in [t_end, *(b for b in traj.breakpoints if 0.0 < b <= t_end)]:
        k = bisect_left(times, t)
        if k == len(times) or times[k] != t:
            times.insert(k, t)
    return times


def _path_text(
    traj: PiecewiseTrajectory, window: subsidy.ConstantLevelSubsidy | None,
    times: array, prefix: str = "", phase: bool = True,
) -> Iterator[str]:
    """CSV rows ``prefix`` t,x[,phase] of the path at the sample times,
    BLOCK_ROWS rows per chunk, ``subsidized`` up to the end of a window of
    nonzero level and length.  The levels are evaluated a block at a time,
    so no full-length list is held."""
    acts = window is not None and not window.inert
    cut = bisect_right(times, window.end) if acts else 0
    # One row template per phase, so each block is formatted in one step.
    inside, after = (
        prefix + "%.17g,%.17g" + (f",{name}\n" if phase else "\n")
        for name in ("subsidized", "unsubsidized")
    )
    for lo in range(0, len(times), BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, len(times))
        for a, b, row in ((lo, min(hi, cut), inside), (max(lo, cut), hi, after)):
            if a < b:
                block = times[a:b].tolist()
                yield from _row_blocks(row, (block, traj.values(block)))


def _simulate(config: ScenarioConfig, prefix: str = "", phase: bool = True):
    """The scenario's path, outlay and horizon, its sample times (every
    dt, by default 1e-3/gamma) and their CSV text."""
    params = config.params()
    traj, window, outlay, t_end = _resolve_scenario(config, params)
    dt = 1e-3 / params.gamma if config.dt is None else config.dt
    require_finite([dt], "default sample step 1e-3/gamma", gamma=params.gamma)
    times = _sample_times(traj, t_end, dt)
    return traj, outlay, t_end, times, _path_text(traj, window, times, prefix, phase)


def _sweep_file(config: ScenarioConfig, params: ModelParams, path: Path | None = None):
    """The planner sweep of the config's market and start, written to
    ``path`` (by default the verb's output): the path and the sweep."""
    result = subsidy.sweep(params, config.x0, grid_points=config.sweep_points)
    path = path or _resolve_output(config.output, "sweep.csv")
    _write_sweep(path, result, params.externality)
    return path, result


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def cmd_equilibria(config: ScenarioConfig) -> int:
    params = config.params()
    report = classify_equilibria(params)
    path = _resolve_output(config.output, "equilibria.csv")
    _write_csv(path, ["level", "stability"], report.equilibria)
    print(f"case {report.case_id}")
    print(f"interior equilibrium: {_fmt(report.interior)}")
    print(f"band: [{_fmt(report.band_low)}, {_fmt(report.band_high)}]")
    for level, stability in report.equilibria:
        print(f"  {_fmt(level)}  {stability}")
    print(f"wrote {path}")
    return 0


def cmd_simulate(config: ScenarioConfig) -> int:
    _, _, t_end, times, text = _simulate(config)
    path = _resolve_output(config.output, "trajectory.csv")
    _write_text(path, ["t", "x", "phase"], text)
    print(f"{len(times)} rows on [0, {_fmt(t_end)}]")
    print(f"wrote {path}")
    return 0


def cmd_sweep(config: ScenarioConfig) -> int:
    if config.kind != "min_duration":
        raise InvalidParameterError("sweep requires kind = min_duration")
    params = config.params()
    path, result = _sweep_file(config, params)
    s_hat = subsidy.min_subsidy(params, config.x0)
    print(f"min feasible level: {_fmt(s_hat)} (normalized {_fmt(s_hat / params.externality)})")
    print(f"frontier rows: {len(result.frontier)} of {len(result.levels)}")
    names = ("flat/rising", "rising", "falling", "falling then rising", "rising")
    verdicts = ", ".join(
        f"{name}={'ok' if v else 'empty' if v is None else 'VIOLATED'}"
        for name, v in zip(names, result.verdicts)
    )
    print(f"cost slope pattern: {verdicts}")
    if result.dip_level is not None:
        print(f"detected cost minimizer inside the numeric range: {_fmt(result.dip_level)}")
    print(f"wrote {path}")
    return 0


def cmd_full_subsidy(config: ScenarioConfig) -> int:
    params = config.params()
    report = subsidy.full_subsidy_analysis(params, 0.0, config.x0, config.T)
    path = _resolve_output(config.output, "full_subsidy.csv")
    _write_csv(
        path,
        ["quantity", "value"],
        [
            ("duration_to_band_low", report.to_band_low),
            ("duration_to_interior", report.to_interior),
            ("duration_to_band_high", report.to_band_high),
            ("duration", report.duration),
            ("cost", report.cost),
            ("final_equilibrium", report.final_equilibrium),
        ],
    )
    print(f"thresholds: {_fmt(report.to_band_low)}, {_fmt(report.to_interior)}, "
          f"{_fmt(report.to_band_high)}")
    print(f"duration {_fmt(report.duration)} -> final level {_fmt(report.final_equilibrium)}, "
          f"cost {_fmt(report.cost)}")
    print(f"wrote {path}")
    return 0


def cmd_noext(config: ScenarioConfig) -> int:
    params = config.params()
    cls = subsidy.ConstantLevelSubsidy(config.s, config.T)
    rows: list[tuple] = [
        ("ccdf_at_cost", params.ccdf(params.cost)),
        ("ccdf_at_subsidized_cost", params.ccdf(params.cost - config.s)),
        ("cls_cost", subsidy.noext_subsidy_cost(params, cls, config.x0)),
        ("cost_decreasing_condition", subsidy.noext_cost_decreasing_condition(params, config.s)),
    ]
    if config.target is not None:
        y0, level, target = config.x0, config.s, config.target
        rows += [
            ("required_duration", subsidy.noext_required_duration(params, y0, level, target)),
            ("cost_at_target", subsidy.noext_cost_at_target(params, y0, level, target)),
        ]
    path = _resolve_output(config.output, "noext.csv")
    _write_csv(path, ["quantity", "value"], rows)
    for name, value in rows:
        print(f"{name}: {_fmt(value)}")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _check(label: str, value: float, tol: float, failures: list[str]) -> None:
    _verdict(f"{label} = {value:.3e} (tol {tol:g})", value <= tol, failures)


def _verdict(label: str, ok: bool, failures: list[str]) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'}")
    if not ok:
        failures.append(label)


def _block_gap(gap: float, a: Iterable[float], b: Iterable[float]) -> float:
    """max(gap, max |a - b|) over one block.  The sum of the differences is
    NaN exactly when one of them is, and a NaN gap stays NaN."""
    diffs = list(map(abs, map(sub, a, b)))
    total = sum(diffs)
    return total if total != total else max(gap, max(diffs))


def _path_gap(traj: PiecewiseTrajectory, sampled: oracle.SampledTrajectory,
              stride: int) -> float:
    """max |closed form - rk4| over every ``stride``-th oracle level, at
    the oracle's own times dt*i from 0.  The path is evaluated a block at
    a time, so no full-length list of times or levels is held."""
    levels, dt = sampled.levels, sampled.dt
    gap = 0.0
    span = BLOCK_ROWS * stride
    for lo in range(0, len(levels), span):
        hi = min(lo + span, len(levels))
        times = [dt * i for i in range(lo, hi, stride)]
        gap = _block_gap(gap, levels[lo:hi:stride], traj.values(times))
    return gap


def _whole_steps(span: float, dt: float, at_least: int) -> float:
    """The step that splits span into whole steps no longer than dt, and
    into at least ``at_least`` of them.  A span the oracle would refuse
    (more than MAX_STEPS steps) keeps dt, so that integrate_ode reports
    it."""
    count = span / dt
    if not count <= oracle.MAX_STEPS:
        return dt
    return span / max(at_least, math.ceil(count))


def cmd_validate(config: ScenarioConfig) -> int:
    params = config.params()
    gamma = params.gamma
    failures: list[str] = []
    traj, schedule, analytic_cost, t_end = _resolve_scenario(config, params)
    dt = oracle.STEP_SCALE / gamma if config.dt is None else config.dt
    # dt sets only the samples, aligned to the horizon so no step overruns
    # it.  The oracle takes the fewest whole substeps per sample interval
    # that keep h*gamma <= STEP_SCALE, and the check compares every
    # stride-th level.
    dt = _whole_steps(t_end, dt, 8)
    ratio = dt * gamma / oracle.STEP_SCALE
    if ratio <= oracle.MAX_STEPS:
        # _whole_steps may lift a default dt a few ulps above
        # STEP_SCALE/gamma.  The slack here must match integrate_ode's
        # dt*gamma <= STEP_SCALE*(1 + 1e-12): a larger one keeps whole a
        # step the oracle refuses, a smaller one halves a step it accepts.
        stride = max(1, math.ceil(ratio * (1 - 1e-12)))
        h = dt / stride
    else:  # one sample interval alone (or an infinite count) is refused
        stride, h = 1, oracle.STEP_SCALE / gamma

    def run(end: float, step: float) -> oracle.SampledTrajectory:
        return oracle.integrate_ode(params, subsidy_schedule=schedule, x0=config.x0,
                                    t_end=end, dt=step)

    # Every run is integrated before any check prints, so that a run too
    # long for the oracle is refused with no partial report.
    sampled = run(t_end, h)
    runs = [sampled]
    numeric = 0.0
    window_dt = 0.0 if analytic_cost is None else _whole_steps(schedule.duration, h, 1000)
    if window_dt > 0.0:
        # A window of length 0, or one so short that its step underflows,
        # pays nothing.  The run covers the window past a shorter horizon.
        runs.append(run(schedule.end, window_dt))
        numeric = oracle.integrate_cost(runs[-1], schedule)

    # RK4's order is a local property: on one smooth piece the global
    # error at a fixed time is C(t)*h**4 + O(h**5), so halving h divides
    # it by about 16 at every time the runs share, whatever the piece's
    # length.  So the check compares a prefix of the piece before the
    # first junction, of at most CONVERGENCE_STEPS steps: a longer one
    # adds steps, not information.
    smooth_end = min(t_end, next((b for b in traj.breakpoints if b > 0.0), t_end))
    m = min(CONVERGENCE_STEPS, math.floor(smooth_end / h)) if smooth_end >= 8 * h else 0
    if m:
        half, quarter = (run(m * h, h / k) for k in (2, 4))
        runs += [half, quarter]

    settled = sum(r.settled for r in runs)
    print(f"oracle step {h:.6g} (h*gamma {h * gamma:.3g}): runs {len(runs)}, "
          f"RK4 steps {sum(len(r.levels) - 1 for r in runs) - settled}, "
          f"settled {settled}, kink splits {sum(r.splits for r in runs)}")
    _check("trajectory max |closed form - rk4|", _path_gap(traj, sampled, stride),
           TRAJECTORY_TOL, failures)
    if m:
        # The run at h up to the last grid time before the first junction
        # is the main run's prefix, bit for bit: both take the same steps
        # and split them at the same window end.  Each pair shares at most
        # 2*CONVERGENCE_STEPS + 1 samples, so one block holds it.
        d1 = _block_gap(0.0, sampled.levels[:m + 1], half.levels[::2])
        d2 = _block_gap(0.0, half.levels, quarter.levels[::2])
        # Deviations at the rounding floor carry no order information.
        ok = d1 < 1e-12 or d2 < 1e-15 or d1 / d2 >= 8.0
        _verdict(f"rk4 self-convergence (factor {d1 / max(d2, 1e-300):.1f})", ok, failures)

    if analytic_cost is not None:
        _check("cost |analytic - quadrature|", abs(analytic_cost - numeric),
               COST_TOL, failures)

    if failures:
        print(f"FAILED: {len(failures)} check(s)")
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def cmd_reproduce(example_id: int, out: str | None) -> int:
    out_dir = _resolve_output(out, ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    writer = {1: _reproduce_1, 2: _reproduce_2, 3: _reproduce_3, 4: _reproduce_4}
    paths = writer[example_id](out_dir)
    for p in paths:
        print(f"wrote {p}")
    return 0


def _reproduce_1(out_dir: Path) -> list[Path]:
    # Flat-affinity service: adoption under a full-cost subsidy for a few
    # window lengths, one of them the whole horizon, then the
    # duration/outlay tradeoff toward a target.
    base = ScenarioConfig(u_min=0.0, u_max=1.0, cost=0.5, externality=0.0, gamma=1.0,
                          kind="cls", s=0.5, t_end=8.0, dt=0.05)
    p1 = out_dir / "example1_adoption.csv"
    _write_text(p1, ["T", "t", "y"], chain.from_iterable(
        _simulate(base._replace(T=T), f"{label},", phase=False)[4]
        for label, T in (("0", 0.0), ("1", 1.0), ("2", 2.0), ("inf", base.t_end))
    ))

    wide = ModelParams(1.0, 6.0, 3.0, 0.0, 1.0)
    tradeoff = []
    for s in subsidy.linspace(-0.45, 3.0, 139):
        duration = subsidy.noext_required_duration(wide, 0.0, s, 0.5)
        outlay = subsidy.noext_cost_at_target(wide, 0.0, s, 0.5)
        tradeoff.append((s, duration, outlay))
    p2 = out_dir / "example1_duration_cost.csv"
    _write_csv(p2, ["s", "duration", "cost"], tradeoff)
    return [p1, p2]


def _reproduce_2(out_dir: Path) -> list[Path]:
    # Four (cost, externality) rows exercising each equilibrium regime.
    base = ScenarioConfig(u_min=1.0, u_max=2.0, gamma=1.0, t_end=10.0, dt=0.05)
    table, eq_rows, path_text = [], [], []
    for cost, externality in ((5.0, 2.0), (1.75, 0.5), (2.5, 2.0), (1.0, 0.5)):
        market = base._replace(cost=cost, externality=externality)
        report = classify_equilibria(market.params())
        table.append(
            (report.case_id, base.u_min, base.u_max, cost, externality,
             report.interior, report.band_low, report.band_high)
        )
        eq_rows += [(report.case_id, lvl, st) for lvl, st in report.equilibria]
        for x0 in (0.1, 1.0 / 3.0, 2.0 / 3.0, 0.9):
            prefix = "%d,%.17g," % (report.case_id, x0)
            path_text.append(_simulate(market._replace(x0=x0), prefix, phase=False)[4])
    p1 = out_dir / "example2_cases.csv"
    _write_csv(
        p1,
        ["case_id", "u_min", "u_max", "cost", "externality",
         "interior", "band_low", "band_high"],
        table,
    )
    p2 = out_dir / "example2_equilibria.csv"
    _write_csv(p2, ["case_id", "level", "stability"], eq_rows)
    p3 = out_dir / "example2_adoption.csv"
    _write_text(p3, ["case_id", "x0", "t", "x"], chain.from_iterable(path_text))
    return [p1, p2, p3]


def _reproduce_3(out_dir: Path) -> list[Path]:
    # Full-cost subsidy around the tipping thresholds.
    base = ScenarioConfig(u_min=1.0, u_max=2.0, cost=3.0, externality=3.0, gamma=1.0 / 3.0,
                          x0=0.25, kind="full", t_end=12.0, dt=0.06)
    report = subsidy.full_subsidy_analysis(base.params(), 0.0, base.x0, 0.0)
    lo, mid, hi = report.to_band_low, report.to_interior, report.to_band_high
    durations = [
        0.0, lo / 2, (lo + mid) / 2, 0.95 * mid, 1.05 * mid,
        (mid + hi) / 2, (3 * hi - mid) / 2,
    ]
    rows = [
        ("duration_to_band_low", lo),
        ("duration_to_interior", mid),
        ("duration_to_band_high", hi),
    ]
    path_text = []
    for i, duration in enumerate(durations, start=1):
        traj, outlay, _, _, text = _simulate(base._replace(T=duration), f"T{i},")
        rows += [(f"duration_{i}", duration), (f"final_equilibrium_{i}", traj.final_level),
                 (f"cost_{i}", outlay)]
        path_text.append(text)
    p1 = out_dir / "example3_thresholds.csv"
    _write_csv(p1, ["quantity", "value"], rows)
    p2 = out_dir / "example3_adoption.csv"
    _write_text(p2, ["duration_label", "t", "y", "phase"], chain.from_iterable(path_text))
    return [p1, p2]


def _reproduce_4(out_dir: Path) -> list[Path]:
    # Minimum-duration planner sweeps for two starting levels.
    base = ScenarioConfig(u_min=1.0, u_max=2.0, cost=2.5, externality=3.0, gamma=1.0,
                          kind="min_duration")
    params = base.params()
    e = params.externality
    paths = []
    summary = []
    for y0, tag in ((0.0, "0"), (0.125, "0.125")):
        p, result = _sweep_file(
            base._replace(x0=y0), params, out_dir / f"example4_sweep_y0_{tag}.csv")
        paths.append(p)
        s_hat = subsidy.min_subsidy(params, y0)
        b1, b2, b3, b4 = subsidy.subsidy_interval_bounds(params, y0)
        summary += [
            (f"min_subsidy[y0={tag}]", s_hat),
            (f"min_subsidy_normalized[y0={tag}]", s_hat / e),
            (f"bound_band_entry_normalized[y0={tag}]", b1 / e),
            (f"bound_band_exit_normalized[y0={tag}]", b3 / e),
            (f"bound_out_of_band_normalized[y0={tag}]", b4 / e),
            (f"max_normalized[y0={tag}]", params.cost / e),
            (f"flat_duration[y0={tag}]",
             subsidy.min_duration(params, y0, params.cost)),
            (f"cost_dip_level[y0={tag}]", result.dip_level),
        ]
    p_sum = out_dir / "example4_summary.csv"
    _write_csv(p_sum, ["quantity", "value"], summary)
    return paths + [p_sum]


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


# The verbs that read a scenario config: (handler, help).
VERBS = {
    "equilibria": (cmd_equilibria, "classify the equilibrium set"),
    "simulate": (cmd_simulate, "emit an exact trajectory as CSV"),
    "sweep": (cmd_sweep, "minimum-duration subsidy sweep with Pareto frontier"),
    "full-subsidy": (cmd_full_subsidy, "full-cost subsidy thresholds, outcome, and cost"),
    "noext": (cmd_noext, "no-externality subsidy analytics"),
    "validate": (cmd_validate, "closed-form vs numeric-oracle agreement checks"),
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="scenario config file (key = value lines)")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key; repeatable",
    )
    parser.add_argument("--output", help="output file path")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it:
    parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="netadopt",
        description="Adoption dynamics and cost-subsidy planning "
                    f"(config schema: {REFERENCE_PATH})",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, help_text) in VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        _add_common(p)
    p = sub.add_parser("reproduce", help="write the bundled scenario data files")
    p.add_argument("example_id", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--output", help="output directory")
    return parser


def _config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    overrides: dict[str, str] = {}
    for item in args.set:
        if "=" not in item:
            raise InvalidParameterError(f"--set needs KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if args.output:
        overrides["output"] = args.output
    return load_config(args.config, overrides)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "reproduce":
            return cmd_reproduce(args.example_id, args.output)
        return VERBS[args.verb][0](_config_from_args(args))
    except (InvalidParameterError, SingularParametersError, InvalidStepError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssumptionViolationError, InfeasibleSubsidyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

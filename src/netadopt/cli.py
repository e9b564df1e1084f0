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
import math
import os
import sys
from array import array
from bisect import bisect_left, bisect_right
from itertools import chain, islice
from operator import sub
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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
from .model import ModelParams, classify_equilibria

OUTPUT_DIR_ENV = "NETADOPT_OUTPUT_DIR"

TRAJECTORY_TOL = 1e-6
COST_TOL = 1e-5
MONOTONE_TOL = 1e-9
MAX_ROWS = 10**6  # per trajectory CSV, whose sample times are held in memory
BLOCK_ROWS = 1024  # CSV rows joined into one write


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _flag(value: bool) -> str:
    return "true" if value else "false"


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


def _fmt_line(row: Sequence) -> str:
    return ",".join(map(_fmt, row)) + "\n"


SWEEP_ROW = "%.17g,%.17g,%s,%.17g,%.17g,%d,closed_form,%s\n"


def _write_text(path: Path, header: Sequence[str], chunks: Iterable[str]) -> None:
    """Write the header line, then the CSV text chunk by chunk."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(chunks)


def _write_csv(
    path: Path, header: Sequence[str], rows: Iterable[Sequence], template: str | None = None
) -> None:
    """Write the rows under the header, BLOCK_ROWS rows per write.

    With a ``%`` template each row is formatted in one step ('%.17g' % v
    is format(v, '.17g') for every float, inf and nan included); without
    one each cell goes through ``_fmt``, as the short mixed-type tables need.
    """
    lines = map(template.__mod__ if template else _fmt_line, rows)
    _write_text(path, header, _chunks(lines))


def _chunks(lines: Iterator[str]) -> Iterator[str]:
    """The lines joined BLOCK_ROWS at a time."""
    while block := list(islice(lines, BLOCK_ROWS)):
        yield "".join(block)


def _write_sweep(
    path: Path, rows: Sequence[subsidy.SubsidySweepRow], frontier: subsidy.ParetoFrontier
) -> None:
    # Every outlay is a closed form; the method column keeps the layout.
    # An infeasible level has no duration or outlay: those cells read inf.
    on_frontier = {id(r) for r in frontier.frontier}
    _write_csv(
        path,
        ["s", "s_over_e", "feasible", "T_hat", "S", "regime", "method", "frontier"],
        (
            (r.level, r.normalized, _flag(r.feasible),
             math.inf if r.duration is None else r.duration,
             math.inf if r.cost is None else r.cost,
             r.regime, _flag(id(r) in on_frontier))
            for r in rows
        ),
        SWEEP_ROW,
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
    """The scenario's path, its subsidy window (None without one), and the
    window's analytic outlay (None where no closed form prices it)."""
    t0, x0 = config.t0, config.x0
    if not 0.0 <= x0 <= 1.0:
        raise InvalidParameterError(f"x0 must lie in [0, 1], got {x0}")
    if config.kind == "none":
        return closed_form.unsubsidized_trajectory(params, t0, x0), None, None
    if config.kind == "min_duration":
        if t0 != 0.0:
            raise InvalidParameterError("min_duration scenarios start at t0 = 0")
        traj = subsidy.min_duration_trajectory(params, x0, config.s)
        window = subsidy.ConstantLevelSubsidy(config.s, traj.subsidy_end)
        return traj, window, subsidy.min_duration_cost(params, x0, config.s).value
    level = params.cost if config.kind == "full" else config.s
    window = subsidy.ConstantLevelSubsidy(level, config.T, start=t0)
    if config.kind == "full" and params.externality > 0:
        # The full-subsidy analysis checks the bistable regime it needs.
        report = subsidy.full_subsidy_analysis(params, t0, x0, config.T)
        return report.trajectory, window, report.cost
    traj = subsidy.subsidized_trajectory(params, window, x0)
    if params.externality > 0:
        return traj, window, None
    return traj, window, subsidy.noext_subsidy_cost(params, window, x0)


def _sample_times(traj: PiecewiseTrajectory, t0: float, t_end: float, step: float) -> array:
    """The grid times t0 + i*step for i <= (t_end - t0)/step + 1e-9, t_end
    itself and the path's junctions in (t0, t_end], increasing, without repeats."""
    count = (t_end - t0) / step
    if not count <= MAX_ROWS:  # also refuses an overflow to inf
        raise InvalidParameterError(
            f"(t_end - t0)/dt = {count:.3g} rows exceeds the limit of {MAX_ROWS}"
        )
    n = int(math.floor(count + 1e-9))
    times = array("d", [t0 + i * step for i in range(n + 1)])
    if step <= 4.0 * math.ulp(abs(t0) + n * step):
        # A step within a few ulps of the times: rounding can repeat one.
        times = array("d", dict.fromkeys(times))
    extra = [t_end, *(b for b in traj.breakpoints if t0 < b <= t_end)]
    if traj.subsidy_end is not None and t0 < traj.subsidy_end <= t_end:
        extra.append(traj.subsidy_end)
    for t in extra:
        k = bisect_left(times, t)
        if k == len(times) or times[k] != t:
            times.insert(k, t)
    return times


def _path_text(
    traj: PiecewiseTrajectory, times: array, prefix: str = "", phase: bool = True
) -> Iterator[str]:
    """CSV rows ``prefix`` t,x[,phase] of the path at the sample times,
    BLOCK_ROWS rows per chunk.  The levels are evaluated a block at a
    time, so no full-length list is held."""
    sub_end = traj.subsidy_end
    cut = 0 if sub_end is None else bisect_right(times, sub_end)
    # One row template per phase, so each row is formatted in one step.
    inside, after = (
        prefix + "%.17g,%.17g" + (f",{name}\n" if phase else "\n")
        for name in ("subsidized", "unsubsidized")
    )
    for lo in range(0, len(times), BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, len(times))
        for a, b, row in ((lo, min(hi, cut), inside), (max(lo, cut), hi, after)):
            if a < b:
                block = times[a:b].tolist()
                yield "".join(map(row.__mod__, zip(block, traj.values(block))))


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
    params = config.params()
    traj, _, _ = _resolve_scenario(config, params)
    t_end = config.run_t_end()
    if t_end <= config.t0:
        raise InvalidParameterError("t_end must exceed t0")
    if config.kind == "min_duration" and traj.subsidy_end is not None:
        t_end = min(t_end, traj.subsidy_end)
    times = _sample_times(traj, config.t0, t_end, config.run_dt())
    path = _resolve_output(config.output, "trajectory.csv")
    _write_text(path, ["t", "x", "phase"], _path_text(traj, times))
    print(f"{len(times)} rows on [{_fmt(config.t0)}, {_fmt(t_end)}]")
    print(f"wrote {path}")
    return 0


def cmd_sweep(config: ScenarioConfig) -> int:
    if config.kind != "min_duration":
        raise InvalidParameterError("sweep requires kind = min_duration")
    params = config.params()
    rows, frontier = subsidy.sweep(params, config.x0, grid_points=config.run_sweep_points())
    path = _resolve_output(config.output, "sweep.csv")
    _write_sweep(path, rows, frontier)
    s_hat = subsidy.min_subsidy(params, config.x0)
    pattern = subsidy.cost_sign_pattern(rows, params, config.x0)
    print(f"min feasible level: {_fmt(s_hat)} (normalized {_fmt(s_hat / params.externality)})")
    print(f"frontier rows: {len(frontier.frontier)} of {len(rows)}")
    names = ("flat/rising", "rising", "falling", "falling then rising", "rising")
    verdicts = ", ".join(
        f"{name}={'ok' if v else 'empty' if v is None else 'VIOLATED'}"
        for name, v in zip(names, pattern.verdicts)
    )
    print(f"cost slope pattern: {verdicts}")
    if pattern.dip_level is not None:
        print(f"detected cost minimizer inside the numeric range: {_fmt(pattern.dip_level)}")
    print(f"wrote {path}")
    return 0


def cmd_full_subsidy(config: ScenarioConfig) -> int:
    params = config.params()
    report = subsidy.full_subsidy_analysis(params, config.t0, config.x0, config.T)
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
    dist = params.affinity
    cls = subsidy.ConstantLevelSubsidy(config.s, config.T, start=config.t0)
    rows: list[tuple] = [
        ("ccdf_at_cost", dist.ccdf(params.cost)),
        ("ccdf_at_subsidized_cost", dist.ccdf(params.cost - config.s)),
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
    ok = value <= tol
    print(f"{label} = {value:.3e} (tol {tol:g}): {'PASS' if ok else 'FAIL'}")
    if not ok:
        failures.append(label)


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


def _max_gap(a: array, b: array) -> float:
    """max |a - b| over the samples two oracle runs share."""
    gap = 0.0
    for lo in range(0, min(len(a), len(b)), BLOCK_ROWS):
        gap = _block_gap(gap, a[lo:lo + BLOCK_ROWS], b[lo:lo + BLOCK_ROWS])
    return gap


def _path_gap(traj: PiecewiseTrajectory, sampled: oracle.SampledTrajectory) -> float:
    """max |closed form - rk4| over the oracle's samples.  The path is
    evaluated a block at a time, so no full-length list of times or
    levels is held."""
    levels, t0, dt = sampled.levels, sampled.start_time, sampled.dt
    gap = 0.0
    for lo in range(0, len(levels), BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, len(levels))
        times = [t0 + dt * i for i in range(lo, hi)]
        gap = _block_gap(gap, levels[lo:hi], traj.values(times))
    return gap


def _whole_steps(span: float, dt: float, at_least: int, max_steps: int) -> float:
    """The step that splits span into whole steps no longer than dt, and
    into at least ``at_least`` of them.  A span the oracle would refuse
    (more than ``max_steps`` steps) keeps dt, so that integrate_ode
    reports it."""
    count = span / dt
    if not count <= max_steps:
        return dt
    return span / max(at_least, math.ceil(count))


def cmd_validate(config: ScenarioConfig) -> int:
    params = config.params()
    failures: list[str] = []
    traj, schedule, analytic_cost = _resolve_scenario(config, params)
    t0 = config.t0
    dt = config.run_dt()
    t_end = config.run_t_end()
    if config.kind == "min_duration" and traj.subsidy_end is not None:
        # Past the window the state sits on the basin boundary, where any
        # numerical perturbation is amplified; compare inside the window.
        t_end = traj.subsidy_end
    # Align the sample grid to the horizon so no step overruns it.
    dt = _whole_steps(t_end - t0, dt, 8, oracle.MAX_STEPS)

    sampled = oracle.integrate_ode(
        params, subsidy_schedule=schedule, t0=t0, x0=config.x0, t_end=t_end, dt=dt
    )
    window = None
    window_dt = 0.0 if analytic_cost is None else _whole_steps(
        schedule.duration, dt, 1000, oracle.MAX_STEPS)
    if window_dt > 0.0:
        # Integrated before any check prints, so that a window too long
        # for the oracle is refused with no partial report.  A window of
        # length 0, or one so short that its step underflows, pays nothing.
        window = oracle.integrate_ode(
            params, subsidy_schedule=schedule, t0=t0, x0=config.x0,
            t_end=schedule.end, dt=window_dt,
        )
    _check("trajectory max |closed form - rk4|", _path_gap(traj, sampled),
           TRAJECTORY_TOL, failures)

    smooth_end = t_end
    for b in traj.breakpoints:
        if b > t0:
            smooth_end = min(smooth_end, b)
            break
    if smooth_end - t0 >= 8 * dt:
        m = math.floor((smooth_end - t0) / dt)
        smooth_end = t0 + m * dt
        half, quarter = (
            oracle.integrate_ode(
                params, subsidy_schedule=schedule, t0=t0, x0=config.x0,
                t_end=smooth_end, dt=dt / k,
            ).levels
            for k in (2, 4)
        )
        # The run at dt up to smooth_end is the main run's prefix, bit for
        # bit: both take the same steps and split them at the same window end.
        d1 = _max_gap(sampled.levels[:m + 1], half[::2])
        d2 = _max_gap(half, quarter[::2])
        # Deviations at the rounding floor carry no order information.
        ok = d1 < 1e-12 or d2 < 1e-15 or d1 / d2 >= 8.0
        _verdict(f"rk4 self-convergence (factor {d1 / max(d2, 1e-300):.1f})", ok, failures)

    if analytic_cost is not None:
        numeric = 0.0 if window is None else oracle.integrate_cost(window, schedule)
        _check("cost |analytic - quadrature|", abs(analytic_cost - numeric),
               COST_TOL, failures)

    if config.kind == "min_duration":
        rows, _ = subsidy.sweep(params, config.x0, grid_points=config.run_sweep_points())
        durations = [r.duration for r in rows if r.duration is not None]
        drift = max(
            (b - a for a, b in zip(durations, durations[1:])), default=0.0
        )
        _verdict(f"required-duration monotone (max increase {drift:.2e})",
                 drift <= MONOTONE_TOL, failures)
        pattern = subsidy.cost_sign_pattern(rows, params, config.x0)
        _verdict("cost slope sign pattern", pattern.all_ok, failures)

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
    # Flat-affinity service: adoption under a half-cost subsidy for a few
    # window lengths, then the duration/outlay tradeoff toward a target.
    params = ModelParams(0.0, 1.0, 0.5, 0.0, 1.0)
    paths = []
    for label, duration in (("0", 0.0), ("1", 1.0), ("2", 2.0)):
        cls = subsidy.ConstantLevelSubsidy(params.cost, duration)
        paths.append((label, subsidy.subsidized_trajectory(params, cls, 0.0)))
    always = closed_form.unsubsidized_trajectory(params, 0.0, 0.0, effective_cost=0.0)
    paths.append(("inf", always))
    p1 = out_dir / "example1_adoption.csv"
    _write_text(p1, ["T", "t", "y"], chain.from_iterable(
        _path_text(traj, _sample_times(traj, 0.0, 8.0, 0.05), f"{label},", phase=False)
        for label, traj in paths
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


_REGIME_CASES = (
    (1.0, 2.0, 5.0, 2.0),
    (1.0, 2.0, 1.75, 0.5),
    (1.0, 2.0, 2.5, 2.0),
    (1.0, 2.0, 1.0, 0.5),
)


def _reproduce_2(out_dir: Path) -> list[Path]:
    # Four parameter rows exercising each equilibrium regime (gamma = 1).
    table, eq_rows, path_text = [], [], []
    for u_min, u_max, cost, externality in _REGIME_CASES:
        params = ModelParams(u_min, u_max, cost, externality, 1.0)
        report = classify_equilibria(params)
        table.append(
            (report.case_id, u_min, u_max, cost, externality,
             report.interior, report.band_low, report.band_high)
        )
        eq_rows += [(report.case_id, lvl, st) for lvl, st in report.equilibria]
        for x0 in (0.1, 1.0 / 3.0, 2.0 / 3.0, 0.9):
            traj = closed_form.unsubsidized_trajectory(params, 0.0, x0)
            times = _sample_times(traj, 0.0, 10.0, 0.05)
            prefix = "%d,%.17g," % (report.case_id, x0)
            path_text.append(_path_text(traj, times, prefix, phase=False))
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


_TIPPING_PARAMS = ModelParams(1.0, 2.0, 3.0, 3.0, 1.0 / 3.0)
_TIPPING_X0 = 0.25


def _reproduce_3(out_dir: Path) -> list[Path]:
    # Full-cost subsidy around the tipping thresholds.
    params, y0 = _TIPPING_PARAMS, _TIPPING_X0
    base = subsidy.full_subsidy_analysis(params, 0.0, y0, 0.0)
    lo, mid, hi = base.to_band_low, base.to_interior, base.to_band_high
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
        report = subsidy.full_subsidy_analysis(params, 0.0, y0, duration)
        rows.append((f"duration_{i}", duration))
        rows.append((f"final_equilibrium_{i}", report.final_equilibrium))
        rows.append((f"cost_{i}", report.cost))
        times = _sample_times(report.trajectory, 0.0, 12.0, 0.06)
        path_text.append(_path_text(report.trajectory, times, f"T{i},"))
    p1 = out_dir / "example3_thresholds.csv"
    _write_csv(p1, ["quantity", "value"], rows)
    p2 = out_dir / "example3_adoption.csv"
    _write_text(p2, ["duration_label", "t", "y", "phase"], chain.from_iterable(path_text))
    return [p1, p2]


_PLANNER_PARAMS = ModelParams(1.0, 2.0, 2.5, 3.0, 1.0)


def _reproduce_4(out_dir: Path) -> list[Path]:
    # Minimum-duration planner sweeps for two starting levels.
    params = _PLANNER_PARAMS
    paths = []
    summary = []
    for y0, tag in ((0.0, "0"), (0.125, "0.125")):
        rows, frontier = subsidy.sweep(params, y0)
        p = out_dir / f"example4_sweep_y0_{tag}.csv"
        _write_sweep(p, rows, frontier)
        paths.append(p)
        s_hat = subsidy.min_subsidy(params, y0)
        b1, b2, b3, b4 = subsidy.subsidy_interval_bounds(params, y0)
        pattern = subsidy.cost_sign_pattern(rows, params, y0)
        e = params.externality
        summary += [
            (f"min_subsidy[y0={tag}]", s_hat),
            (f"min_subsidy_normalized[y0={tag}]", s_hat / e),
            (f"bound_band_entry_normalized[y0={tag}]", b1 / e),
            (f"bound_band_exit_normalized[y0={tag}]", b3 / e),
            (f"bound_out_of_band_normalized[y0={tag}]", b4 / e),
            (f"max_normalized[y0={tag}]", params.cost / e),
            (f"flat_duration[y0={tag}]",
             subsidy.min_duration(params, y0, params.cost)),
            (f"cost_dip_level[y0={tag}]", pattern.dip_level),
        ]
    p_sum = out_dir / "example4_summary.csv"
    _write_csv(p_sum, ["quantity", "value"], summary)
    return paths + [p_sum]


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="scenario config file (key = value lines)")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key; repeatable",
    )
    parser.add_argument("--output", help="output file path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netadopt",
        description="Adoption dynamics and cost-subsidy planning "
                    f"(config schema: {REFERENCE_PATH})",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in (
        ("equilibria", "classify the equilibrium set"),
        ("simulate", "emit an exact trajectory as CSV"),
        ("sweep", "minimum-duration subsidy sweep with Pareto frontier"),
        ("full-subsidy", "full-cost subsidy thresholds, outcome, and cost"),
        ("noext", "no-externality subsidy analytics"),
        ("validate", "closed-form vs numeric-oracle agreement checks"),
    ):
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
        config = _config_from_args(args)
        handler = {
            "equilibria": cmd_equilibria,
            "simulate": cmd_simulate,
            "sweep": cmd_sweep,
            "full-subsidy": cmd_full_subsidy,
            "noext": cmd_noext,
            "validate": cmd_validate,
        }[args.verb]
        return handler(config)
    except (InvalidParameterError, SingularParametersError, InvalidStepError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssumptionViolationError, InfeasibleSubsidyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

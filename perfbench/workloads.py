"""Seeded scenarios for each workload, and the checks on their outputs.

A scenario is the list of ``--set`` assignments handed to one verb.  The
generator draws market parameters from ranges chosen per equilibrium
regime, as Latin-hypercube points whose cells are paired the same way
under every seed, so that the mix (and so the cost of a cycle through
it) changes little from seed to seed.  Checks run outside the timed
region and compare the verb's output with the repository's RK4/Simpson
oracle at the repository's own tolerances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

TRAJECTORY_TOL = 1e-6  # levels, as in cli.validate and the test suite
COST_TOL = 1e-5  # outlays
SWEEP_POINTS = 4096
STEP_SCALE = 1e-3  # default sampling and oracle step, dt * gamma
HORIZON_SCALE = 60.0  # default horizon, (t_end - t0) * gamma
README_TIPPING = (
    "u_min=1", "u_max=2", "cost=3", "externality=3",
    "gamma=0.3333333333333333", "x0=0.25", "kind=full", "T=1.277",
    "t_end=12", "dt=0.05",
)
README_KNOWN_FAILURE = "need 0 < dt*gamma <= 0.01"


@dataclass
class Scenario:
    """One verb invocation: the verb, its ``--set`` values, and a label."""

    verb: str
    values: dict
    label: str
    known_failure: str | None = None
    cache: dict = field(default_factory=dict, repr=False)

    def argv(self) -> list[str]:
        out = [self.verb]
        for key, value in self.values.items():
            out += ["--set", f"{key}={_text(value)}"]
        return out


def _text(value) -> str:
    return value if isinstance(value, str) else repr(value)


# ---------------------------------------------------------------------------
# Market generators (independent of the library, from the model's algebra)
# ---------------------------------------------------------------------------


def _lhs(rng: random.Random, n: int, dims: int) -> list[tuple[float, ...]]:
    """n points in [0, 1)^dims, one per cell of width 1/n in each dimension.

    The pairing of cells across dimensions is a fixed design; the seed
    only moves each point within its cells.  So every seed covers the
    ranges the same way and a cycle's cost moves little between seeds.
    """
    design = random.Random(n * 1000 + dims)
    columns = []
    for _ in range(dims):
        order = list(range(n))
        design.shuffle(order)
        columns.append([(i + rng.random()) / n for i in order])
    return list(zip(*columns))


def _market(regime: int, a: float, b: float, c: float, g: float) -> dict:
    """Parameters in the given regime from four unit draws.

    Regimes 1, 3 and 4 place the band edges inside (0, 1), so that start
    levels on either side of an edge exist; margins keep the market away
    from regime boundaries and from the singular line
    externality == u_max - u_min.
    """
    u_min = 0.5 + 1.0 * a
    spread = 0.6 + 1.0 * b
    u_max = u_min + spread
    gamma = 0.25 * (12.0 ** g)  # log-uniform on [0.25, 3]
    if regime == 0:  # no network effect
        e, cost = 0.0, u_min + (0.2 + 0.6 * c) * spread
    elif regime == 1:  # only the empty market is stable; band_low in [0.3, 0.7]
        e = (0.3 + 0.4 * c) * spread
        cost = u_max + (0.3 + 0.4 * b) * e
    elif regime == 2:  # one interior equilibrium; the band covers [0, 1]
        e = (0.2 + 0.4 * c) * spread
        cost = u_min + e + (0.2 + 0.6 * b) * (spread - e)
    elif regime == 3:  # bistable
        e = (1.6 + 1.2 * c) * spread
        cost = u_max + (0.25 + 0.5 * b) * (u_min + e - u_max)
    else:  # only the full market is stable; band_high in [0.3, 0.7]
        e = (0.3 + 0.4 * c) * spread
        cost = u_min + (0.3 + 0.4 * b) * e
    return dict(u_min=u_min, u_max=u_max, cost=cost, externality=e, gamma=gamma)


def interior(m: dict, cost: float | None = None) -> float:
    c = m["cost"] if cost is None else cost
    return (m["u_max"] - c) / (m["u_max"] - m["u_min"] - m["externality"])


def _start(m: dict, u: float, in_band: bool) -> float:
    """A start level inside or outside the band where adoption intent is partial.

    The side decides whether the unsubsidized path has a junction, and
    so how far validate's self-convergence check runs.  Starts keep 0.05
    away from the band edges and from the unstable interior point.
    """
    e = m["externality"]
    lo, hi = 0.02, 0.98
    if e > 0:
        low = (m["cost"] - m["u_max"]) / e
        high = (m["cost"] - m["u_min"]) / e
        if not in_band and low > 0.1:
            hi = low - 0.05
        elif not in_band and high < 0.9:
            lo = high + 0.05
        else:  # in band, or the band leaves no room outside it in [0, 1]
            lo, hi = max(lo, low + 0.05), min(hi, high - 0.05)
    x0 = lo + u * (hi - lo)
    if e > 0 and m["u_max"] - m["u_min"] < e:  # bistable: avoid the tipping level
        x_int = interior(m)
        if abs(x0 - x_int) < 0.05:
            x0 = x_int + (0.05 if x0 >= x_int else -0.05)
    return x0


def _planner_start(m: dict, u: float, positive: bool) -> float:
    """y0 below the tipping level: 0, or a positive level short of it."""
    if not positive:
        return 0.0
    return 0.02 + u * (interior(m) - 0.08)


def _scenarios(rng: random.Random, verb: str, plan: list[tuple[int, str]]) -> list[Scenario]:
    """One scenario per (regime, kind) entry, with LHS draws per stratum."""
    strata: dict[tuple[int, str], int] = {}
    for key in plan:
        strata[key] = strata.get(key, 0) + 1
    draws = {key: _lhs(rng, n, 6) for key, n in strata.items()}
    used = {key: 0 for key in strata}
    out = []
    for regime, kind in plan:
        key = (regime, kind)
        a, b, c, g, u, v = draws[key][used[key]]
        used[key] += 1
        m = _market(regime, a, b, c, g)
        values = dict(m)
        gamma = m["gamma"]
        if kind in ("full", "min_duration"):
            values["x0"] = _planner_start(m, u, positive=v >= 0.5)
        else:
            values["x0"] = _start(m, u, in_band=v < 0.5)
        values["kind"] = kind
        if kind == "cls":
            values["s"] = (0.2 + 0.7 * v) * m["cost"]
            values["T"] = (0.5 + 2.5 * u) / gamma
        elif kind == "full":
            values["T"] = (0.5 + 2.5 * u) / gamma
        elif kind == "min_duration":
            s_hat = (m["externality"] + m["u_min"] - m["u_max"]) * (interior(m) - values["x0"])
            values["s"] = s_hat + (0.15 + 0.8 * v) * (m["cost"] - s_hat)
        out.append(Scenario(verb, values, f"regime{regime}-{kind}"))
    return out


def planner_sweep(seed: int, markets: int, tiny: bool = False) -> list[Scenario]:
    """Bistable markets swept at 4096 levels, y0 = 0 on half, y0 > 0 on half."""
    rng = random.Random(seed)
    n = 2 if tiny else markets
    out = []
    for i, (a, b, c, g, u) in enumerate(_lhs(rng, n, 5)):
        m = _market(3, a, b, c, g)
        positive = i % 2 == 1
        values = dict(m, x0=_planner_start(m, u, positive),
                      kind="min_duration", sweep_points=16 if tiny else SWEEP_POINTS)
        out.append(Scenario("sweep", values, f"y0{'>' if positive else '='}0"))
    return out


# Every regime with and without a subsidy window, the planner kinds on the
# bistable regime, and markets without network effects.
_PATH_PLAN = [
    (1, "none"), (1, "cls"), (2, "none"), (2, "cls"), (3, "none"), (3, "cls"),
    (3, "full"), (3, "min_duration"), (4, "none"), (4, "cls"), (0, "none"), (0, "cls"),
]


def oracle_validate(seed: int, markets: int, tiny: bool = False) -> list[Scenario]:
    """validate over every regime and kind, plus the README example."""
    rng = random.Random(seed)
    plan = _PATH_PLAN * (1 if tiny else markets)
    out = _scenarios(rng, "validate", plan)
    if tiny:
        for s in out:
            s.values["t_end"] = 5.0 / s.values["gamma"]
    readme = dict(item.split("=", 1) for item in README_TIPPING)
    out.append(Scenario("validate", readme, "readme-tipping",
                        known_failure=README_KNOWN_FAILURE))
    return out


def trajectory_export(seed: int, markets: int, tiny: bool = False) -> list[Scenario]:
    """simulate at the default sampling over every regime and kind."""
    rng = random.Random(seed)
    out = _scenarios(rng, "simulate", _PATH_PLAN * (1 if tiny else markets))
    if tiny:
        for s in out:
            s.values["t_end"] = 0.05 / s.values["gamma"]
    return out


WORKLOADS = {
    "planner_sweep": planner_sweep,
    "oracle_validate": oracle_validate,
    "trajectory_export": trajectory_export,
}


# Markets per run: in all for planner_sweep, per (regime, kind) stratum
# for the other two.  An op's cost follows its market (validate's spans
# 0.1-1 s with where the path's first junction falls; a trajectory CSV's
# size with how fast the path settles), so with few markets op_p50_ms and
# op_p90_ms follow the seed's draws.  Sampling each stratum densely and
# running each market once (a run is one cycle of at least MIN_OPS ops)
# keeps them steady from seed to seed.  A traced pass costs about twice an
# untraced one, so traced runs take fewer markets.
TIMED_MARKETS = {"planner_sweep": 128, "oracle_validate": 10, "trajectory_export": 9}
TRACED_MARKETS = {"planner_sweep": 32, "oracle_validate": 2, "trajectory_export": 1}


def scenarios(workload: str, seed: int, tiny: bool = False,
              traced: bool = False) -> list[Scenario]:
    """The workload's scenarios for one run."""
    markets = (TRACED_MARKETS if traced else TIMED_MARKETS)[workload]
    return WORKLOADS[workload](seed, markets, tiny=tiny)


def minimal_argv(first: Scenario) -> list[str]:
    """The cheapest call of the scenario's verb on its market, for cold starts."""
    values = {k: first.values[k] for k in ("u_min", "u_max", "cost", "externality",
                                          "gamma", "x0")}
    if first.verb == "sweep":
        values.update(kind="min_duration", sweep_points=2)
    else:
        values.update(kind="none", t_end=0.1 / float(values["gamma"]))
    return Scenario(first.verb, values, "minimal").argv()


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class CheckFailed(Exception):
    """The verb's output disagrees with what the scenario requires."""


def _params(values: dict):
    from netadopt import ModelParams

    return ModelParams(*(float(values[k]) for k in
                         ("u_min", "u_max", "cost", "externality", "gamma")))


def _oracle_window(values: dict, level: float, start: float, duration: float,
                   t_end: float, dt: float):
    from netadopt import ConstantLevelSubsidy, integrate_ode

    schedule = ConstantLevelSubsidy(level, duration, start=start) if duration > 0 else None
    sampled = integrate_ode(_params(values), subsidy_schedule=schedule, t0=start,
                            x0=float(values["x0"]), t_end=t_end, dt=dt)
    return sampled, schedule


def _rows(data: bytes) -> tuple[list[bytes], list[list[bytes]]]:
    lines = data.split(b"\n")
    if lines[-1] != b"":
        raise CheckFailed("output does not end with a newline")
    header = lines[0].split(b",")
    return header, [line.split(b",") for line in lines[1:-1]]


# A known defect of the program, counted as a failed op like the README
# example.  At y0 = 0 the first two outlay-range bounds that
# subsidy.subsidy_interval_bounds returns, cost - u_max and min_subsidy,
# are equal in exact arithmetic, but rounding can put the first one ulp
# above the second.  The sweep row at that level then carries a range-2
# outlay of 0 (and sometimes a finite duration) although it lies above
# the feasibility threshold, and validate's slope-sign check, and at
# times its monotone-duration check, fail on that one row.  About one
# y0 = 0 market in twenty is hit.  The op counts as known only when
# nothing but those checks failed, the bounds are inverted, and both
# checks hold once that single row is left out.
BOUNDARY_CHECKS = ("cost slope sign pattern", "required-duration monotone")


def _boundary_rounding_defect(values: dict, failed: list[str]) -> bool:
    from netadopt import subsidy
    from netadopt.cli import MONOTONE_TOL

    if (not failed or any(not line.startswith(BOUNDARY_CHECKS) for line in failed)
            or values.get("kind") != "min_duration" or float(values["x0"]) != 0.0):
        return False
    params = _params(values)
    b1, s_hat, _, _ = subsidy.subsidy_interval_bounds(params, 0.0)
    if not b1 > s_hat:
        return False
    rows, _ = subsidy.sweep(params, 0.0, grid_points=int(values.get("sweep_points", 512)))
    rest = [r for r in rows if r.level != b1]
    durations = [r.duration for r in rest if r.duration is not None]
    monotone = all(b - a <= MONOTONE_TOL for a, b in zip(durations, durations[1:]))
    return (len(rest) < len(rows) and monotone
            and subsidy.cost_sign_pattern(rest, params, 0.0).all_ok)


def check_validate(scenario: Scenario, code: int, stdout: str) -> bool:
    """True on success, False on a known failure; raises otherwise."""
    if code == 0 and stdout.rstrip().endswith("all checks passed"):
        return True
    if scenario.known_failure and code == 2 and scenario.known_failure in stdout:
        return False
    failed = [line for line in stdout.splitlines() if line.endswith(": FAIL")]
    if code == 1 and _boundary_rounding_defect(scenario.values, failed):
        return False
    raise CheckFailed(f"validate exited {code}: {stdout.strip().splitlines()[-1:]}")


def _repeat(scenario: Scenario, data: bytes) -> bool:
    """True when the scenario was checked before and this output is identical.

    Outputs are byte-deterministic for a fixed config, so a repeat only
    has to match the first output, which got the full check.
    """
    first = scenario.cache.get("bytes")
    if first is None:
        return False
    if data != first:
        raise CheckFailed("output differs from this scenario's first output")
    return True


def check_simulate(scenario: Scenario, code: int, data: bytes) -> int:
    """Check a trajectory CSV; returns its data row count.

    Every grid time t0 + i*dt appears once and the horizon appears; the
    other rows are junctions (the window end or a band edge); the phase
    column follows the window; and every grid row matches the oracle
    path to TRAJECTORY_TOL.
    """
    if code != 0:
        raise CheckFailed(f"simulate exited {code}")
    if _repeat(scenario, data):
        return scenario.cache["rows"]
    import numpy as np

    fields = data.replace(b"\n", b",").split(b",")
    if fields[:3] != [b"t", b"x", b"phase"] or fields[-1] != b"" or len(fields) % 3 != 1:
        raise CheckFailed("not a t,x,phase CSV")
    times = np.array(list(map(float, fields[3:-1:3])))
    levels = np.array(list(map(float, fields[4:-1:3])))
    phases = fields[5:-1:3]
    v = scenario.values
    gamma = float(v["gamma"])
    t0 = float(v.get("t0", 0.0))
    dt = STEP_SCALE / gamma
    if len(times) < 2 or not np.all(np.diff(times) > 0):
        raise CheckFailed("sample times are not strictly increasing")
    kind = v["kind"]
    level, duration = 0.0, 0.0
    if kind == "cls":
        level, duration = float(v["s"]), float(v["T"])
    elif kind == "full":
        level, duration = float(v["cost"]), float(v["T"])
    subsidized = np.array(phases) == b"subsidized"
    if kind == "min_duration":
        # The path stops where the window closes: the last subsidized row.
        level = float(v["s"])
        duration = times[subsidized][-1] - t0 if subsidized.any() else 0.0
        t_end = t0 + duration
    else:
        t_end = float(v["t_end"]) if "t_end" in v else t0 + HORIZON_SCALE / gamma
    if duration > 0 and not np.array_equal(subsidized, times <= t0 + duration):
        raise CheckFailed("phase column does not follow the subsidy window")
    index = np.rint((times - t0) / dt)
    on_grid = times == t0 + index * dt
    n = max(1, int(math.floor((t_end - t0) / dt + 1e-9)))
    if not (np.array_equal(index[on_grid], np.arange(n + 1)) and t_end in times
            and times[-1] <= max(t_end, t0 + n * dt)):
        raise CheckFailed(f"rows do not cover the grid of {n + 1} times and the horizon")

    oracle, _ = _oracle_window(v, level, t0, duration, t_end, dt)
    gap = np.max(np.abs(levels[on_grid] - oracle.levels[: n + 1]))
    if not gap <= TRAJECTORY_TOL:
        raise CheckFailed(f"trajectory differs from the oracle by {gap:.3e}")

    e = float(v["externality"])
    for t, x in zip(times[~on_grid], levels[~on_grid]):
        if t == t_end or (duration > 0 and t == t0 + duration):
            continue
        ceff = float(v["cost"]) - (level if t <= t0 + duration else 0.0)
        band = ((ceff - float(v["u_max"])) / e, (ceff - float(v["u_min"])) / e) if e else ()
        if not any(abs(x - b) <= TRAJECTORY_TOL for b in band):
            raise CheckFailed(f"extra row at t={t!r}, x={x!r} is not a junction")
    scenario.cache.update(bytes=data, rows=len(times))
    return len(times)


def check_sweep(scenario: Scenario, code: int, data: bytes, rng: random.Random,
                samples: int | None = 3) -> int:
    """Check a sweep CSV; returns its data row count.

    One row per grid level, and at ``samples`` random feasible levels
    (all of them when None; new ones on every repeat of the scenario)
    the oracle run for T_hat ends on the tipping level and its outlay
    equals S.
    """
    if code != 0:
        raise CheckFailed(f"sweep exited {code}")
    import numpy as np
    from netadopt import integrate_cost

    v = scenario.values
    if not _repeat(scenario, data):
        header, rows = _rows(data)
        expected = [b"s", b"s_over_e", b"feasible", b"T_hat", b"S", b"regime", b"method",
                    b"frontier"]
        if header != expected:
            raise CheckFailed(f"bad header {header}")
        levels = np.array([float(r[0]) for r in rows])
        grid = np.linspace(0.0, float(v["cost"]), int(v["sweep_points"]))
        if not (np.all(np.diff(levels) > 0) and np.isin(grid, levels).all()
                and len(rows) <= len(grid) + 4):
            raise CheckFailed("sweep rows do not match the level grid")
        feasible = [r for r in rows if r[2] == b"true"]
        if not feasible:
            raise CheckFailed("no feasible level")
        scenario.cache.update(bytes=data, rows=len(rows), feasible=feasible)

    feasible = scenario.cache["feasible"]
    picks = feasible if samples is None else rng.sample(feasible, min(samples, len(feasible)))
    gamma = float(v["gamma"])
    x_int = interior(v)
    for r in picks:
        level, t_hat, outlay = float(r[0]), float(r[3]), float(r[4])
        if not (t_hat > 0 and math.isfinite(outlay)):
            raise CheckFailed(f"level {level!r}: T_hat {r[3]!r}, S {r[4]!r}")
        steps = max(1000, math.ceil(t_hat * gamma / STEP_SCALE))
        window, schedule = _oracle_window(v, level, 0.0, t_hat, t_hat, t_hat / steps)
        gap = abs(window.levels[-1] - x_int)
        if not gap <= TRAJECTORY_TOL:
            raise CheckFailed(f"level {level!r}: x(T_hat) misses the tipping level by {gap:.3e}")
        gap = abs(integrate_cost(window, schedule) - outlay)
        if not gap <= COST_TOL:
            raise CheckFailed(f"level {level!r}: S differs from the oracle by {gap:.3e}")
    return scenario.cache["rows"]

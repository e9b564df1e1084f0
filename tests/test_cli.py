import contextlib
import hashlib
import io
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netadopt import ModelParams, min_subsidy
from netadopt.cli import main

TIPPING_KEYS = [
    "u_min=1", "u_max=2", "cost=3", "externality=3", "gamma=0.3333333333333333",
]
PLANNER_KEYS = ["u_min=1", "u_max=2", "cost=2.5", "externality=3", "gamma=1"]
# u_max == u_min + externality == cost: every in-band level is a fixed point.
SINGULAR_KEYS = ["u_min=1", "u_max=2", "cost=2", "externality=1", "gamma=1", "x0=0.3"]
README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sets(*pairs):
    out = []
    for p in pairs:
        out += ["--set", p]
    return out


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_equilibria_bistable(tmp_path, capsys):
    out = tmp_path / "eq.csv"
    code, stdout, _ = run(
        capsys, "equilibria",
        *sets("u_min=1", "u_max=2", "cost=2.5", "externality=2", "gamma=1"),
        "--output", str(out),
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["level", "stability"]
    assert [(float(a), b) for a, b in rows] == [
        (0.0, "stable"), (0.5, "unstable"), (1.0, "stable"),
    ]
    assert "case 3" in stdout


def test_equilibria_single(tmp_path, capsys):
    out = tmp_path / "eq.csv"
    code, stdout, _ = run(
        capsys, "equilibria",
        *sets("u_min=1", "u_max=2", "cost=5", "externality=2", "gamma=1"),
        "--output", str(out),
    )
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 1 and float(rows[0][0]) == 0.0
    assert "case 1" in stdout


def test_equilibria_refuses_an_overflowed_level(tmp_path, capsys):
    # cost/externality and the interior level overflow to inf: refused,
    # not printed as "interior equilibrium: inf".
    out = tmp_path / "eq.csv"
    code, stdout, stderr = run(
        capsys, "equilibria",
        *sets("u_min=1.2099055496489133", "u_max=1.2099055496489144", "cost=1e308",
              "externality=1.5330519898213123e-15", "gamma=0.3"),
        "--output", str(out),
    )
    assert (code, stdout) == (2, "")
    assert stderr.count("\n") == 1
    assert stderr.startswith("error: equilibrium levels overflowed to inf")
    assert not out.exists()


def test_equilibria_invalid_bounds(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "equilibria",
        *sets("u_min=2", "u_max=1", "cost=1", "externality=1", "gamma=1"),
    )
    assert code == 2
    assert "u_min must be < u_max" in stderr


def test_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "scenario.txt"
    cfg.write_text(
        "# bistable scenario\n"
        "u_min = 1\nu_max = 2\ncost = 2.5\nexternality = 2\ngamma = 1\n"
        "x0 = 0.25  # start below the boundary\n"
    )
    out = tmp_path / "eq.csv"
    code, stdout, _ = run(
        capsys, "equilibria", "--config", str(cfg),
        *sets("cost=5"), "--output", str(out),
    )
    assert code == 0
    assert "case 1" in stdout  # override wins over the file


def test_unknown_config_key(tmp_path, capsys):
    code, _, stderr = run(capsys, "equilibria", *sets("nope=1"))
    assert code == 2 and "unknown config key" in stderr


def test_config_reference_documents_exactly_the_accepted_keys():
    # Each "# key = value" line of the reference names a ScenarioConfig
    # field, every field has one, and the examples load as they stand.
    from netadopt.config import REFERENCE_PATH, ScenarioConfig, load_config

    documented = dict(re.findall(r"^# (\w+)\s*=\s*(\S+)", REFERENCE_PATH.read_text(), re.M))
    assert sorted(documented) == sorted(ScenarioConfig._fields)
    assert load_config(None, documented).output == "result.csv"


def test_simulate_decay_rows(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, _, _ = run(
        capsys, "simulate", *sets(*TIPPING_KEYS, "x0=0.25", "t_end=3", "dt=0.25"),
        "--output", str(out),
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "x", "phase"]
    gamma = 1.0 / 3.0
    for t_s, x_s, phase in rows:
        t, x = float(t_s), float(x_s)
        assert x == pytest.approx(0.25 * math.exp(-gamma * t), abs=1e-12)
        assert phase == "unsubsidized"


def test_simulate_includes_breakpoints(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, _, _ = run(
        capsys, "simulate",
        *sets(*TIPPING_KEYS, "x0=0.25", "kind=full", "T=1.277", "t_end=14", "dt=0.5"),
        "--output", str(out),
    )
    assert code == 0
    _, rows = read_csv(out)
    times = [float(r[0]) for r in rows]
    assert any(abs(t - 1.277) < 1e-12 for t in times)  # window end row
    phases = {r[2] for r in rows}
    assert phases == {"subsidized", "unsubsidized"}
    assert float(rows[-1][1]) > 0.9  # tips to full adoption


def test_simulate_bad_horizon(tmp_path, capsys):
    code, _, _ = run(
        capsys, "simulate", *sets(*TIPPING_KEYS, "t_end=-1"),
    )
    assert code == 2


def test_simulate_assumption_violation(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "simulate",
        *sets("u_min=1", "u_max=2", "cost=5", "externality=3", "gamma=1",
              "kind=full", "T=1"),
    )
    assert code == 3
    assert "cost <= u_min + externality" in stderr


def test_simulate_routes_zero_externality(tmp_path, capsys):
    # With no network effect the subsidized path is the two-phase
    # exponential; the window end shows up as a phase change.
    out = tmp_path / "traj.csv"
    code, _, _ = run(
        capsys, "simulate",
        *sets("u_min=0", "u_max=1", "cost=0.5", "externality=0", "gamma=1",
              "x0=0", "kind=cls", "s=0.5", "T=1", "t_end=4", "dt=0.25"),
        "--output", str(out),
    )
    assert code == 0
    _, rows = read_csv(out)
    by_time = {float(r[0]): (float(r[1]), r[2]) for r in rows}
    assert by_time[1.0][1] == "subsidized"
    assert by_time[1.25][1] == "unsubsidized"
    assert by_time[1.0][0] == pytest.approx(1 - math.exp(-1.0), abs=1e-12)


def test_full_subsidy_regime_violation(tmp_path, capsys):
    code, _, _ = run(
        capsys, "full-subsidy",
        *sets("u_min=1", "u_max=2", "cost=1.5", "externality=3", "gamma=1",
              "x0=0.1", "kind=full", "T=1"),
    )
    assert code == 3


def test_validate_noext_cls_cost_check(tmp_path, capsys):
    # Without network effects a full subsidy is the level-cost window.
    for kind in ("kind=cls", "kind=full"):
        code, stdout, _ = run(
            capsys, "validate",
            *sets("u_min=0", "u_max=1", "cost=0.5", "externality=0", "gamma=1",
                  "x0=0", kind, "s=0.5", "T=1", "t_end=6"),
        )
        assert code == 0
        assert "cost |analytic - quadrature|" in stdout


def test_validate_outlays_at_small_gamma(capsys):
    # At a small gamma*T the outlays' 1 - exp(-gamma*T) cancels, and
    # dividing by gamma made the gap to the quadrature 6e-5 (2.7 at
    # gamma = 1e-300, 1.7e-4 for the window without network effects).
    full = ("u_min=1", "u_max=2", "cost=3", "externality=3", "x0=0.1", "kind=full")
    noext = ("u_min=1", "u_max=2", "cost=1.5", "externality=0", "x0=0.1", "kind=cls",
             "s=0.3")
    for keys in ((*full, "gamma=1e-12"), (*full, "gamma=1e-300"), (*noext, "gamma=1e-15")):
        code, stdout, stderr = run(capsys, "validate", *sets(*keys, "T=1", "t_end=3"))
        assert (code, stderr) == (0, ""), keys
        assert "cost |analytic - quadrature|" in stdout and stdout.endswith("all checks passed\n")


def test_validate_zero_length_window(tmp_path, capsys):
    # A window of length 0 pays nothing: the outlay check compares the
    # analytic outlay against 0 instead of integrating an empty window.
    noext = ("u_min=0", "u_max=1", "cost=0.5", "externality=0", "gamma=1", "x0=0.1")
    # A subnormal window counts as one of length 0: its oracle step
    # underflows, and its outlay (here 3 * 5e-324) is compared against 0.
    tipping = (*TIPPING_KEYS, "x0=0.25", "kind=full", "dt=0.01")
    for keys, outlay in (((*tipping, "T=0"), "0.000e+00"),
                         ((*noext, "kind=cls", "s=0.25", "T=0"), "0.000e+00"),
                         ((*noext, "kind=full", "T=0"), "0.000e+00"),
                         ((*tipping, "T=5e-324"), "1.482e-323")):
        code, stdout, stderr = run(capsys, "validate", *sets(*keys, "t_end=5"))
        assert (code, stderr) == (0, ""), keys
        assert f"cost |analytic - quadrature| = {outlay} (tol 1e-05): PASS" in stdout


def test_sweep_outputs(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run(
        capsys, "sweep",
        *sets(*PLANNER_KEYS, "x0=0", "kind=min_duration", "sweep_points=128"),
        "--output", str(out),
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["s", "s_over_e", "feasible", "T_hat", "S", "regime", "method", "frontier"]
    by_level = {float(r[0]): r for r in rows}
    # Infeasible rows render an inf duration.
    for level, r in by_level.items():
        if level <= 0.5:
            assert r[2] == "false" and r[3] == "inf"
    # The closest row to level 2 sits on the flat duration range.
    closest = min(by_level, key=lambda s: abs(s - 2.0))
    row = by_level[closest]
    assert float(row[3]) == pytest.approx(math.log(4 / 3), abs=1e-9)
    assert float(row[4]) == pytest.approx(0.0754, abs=1e-3)
    assert any(r[7] == "true" for r in rows)
    assert "min feasible level: 0.5" in stdout


def test_sweep_minimizer_is_a_feasible_level(tmp_path, capsys):
    # Here b3 < s_hat, so the fourth outlay range starts at min_subsidy,
    # level 1, whose row is infeasible with outlay 0; it was printed as
    # the minimizer.
    code, stdout, _ = run(
        capsys, "sweep",
        *sets("u_min=1", "u_max=2", "cost=3", "externality=3", "gamma=1", "x0=0",
              "kind=min_duration"),
        "--output", str(tmp_path / "sweep.csv"),
    )
    assert code == 0
    assert "detected cost minimizer inside the numeric range: 1.1448140900195694\n" in stdout


def test_sweep_requires_min_duration_kind(tmp_path, capsys):
    code, _, _ = run(capsys, "sweep", *sets(*PLANNER_KEYS, "x0=0"))
    assert code == 2


@pytest.mark.parametrize("gamma, expected", [("5e-324", 2), ("1", 0)])
def test_sweep_exits_2_when_durations_overflow(tmp_path, capsys, gamma, expected):
    # Dividing by a subnormal gamma overflowed T_hat and S to inf and the
    # slope checks printed VIOLATED with exit 0; now the input is refused.
    # The same market at gamma = 1 writes finite cells and every check holds.
    out = tmp_path / "sweep.csv"
    code, stdout, stderr = run(
        capsys, "sweep",
        *sets("u_min=1", "u_max=2", "cost=2.5", "externality=3", f"gamma={gamma}",
              "x0=0.1", "kind=min_duration", "sweep_points=8"),
        "--output", str(out),
    )
    assert code == expected
    if expected == 2:
        assert stdout == "" and not out.exists()
        assert stderr.count("\n") == 1 and "gamma" in stderr
        return
    _, rows = read_csv(out)
    assert all(math.isfinite(float(r[4])) for r in rows)
    assert all(math.isfinite(float(r[3])) for r in rows if r[2] == "true")
    assert "VIOLATED" not in stdout


@pytest.mark.parametrize("verb", ["sweep", "simulate", "validate"])
def test_planner_refuses_tipping_level_one(tmp_path, capsys, verb):
    # cost == u_min + externality puts the tipping level at 1, where the
    # planner's range 4-5 durations divided by zero with a traceback.
    out = tmp_path / "out.csv"
    code, stdout, stderr = run(
        capsys, verb,
        *sets("u_min=1", "u_max=2", "cost=4", "externality=3", "gamma=1", "x0=0",
              "kind=min_duration", "s=3"),
        "--output", str(out),
    )
    assert code == 3
    assert stdout == "" and not out.exists()
    assert stderr.count("\n") == 1 and "requires cost < u_min + externality" in stderr


@pytest.mark.parametrize("verb", ["simulate", "validate"])
@pytest.mark.parametrize("level", ["0", "0.3", "0.5"])
def test_min_duration_refuses_a_level_at_or_below_min_subsidy(tmp_path, capsys, verb, level):
    # min_subsidy is 0.5 here: no window from a level at or below it tips
    # the market, so there is no path to write or check.
    out = tmp_path / "out.csv"
    code, stdout, stderr = run(
        capsys, verb, *sets(*PLANNER_KEYS, "x0=0", "kind=min_duration", f"s={level}"),
        "--output", str(out),
    )
    assert (code, stdout) == (3, "") and not out.exists()
    assert stderr == (f"error: level {float(level)} cannot reach the tipping level "
                      "(min_subsidy 0.5)\n")


@pytest.mark.parametrize("verb", ["simulate", "validate"])
def test_min_duration_refuses_an_empty_window(tmp_path, capsys, verb):
    # The start is one ulp below the tipping level 1/4, and the range-5
    # window rounds to length 0: the horizon it cuts leaves nothing to
    # sample.  simulate wrote one row on [0, 0] and validate exited 2 from
    # the oracle; both now refuse it as a start at the tipping level.
    out = tmp_path / "out.csv"
    code, stdout, stderr = run(
        capsys, verb,
        *sets(*PLANNER_KEYS, "x0=0.24999999999999997", "kind=min_duration", "s=2.5"),
        "--output", str(out),
    )
    assert (code, stdout) == (3, "") and not out.exists()
    assert stderr == ("error: scenario outside supported regime: requires "
                      "y0 < interior equilibrium (0.24999999999999997 is within "
                      "rounding of it: the window is empty)\n")


def test_sweep_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = run(
            capsys, "sweep",
            *sets(*PLANNER_KEYS, "x0=0", "kind=min_duration", "sweep_points=64"),
            "--output", str(out),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_full_subsidy_verb(tmp_path, capsys):
    out = tmp_path / "full.csv"
    code, stdout, _ = run(
        capsys, "full-subsidy",
        *sets(*TIPPING_KEYS, "x0=0.25", "kind=full", "T=1.824"),
        "--output", str(out),
    )
    assert code == 0
    header, rows = read_csv(out)
    quantities = {r[0]: r[1] for r in rows}
    assert float(quantities["duration_to_interior"]) == pytest.approx(1.216, abs=1e-3)
    assert float(quantities["final_equilibrium"]) == 1.0


def test_noext_verb(tmp_path, capsys):
    out = tmp_path / "noext.csv"
    code, stdout, _ = run(
        capsys, "noext",
        *sets("u_min=1", "u_max=6", "cost=3", "externality=0", "gamma=1",
              "x0=0", "s=2", "T=1", "target=0.5"),
        "--output", str(out),
    )
    assert code == 0
    _, rows = read_csv(out)
    q = {r[0]: r[1] for r in rows}
    assert float(q["required_duration"]) == pytest.approx(math.log(2), abs=1e-12)
    assert float(q["cost_at_target"]) == pytest.approx(0.3862943611198906, abs=1e-12)
    assert q["cost_decreasing_condition"] == "false"


def test_noext_requires_zero_externality(tmp_path, capsys):
    code, _, stderr = run(capsys, "noext", *sets(*PLANNER_KEYS))
    assert code == 2
    assert "externality = 0" in stderr


def test_validate_passes_on_tipping_scenario(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "validate",
        *sets(*TIPPING_KEYS, "x0=0.25", "kind=full", "T=1.824", "t_end=20"),
    )
    assert code == 0
    assert "PASS" in stdout and "FAIL" not in stdout


def test_validate_fails_on_a_shifted_segment(capsys, monkeypatch):
    # At the largest step, dt*gamma = 1e-2, the oracle agrees with a correct
    # closed form; shifting the path's first, in-band segment by 2e-6 fails
    # the trajectory check and nothing else.
    from netadopt import PiecewiseTrajectory

    keys = (*TIPPING_KEYS, "x0=0.6", "t_end=20", "dt=0.03")
    code, stdout, _ = run(capsys, "validate", *sets(*keys))
    assert code == 0 and stdout.endswith("all checks passed\n")
    values = PiecewiseTrajectory.values

    def shifted(self, times):
        junction = self.segments[1].start_time
        return [x + 2e-6 if t < junction else x
                for t, x in zip(times, values(self, times))]

    monkeypatch.setattr(PiecewiseTrajectory, "values", shifted)
    code, stdout, _ = run(capsys, "validate", *sets(*keys))
    assert code == 1
    assert "trajectory max |closed form - rk4| = 2.000e-06 (tol 1e-06): FAIL" in stdout
    assert stdout.endswith("FAILED: 1 check(s)\n")


def test_validate_passes_where_a_step_crosses_a_kink(capsys):
    # RK4 stepping across a kink of the ccdf has low-order error: before
    # the oracle split such steps, this correct closed form failed at
    # dt = 0.01 with a gap of 3.99e-6.
    code, stdout, _ = run(
        capsys, "validate",
        *sets("u_min=1", "u_max=2", "cost=3", "externality=3.890047096581447", "gamma=1",
              "x0=0.1", "kind=cls", "s=1.2", "T=1", "t_end=5", "dt=0.01"),
    )
    assert code == 0 and stdout.endswith("all checks passed\n")
    assert stdout.startswith(
        "oracle step 0.01 (h*gamma 0.01): runs 3, RK4 steps 596, settled 0, kink splits 1\n")
    gap = re.search(r"rk4\| = (\S+) ", stdout).group(1)
    assert float(gap) <= 1e-7


def test_validate_reports_the_settled_samples(capsys, monkeypatch):
    # Climbing onto the top clamp, the oracle's state stops changing in
    # floating point short of 1, and the oracle copies the rest of each
    # run rather than stepping it.  The line counts those samples apart
    # from the RK4 steps; together they are every sample after the first.
    from netadopt import oracle

    runs = []
    original = oracle.integrate_ode

    def recording(params, **kwargs):
        runs.append(original(params, **kwargs))
        return runs[-1]

    monkeypatch.setattr(oracle, "integrate_ode", recording)
    code, stdout, _ = run(capsys, "validate", *sets(*PLANNER_KEYS, "x0=0.6"))
    assert code == 0 and stdout.endswith("all checks passed\n")
    steps, settled = map(int, re.search(r"RK4 steps (\d+), settled (\d+),", stdout).groups())
    assert settled == sum(r.settled for r in runs) > 0
    assert steps + settled == sum(len(r.levels) - 1 for r in runs)


def test_in_process_calls_do_not_affect_each_other(tmp_path, capsys):
    # main() builds its parser once per process.  Neither an override nor
    # an argparse refusal in one call may reach the next: each call's
    # stdout and CSV equal those of the call in a new interpreter.
    from netadopt.cli import _build_parser

    out = tmp_path / "out.csv"
    call = ["simulate", *sets(*TIPPING_KEYS, "x0=0.25", "t_end=3", "dt=0.1"),
            "--output", str(out)]
    proc = subprocess.run([sys.executable, "-m", "netadopt", *call],
                          capture_output=True, text=True)
    fresh = (proc.returncode, proc.stdout, out.read_bytes())
    assert fresh[0] == 0

    def in_process(*extra):
        out.unlink(missing_ok=True)
        code, stdout, _ = run(capsys, *call, *extra)
        return code, stdout, out.read_bytes()

    # A first call with keys the second lacks, which would change its CSV.
    assert in_process(*sets("kind=cls", "s=2", "T=1")) != fresh
    assert in_process() == fresh
    for refused in (["bogus"], ["reproduce", "9"], ["simulate", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(refused)
        assert exc.value.code == 2
        assert in_process() == fresh
    assert _build_parser() is _build_parser()
    assert _build_parser().parse_args(["simulate"]).set == []
    # A library-only import builds no parser.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import netadopt.cli as cli\nprint(cli._build_parser.cache_info().currsize)"],
        capture_output=True, text=True,
    )
    assert proc.stdout == "0\n", proc.stderr


def test_validate_samples_at_dt_and_substeps_the_oracle(capsys, monkeypatch):
    # dt sets only the samples: the README market at dt = 0.05
    # (dt*gamma = 0.0167) runs the oracle at two substeps per sample and
    # compares every second level; without dt, both steps are 0.01/gamma.
    from netadopt import oracle

    steps = []
    original = oracle.integrate_ode

    def recording(params, **kwargs):
        steps.append(kwargs["dt"])
        return original(params, **kwargs)

    monkeypatch.setattr(oracle, "integrate_ode", recording)
    for dt, h, line in ((("dt=0.05",), 0.025, "oracle step 0.025 (h*gamma 0.00833): runs 4, "),
                        ((), 0.03, "oracle step 0.03 (h*gamma 0.01): runs 4, ")):
        steps.clear()
        code, stdout, _ = run(capsys, "validate", *_TIPPING_CALL, *sets(*dt))
        assert code == 0 and stdout.endswith("all checks passed\n")
        assert stdout.startswith(line)
        assert steps[0] == pytest.approx(h, rel=1e-12)
        assert steps[2:] == [steps[0] / 2, steps[0] / 4]


@pytest.mark.parametrize("gamma", ["1e-300", "1", "1e300"])
@pytest.mark.parametrize("dt", ["1e308", "5e-324"])
def test_validate_extreme_sample_steps(capsys, dt, gamma):
    # The substep count dt*gamma/1e-2 overflows to inf at dt = 1e308 on a
    # long horizon; each case ends in exit 0, or exit 2 with one line.
    keys = ("u_min=1", "u_max=2", "cost=3", "externality=3", f"gamma={gamma}", "x0=0.25",
            f"dt={dt}")
    for extra in ((), ("t_end=1e308",)):
        code, stdout, stderr = run(capsys, "validate", *sets(*keys, *extra))
        if code == 0:
            assert stderr == "" and stdout.endswith("all checks passed\n")
        else:
            assert (code, stdout) == (2, ""), (extra, stdout)
            assert stderr.count("\n") == 1 and "exceeds the limit of 10000000" in stderr


def test_validate_min_duration_verdicts(tmp_path, capsys):
    # The planner's slope verdicts are sweep's: validate runs the oracle
    # checks only, and sweep prints the verdicts on the same market.
    keys = (*PLANNER_KEYS, "x0=0", "kind=min_duration", "s=1.0", "sweep_points=96")
    code, stdout, _ = run(capsys, "validate", *sets(*keys))
    assert code == 0 and stdout.endswith("all checks passed\n")
    assert "monotone" not in stdout and "pattern" not in stdout
    code, stdout, _ = run(capsys, "sweep", *sets(*keys), "--output", str(tmp_path / "s.csv"))
    assert code == 0
    assert ("cost slope pattern: flat/rising=ok, rising=empty, falling=ok, "
            "falling then rising=ok, rising=ok\n") in stdout


def test_reproduce_example2(tmp_path, capsys):
    code, _, _ = run(capsys, "reproduce", "2", "--output", str(tmp_path))
    assert code == 0
    header, rows = read_csv(tmp_path / "example2_cases.csv")
    interior = [float(r[header.index("interior")]) for r in rows]
    assert interior == [3.0, 0.5, 0.5, 2.0]
    cases = [int(r[0]) for r in rows]
    assert cases == [1, 2, 3, 4]


def test_reproduce_example3(tmp_path, capsys):
    code, _, _ = run(capsys, "reproduce", "3", "--output", str(tmp_path))
    assert code == 0
    _, rows = read_csv(tmp_path / "example3_thresholds.csv")
    q = {r[0]: float(r[1]) for r in rows}
    assert q["duration_to_band_low"] == pytest.approx(0.353, abs=1e-3)
    assert q["duration_to_interior"] == pytest.approx(1.216, abs=1e-3)
    assert q["duration_to_band_high"] == pytest.approx(2.433, abs=1e-3)
    durations = [q[f"duration_{i}"] for i in range(1, 8)]
    expected = [0.0, 0.177, 0.785, 1.156, 1.277, 1.824, 3.041]
    assert durations == pytest.approx(expected, abs=1e-3)


def test_reproduce_example4(tmp_path, capsys):
    code, _, _ = run(capsys, "reproduce", "4", "--output", str(tmp_path))
    assert code == 0
    _, rows = read_csv(tmp_path / "example4_summary.csv")
    q = {r[0]: r[1] for r in rows}
    assert float(q["min_subsidy[y0=0]"]) == 0.5
    assert float(q["min_subsidy[y0=0.125]"]) == 0.25


def test_reproduce_example1(tmp_path, capsys):
    code, _, _ = run(capsys, "reproduce", "1", "--output", str(tmp_path))
    assert code == 0
    header, rows = read_csv(tmp_path / "example1_duration_cost.csv")
    # Durations are finite exactly for levels above -1/2.
    for s_s, d_s, _ in rows:
        s = float(s_s)
        if s < -0.5:
            assert d_s == "inf"
        elif s > -0.45:
            pass
    finite = [float(r[0]) for r in rows if r[1] != "inf"]
    assert min(finite) > -0.5


def test_reproduce_unknown_id(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "9"])
    assert exc.value.code == 2


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NETADOPT_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run(
        capsys, "equilibria",
        *sets("u_min=1", "u_max=2", "cost=2.5", "externality=2", "gamma=1"),
    )
    assert code == 0
    assert (tmp_path / "equilibria.csv").exists()


def test_reproduce_relative_output_uses_env_dir(tmp_path, capsys, monkeypatch):
    # reproduce resolves a relative directory like every other verb.
    base, cwd = tmp_path / "base", tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("NETADOPT_OUTPUT_DIR", str(base))
    code, stdout, _ = run(capsys, "reproduce", "2", "--output", "sub")
    assert code == 0
    assert (base / "sub" / "example2_cases.csv").exists()
    assert not (cwd / "sub").exists()
    assert f"wrote {base / 'sub' / 'example2_cases.csv'}" in stdout


def test_csv_float_format_17_digits(tmp_path, capsys):
    out = tmp_path / "eq.csv"
    run(
        capsys, "equilibria",
        *sets("u_min=1", "u_max=2", "cost=2.5", "externality=3", "gamma=1"),
        "--output", str(out),
    )
    _, rows = read_csv(out)
    # 0.25 round-trips exactly through the 17-significant-digit format.
    assert rows[1][0] == "0.25"


def _assert_same_text(got: str, expected: str) -> None:
    # A bool, not the strings, goes to the assert: pytest's diff of two
    # long texts takes minutes.
    same = got == expected
    got_lines, want = got.split("\n"), expected.split("\n")
    first = next((i for i, (a, b) in enumerate(zip(got_lines, want)) if a != b),
                 min(len(got_lines), len(want)))
    assert same, f"line {first}: {got_lines[first:first + 1]} != {want[first:first + 1]}"


def _check_sweep_csv(tmp_path, capsys, x0, points):
    # The verb is a thin adapter: the same bytes fall out of direct
    # library calls plus the per-cell CSV formatting rules.
    from netadopt import ModelParams, sweep
    from netadopt.cli import _fmt

    out = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "sweep",
        *sets(*PLANNER_KEYS, f"x0={x0}", "kind=min_duration", f"sweep_points={points}"),
        "--output", str(out),
    )
    assert code == 0
    result = sweep(ModelParams(1, 2, 2.5, 3, 1), x0, grid_points=points)
    lines = ["s,s_over_e,feasible,T_hat,S,regime,method,frontier"]
    for i, (level, regime, duration, outlay) in enumerate(zip(*result[:4])):
        lines.append(",".join(_fmt(v) for v in (
            level, level / 3, duration is not None, duration, outlay,
            regime, "closed_form", i in result.frontier,
        )))
    _assert_same_text(out.read_text(), "\n".join(lines) + "\n")
    return result


def test_sweep_csv_reproducible_from_library(tmp_path, capsys):
    _check_sweep_csv(tmp_path, capsys, 0.0, 48)


def test_sweep_csv_across_row_blocks(tmp_path, capsys):
    # Rows are formatted a block at a time: two block boundaries, an
    # infeasible range with inf cells and the constant range-5 duration.
    from netadopt.cli import BLOCK_ROWS

    result = _check_sweep_csv(tmp_path, capsys, 0.125, 2100)
    assert len(result.levels) > 2 * BLOCK_ROWS
    assert set(result.regimes) == {1, 2, 3, 4, 5}


def _check_simulate_csv(tmp_path, capsys, window, t_end, dt, grid):
    # The grid i*dt up to t_end, the horizon, the window end and the
    # band-edge junctions, each once and in order, valued by the path.
    from netadopt import ModelParams, full_subsidy_analysis
    from netadopt.cli import _fmt

    out = tmp_path / "traj.csv"
    code, stdout, _ = run(
        capsys, "simulate",
        *sets(*TIPPING_KEYS, "x0=0.25", "kind=full", f"T={window}", f"t_end={t_end}",
              f"dt={dt}"),
        "--output", str(out),
    )
    assert code == 0
    params = ModelParams(1, 2, 3, 3, 0.3333333333333333)
    traj = full_subsidy_analysis(params, 0.0, 0.25, window).trajectory
    junctions = [b for b in traj.breakpoints if 0.0 < b <= t_end]
    assert junctions and window in traj.breakpoints
    times = sorted({*grid, t_end, window, *junctions})
    lines = ["t,x,phase"] + [
        f"{_fmt(t)},{_fmt(traj.value(t))},{'subsidized' if t <= window else 'unsubsidized'}"
        for t in times
    ]
    _assert_same_text(out.read_text(), "\n".join(lines) + "\n")
    assert stdout.startswith(f"{len(times)} rows on [0, {_fmt(t_end)}]\n")
    return times


def test_simulate_csv_reproducible_from_library(tmp_path, capsys):
    _check_simulate_csv(tmp_path, capsys, 2.0, 10.0, 0.3, [i * 0.3 for i in range(34)])


def test_simulate_csv_across_row_blocks(tmp_path, capsys):
    # More than two blocks of rows, the window closing inside the second.
    from netadopt.cli import BLOCK_ROWS

    dt = 1 / 256
    times = _check_simulate_csv(tmp_path, capsys, 5.0, 10.0, dt,
                                [i * dt for i in range(2561)])
    assert len(times) > 2 * BLOCK_ROWS
    assert BLOCK_ROWS < times.index(5.0) < 2 * BLOCK_ROWS - 1


def test_simulate_rows_stop_at_horizon(tmp_path, capsys):
    # A step longer than the horizon leaves the start and the horizon.
    out = tmp_path / "traj.csv"
    code, stdout, _ = run(
        capsys, "simulate",
        *sets(*TIPPING_KEYS[:4], "gamma=1", "x0=0.25", "t_end=1", "dt=5"),
        "--output", str(out),
    )
    assert code == 0
    _, rows = read_csv(out)
    assert [r[0] for r in rows] == ["0", "1"]
    assert stdout.startswith("2 rows on [0, 1]\n")


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "netadopt", "equilibria",
         "--set", "u_min=1", "--set", "u_max=2", "--set", "cost=2.5",
         "--set", "externality=2", "--set", "gamma=1",
         "--output", str(tmp_path / "eq.csv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "eq.csv").exists()


def test_zero_or_negative_dt_is_invalid_input(tmp_path, capsys):
    for verb in ("simulate", "validate"):
        for dt in ("0", "-1"):
            code, _, stderr = run(
                capsys, verb, *sets(*TIPPING_KEYS, "x0=0.25", "t_end=2", f"dt={dt}"),
                "--output", str(tmp_path / "out.csv"),
            )
            assert code == 2
            assert stderr == f"error: dt must be > 0, got {float(dt)!r}\n"
    # load_config checks dt once, so a verb that never reads it refuses it too.
    code, _, stderr = run(
        capsys, "sweep", *sets(*PLANNER_KEYS, "x0=0", "kind=min_duration",
                               "sweep_points=8", "dt=0"),
        "--output", str(tmp_path / "sweep.csv"),
    )
    assert (code, stderr) == (2, "error: dt must be > 0, got 0.0\n")


def test_negative_sweep_points_is_invalid_input(tmp_path, capsys):
    for verb in ("sweep", "validate"):
        code, _, stderr = run(
            capsys, verb, *sets(*PLANNER_KEYS, "x0=0", "kind=min_duration", "s=1",
                                "sweep_points=-3"),
            "--output", str(tmp_path / "sweep.csv"),
        )
        assert code == 2
        assert stderr == "error: sweep_points must be >= 0, got -3\n"


def test_sweep_zero_start_boundary_market(tmp_path, capsys):
    # At y0 = 0 this market's first outlay bound, cost - u_max, rounds one
    # ulp above min_subsidy; no sweep row may fall between the two.  Such
    # a row broke the slope verdicts and the falling durations.
    keys = ("u_min=0.935609791532341", "u_max=1.685870423705207",
            "cost=1.8797231588513614", "externality=1.346491514237461",
            "gamma=1.099522908476864")
    market = ModelParams(*(float(k.split("=")[1]) for k in keys))
    assert market.cost - market.u_max > min_subsidy(market, 0.0)
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run(capsys, "sweep", *sets(*keys, "x0=0.0", "kind=min_duration"),
                          "--output", str(out))
    assert code == 0 and "VIOLATED" not in stdout
    _, rows = read_csv(out)
    s_hat = min_subsidy(market, 0.0)
    assert all(r[2] == "true" and int(r[5]) >= 3 for r in rows if float(r[0]) > s_hat)
    durations = [float(r[3]) for r in rows if r[2] == "true"]
    assert all(b <= a + 1e-9 for a, b in zip(durations, durations[1:]))


def test_sweep_from_negative_zero_writes_the_csv_of_zero(tmp_path, capsys):
    # load_config reads x0 = -0.0 as 0.0; range 1's outlay s*y0/gamma
    # used to read -0 from it.
    texts = []
    for x0 in ("-0.0", "0"):
        out = tmp_path / f"sweep_{x0}.csv"
        code, _, _ = run(capsys, "sweep", *sets(*PLANNER_KEYS, f"x0={x0}", "kind=min_duration",
                                                "sweep_points=16"), "--output", str(out))
        assert code == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    assert ",-0," not in texts[0]


def test_simulate_zero_externality_edges(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    base = ("u_min=0", "u_max=1", "cost=0.5", "externality=0", "gamma=1",
            "x0=0", "kind=cls", "T=1", "t_end=2", "dt=0.5")
    # A zero level is no window: every row is unsubsidized.
    code, _, _ = run(capsys, "simulate", *sets(*base, "s=0"), "--output", str(out))
    assert code == 0
    _, rows = read_csv(out)
    assert {r[2] for r in rows} == {"unsubsidized"}
    # A level above the cost is accepted without network effects.
    code, _, _ = run(capsys, "simulate", *sets(*base, "s=0.7"), "--output", str(out))
    assert code == 0


@pytest.mark.parametrize("window, acts", [(("s=0", "T=1"), False), (("s=1", "T=0"), False),
                                          (("s=1", "T=1"), True)])
def test_simulate_window_that_does_nothing_with_network_effects(tmp_path, capsys, window,
                                                                acts):
    # The README sweep market: a window of zero level or zero length is no
    # window, so no row reads subsidized and t = 1 is no junction; a
    # window that acts ends in a row at t = 1.
    out = tmp_path / "traj.csv"
    code, _, stderr = run(
        capsys, "simulate",
        *sets(*PLANNER_KEYS, "x0=0", "kind=cls", "t_end=2", "dt=0.3", *window),
        "--output", str(out),
    )
    assert (code, stderr) == (0, "")
    _, rows = read_csv(out)
    assert ("1" in [r[0] for r in rows]) == acts
    assert ({r[2] for r in rows} == {"unsubsidized"}) == (not acts)


def test_near_singular_min_duration_simulate(tmp_path, capsys):
    # externality/(u_max - u_min) = 1 + 1e-6: the in-band fixed point of
    # the subsidized dynamics is about -7.5e5, far from the path, yet the
    # in-band climb meets the band edge exactly and the window ends on the
    # tipping level 0.5.
    out = tmp_path / "traj.csv"
    code, stdout, stderr = run(
        capsys, "simulate",
        *sets("u_min=1", "u_max=2", "cost=2.0000005", "externality=1.000001", "gamma=1",
              "x0=0", "kind=min_duration", "s=0.75"),
        "--output", str(out),
    )
    assert (code, stderr) == (0, "")
    _, rows = read_csv(out)
    assert stdout.startswith(f"{len(rows)} rows on [0, ")
    assert float(rows[-1][1]) == pytest.approx(0.5, abs=1e-12)
    assert all(0.0 <= float(r[1]) <= 1.0 for r in rows)


_PLANNER_CALL = [*sets(*PLANNER_KEYS, "x0=0", "kind=min_duration")]
_TIPPING_CALL = [*sets(*TIPPING_KEYS, "x0=0.25", "kind=full", "T=1.277", "t_end=12")]


_VERB_CALLS = {
    "import": None,  # a bare ``import netadopt``
    "sweep": ["sweep", *_PLANNER_CALL],
    "simulate": ["simulate", *_TIPPING_CALL],
    "equilibria": ["equilibria", *sets(*TIPPING_KEYS)],
    "full-subsidy": ["full-subsidy", *_TIPPING_CALL],
    "noext": ["noext", *sets("u_min=1", "u_max=6", "cost=3", "externality=0", "gamma=1",
                             "s=1", "T=2", "target=0.5")],
    **{f"reproduce-{k}": ["reproduce", k] for k in "1234"},
    "validate": ["validate", *_TIPPING_CALL, *sets("dt=0.01")],
}


@pytest.mark.parametrize("name", list(_VERB_CALLS))
def test_only_validate_imports_numpy(tmp_path, name):
    # The package is stdlib-only: no verb imports numpy, not even validate,
    # the one that used to.  Each call runs in a fresh interpreter where any
    # ``import numpy`` raises ImportError, and must still exit 0.
    argv = _VERB_CALLS[name]
    call = "import netadopt" if argv is None else (
        f"import netadopt\nfrom netadopt.cli import main\nassert main({argv!r}) == 0"
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys\nsys.modules['numpy'] = None\n{call}\nprint(sys.modules['numpy'])"],
        capture_output=True, text=True, env={**os.environ, "NETADOPT_OUTPUT_DIR": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "None"


def test_validate_reuses_the_main_run_as_its_dt_run(capsys, monkeypatch):
    # The self-convergence check compares the main oracle run, cut at the
    # last grid time before the path's first junction, against runs at
    # dt/2 and dt/4.  That prefix must be the run at dt to the same end.
    from netadopt import oracle

    calls = []
    original = oracle.integrate_ode

    def recording(params, **kwargs):
        calls.append((params, kwargs))
        return original(params, **kwargs)

    monkeypatch.setattr(oracle, "integrate_ode", recording)
    for keys in (
        (*TIPPING_KEYS, "x0=0.6", "kind=none", "t_end=20", "dt=0.01"),
        (*TIPPING_KEYS, "x0=0.25", "kind=cls", "s=2", "T=3", "t_end=12", "dt=0.01"),
        (*TIPPING_KEYS, "x0=0.25", "kind=cls", "s=0", "T=1", "t_end=12", "dt=0.01"),
        (*TIPPING_KEYS, "x0=0.25", "kind=full", "T=1.277", "t_end=12", "dt=0.01"),
        (*PLANNER_KEYS, "x0=0", "kind=min_duration", "s=1.0", "sweep_points=16"),
    ):
        calls.clear()
        code, stdout, _ = run(capsys, "validate", *sets(*keys))
        assert code == 0 and "rk4 self-convergence" in stdout, keys
        (params, main_run), *rest = calls
        half = [kw for _, kw in rest if kw["dt"] == main_run["dt"] / 2]
        assert len(half) == 1 and all(kw["dt"] != main_run["dt"] for _, kw in rest)
        fresh = original(params, **{**main_run, "t_end": half[0]["t_end"]}).levels
        prefix = original(params, **main_run).levels[:len(fresh)]
        assert len(fresh) > 8 and prefix.tobytes() == fresh.tobytes(), keys


def test_validate_fails_on_a_nan_level(capsys, monkeypatch):
    # A NaN level at the last of 1201 samples, past the first block, fails
    # the trajectory check (a plain max over the block maxima would drop it).
    from netadopt import PiecewiseTrajectory

    values = PiecewiseTrajectory.values

    def nan_at_end(self, times):
        out = values(self, times)
        for i, t in enumerate(times):
            if t > 11.999:
                out[i] = math.nan
        return out

    monkeypatch.setattr(PiecewiseTrajectory, "values", nan_at_end)
    code, stdout, _ = run(capsys, "validate", *_TIPPING_CALL, *sets("dt=0.01"))
    assert code == 1
    assert "trajectory max |closed form - rk4| = nan (tol 1e-06): FAIL" in stdout
    assert stdout.endswith("FAILED: 1 check(s)\n")


def test_validate_fails_on_a_nan_in_the_half_step_run(capsys, monkeypatch):
    # A NaN level inside a block of the dt/2 run, not at the block's first
    # sample, fails the self-convergence check (a plain max over the
    # differences would drop it).
    from netadopt import oracle

    original = oracle.integrate_ode
    steps = []  # the first run is the main run, at dt

    def nan_in_half_run(params, **kwargs):
        sampled = original(params, **kwargs)
        steps.append(kwargs["dt"])
        if kwargs["dt"] == steps[0] / 2:
            assert len(sampled.levels) == 1025
            sampled.levels[700] = math.nan
        return sampled

    monkeypatch.setattr(oracle, "integrate_ode", nan_in_half_run)
    # Above the band the path never meets a junction: the compared prefix
    # is the cap, 512 steps at dt and 1025 samples at dt/2.
    keys = (*TIPPING_KEYS, "x0=0.9", "kind=none", "t_end=20", "dt=0.01")
    code, stdout, _ = run(capsys, "validate", *sets(*keys))
    assert code == 1
    assert "trajectory max |closed form - rk4|" in stdout and "(tol 1e-06): PASS" in stdout
    assert "rk4 self-convergence (factor nan): FAIL" in stdout
    assert stdout.endswith("FAILED: 1 check(s)\n")


def test_validate_fails_on_a_second_order_oracle(capsys, monkeypatch):
    # Cut to second order, h*(1 + z/2), the oracle still matches the
    # closed form to 2.8e-10 at h*gamma = 1e-4, so the path check passes.
    # Only the self-convergence check sees the order: halving h divides
    # the error by 4, not 16.
    from netadopt import oracle

    keys = ("u_min=1", "u_max=2", "cost=2.5", "externality=3", "gamma=0.5", "x0=0.2",
            "kind=none", "t_end=10", "dt=0.0002")
    code, stdout, _ = run(capsys, "validate", *sets(*keys))
    assert code == 0 and stdout.endswith("all checks passed\n")
    monkeypatch.setattr(oracle, "_factor", lambda h, slope: h * (1.0 + h * slope / 2))
    code, stdout, _ = run(capsys, "validate", *sets(*keys))
    assert code == 1
    gap = re.search(r"rk4\| = (\S+) \(tol 1e-06\): PASS\n", stdout).group(1)
    assert float(gap) < 1e-9
    assert "rk4 self-convergence (factor 4.0): FAIL\n" in stdout
    assert stdout.endswith("FAILED: 1 check(s)\n")


@pytest.mark.parametrize("lift, stride", [(5e-13, 1), (2e-12, 2)])
def test_validate_substeps_a_sample_step_just_above_the_oracle_limit(capsys, monkeypatch,
                                                                      lift, stride):
    # dt*gamma/1e-2 = 1 + lift, on a horizon of exactly 1024 steps.  Up to
    # integrate_ode's own slack of 1e-12 validate keeps the step whole and
    # the oracle accepts it; past that slack the oracle refuses it, and
    # validate runs two substeps per sample.
    from netadopt import oracle
    from netadopt.errors import InvalidStepError

    dt = 0.01 * (1 + lift)
    steps = []
    original = oracle.integrate_ode

    def recording(params, **kwargs):
        steps.append(kwargs["dt"])
        return original(params, **kwargs)

    monkeypatch.setattr(oracle, "integrate_ode", recording)
    code, stdout, _ = run(capsys, "validate",
                          *sets(*PLANNER_KEYS, "x0=0.2", f"t_end={1024 * dt!r}", f"dt={dt!r}"))
    assert code == 0 and stdout.endswith("all checks passed\n")
    assert steps[0] == dt / stride
    if stride == 2:
        with pytest.raises(InvalidStepError, match="need 0 < dt\\*gamma <= 0.01"):
            original(ModelParams(1, 2, 2.5, 3, 1), x0=0.2, t_end=1.0, dt=dt)


@pytest.mark.parametrize("verb, keys, message", [
    # ccdf(0) read 0.0, not 0.5, and validate passed, as its oracle read
    # the same spread.
    ("validate", ("u_min=-1e308", "u_max=1e308", "cost=0", "externality=0"),
     "u_max - u_min overflowed to inf (inputs it scales with: u_min = -1e+308, "
     "u_max = 1e+308)"),
    # equilibria printed an interior level of 0, not 1/6.
    ("equilibria", ("u_min=1e308", "u_max=1.7e308", "cost=1.75e308", "externality=1e308"),
     "u_min + externality overflowed to inf (inputs it scales with: u_min = 1e+308, "
     "externality = 1e+308)"),
])
def test_a_market_with_an_overflowed_sum_is_invalid_input(capsys, verb, keys, message):
    # Each input is finite, but the sum is inf.
    code, stdout, stderr = run(capsys, verb, *sets(*keys, "gamma=1", "x0=0.2", "kind=none"))
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")


def test_noext_refuses_an_overflowed_outlay(tmp_path, capsys):
    # The outlay overflows to inf: refused, not printed as "cls_cost: inf".
    out = tmp_path / "noext.csv"
    code, stdout, stderr = run(capsys, "noext", *sets(
        "u_min=0", "u_max=1", "cost=1e308", "externality=0", "gamma=1", "x0=0", "s=1e308",
        "T=1e308"), "--output", str(out))
    assert (code, stdout) == (2, "")
    assert stderr == ("error: no-externality outlay overflowed to inf (inputs it scales "
                      "with: level = 1e+308, duration = 1e+308, gamma = 1.0)\n")
    assert not out.exists()


def test_simulate_times_from_zero_strictly_increase(tmp_path, capsys):
    # The smallest subnormal step: from t = 0 every grid time i*dt is the
    # exact multiple, so no time repeats and each row is one sample.
    out = tmp_path / "traj.csv"
    code, stdout, _ = run(
        capsys, "simulate",
        *sets(*TIPPING_KEYS, "x0=0.25", "t_end=1e-321", "dt=5e-324"),
        "--output", str(out),
    )
    assert code == 0
    _, rows = read_csv(out)
    times = [float(r[0]) for r in rows]
    assert all(a < b for a, b in zip(times, times[1:]))
    assert times == [i * 5e-324 for i in range(len(times))]
    assert (len(times), times[-1]) == (203, 1e-321)
    assert stdout.startswith("203 rows on [0, 9.9801260459931802e-322]\n")


def test_singular_line_paths(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, _, stderr = run(
        capsys, "simulate", *sets(*SINGULAR_KEYS, "t_end=2", "dt=0.5"), "--output", str(out),
    )
    assert (code, stderr) == (0, "")
    _, rows = read_csv(out)
    assert {float(r[1]) for r in rows} == {0.3}
    for extra in ((), ("kind=cls", "s=0.5", "T=1")):
        code, stdout, stderr = run(capsys, "validate", *sets(*SINGULAR_KEYS, *extra, "t_end=5"))
        assert (code, stderr) == (0, "")
        assert "all checks passed" in stdout


def test_reproduce_example4_sweeps_match_sweep_verb(tmp_path, capsys):
    assert run(capsys, "reproduce", "4", "--output", str(tmp_path))[0] == 0
    for tag in ("0", "0.125"):
        out = tmp_path / f"verb_{tag}.csv"
        code, _, _ = run(
            capsys, "sweep", *sets(*PLANNER_KEYS, f"x0={tag}", "kind=min_duration"),
            "--output", str(out),
        )
        assert code == 0
        assert out.read_bytes() == (tmp_path / f"example4_sweep_y0_{tag}.csv").read_bytes()


def test_reproduce_example3_paths_match_simulate_verb(tmp_path, capsys):
    assert run(capsys, "reproduce", "3", "--output", str(tmp_path))[0] == 0
    _, rows = read_csv(tmp_path / "example3_thresholds.csv")
    durations = {r[0]: r[1] for r in rows}
    blocks: dict[str, list[str]] = {}
    for line in (tmp_path / "example3_adoption.csv").read_text().splitlines()[1:]:
        label, rest = line.split(",", 1)
        blocks.setdefault(label, []).append(rest + "\n")
    assert list(blocks) == [f"T{i}" for i in range(1, 8)]
    for i in range(1, 8):
        out = tmp_path / f"T{i}.csv"
        code, _, _ = run(
            capsys, "simulate",
            *sets(*TIPPING_KEYS, "x0=0.25", "kind=full", f"T={durations[f'duration_{i}']}",
                  "t_end=12", "dt=0.06"),
            "--output", str(out),
        )
        assert code == 0
        assert out.read_bytes() == ("t,x,phase\n" + "".join(blocks[f"T{i}"])).encode()


def test_readme_command_line_examples(tmp_path, capsys, monkeypatch):
    block = re.search(r"```sh\n(cat > .*?)```", README.read_text(), re.S).group(1)
    heredoc = re.match(r"cat > (\S+) <<'CFG'\n(.*?\n)CFG\n", block, re.S)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NETADOPT_OUTPUT_DIR", raising=False)
    (tmp_path / heredoc.group(1)).write_text(heredoc.group(2))
    commands = block[heredoc.end():].replace("\\\n", " ").split("\n")
    commands = [shlex.split(c) for c in commands if c.strip()]
    assert len(commands) == 3
    for argv in commands:
        assert argv[0] == "netadopt"
        code, _, stderr = run(capsys, *argv[1:])
        assert code == 0, (argv, stderr)


def test_full_subsidy_outside_pure_climb_is_unsupported(tmp_path, capsys):
    # Bistable, but u_min + externality*x0 < 0: under a free service the
    # path does not climb purely toward 1, so the closed forms do not apply.
    keys = ("u_min=-1", "u_max=0.5", "cost=1", "externality=3", "gamma=1",
            "x0=0.1", "kind=full", "T=0.5")
    for verb in ("full-subsidy", "validate", "simulate"):
        code, stdout, stderr = run(
            capsys, verb, *sets(*keys), "--output", str(tmp_path / "out.csv"),
        )
        assert (code, stdout) == (3, "")
        assert "u_min + externality*y0 >= 0" in stderr


@pytest.mark.parametrize("horizon", ["t_end=-1e308"])
def test_validate_refuses_an_overflowing_empty_horizon(tmp_path, capsys, horizon):
    # t_end/dt is -inf here, and math.ceil of it raised OverflowError
    # with a traceback; validate refuses the horizon as simulate does.
    code, stdout, stderr = run(
        capsys, "validate", *sets(*TIPPING_KEYS, "x0=0.25", horizon),
    )
    assert (code, stdout) == (2, "")
    assert stderr == "error: t_end must be > 0\n"


def test_validate_window_too_long_for_oracle(tmp_path, capsys):
    # The README tipping market with a window of 1e300 (1e302 oracle
    # steps).  At 1e308 the full-subsidy outlay itself overflows, and the
    # analysis refuses the window before the oracle sees it.
    for T, message in (("1e300", "exceeds the limit of 10000000"),
                       ("1e308", "outlay overflowed to inf (inputs it scales with: cost = 3.0, "
                                 "duration = 1e+308, gamma = 0.3333333333333333)")):
        code, stdout, stderr = run(
            capsys, "validate",
            *sets(*TIPPING_KEYS, "x0=0.25", "kind=full", f"T={T}", "t_end=12", "dt=0.01"),
        )
        assert (code, stdout) == (2, "")
        assert stderr.count("\n") == 1 and message in stderr


def test_oversized_outputs_are_invalid_input(tmp_path, capsys):
    out = tmp_path / "out.csv"
    for points in ("1000001", "100000000000000000000"):
        code, _, stderr = run(
            capsys, "sweep",
            *sets(*PLANNER_KEYS, "x0=0", "kind=min_duration", f"sweep_points={points}"),
            "--output", str(out),
        )
        assert code == 2
        assert stderr == f"error: sweep_points must be <= 1000000, got {points}\n"
    for extra, count in ((("t_end=2", "dt=1e-300"), "2e+300"),
                         (("t_end=1e308", "dt=5e-324"), "inf")):
        code, _, stderr = run(
            capsys, "simulate", *sets(*TIPPING_KEYS, "x0=0.25", *extra), "--output", str(out),
        )
        assert code == 2
        assert stderr == f"error: t_end/dt = {count} rows exceeds the limit of 1000000\n"
    assert not out.exists()


CONFIG_VERBS = ("equilibria", "simulate", "sweep", "full-subsidy", "noext", "validate")


@pytest.mark.parametrize("verb", CONFIG_VERBS)
@pytest.mark.parametrize("bad, message", [
    (("x0=5",), "x0 must lie in [0, 1], got 5.0"),
    (("x0=-1",), "x0 must lie in [0, 1], got -1.0"),
    (("dt=0",), "dt must be > 0, got 0.0"),
    (("sweep_points=-1",), "sweep_points must be >= 0, got -1"),
    (("sweep_points=1000001",), "sweep_points must be <= 1000000, got 1000001"),
    (("T=-1",), "T must be >= 0"),
    (("t0=0",), "unknown config key 't0'"),
])
def test_every_verb_refuses_a_bad_key_alike(tmp_path, capsys, verb, bad, message):
    # load_config checks each key whose meaning does not depend on the
    # verb, so a verb that ignores the key refuses a bad value for it too.
    code, stdout, stderr = run(
        capsys, verb, *sets(*TIPPING_KEYS, "x0=0.25", *bad),
        "--output", str(tmp_path / "out.csv"),
    )
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (("--set", "x0"), "--set needs KEY=VALUE, got 'x0'"),
    (("--set", "kind=sometimes"),
     "kind must be one of ('none', 'cls', 'full', 'min_duration'), got 'sometimes'"),
    (("--set", "x0=nan"), "x0 must be finite, got 'nan'"),
    (("--set", "gamma=inf"), "gamma must be finite, got 'inf'"),
    (("--config", "{config}"), "{config}:2: expected 'key = value'"),
], ids=["set-without-equals", "unknown-kind", "nan", "inf", "config-line-without-equals"])
def test_input_refusals_write_nothing(tmp_path, capsys, argv, message):
    # Each refusal exits 2 with one error line, before any output exists.
    config = tmp_path / "bad.txt"
    config.write_text("x0 = 0.25\nkind min_duration\n")
    argv = [a.format(config=config) for a in argv]
    for verb in CONFIG_VERBS:
        code, stdout, stderr = run(
            capsys, verb, *sets(*PLANNER_KEYS), *argv, "--output", str(tmp_path / "out.csv"),
        )
        assert (code, stdout, stderr) == (2, "", f"error: {message.format(config=config)}\n")
        assert not (tmp_path / "out.csv").exists(), verb


def test_full_subsidy_threshold_below_the_start(tmp_path, capsys):
    # The start 0.45 lies above the lower band edge 1/3, which it reaches
    # at once: the duration was -0.19237189264745599.
    out = tmp_path / "full.csv"
    code, stdout, _ = run(
        capsys, "full-subsidy",
        *sets("u_min=1", "u_max=2", "cost=3", "externality=3", "gamma=1", "x0=0.45",
              "T=0.5"),
        "--output", str(out),
    )
    assert code == 0
    assert stdout.startswith("thresholds: 0, ")
    assert "duration_to_band_low,0\n" in out.read_text()


_EDGE_VALUES = ("0", "0.0", "-0.0", "-1", "5e-324", "1e308", "-1e308", "1.5")
_PLAIN_VALUES = ("0.25", "1")
_MARKETS = (TIPPING_KEYS, PLANNER_KEYS, SINGULAR_KEYS[:5],
            ("u_min=0", "u_max=1", "cost=0.5", "externality=0", "gamma=1"))
_RUN_KEYS = ("x0", "s", "T", "target", "t_end", "dt", "sweep_points")
_START_VALUES = ("-0.0", "5e-324", "1.0")  # the signed zero and both ends of [0, 1]
# A number as the verbs print it (%.17g, %g or %.3e), and any nan or inf
# word; a digit inside a name, as in rk4 or y0, is not one.
_PRINTED_NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|nan|inf)(?!\w)")


@st.composite
def _fuzzed_call(draw):
    """A config verb on a bundled market with at most one model key at an
    edge value or dropped, sometimes moved onto the singular line
    externality == u_max - u_min, and up to four run keys at edge or plain
    values (an x0 one time in two at an end of [0, 1]).  The work per call
    is bounded here: every run value is at most
    1.5 or an extreme, so a horizon holds either a few thousand steps or
    too many to run, which a verb refuses before it starts; simulate,
    whose default horizon writes 60k rows, always gets a t_end."""
    verb = draw(st.sampled_from(CONFIG_VERBS))
    pairs = dict(p.split("=") for p in draw(st.sampled_from(_MARKETS)))
    for key in draw(st.sets(st.sampled_from(sorted(pairs)), max_size=1)):
        value = draw(st.sampled_from((None, *_EDGE_VALUES)))
        if value is None:
            del pairs[key]
        else:
            pairs[key] = value
    if draw(st.integers(0, 3)) == 0:
        pairs["externality"] = repr(float(pairs.get("u_max", 2)) - float(pairs.get("u_min", 1)))
    keys = draw(st.sets(st.sampled_from(_RUN_KEYS), max_size=4))
    if verb == "simulate":
        keys.add("t_end")
    values = st.sampled_from(_EDGE_VALUES + _PLAIN_VALUES)
    starts = st.sampled_from(_START_VALUES) | values
    pairs.update((k, draw(starts if k == "x0" else values)) for k in sorted(keys))
    kinds = ("min_duration",) if verb == "sweep" else ("none", "cls", "full", "min_duration")
    pairs["kind"] = draw(st.sampled_from(kinds))
    return verb, [f"{k}={v}" for k, v in pairs.items()]


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(call=_fuzzed_call())
def test_fuzzed_main_ends_in_a_documented_exit_code(tmp_path, call):
    # Time budget, fixed before the x0 ends and the CSV check were added:
    # 1.5 s for the 150 calls on a 2-vCPU machine.
    verb, pairs = call
    csv = tmp_path / "out.csv"
    csv.unlink(missing_ok=True)  # tmp_path is shared by every example
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([verb, *sets(*pairs), "--output", str(csv)])
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (verb, pairs)
    if code == 1:
        assert verb == "validate" and re.search(r"FAILED: \d+ check\(s\)\n\Z", stdout)
    assert stderr == "" or re.fullmatch(r"error: [^\n]+\n", stderr), (verb, pairs, stderr)
    assert (code in (2, 3)) == (stderr != ""), (verb, pairs, code, stderr)
    if code == 0 and csv.exists():
        # Every numeric cell is finite, or the token inf for a value that
        # does not exist; a cell of lower-case letters is a label.
        for line in csv.read_text().splitlines()[1:]:
            for cell in line.split(","):
                if cell != "inf" and not (cell != "nan" and re.fullmatch("[a-z_]+", cell)):
                    assert math.isfinite(float(cell)), (verb, pairs, line)
    if code == 0:
        # So is every number printed, outside the written file's path.
        for line in stdout.splitlines():
            if not line.startswith("wrote "):
                for number in _PRINTED_NUMBER.findall(line):
                    assert number == "inf" or math.isfinite(float(number)), (verb, pairs, line)


def test_simulate_refuses_a_default_step_that_overflows(tmp_path, capsys):
    # A subnormal gamma overflows the default step 1e-3/gamma to inf.  The
    # grid time 0*inf is nan, so the file had a nan row and no row at 0.
    keys = ("u_min=1", "u_max=2", "cost=3", "externality=1", "gamma=5e-324", "t_end=5e-324")
    out = tmp_path / "out.csv"
    code, stdout, stderr = run(capsys, "simulate", *sets(*keys), "--output", str(out))
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: default sample step 1e-3/gamma overflowed to inf")
    # A given step is used as it stands.
    code, _, _ = run(capsys, "simulate", *sets(*keys, "dt=1"), "--output", str(out))
    assert code == 0
    assert out.read_text() == "t,x,phase\n0,0,unsubsidized\n4.9406564584124654e-324,0,unsubsidized\n"


_HORIZON_KINDS = {
    "none": (),
    "cls": ("kind=cls", "s=1", "T=1"),
    "full": ("kind=full", "T=1"),
    "min_duration": ("kind=min_duration", "s=1.0"),
}


@pytest.mark.parametrize("kind", list(_HORIZON_KINDS))
@pytest.mark.parametrize("t_end", ["-1", "0"])
def test_simulate_and_validate_share_the_horizon_rule(tmp_path, capsys, kind, t_end):
    # One rule decides the horizon of both verbs: t_end must be > 0,
    # with a min_duration window too (validate used to replace t_end by
    # the window's end, and so passed on an empty horizon).
    keys = (*PLANNER_KEYS, "x0=0", *_HORIZON_KINDS[kind], f"t_end={t_end}")
    for verb in ("simulate", "validate"):
        code, stdout, stderr = run(capsys, verb, *sets(*keys),
                                   "--output", str(tmp_path / "out.csv"))
        assert (code, stdout, stderr) == (2, "", "error: t_end must be > 0\n"), verb


def test_validate_cuts_its_horizon_short_of_a_min_duration_window(capsys, monkeypatch):
    # The README sweep market at s = 1 opens a window of about 0.36.  A
    # t_end inside it cuts the compared path there, as in simulate; the
    # cost check still integrates the whole window.
    from netadopt import oracle
    from netadopt.subsidy import min_duration

    window = min_duration(ModelParams(1, 2, 2.5, 3, 1), 0.0, 1.0)
    runs = []
    original = oracle.integrate_ode

    def recording(params, **kwargs):
        runs.append((kwargs["t_end"], original(params, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(oracle, "integrate_ode", recording)
    code, stdout, _ = run(capsys, "validate", *sets(*PLANNER_KEYS, "x0=0", "kind=min_duration",
                                                    "s=1.0", "t_end=0.2", "sweep_points=16"))
    assert code == 0 and stdout.endswith("all checks passed\n")
    (main_end, main_run), (window_end, _) = runs[:2]
    assert main_end == 0.2 and window_end == window
    steps, settled = map(int, re.search(r"RK4 steps (\d+), settled (\d+),", stdout).groups())
    assert steps + settled == sum(len(r.levels) - 1 for _, r in runs)
    assert len(main_run.levels) - 1 == round(0.2 / main_run.dt)
    assert "cost |analytic - quadrature|" in stdout


_NOEXT_KEYS = ("u_min=1", "u_max=6", "cost=3", "externality=0", "gamma=1", "x0=0")


def test_noext_accepts_the_surcharge_the_library_accepts(tmp_path, capsys):
    # A negative level is a surcharge: the no-externality planners price
    # it, so the verb reports it, and validate checks its path.  With
    # network effects a path refuses any level outside [0, cost].
    from netadopt.subsidy import noext_cost_at_target, noext_required_duration

    out = tmp_path / "noext.csv"
    code, stdout, stderr = run(capsys, "noext", *sets(*_NOEXT_KEYS, "s=-0.3", "target=0.3"),
                               "--output", str(out))
    assert (code, stderr) == (0, "")
    market = ModelParams(1, 6, 3, 0, 1)
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert rows["cls_cost"] == "0"  # the empty window's outlay, not -0
    assert float(rows["required_duration"]) == noext_required_duration(market, 0.0, -0.3, 0.3)
    assert float(rows["cost_at_target"]) == noext_cost_at_target(market, 0.0, -0.3, 0.3)
    code, stdout, _ = run(capsys, "validate", *sets(*_NOEXT_KEYS, "kind=cls", "s=-0.3", "T=2"))
    assert code == 0 and stdout.endswith("all checks passed\n")
    code, stdout, stderr = run(capsys, "simulate", *sets(*PLANNER_KEYS, "x0=0", "kind=cls",
                                                         "s=-0.3", "T=1"),
                               "--output", str(tmp_path / "out.csv"))
    assert (code, stdout) == (2, "")
    assert stderr == ("error: with network effects the subsidy level must lie in "
                      "[0, cost], got -0.3\n")


def test_full_subsidy_refuses_an_overflowing_outlay(tmp_path, capsys):
    # cost * T overflows: the analysis refuses it rather than report inf.
    code, stdout, stderr = run(
        capsys, "full-subsidy",
        *sets("u_min=1", "u_max=2", "cost=3", "externality=3", "gamma=1", "x0=0.1", "T=1e308"),
        "--output", str(tmp_path / "out.csv"),
    )
    assert (code, stdout) == (2, "")
    assert re.fullmatch(r"error: [^\n]*overflow[^\n]*\n", stderr)
    assert not (tmp_path / "out.csv").exists()


# sha256 of each reproduce file, recorded before reproduce ran its
# examples through the verbs' pipeline.  The paths are evaluated with
# exp/log/expm1/log1p, so the digests hold for this platform's libm; a
# different libm may round a last digit differently.
_REPRODUCE_SHA256 = {
    "1": {
        "example1_adoption.csv": "225cefc4f3c8a002713bf26a59e51427586a5fd50fed98df6388cfb02babe93c",
        "example1_duration_cost.csv":
            "895b8da662b0536355de8cbe89eadaca52072be1cc62c7b2e5d5f06e0b899cbe",
    },
    "2": {
        "example2_cases.csv": "d9e3fd43acbfe9a68a27d8b9d2243a1681e6882d846a0c1bbe5f0cb2bba918b1",
        "example2_equilibria.csv":
            "1e6015d7e8e5f6df19c727f23baec1926404547a43c16b4498e885af8caafeab",
        "example2_adoption.csv": "918cc126ac73004316488ea635d907075efb2aac2abb103aae610fe3375d455e",
    },
    "3": {
        "example3_thresholds.csv":
            "f04884d77fa7725d2ee7bd87256afcbe7e3f5bc38a3816dfeee7602c7f1d3d8e",
        "example3_adoption.csv": "9af2542ff2e18dc72d91013026e980d9199369be8157a66c39f5ab1741613b01",
    },
    "4": {
        "example4_sweep_y0_0.csv": "1e68f94c626a3a5196f007bad2fb3dce656f82cb078b9e9b9e7ee26292230ab2",
        "example4_sweep_y0_0.125.csv":
            "1b008f7368ba946797963670e29b85ea3fdec42ff61ba96a4fcf6748be64501e",
        "example4_summary.csv": "e73436db8e2ed947b75fc4eedf05040fc9738c1b055b5f4ffaccdbc76424c9c7",
    },
}


@pytest.mark.parametrize("example", list(_REPRODUCE_SHA256))
def test_reproduce_files_are_byte_pinned(tmp_path, capsys, example):
    code, stdout, _ = run(capsys, "reproduce", example, "--output", str(tmp_path))
    expected = _REPRODUCE_SHA256[example]
    assert code == 0 and stdout == "".join(f"wrote {tmp_path / name}\n" for name in expected)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == expected

import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

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
        capsys, "simulate", *sets(*TIPPING_KEYS, "t_end=-1", "t0=0"),
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


def test_sweep_requires_min_duration_kind(tmp_path, capsys):
    code, _, _ = run(capsys, "sweep", *sets(*PLANNER_KEYS, "x0=0"))
    assert code == 2


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


def test_validate_fails_on_huge_step(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "validate",
        *sets(*TIPPING_KEYS, "x0=0.6", "t_end=20", "dt=0.03"),
    )
    assert code == 1
    assert "FAIL" in stdout


def test_validate_min_duration_verdicts(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "validate",
        *sets(*PLANNER_KEYS, "x0=0", "kind=min_duration", "s=1.0",
              "sweep_points=96"),
    )
    assert code == 0
    assert "monotone" in stdout and "sign pattern" in stdout


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


def test_sweep_csv_reproducible_from_library(tmp_path, capsys):
    # The verb is a thin adapter: the same bytes fall out of direct
    # library calls plus the CSV formatting rules.
    from netadopt import ModelParams, sweep
    from netadopt.cli import _fmt

    out = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "sweep",
        *sets(*PLANNER_KEYS, "x0=0", "kind=min_duration", "sweep_points=48"),
        "--output", str(out),
    )
    assert code == 0
    rows, frontier = sweep(ModelParams(1, 2, 2.5, 3, 1), 0.0, grid_points=48)
    on_frontier = {id(r) for r in frontier.frontier}
    lines = ["s,s_over_e,feasible,T_hat,S,regime,method,frontier"]
    for r in rows:
        lines.append(",".join(_fmt(v) for v in (
            r.level, r.normalized, r.feasible, r.duration, r.cost,
            r.regime, "closed_form", id(r) in on_frontier,
        )))
    assert out.read_text() == "\n".join(lines) + "\n"


def test_simulate_csv_reproducible_from_library(tmp_path, capsys):
    # The grid t0 + i*dt up to t_end, the horizon, the window end and the
    # band-edge junctions, each once and in order, valued by the path.
    from netadopt import ModelParams, full_subsidy_analysis
    from netadopt.cli import _fmt

    out = tmp_path / "traj.csv"
    code, stdout, _ = run(
        capsys, "simulate",
        *sets(*TIPPING_KEYS, "x0=0.25", "kind=full", "T=2", "t_end=10", "dt=0.3"),
        "--output", str(out),
    )
    assert code == 0
    params = ModelParams(1, 2, 3, 3, 0.3333333333333333)
    traj = full_subsidy_analysis(params, 0.0, 0.25, 2.0).trajectory
    junctions = [b for b in traj.breakpoints if 0.0 < b <= 10.0]
    assert junctions and traj.subsidy_end == 2.0
    times = sorted({i * 0.3 for i in range(34)} | {10.0, 2.0, *junctions})
    lines = ["t,x,phase"] + [
        f"{_fmt(t)},{_fmt(traj.value(t))},{'subsidized' if t <= 2.0 else 'unsubsidized'}"
        for t in times
    ]
    assert out.read_text() == "\n".join(lines) + "\n"
    assert stdout.startswith(f"{len(times)} rows on [0, 10]\n")


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
    # A verb that never reads dt keeps ignoring it.
    code, _, _ = run(
        capsys, "sweep", *sets(*PLANNER_KEYS, "x0=0", "kind=min_duration",
                               "sweep_points=8", "dt=0"),
        "--output", str(tmp_path / "sweep.csv"),
    )
    assert code == 0


def test_negative_sweep_points_is_invalid_input(tmp_path, capsys):
    for verb in ("sweep", "validate"):
        code, _, stderr = run(
            capsys, verb, *sets(*PLANNER_KEYS, "x0=0", "kind=min_duration", "s=1",
                                "sweep_points=-3"),
            "--output", str(tmp_path / "sweep.csv"),
        )
        assert code == 2
        assert stderr == "error: sweep_points must be >= 0, got -3\n"


def test_validate_zero_start_boundary_market(tmp_path, capsys):
    # At y0 = 0 this market's first outlay bound, cost - u_max, rounds one
    # ulp above min_subsidy; no sweep row may fall between the two.
    code, stdout, _ = run(
        capsys, "validate",
        *sets("u_min=0.935609791532341", "u_max=1.685870423705207",
              "cost=1.8797231588513614", "externality=1.346491514237461",
              "gamma=1.099522908476864", "x0=0.0", "kind=min_duration",
              "s=0.474293317145366"),
    )
    assert code == 0
    assert "cost slope sign pattern: PASS" in stdout


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
    # A NaN level inside the second block of the dt/2 run, not at a block's
    # first sample, fails the self-convergence check (a plain max over the
    # differences would drop it).
    from netadopt import oracle

    original = oracle.integrate_ode
    steps = []  # the first run is the main run, at dt

    def nan_in_half_run(params, **kwargs):
        sampled = original(params, **kwargs)
        steps.append(kwargs["dt"])
        if kwargs["dt"] == steps[0] / 2:
            assert len(sampled.levels) > 2000
            sampled.levels[1500] = math.nan
        return sampled

    monkeypatch.setattr(oracle, "integrate_ode", nan_in_half_run)
    # Above the band the path never meets a junction: 4001 samples at dt/2.
    keys = (*TIPPING_KEYS, "x0=0.9", "kind=none", "t_end=20", "dt=0.01")
    code, stdout, _ = run(capsys, "validate", *sets(*keys))
    assert code == 1
    assert "trajectory max |closed form - rk4|" in stdout and "(tol 1e-06): PASS" in stdout
    assert "rk4 self-convergence (factor nan): FAIL" in stdout
    assert stdout.endswith("FAILED: 1 check(s)\n")


def test_simulate_drops_repeated_grid_times(tmp_path, capsys):
    # A step far below the resolution of the times: t0 + i*dt rounds to the
    # same float for runs of i, and each time is written once.
    out = tmp_path / "traj.csv"
    code, stdout, _ = run(
        capsys, "simulate",
        *sets(*TIPPING_KEYS, "x0=0.25", "t0=1e10", "t_end=10000000000.00001", "dt=1e-11"),
        "--output", str(out),
    )
    assert code == 0
    _, rows = read_csv(out)
    times = [float(r[0]) for r in rows]
    assert len(times) == 6 and times == sorted(set(times))
    assert (times[0], times[-1]) == (1e10, 10000000000.00001)
    assert stdout.startswith("6 rows on [10000000000, 10000000000.00001]\n")


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


def test_validate_window_too_long_for_oracle(tmp_path, capsys):
    # The README tipping market with a window of 1e300 (1e302 oracle
    # steps) or 1e308 (a step count that overflows to inf).
    for T in ("1e300", "1e308"):
        code, stdout, stderr = run(
            capsys, "validate",
            *sets(*TIPPING_KEYS, "x0=0.25", "kind=full", f"T={T}", "t_end=12", "dt=0.01"),
        )
        assert (code, stdout) == (2, "")
        assert stderr.count("\n") == 1 and "exceeds the limit of 10000000" in stderr


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
    for extra in (("t_end=2", "dt=1e-300"), ("t0=-1e308", "t_end=1e308", "dt=1")):
        code, _, stderr = run(
            capsys, "simulate", *sets(*TIPPING_KEYS, "x0=0.25", *extra), "--output", str(out),
        )
        assert code == 2
        assert "rows exceeds the limit of 1000000" in stderr
    assert not out.exists()

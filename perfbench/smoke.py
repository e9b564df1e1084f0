"""Smoke test of the benchmark itself, at tiny size; takes well under a minute.

    python3 perfbench/smoke.py

Asserts that every metric named in BENCHMARK.json is printed with its
unit on every workload, that one wrong CSV value trips the output
checks, that the one known validate defect is exempt and nothing
beside it, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny_run(workload: str, trace: bool) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run(workload, seed=7, seconds=0.1, trace_on=trace, tiny=True)
    assert code == 0, f"{workload} trace={trace} exited {code}:\n{out.getvalue()}"
    return out.getvalue()


def check_names_and_units() -> None:
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            text = _tiny_run(workload, trace)
            result = json.loads(text.strip().splitlines()[-1])
            assert result["correct"] and result["attempted"] >= 1
            names = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            assert set(result["metrics"]) == set(names), (workload, key)
            for name, unit in names.items():
                assert result["metrics"][name]["unit"] == unit, (name, unit)
                assert any(line.split()[:1] == [name] and unit in line.split()[1:3]
                           for line in text.splitlines()), f"{name} [{unit}] not printed"
            if not trace:
                for name, unit in run.REPORTED.items():
                    assert any(line.split()[:1] == [name] and unit in line
                               for line in text.splitlines()), f"{name} not printed"
        print(f"ok: {workload} prints every metric with its unit")


def _output(scenario: workloads.Scenario, out_dir: Path) -> bytes:
    from netadopt import cli

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(scenario.argv() + ["--output", str(out_dir / "out.csv")]) == 0
    return (out_dir / "out.csv").read_bytes()


def _corrupt(data: bytes, row: int, column: int) -> bytes:
    lines = data.split(b"\n")
    fields = lines[row].split(b",")
    fields[column] = repr(float(fields[column]) * (1 + 1e-3) + 1e-3).encode()
    lines[row] = b",".join(fields)
    return b"\n".join(lines)


def check_corruption_trips(out_dir: Path) -> None:
    # Each check gets a fresh scenario, so it cannot lean on a cached first output.
    rng = random.Random(0)

    def fresh(workload: str) -> workloads.Scenario:
        return workloads.scenarios(workload, 7, tiny=True)[0]

    data = _output(fresh("trajectory_export"), out_dir)
    workloads.check_simulate(fresh("trajectory_export"), 0, data)
    bad = _corrupt(data, len(data.split(b"\n")) // 2, 1)
    try:
        workloads.check_simulate(fresh("trajectory_export"), 0, bad)
    except workloads.CheckFailed as exc:
        print(f"ok: a wrong level trips the trajectory check ({exc})")
    else:
        raise AssertionError("a wrong level passed the trajectory check")

    data = _output(fresh("planner_sweep"), out_dir)
    workloads.check_sweep(fresh("planner_sweep"), 0, data, rng, samples=None)
    lines = data.split(b"\n")
    row = next(i for i, line in enumerate(lines) if b",true," in line)
    bad = _corrupt(data, row, 4)
    try:
        workloads.check_sweep(fresh("planner_sweep"), 0, bad, rng, samples=None)
    except workloads.CheckFailed as exc:
        print(f"ok: a wrong outlay trips the sweep check ({exc})")
    else:
        raise AssertionError("a wrong outlay passed the sweep check")


# A y0 = 0 market whose first two outlay-range bounds are inverted by rounding.
BOUNDARY_DEFECT = dict(u_min=0.935609791532341, u_max=1.685870423705207,
                       cost=1.8797231588513614, externality=1.346491514237461,
                       gamma=1.099522908476864, x0=0.0, kind="min_duration",
                       s=0.474293317145366)


def check_known_defect_is_narrow() -> None:
    from netadopt import cli

    scenario = workloads.Scenario("validate", BOUNDARY_DEFECT, "boundary-defect")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(scenario.argv())
    if code == 0:
        print("ok: the boundary-rounding failure no longer occurs; the exemption can go")
        return
    assert workloads.check_validate(scenario, code, out.getvalue()) is False
    other = out.getvalue().replace("FAILED:", "trajectory max |closed form - rk4|: FAIL\nFAILED:")
    shifted = workloads.Scenario("validate", dict(BOUNDARY_DEFECT, x0=0.01), "shifted")
    for case, text in ((scenario, other), (shifted, out.getvalue())):
        try:
            workloads.check_validate(case, code, text)
        except workloads.CheckFailed:
            continue
        raise AssertionError(f"{case.label}: a failure beside the known one passed")
    print("ok: only the known boundary-rounding failure of validate is exempt")


def check_refuses_without_sources(scratch: Path) -> None:
    scratch.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
    for entry in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / entry, scratch / entry,
                        ignore=shutil.ignore_patterns("runs", "__pycache__"))
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", "planner_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0 and '"correct"' not in done.stdout, done.stdout
    print(f"ok: without sources it exits {done.returncode} and prints no result")


def main() -> None:
    run.RUNS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.RUNS))
    try:
        sys.path.insert(0, str(run.SRC))
        check_corruption_trips(scratch)
        check_known_defect_is_narrow()
        check_refuses_without_sources(scratch / "bare")
        check_names_and_units()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke test passed")


if __name__ == "__main__":
    main()

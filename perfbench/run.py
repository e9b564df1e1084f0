"""netadopt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload planner_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it times a closed loop of ``netadopt.cli.main`` calls
in a separate workload process and reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  Every output is checked between operations, outside
the timed region.  The last line of stdout is a JSON result; the exit
code is 1 when an output check fails (the README example's known
``validate`` failure, and the known y0 = 0 boundary-rounding failure
described in ``workloads.py``, are counted as failed operations, not as
check failures) and 2 when the checkout has no ``src/netadopt``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

SETUP_EVERY = 8  # ops between cold starts for setup_s, spread over the run
IMPORT_SAMPLES = 5  # fresh interpreters per import metric
MIN_OPS = 100  # so that op_p90_ms has at least ten samples above it

END_TO_END = {  # name: unit; rows_per_s and fail_ratio are printed, not gated
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
REPORTED = {"rows_per_s": "rows/s", "fail_ratio": "1"}
COUNT_SUFFIXES = (".calls", "rk4_steps", "segments_per_path", "quadrature_share",
                  "csv.rows", "csv.bytes")


def per_layer_units() -> dict[str, str]:
    units = {"import.netadopt_s": "s", "import.numpy_s": "s",
             "config.load_config.self_s": "s"}
    for name in ("closed_form.value.calls", "closed_form.build.calls",
                 "closed_form.segments_per_path", "subsidy.sweep.calls",
                 *(f"subsidy.cost.row{r}.calls" for r in range(1, 6)),
                 "subsidy.min_duration.calls", "oracle.integrate_ode.calls",
                 "oracle.rk4_steps", "model.ccdf.calls", "cli.csv.rows"):
        units[name] = "count"
    for name in ("closed_form.value.self_s", "closed_form.build.self_s",
                 "subsidy.sweep.self_s", "subsidy.min_duration_cost.self_s",
                 "subsidy.min_duration.self_s", "subsidy.pareto_frontier.self_s",
                 "subsidy.cost_sign_pattern.self_s", "subsidy.trajectory.self_s",
                 "oracle.integrate_ode.self_s", "oracle.integrate_cost.self_s",
                 "cli.main.s", "cli.self_s"):
        units[name] = "s"
    units.update({
        "closed_form.value.ns_per_call": "ns",
        "subsidy.sweep.us_per_level": "us",
        **{f"subsidy.cost.row{r}.us_per_call": "us" for r in range(1, 6)},
        "subsidy.cost.quadrature_share": "1",
        "oracle.rk4_steps_per_s": "1/s",
        "cli.csv.bytes": "bytes",
        "cli.us_per_row": "us",
        "trace.overhead": "1",
    })
    return units


def _env(out_dir: str) -> dict:
    env = dict(os.environ, NETADOPT_OUTPUT_DIR=out_dir)
    # Cold starts reuse cached bytecode, as an installed package does.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cold(argv: list[str], env: dict) -> tuple[float, str]:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True)
    spent = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:4])} exited {done.returncode}: {done.stderr}")
    return spent, done.stdout


def cold_start(argv: list[str], out_dir: str) -> float:
    """Fresh interpreter to the minimal operation of the verb returned."""
    return _cold(["-m", "netadopt", *argv], _env(out_dir))[0]


def import_seconds(module: str, out_dir: str) -> float:
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    env = _env(out_dir)
    return statistics.median(float(_cold(["-c", code], env)[1]) for _ in range(IMPORT_SAMPLES))


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "netadopt").glob("*.py")):
        digest.update(path.read_bytes())
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
    }


class Checker:
    """Checks each operation's output and tallies the outcome."""

    def __init__(self, scenarios, out_dir: str, seed: int, every_level: bool = False):
        self.scenarios = scenarios
        self.out_dir = Path(out_dir)
        self.seed = seed
        self.every_level = every_level  # check every feasible sweep level, not a sample
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.known: list[str] = []  # labels of ops that hit a known program failure

    def check(self, index: int, code: int, out: str) -> tuple[int, int]:
        """Returns (CSV data rows, CSV bytes) of a good operation, else (0, 0)."""
        from workloads import CheckFailed, check_simulate, check_sweep, check_validate

        scenario = self.scenarios[index]
        self.attempted += 1
        files = list(self.out_dir.iterdir())
        data = files[0].read_bytes() if len(files) == 1 else b""
        for path in files:
            path.unlink()
        try:
            if code == -1:
                raise CheckFailed(f"uncaught exception:\n{out}")
            if scenario.verb == "validate":
                if not check_validate(scenario, code, out):
                    self.failed += 1
                    self.known.append(scenario.label)
                return 0, 0
            if len(files) != 1:
                raise CheckFailed(f"expected one output file, found {len(files)}")
            if scenario.verb == "simulate":
                return check_simulate(scenario, code, data), len(data)
            rng = random.Random(self.seed * 1_000_003 + self.attempted)
            samples = None if self.every_level else 3
            return check_sweep(scenario, code, data, rng, samples), len(data)
        except CheckFailed as exc:
            self.failed += 1
            self.errors.append(f"{scenario.label} {' '.join(scenario.argv())}: {exc}")
            return 0, 0


def _drive(worker, checker: Checker, on_op) -> dict:
    """Feed the worker, check each operation, return its final message."""
    while True:
        line = worker.stdout.readline()
        if not line:
            raise RuntimeError("workload process ended early")
        message = json.loads(line)
        if message.get("done"):
            return message
        rows, size = checker.check(message["op"], message["code"], message["out"])
        on_op(message, rows, size)
        worker.stdin.write("ok\n")
        worker.stdin.flush()


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(scenarios, seed: int, seconds: float, out_dir: str,
            min_ops: int = MIN_OPS, every_level: bool = False):
    from workloads import minimal_argv

    cold_dir = str(Path(out_dir).parent / "cold")
    minimal = minimal_argv(scenarios[0])
    cold_start(minimal, cold_dir)  # discarded: it may compile bytecode
    checker = Checker(scenarios, out_dir, seed, every_level)
    setup: list[float] = []
    op_s: list[float] = []
    rows = [0]

    def on_op(message, n_rows, _size):
        op_s.append(message["s"])
        rows[0] += n_rows
        if len(op_s) % SETUP_EVERY == 1:
            setup.append(cold_start(minimal, cold_dir))

    job = {"mode": "measure", "argvs": [s.argv() for s in scenarios],
           "seconds": seconds, "min_ops": min_ops}
    final = _with_worker(job, out_dir, lambda w: _drive(w, checker, on_op))
    timed = sum(op_s)
    good = checker.attempted - checker.failed
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": good / timed,
        "op_p50_ms": _quantile(op_s, 0.5) * 1e3,
        "op_p90_ms": _quantile(op_s, 0.9) * 1e3,
        "peak_rss_mb": final["peak_rss_mb"],
    }
    reported = {
        "rows_per_s": rows[0] / timed if scenarios[0].verb != "validate" else None,
        "fail_ratio": checker.failed / checker.attempted,
    }
    notes = {
        "setup_s": f"median of {len(setup)} cold starts, one every {SETUP_EVERY} ops",
        "ops_per_s": f"{good} ok of {checker.attempted} ops in {timed:.2f} s timed",
        "op_p50_ms": f"{len(op_s)} samples",
        "op_p90_ms": f"{len(op_s)} samples",
        "peak_rss_mb": "workload process",
        "rows_per_s": f"{rows[0]} CSV data rows" if reported["rows_per_s"] is not None
        else "n/a: validate writes no CSV",
        "fail_ratio": f"{checker.failed}/{checker.attempted}",
    }
    return metrics, reported, notes, checker


def trace(workload: str, scenarios, seed: int, seconds: float, out_dir: str,
          every_level: bool = False):
    n = len(scenarios)
    checker = Checker(scenarios, out_dir, seed, every_level)
    csv = {}  # pass number -> [rows, bytes]

    def on_op(message, n_rows, size):
        tally = csv.setdefault((checker.attempted - 1) // n, [0, 0])
        tally[0] += n_rows
        tally[1] += size

    RUNS.mkdir(exist_ok=True)
    job = {"mode": "trace", "argvs": [s.argv() for s in scenarios], "seconds": seconds,
           "spans_path": str(RUNS / f"{workload}.spans.jsonl")}
    final = _with_worker(job, out_dir, lambda w: _drive(w, checker, on_op))

    layers = final["layers"]
    counted = [k for k in layers[0] if k.endswith(COUNT_SUFFIXES)]
    passes = [csv.get(2 * i + 1, [0, 0]) for i in range(len(layers))]
    for layer, tally in zip(layers, passes):
        layer["cli.csv.rows"], layer["cli.csv.bytes"] = tally
    for layer in layers[1:]:
        changed = [k for k in counted + ["cli.csv.rows", "cli.csv.bytes"]
                   if layer[k] != layers[0][k]]
        if changed:
            checker.errors.append(f"counts differ between traced passes: {changed}")
    metrics = {k: (layers[0][k] if k in counted or k.startswith("cli.csv.")
                   else statistics.median(layer[k] for layer in layers))
               for k in layers[0]}
    rows = metrics["cli.csv.rows"]
    metrics["cli.us_per_row"] = metrics["cli.self_s"] / rows * 1e6 if rows else 0.0
    metrics["trace.overhead"] = (statistics.median(final["traced_s"])
                                 / statistics.median(final["plain_s"]))
    metrics["import.netadopt_s"] = import_seconds("netadopt.cli", out_dir)
    metrics["import.numpy_s"] = import_seconds("numpy", out_dir)
    notes = {"trace.overhead": f"{len(layers)} traced and {len(final['plain_s'])} "
                               f"untraced passes of {n} ops",
             "import.netadopt_s": f"median of {IMPORT_SAMPLES} fresh interpreters",
             "import.numpy_s": f"median of {IMPORT_SAMPLES} fresh interpreters"}
    return metrics, notes, checker


def _with_worker(job: dict, out_dir: str, body):
    worker = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(ROOT)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_env(out_dir),
        cwd=ROOT,
    )
    try:
        worker.stdin.write(json.dumps(job) + "\n")
        worker.stdin.flush()
        return body(worker)
    finally:
        if worker.poll() is None:
            worker.stdin.close()
            try:
                worker.wait(timeout=10)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
        worker.stdout.close()


def _print_metrics(title: str, values: dict, units: dict, notes: dict) -> None:
    print(title)
    for name, value in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {units[name]:7s} {notes.get(name, '')}")


def run(workload: str, seed: int, seconds: float, trace_on: bool, tiny: bool = False) -> int:
    if not (SRC / "netadopt" / "cli.py").is_file():
        print(f"error: no netadopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import scenarios as make_scenarios

    scenarios = make_scenarios(workload, seed, tiny=tiny, traced=trace_on)
    RUNS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="out-", dir=RUNS))
    out_dir = str(scratch / "ops")
    os.mkdir(out_dir)
    min_ops = len(scenarios) if tiny else MIN_OPS
    try:
        if trace_on:
            metrics, notes, checker = trace(workload, scenarios, seed, seconds, out_dir, tiny)
            units = per_layer_units()
            _print_metrics(f"{workload} seed {seed}: per-layer metrics (traced run)",
                           metrics, units, notes)
        else:
            metrics, reported, notes, checker = measure(
                scenarios, seed, seconds, out_dir, min_ops, tiny)
            _print_metrics(f"{workload} seed {seed}: end-to-end metrics",
                           {**metrics, **reported}, {**END_TO_END, **REPORTED}, notes)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = run_record(workload, seed, seconds, int(trace_on))
    record.update(attempted=checker.attempted, failed=checker.failed,
                  known_failures=checker.known, errors=checker.errors, metrics=metrics)
    path = RUNS / f"{workload}-seed{seed}-trace{int(trace_on)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"run record: {path.relative_to(ROOT)} (python {record['python']}, numpy "
          f"{record['numpy']}, nproc {record['nproc']}, {record['cpu_model']}, "
          f"commit {record['commit']}, ops {checker.attempted}, failed {checker.failed})")
    if checker.known:
        print(f"known program failures: {', '.join(sorted(set(checker.known)))}")
    for error in checker.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    correct = not checker.errors
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("planner_sweep", "oracle_validate", "trajectory_export"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

"""The workload process: one client calling ``netadopt.cli.main`` in a closed loop.

Started by ``run.py`` with the checkout root as its argument.  It reads
one JSON job from stdin, then for each operation writes one JSON line to
stdout and waits for a line on stdin before the next operation, so the
parent's output checks run between operations, outside the timed region
and not alongside it.  Only the ``cli.main`` call is timed.

Jobs:
  measure  whole cycles over the scenarios until ``seconds`` of timed
           operations and at least ``min_ops`` operations have run;
           reports the peak RSS of this process.
  trace    alternating untraced and traced passes over the scenarios
           until ``seconds`` have passed, at least one of each; reports
           the per-layer metrics of each traced pass and the pass times,
           and at the end writes the spans of the first traced pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _send(message: dict) -> None:
    sys.__stdout__.write(json.dumps(message) + "\n")
    sys.__stdout__.flush()


def _wait_ack() -> None:
    if sys.stdin.readline().strip() != "ok":
        raise SystemExit("parent stopped the run")


def _run_op(cli, argv: list[str]) -> tuple[int, float, str]:
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # reported as a failed operation, with its traceback
        code = -1
        buf.write(traceback.format_exc())
    return code, time.perf_counter() - start, buf.getvalue()


def _pass(cli, argvs, tracer=None) -> float:
    total = 0.0
    for index, argv in enumerate(argvs):
        if tracer is not None:
            tracer.op = index
        code, spent, out = _run_op(cli, argv)
        total += spent
        _send({"op": index, "code": code, "s": spent, "out": out})
        _wait_ack()
    return total


def main() -> None:
    root = Path(sys.argv[1])
    sys.path.insert(0, str(root / "src"))
    from netadopt import cli

    job = json.loads(sys.stdin.readline())
    argvs = job["argvs"]
    if job["mode"] == "measure":
        spent, ops = 0.0, 0
        while spent < job["seconds"] or ops < job["min_ops"]:
            spent += _pass(cli, argvs)
            ops += len(argvs)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        _send({"done": True, "peak_rss_mb": peak_kb / 1024.0})
        return

    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < job["seconds"]:
        plain.append(_pass(cli, argvs))
        tracer.install()
        try:
            traced.append(_pass(cli, argvs, tracer))
        finally:
            tracer.uninstall()
        layers.append(layer_metrics(tracer))
        if len(layers) == 1:
            kept = tracer.spans
    tracer.write(job["spans_path"], kept)
    _send({"done": True, "plain_s": plain, "traced_s": traced, "layers": layers})


if __name__ == "__main__":
    main()

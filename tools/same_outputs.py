"""Fingerprint the command line's outputs, to show that a change keeps them.

    python3 tools/same_outputs.py path/to/src > outputs.jsonl

Imports ``netadopt`` from the given ``src/`` directory and runs a fixed
list of ``netadopt.cli.main`` calls in this process, each in a fresh
empty working directory.  For each call it prints one JSON line: the
arguments, the exit code, and the SHA-256 of stdout, of stderr and of
every file the call wrote.  Run it on two checkouts and ``diff`` the
two outputs; any line that differs names the call whose bytes changed.

The calls are the README examples, ``reproduce 1``-``4``, seeds 1-2 of
each ``perfbench/workloads.py`` generator (imported, never modified),
sweeps of 0, 1, 2 and 8 points, a README-market sweep of 3 points at
x0 = 0 and one of 2,100 points at x0 = 0.125 (all five ranges, two
CSV row blocks), ``equilibria`` on the markets whose
interior level lies within rounding of 0 or 1 (at cost 2 the interior
-0.0 merges into an unstable 0), ``equilibria`` on [0, 1] at costs 0.5,
1 and 1.5 with an externality of 0 and one ulp below, at and above the
spread (the singular market, exit 2, among them), ``sweep``, ``simulate``
and ``validate`` from the start ``x0 = -0.0``, and ``sweep`` and
``validate`` on the y0 = 0 market whose first outlay bound rounds above
``min_subsidy``, and ``sweep`` and ``validate`` on the market whose
externality exceeds its spread by a factor of only 1 + 2.6e-5, where the
range-3 outlay is badly conditioned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README_MARKET = ("u_min=1", "u_max=2", "cost=2.5", "externality=3", "gamma=1")
# At y0 = 0 its cost - u_max rounds one ulp above min_subsidy.
BOUNDARY_MARKET = ("u_min=0.935609791532341", "u_max=1.685870423705207",
                   "cost=1.8797231588513614", "externality=1.346491514237461",
                   "gamma=1.099522908476864", "x0=0.0", "kind=min_duration")
# externality/(u_max - u_min) = 1 + 2.6e-5.
NEAR_DEGENERATE_MARKET = ("u_min=1.6165677859957093", "u_max=4.010609752473528",
                          "cost=4.010612921097231", "externality=2.3941041011887663",
                          "gamma=0.010406982256359559", "x0=0.0242966977646893",
                          "kind=min_duration")
TIPPING_CONFIG = """\
u_min = 1
u_max = 2
cost = 3
externality = 3
gamma = 0.3333333333333333
x0 = 0.25
kind = full
T = 1.277
t_end = 12
dt = 0.05
"""


def _sets(*items: str) -> list[str]:
    return [arg for item in items for arg in ("--set", item)]


def calls() -> list[list[str]]:
    """Every call's arguments, in a fixed order."""
    sys.dont_write_bytecode = True  # leave no cache beside the benchmark's files
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    out = [
        ["simulate", "--config", "tipping.txt", "--output", "tipping.csv"],
        ["validate", "--config", "tipping.txt"],
        ["equilibria", "--config", "tipping.txt"],
        ["full-subsidy", "--config", "tipping.txt"],
        ["sweep", *_sets(*README_MARKET, "x0=0", "kind=min_duration")],
        ["validate", *_sets(*README_MARKET, "x0=0.6", "kind=none")],
        ["noext", *_sets("u_min=0", "u_max=1", "cost=0.5", "externality=0", "gamma=1",
                         "x0=0.1", "s=0.25", "T=2", "target=0.3")],
        # One refusal of each kind: invalid input, a market outside the regime.
        ["sweep", *_sets(*README_MARKET, "x0=0", "kind=min_duration", "sweep_points=-1")],
        ["sweep", *_sets("u_min=1", "u_max=2", "cost=5", "externality=3", "gamma=1",
                         "x0=0", "kind=min_duration")],
    ]
    out += [["reproduce", str(k)] for k in (1, 2, 3, 4)]
    for name, generator in workloads.WORKLOADS.items():
        for seed in (1, 2):
            markets = workloads.TIMED_MARKETS[name]
            out += [s.argv() for s in generator(seed, markets)]
    for x0 in ("0", "0.125"):
        for points in (0, 1, 2, 8):
            out.append(["sweep", *_sets(*README_MARKET, f"x0={x0}", "kind=min_duration",
                                        f"sweep_points={points}")])
    out += [["sweep", *_sets(*README_MARKET, f"x0={x0}", "kind=min_duration",
                             f"sweep_points={points}")]
            for x0, points in (("0", 3), ("0.125", 2100))]
    # The interior level at, and one ulp inside, each end of [0, 1].
    for cost in ("2", "2.0000000000000004", "3.9999999999999996", "4"):
        out.append(["equilibria", *_sets("u_min=1", "u_max=2", f"cost={cost}",
                                         "externality=3", "gamma=1")])
    # The stability rule's edges: no externality, and an externality one
    # ulp below, at and above the spread 1, where u_min + e stays exact
    # (cost 1 = u_max on the spread itself is the singular market).
    for e in ("0", "0.99999999999999989", "1", "1.0000000000000002"):
        for cost in ("0.5", "1", "1.5"):
            out.append(["equilibria", *_sets("u_min=0", "u_max=1", f"cost={cost}",
                                             f"externality={e}", "gamma=1")])
    start = (*README_MARKET, "x0=-0.0", "kind=min_duration")
    out += [["sweep", *_sets(*start)], ["simulate", *_sets(*start, "s=1")],
            ["validate", *_sets(*start, "s=1")], ["sweep", *_sets(*BOUNDARY_MARKET)],
            ["validate", *_sets(*BOUNDARY_MARKET, "s=0.474293317145366")],
            ["sweep", *_sets(*NEAR_DEGENERATE_MARKET)],
            ["validate", *_sets(*NEAR_DEGENERATE_MARKET, "s=1.601097666769085")]]
    return out


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(main, argv: list[str]) -> dict:
    """Run one call in a fresh directory; its exit code and output hashes."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            Path("tipping.txt").write_text(TIPPING_CONFIG)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse refusals
                    code = exc.code
            files = {str(p): _digest(p.read_bytes())
                     for p in sorted(Path(".").rglob("*")) if p.is_file()}
        finally:
            os.chdir(here)
    return {"argv": argv, "code": code, "stdout": _digest(stdout.getvalue().encode()),
            "stderr": _digest(stderr.getvalue().encode()), "files": files}


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(sys.argv[1]).resolve()
    os.environ.pop("NETADOPT_OUTPUT_DIR", None)
    sys.path.insert(0, str(src))
    from netadopt import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"netadopt imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    for argv in calls():
        print(json.dumps(fingerprint(cli.main, argv), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

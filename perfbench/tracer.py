"""Spans around the calls into each netadopt module, from outside it.

``Tracer.install`` replaces each public entry point with a wrapper in
every ``netadopt`` module namespace that holds it (``subsidy`` imports
``unsubsidized_trajectory`` from ``closed_form``, so both names are
patched), and patches hot methods on their class.  Entry points a
revision of the package no longer has are skipped.

A span is (op id, span id, parent id, name, start ns, end ns, leaf ns,
info).  The spans of a pass stay in memory, packed into one integer
array in the order they end, until the pass ends.  The two hottest
calls, ``PiecewiseTrajectory.value`` and the affinity ``ccdf``, are not
spans: per-call records would dwarf the work.  ``value`` adds its time
to the enclosing span's ``leaf ns`` and to a total; ``ccdf`` is only
counted.  A span's self time is its duration minus its child spans and
its leaf time, so the self times and leaf time of one operation add up
to its ``cli.main`` span exactly; ``layer_metrics`` checks that.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from array import array
from collections import defaultdict

FIELDS = 8  # op, span id, parent id, name id, start ns, end ns, leaf ns, info (-1: none)

# (module, attribute, span name, info extractor) for each traced entry point.
SPANS = [
    ("cli", "main", "cli.main", None),
    ("config", "load_config", "config.load_config", None),
    ("closed_form", "unsubsidized_trajectory", "closed_form.build", lambda r: len(r.segments)),
    ("closed_form", "noext_trajectory", "closed_form.build", lambda r: len(r.segments)),
    ("subsidy", "sweep", "subsidy.sweep", lambda r: len(r[0])),
    ("subsidy", "min_duration_cost", "subsidy.min_duration_cost", lambda r: r.row),
    ("subsidy", "min_duration", "subsidy.min_duration", None),
    ("subsidy", "pareto_frontier", "subsidy.pareto_frontier", None),
    ("subsidy", "cost_sign_pattern", "subsidy.cost_sign_pattern", None),
    ("subsidy", "subsidized_trajectory", "subsidy.trajectory", None),
    ("subsidy", "min_duration_trajectory", "subsidy.trajectory", None),
    ("subsidy", "noext_cls_trajectory", "subsidy.trajectory", None),
    ("subsidy", "full_subsidy_analysis", "subsidy.trajectory", None),
    ("oracle", "integrate_ode", "oracle.integrate_ode", lambda r: len(r.levels) - 1),
    ("oracle", "integrate_cost", "oracle.integrate_cost", None),
]
TIMED_LEAF = ("closed_form", "PiecewiseTrajectory", "value", "closed_form.value")
COUNTED_LEAF = ("model", "UniformAffinity", "ccdf", "model.ccdf")


class Tracer:
    def __init__(self) -> None:
        self.spans = array("q")
        self.names: list[str] = []  # name id -> span name
        self.op = 0
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_ns: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []  # [span id, leaf ns inside it]
        self._next_id = itertools.count()
        self._patches: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name, info):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        stack, spans, next_id = self._stack, self.spans, self._next_id
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [next(next_id), 0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                detail = info(result) if info is not None and result is not None else -1
                spans.extend((self.op, frame[0], parent, name_id, start, end, frame[1], detail))

        return traced

    def _timed_leaf(self, fn, name):
        stack, calls, total = self._stack, self.leaf_calls, self.leaf_ns
        clock = time.perf_counter_ns

        def traced(*args):
            start = clock()
            result = fn(*args)
            spent = clock() - start
            calls[name] += 1
            total[name] += spent
            if stack:
                stack[-1][1] += spent
            return result

        return traced

    def _counted_leaf(self, fn, name):
        calls = self.leaf_calls

        def traced(*args):
            calls[name] += 1
            return fn(*args)

        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Start a pass: clear the spans and counters, then patch."""
        self.spans = array("q")
        self._next_id = itertools.count()
        self.leaf_calls.clear()
        self.leaf_ns.clear()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "netadopt" or n.startswith("netadopt."))]
        for module, attr, name, info in SPANS:
            original = getattr(sys.modules.get(f"netadopt.{module}"), attr, None)
            if original is None:
                continue
            wrapper = self._span(original, name, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for (module, cls_name, attr, name), make in (
            (TIMED_LEAF, self._timed_leaf), (COUNTED_LEAF, self._counted_leaf)
        ):
            cls = getattr(sys.modules.get(f"netadopt.{module}"), cls_name, None)
            original = getattr(cls, attr, None)
            if original is not None:
                self._patch(cls, attr, make(original, name))

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def records(self, spans=None):
        """The spans as (op, id, parent, name, start, end, leaf, info) tuples."""
        spans = self.spans if spans is None else spans
        for base in range(0, len(spans), FIELDS):
            op, sid, parent, name_id, start, end, leaf, info = spans[base:base + FIELDS]
            yield op, sid, parent, self.names[name_id], start, end, leaf, \
                None if info < 0 else info

    def write(self, path, spans) -> None:
        with open(path, "w") as fh:
            fh.write("# op span parent name start_ns end_ns leaf_ns info\n")
            for record in self.records(spans):
                fh.write(json.dumps(record) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass; raises if the spans do not add up."""
    spans = tracer.spans
    count = len(spans) // FIELDS
    slot = array("q", [0]) * count  # span id -> its index in the array
    for index in range(count):
        slot[spans[index * FIELDS + 1]] = index
    child_ns = [0] * count
    for op, sid, parent, _, start, end, _, _ in tracer.records():
        if parent >= 0:
            if spans[slot[parent] * FIELDS] != op:
                raise AssertionError(f"span {sid} has a parent in another op")
            child_ns[parent] += end - start

    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    infos: dict[str, list] = defaultdict(list)
    row_calls: dict[int, int] = defaultdict(int)
    row_ns: dict[int, int] = defaultdict(int)
    op_total: dict[int, int] = defaultdict(int)
    op_root: dict[int, int] = {}
    for op, sid, parent, name, start, end, leaf, info in tracer.records():
        own = end - start - child_ns[sid] - leaf
        if own < 0:
            raise AssertionError(f"span {name} has negative self time {own} ns")
        calls[name] += 1
        incl[name] += end - start
        self_ns[name] += own
        op_total[op] += own + leaf
        if parent < 0:
            if name != "cli.main" or op in op_root:
                raise AssertionError(f"op {op}: root span {name} is not a single cli.main")
            op_root[op] = end - start
        if info is not None:
            infos[name].append(info)
        if name == "subsidy.min_duration_cost" and info is not None:
            row_calls[info] += 1
            row_ns[info] += end - start
    for op, total in op_total.items():
        if total != op_root.get(op):
            raise AssertionError(f"op {op}: self times sum to {total} ns, "
                                 f"cli.main took {op_root.get(op)} ns")

    s = 1e-9
    value_calls = tracer.leaf_calls["closed_form.value"]
    value_ns = tracer.leaf_ns["closed_form.value"]
    segments = infos["closed_form.build"]
    levels = sum(infos["subsidy.sweep"])
    steps = sum(infos["oracle.integrate_ode"])
    cost_calls = sum(row_calls.values())

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    out = {
        "config.load_config.self_s": self_ns["config.load_config"] * s,
        "closed_form.value.calls": value_calls,
        "closed_form.value.self_s": value_ns * s,
        "closed_form.value.ns_per_call": per(value_ns, value_calls),
        "closed_form.build.calls": calls["closed_form.build"],
        "closed_form.build.self_s": self_ns["closed_form.build"] * s,
        "closed_form.segments_per_path": per(sum(segments), len(segments)),
        "subsidy.sweep.calls": calls["subsidy.sweep"],
        "subsidy.sweep.self_s": self_ns["subsidy.sweep"] * s,
        "subsidy.sweep.us_per_level": per(incl["subsidy.sweep"], levels, 1e-3),
    }
    for row in range(1, 6):
        out[f"subsidy.cost.row{row}.calls"] = row_calls[row]
    for row in range(1, 6):
        out[f"subsidy.cost.row{row}.us_per_call"] = per(row_ns[row], row_calls[row], 1e-3)
    out.update({
        "subsidy.cost.quadrature_share": per(row_calls[4], cost_calls),
        "subsidy.min_duration_cost.self_s": self_ns["subsidy.min_duration_cost"] * s,
        "subsidy.min_duration.calls": calls["subsidy.min_duration"],
        "subsidy.min_duration.self_s": self_ns["subsidy.min_duration"] * s,
        "subsidy.pareto_frontier.self_s": self_ns["subsidy.pareto_frontier"] * s,
        "subsidy.cost_sign_pattern.self_s": self_ns["subsidy.cost_sign_pattern"] * s,
        "subsidy.trajectory.self_s": self_ns["subsidy.trajectory"] * s,
        "oracle.integrate_ode.calls": calls["oracle.integrate_ode"],
        "oracle.integrate_ode.self_s": self_ns["oracle.integrate_ode"] * s,
        "oracle.rk4_steps": steps,
        "oracle.rk4_steps_per_s": per(steps, self_ns["oracle.integrate_ode"] * s),
        "oracle.integrate_cost.self_s": self_ns["oracle.integrate_cost"] * s,
        "model.ccdf.calls": tracer.leaf_calls["model.ccdf"],
        "cli.main.s": incl["cli.main"] * s,
        "cli.self_s": self_ns["cli.main"] * s,
    })
    return out

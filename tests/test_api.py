"""The public surface of the package, pinned so that a change shows in review."""

import ast
import math
import os
import re
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netadopt
from netadopt.config import ScenarioConfig

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "AssumptionViolationError",
    "ConstantLevelSubsidy",
    "CostResult",
    "EquilibriumReport",
    "FullSubsidyReport",
    "InfeasibleSubsidyError",
    "InvalidParameterError",
    "InvalidStepError",
    "ModelParams",
    "PiecewiseTrajectory",
    "SampledTrajectory",
    "Segment",
    "SingularParametersError",
    "SubsidySweep",
    "classify_equilibria",
    "full_subsidy_analysis",
    "integrate_cost",
    "integrate_ode",
    "interior_equilibrium",
    "min_duration",
    "min_duration_cost",
    "min_subsidy",
    "noext_cost_at_target",
    "noext_cost_decreasing_condition",
    "noext_required_duration",
    "noext_subsidy_cost",
    "subsidized_trajectory",
    "subsidy_interval_bounds",
    "sweep",
    "unsubsidized_trajectory",
]


def test_public_names_are_pinned():
    assert sorted(netadopt.__all__) == PUBLIC_NAMES
    assert all(hasattr(netadopt, name) for name in PUBLIC_NAMES)


def test_trajectory_holds_only_its_segments():
    # A path does not record a subsidy window; the window object does.
    assert netadopt.PiecewiseTrajectory._fields == ("segments",)


def test_cli_uses_no_private_library_name():
    # The CLI stays on the public library: it loads no _-prefixed name of a
    # netadopt module, by attribute or by import.
    tree = ast.parse((ROOT / "src" / "netadopt" / "cli.py").read_text())
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            modules |= {a.asname or a.name for a in node.names if node.module is None}
            private += [a.name for a in node.names if a.name.startswith("_")]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            private.append(f"{node.value.id}.{node.attr}")
    assert modules >= {"closed_form", "oracle", "subsidy"}
    assert private == []


def test_every_public_name_has_a_shipped_caller():
    # A name counts when package code outside __init__.py, or a demo,
    # loads it; a mention in a docstring or comment does not.
    files = [p for p in sorted((ROOT / "src" / "netadopt").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    assert sorted(set(netadopt.__all__) - used) == []


def test_oracle_imports_only_the_stdlib_errors_and_model():
    # The oracle is the closed forms' independent check: it may import the
    # standard library, the errors and the market model, and nothing else
    # (no closed_form, no subsidy, no third-party module).
    tree = ast.parse((ROOT / "src" / "netadopt" / "oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    local = {name for name in imported if name.startswith(".")}
    assert local and local <= {".errors", ".model"}
    assert sorted(n for n in imported - local
                  if n.split(".")[0] not in sys.stdlib_module_names) == []


def test_oracle_reads_only_the_market_fields():
    # The oracle builds its field from the five numbers of a market: it
    # reads no other attribute of ModelParams and calls no model function
    # (not the ccdf, the band edges or slope, nor the interior point).
    model = ast.parse((ROOT / "src" / "netadopt" / "model.py").read_text())
    functions = {node.name for node in ast.walk(model)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    tree = ast.parse((ROOT / "src" / "netadopt" / "oracle.py").read_text())
    fields = {"u_min", "u_max", "cost", "externality", "gamma"}
    read, called = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "params":
                read.add(node.attr)
            if node.attr in functions:
                called.add(node.attr)
        elif isinstance(node, ast.Name) and node.id in functions:
            called.add(node.id)
    assert read and read <= fields, sorted(read - fields)
    assert called == set()


# Every record is a named tuple with ``__slots__ = ()``.  The four that
# check their fields do it in ``__init__``, and route ``_make`` (and so
# ``_replace``) through it: a plain named tuple's ``_replace`` would skip
# the check.  Each case: a valid record's fields, a bad override, the error.
CHECKED_RECORDS = [
    (netadopt.ModelParams, dict(u_min=1.0, u_max=2.0, cost=2.5, externality=3.0, gamma=1.0),
     dict(gamma=-1.0), netadopt.InvalidParameterError, "gamma must be > 0"),
    (netadopt.ModelParams, dict(u_min=1.0, u_max=2.0, cost=2.5, externality=3.0, gamma=1.0),
     dict(u_max=0.5), netadopt.InvalidParameterError, "u_min must be < u_max"),
    (netadopt.PiecewiseTrajectory, dict(segments=(netadopt.Segment(0.0, 0.5, -1.0, 0.5),)),
     dict(segments=()), netadopt.InvalidParameterError, "at least one segment"),
    (netadopt.PiecewiseTrajectory, dict(segments=(netadopt.Segment(0.0, 0.5, -1.0, 0.5),)),
     dict(segments=(netadopt.Segment(0.0, 0.5, -1.0, 0.5), netadopt.Segment(1.0, 0.9, -1.0, 0.9))),
     netadopt.InvalidParameterError, "discontinuous segments"),
    (netadopt.ConstantLevelSubsidy, dict(level=0.5, duration=2.0, start=0.0),
     dict(duration=-1.0), netadopt.InvalidParameterError, "duration must be finite and >= 0"),
    (netadopt.ConstantLevelSubsidy, dict(level=0.5, duration=2.0, start=0.0),
     dict(level=math.nan), netadopt.InvalidParameterError, "subsidy level must be finite"),
    (netadopt.SampledTrajectory, dict(start_time=0.0, dt=0.1, levels=array("d", [0.0]),
                                      splits=0, settled=0),
     dict(dt=0.0), netadopt.InvalidStepError, "dt must be > 0"),
]


@pytest.mark.parametrize("record, fields, bad, error, message", CHECKED_RECORDS)
def test_a_record_checks_its_fields_however_it_is_built(record, fields, bad, error, message):
    good = record(**fields)
    assert good == record(*fields.values()) == record._make(fields.values())
    assert good._replace() == good
    values = {**fields, **bad}
    builds = (lambda: record(*values.values()), lambda: record(**values),
              lambda: record._make(values.values()), lambda: good._replace(**bad))
    for build in builds:
        with pytest.raises(error, match=re.escape(message)):
            build()


def _one_of_each_record():
    market = netadopt.ModelParams(1.0, 2.0, 2.5, 3.0, 1.0)
    window = netadopt.ConstantLevelSubsidy(0.5, 2.0)
    path = netadopt.unsubsidized_trajectory(market, 0.0, 0.2)
    return [market, netadopt.classify_equilibria(market), path, path.segments[0],
            ScenarioConfig(), window,
            netadopt.integrate_ode(market, window, x0=0.2, t_end=1.0),
            netadopt.full_subsidy_analysis(market, 0.0, 0.2, 1.0),
            netadopt.min_duration_cost(market, 0.2, 1.0), netadopt.sweep(market, 0.2, 8)]


def test_records_are_slotted_and_frozen():
    records = _one_of_each_record()
    assert len({type(r) for r in records}) == 10
    for record in records:
        assert not hasattr(record, "__dict__"), type(record)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_records_print_their_fields_and_compare_as_tuples():
    market = netadopt.ModelParams(1.0, 2.0, 2.5, 3.0, 1.0)
    assert repr(market) == "ModelParams(u_min=1.0, u_max=2.0, cost=2.5, externality=3.0, gamma=1.0)"
    assert (repr(netadopt.ConstantLevelSubsidy(0.5, 2.0))
            == "ConstantLevelSubsidy(level=0.5, duration=2.0, start=0.0)")
    # A record is a tuple of its fields; a sampled run holds an array, so
    # it compares by value and cannot be hashed.
    assert market == (1.0, 2.0, 2.5, 3.0, 1.0) and hash(market) == hash(tuple(market))
    run = netadopt.integrate_ode(market, x0=0.2, t_end=1.0)
    assert run == netadopt.integrate_ode(market, x0=0.2, t_end=1.0)
    with pytest.raises(TypeError):
        hash(run)


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Each CLI call is a cold start; dataclasses pulls in inspect, ast, dis
    # and tokenize, and typing pulls in contextlib.  -S keeps a site .pth
    # file from changing the answer.
    code = ("import netadopt.cli, sys; print(sorted("
            "{'dataclasses', 'inspect', 'typing', 'contextlib'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    assert done.stdout.strip() == "[]"


# The library twin of test_cli's fuzz test: the public planners on markets
# with fields at edge values.
_EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e308, -1e308, 1.7976931348623157e308)
_BASE_MARKETS = (
    (1.0, 2.0, 3.0, 3.0, 1.0 / 3.0),  # tipping, interior 0.5
    (1.0, 2.0, 2.5, 3.0, 1.0),  # the README sweep market
    (1.0, 2.0, 2.0, 1.0, 1.0),  # the singular line u_max == u_min + e == cost
    (0.0, 1.0, 0.5, 0.0, 1.0),  # no externality
)
_PACKAGE_ERRORS = (
    netadopt.AssumptionViolationError,
    netadopt.InfeasibleSubsidyError,
    netadopt.InvalidParameterError,
    netadopt.InvalidStepError,
    netadopt.SingularParametersError,
)
_NUMBERS = st.sampled_from(_EDGE_FLOATS) | st.floats()
# Starts, levels and spans mostly inside the planners' domains.
_STARTS = st.sampled_from((0.0, -0.0, 5e-324, 0.125, 1.0)) | st.floats(0.0, 1.0) | _NUMBERS
_SPANS = st.floats(0.0, 3.0) | _NUMBERS


@st.composite
def _edge_market(draw):
    """A bundled market with up to two fields at an edge, a plain value or
    any float, sometimes moved onto the line externality == u_max - u_min."""
    fields = list(draw(st.sampled_from(_BASE_MARKETS)))
    for i in draw(st.sets(st.integers(0, 4), max_size=2)):
        fields[i] = draw(_NUMBERS | st.sampled_from((0.25, 1.0, 1.5, 2.5, 4.0)))
    if draw(st.integers(0, 3)) == 0:
        fields[3] = fields[1] - fields[0]
    return fields


def _floats(value):
    """Every float in a result, through its records, tuples and lists."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _floats(item)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(fields=_edge_market(), y0=_STARTS, level=_SPANS, span=_SPANS,
       points=st.integers(0, 16))
def test_planners_return_finite_numbers_or_refuse(fields, y0, level, span, points):
    # Time budget, fixed before the test was written: 2 s for the 300
    # examples on a 2-vCPU machine.  Every float a call returns is finite
    # (a None, where a docstring says no value exists, is no float), or
    # the call raises a package error.
    try:
        params = netadopt.ModelParams(*fields)
    except netadopt.InvalidParameterError:
        return
    calls = {
        "min_subsidy": lambda: netadopt.min_subsidy(params, y0),
        "min_duration": lambda: netadopt.min_duration(params, y0, level),
        "min_duration_cost": lambda: netadopt.min_duration_cost(params, y0, level),
        "subsidy_interval_bounds": lambda: netadopt.subsidy_interval_bounds(params, y0),
        "sweep": lambda: netadopt.sweep(params, y0, points),
        "full_subsidy_analysis": lambda: netadopt.full_subsidy_analysis(params, 0.0, y0, span),
        "noext_required_duration": lambda: netadopt.noext_required_duration(
            params, y0, level, span),
        "noext_subsidy_cost": lambda: netadopt.noext_subsidy_cost(
            params, netadopt.ConstantLevelSubsidy(level, span), y0),
        "noext_cost_at_target": lambda: netadopt.noext_cost_at_target(params, y0, level, span),
        "noext_cost_decreasing_condition": lambda: netadopt.noext_cost_decreasing_condition(
            params, level),
        "classify_equilibria": lambda: netadopt.classify_equilibria(params),
    }
    for name, call in calls.items():
        try:
            result = call()
        except _PACKAGE_ERRORS:
            continue
        assert all(map(math.isfinite, _floats(result))), (name, params, y0, level, span, result)

"""The public surface of the package, pinned so that a change shows in review."""

import ast
import dataclasses
import sys
from pathlib import Path

import netadopt

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
    fields = tuple(f.name for f in dataclasses.fields(netadopt.PiecewiseTrajectory))
    assert fields == ("segments",)


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

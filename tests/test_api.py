"""The public surface of the package, pinned so that a change shows in review."""

import netadopt

PUBLIC_NAMES = [
    "AssumptionViolationError",
    "ConstantLevelSubsidy",
    "CostResult",
    "CostSignPattern",
    "EquilibriumReport",
    "FullSubsidyReport",
    "InfeasibleSubsidyError",
    "InvalidParameterError",
    "InvalidStepError",
    "ModelParams",
    "NotAnEquilibriumError",
    "ParetoFrontier",
    "PiecewiseTrajectory",
    "STABLE",
    "SampledTrajectory",
    "Segment",
    "SingularParametersError",
    "SubsidySweepRow",
    "UNSTABLE",
    "classify_equilibria",
    "cost_sign_pattern",
    "full_subsidy_analysis",
    "integrate_cost",
    "integrate_ode",
    "interior_equilibrium",
    "min_duration",
    "min_duration_cost",
    "min_duration_trajectory",
    "min_subsidy",
    "noext_cost_at_target",
    "noext_cost_decreasing_condition",
    "noext_required_duration",
    "noext_subsidy_cost",
    "pareto_frontier",
    "subsidized_trajectory",
    "subsidy_interval_bounds",
    "sweep",
    "unsubsidized_trajectory",
    "would_adopt",
]


def test_public_names_are_pinned():
    assert sorted(netadopt.__all__) == PUBLIC_NAMES
    assert all(hasattr(netadopt, name) for name in PUBLIC_NAMES)

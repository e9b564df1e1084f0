"""Adoption dynamics of network services and cost-subsidy planning.

A service with a per-time subscription cost, heterogeneous user
affinities, and a network effect proportional to the adoption level has
piecewise-linear mean-field dynamics with up to three equilibria.  This
package provides the exact closed-form trajectories, equilibrium
classification, subsidy planners (feasibility threshold, minimum window
length, total outlay, Pareto frontier), and an independent fixed-step
RK4 / quadrature oracle used to cross-validate all of it.
"""

from .closed_form import PiecewiseTrajectory, Segment, unsubsidized_trajectory
from .errors import (
    AssumptionViolationError,
    InfeasibleSubsidyError,
    InvalidParameterError,
    InvalidStepError,
    NotAnEquilibriumError,
    SingularParametersError,
)
from .model import (
    STABLE,
    UNSTABLE,
    EquilibriumReport,
    ModelParams,
    classify_equilibria,
    interior_equilibrium,
    would_adopt,
)
from .oracle import SampledTrajectory, integrate_cost, integrate_ode
from .subsidy import (
    ConstantLevelSubsidy,
    CostResult,
    CostSignPattern,
    FullSubsidyReport,
    ParetoFrontier,
    SubsidySweepRow,
    cost_sign_pattern,
    full_subsidy_analysis,
    min_duration,
    min_duration_cost,
    min_duration_trajectory,
    min_subsidy,
    noext_cost_at_target,
    noext_cost_decreasing_condition,
    noext_required_duration,
    noext_subsidy_cost,
    pareto_frontier,
    subsidized_trajectory,
    subsidy_interval_bounds,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
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

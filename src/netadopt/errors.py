"""Semantic exception hierarchy shared by all netadopt modules."""


class InvalidParameterError(ValueError):
    """A market parameter, config value, or argument is outside its domain."""


class SingularParametersError(ValueError):
    """The interior equilibrium is undefined (u_max equals u_min + externality)."""


class AssumptionViolationError(ValueError):
    """A subsidy planner was invoked outside its supported regime.

    The message names the violated inequality, e.g. ``u_max <= cost``.
    """

    def __init__(self, inequality: str, detail: str = ""):
        msg = f"scenario outside supported regime: requires {inequality}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class InfeasibleSubsidyError(ValueError):
    """The subsidy level cannot move the system to the high-adoption basin."""


class InvalidStepError(ValueError):
    """An integrator step size or time span is unusable."""

"""Exception types shared across the package.

Validation errors flag bad user input; numerical errors flag conditions
that should be impossible for validated inputs and therefore indicate an
implementation bug (or, for Monte Carlo tests, insufficient paths).
"""


class MertonArenaError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(MertonArenaError, ValueError):
    """A population/distribution/config failed an invariant check."""


class NonPositiveParameter(ValidationError):
    """A parameter is not strictly positive, or the horizon is not positive and finite."""

    requirement = "strictly positive"

    def __init__(self, field: str, index: int | None = None):
        self.field = field
        self.index = index
        where = "" if index is None else f" (agent {index})"
        requirement = "positive and finite" if field == "horizon" else self.requirement
        super().__init__(f"parameter '{field}' must be {requirement}{where}")


class NegativeParameter(NonPositiveParameter):
    """A parameter that may be 0 (nu, sigma) is negative or NaN."""

    requirement = "nonnegative"


class ThetaOutOfRange(ValidationError):
    def __init__(self, index: int | None = None):
        self.index = index
        where = "" if index is None else f" (agent {index})"
        super().__init__(f"competition weight theta must lie in [0, 1]{where}")


class DegenerateVolatility(ValidationError):
    def __init__(self, index: int | None = None):
        self.index = index
        where = "" if index is None else f" (agent {index})"
        super().__init__(f"sigma + nu must be strictly positive{where}")


class TooFewAgents(ValidationError):
    def __init__(self, n: int):
        self.n = n
        super().__init__(f"populations need at least 2 agents, got {n}")


class InvalidWeights(ValidationError):
    """Type-distribution weights must be positive and sum to one."""


class NotSingleStock(MertonArenaError, ValueError):
    """Operation requires all agents to share one stock (nu=0, common mu, sigma)."""


class OutOfDomain(MertonArenaError, ValueError):
    """Time argument outside [0, T]."""


class InvalidGrid(MertonArenaError, ValueError):
    """Simulation grid must have at least 2 steps."""


class NonPositiveConsumption(MertonArenaError, ValueError):
    """Strategy consumption values must be nonnegative on the grid."""


class DomainError(MertonArenaError, ValueError):
    """A value outside its domain: CRRA utility at x <= 0, or a closed form
    outside the float range."""


class NumericalError(MertonArenaError, RuntimeError):
    """A numerical invariant failed; signals a bug, not bad input."""


class DegenerateAggregate(NumericalError):
    """1 + psi is not positive: <= 0, which valid inputs cannot produce, or NaN."""


class IdentityViolation(NumericalError):
    """A closed-form identity check exceeded its tolerance."""


class NonPositiveSolution(NumericalError):
    """The linearized value-factor ODE produced a nonpositive solution."""


class ProfitableDeviationFound(NumericalError):
    """A perturbed strategy beat the equilibrium beyond 3 standard errors."""

    def __init__(self, cell, mean_diff: float, stderr: float, report=None):
        self.cell = cell
        self.mean_diff = mean_diff
        self.stderr = stderr
        self.report = report
        super().__init__(
            f"perturbation {cell} improved the objective by {mean_diff:.3e} "
            f"(stderr {stderr:.3e})"
        )


class NonReplicableWeights(MertonArenaError, ValueError):
    """Distribution weights cannot be realized exactly by an n-agent population."""

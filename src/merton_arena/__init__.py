"""Competitive CRRA investment/consumption games: closed-form equilibria,
their mean-field limit, and independent verification tooling."""

from .errors import (
    DegenerateAggregate,
    DegenerateVolatility,
    DomainError,
    IdentityViolation,
    InvalidGrid,
    InvalidWeights,
    MertonArenaError,
    NegativeParameter,
    NonPositiveConsumption,
    NonPositiveParameter,
    NonPositiveSolution,
    NonReplicableWeights,
    NotSingleStock,
    NumericalError,
    OutOfDomain,
    ProfitableDeviationFound,
    ThetaOutOfRange,
    TooFewAgents,
    ValidationError,
)
from .mfg import (
    MfAggregates,
    MfEquilibrium,
    representative,
    solve_mf,
    theta_crit_mf,
)
from .nplayer import (
    Aggregates,
    EquilibriumProfile,
    gamma_n,
    single_stock_beta,
    single_stock_beta_n,
    single_stock_invest_n,
    solve_n,
    theta_crit_n,
)
from .policy import (
    ConsumptionPolicy,
    Regime,
    classify_regime,
    consumption_rate,
    cumulative_consumption,
    delta_band,
)
from .simulation import (
    SimulationBatch,
    StrategyProfile,
    UtilityEstimate,
    constant_strategy,
    equilibrium_strategy,
    estimate_objective,
    simulate,
    utility,
)
from .types import (
    AgentType,
    Population,
    SingleStockMarket,
    TypeDistribution,
    columns,
    detect_single_stock,
    distribution_from_dict,
    load_config,
    population_from_dict,
    validate_distribution,
    validate_population,
)
from .verification import (
    BernoulliInputs,
    BestResponseReport,
    FixedPointReport,
    bernoulli_oracle,
    best_response_scan,
    best_response_test,
    fixed_point_check,
    mfg_convergence,
)

__version__ = "0.1.0"

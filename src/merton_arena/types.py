"""Agent parameter containers, populations, type distributions, validation.

An agent is described by the vector (x0, delta, theta, eps, mu, nu, sigma):
initial wealth, risk tolerance, competition weight, terminal-wealth weight,
drift, idiosyncratic volatility, and common volatility.  A finite game is a
`Population` (ordered agents plus a horizon); its continuum counterpart is a
`TypeDistribution` (weighted atoms).  All containers are immutable and all
operations here are pure functions.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from operator import attrgetter, itemgetter
from types import SimpleNamespace

import numpy as np

from .errors import (
    DegenerateVolatility,
    InvalidWeights,
    NonPositiveParameter,
    ThetaOutOfRange,
    TooFewAgents,
    ValidationError,
)

_WEIGHT_TOL = 1e-12
_AGENT_FIELDS = ("x0", "delta", "theta", "eps", "mu", "nu", "sigma")


@dataclass(frozen=True)
class AgentType:
    """One agent's parameter vector."""

    x0: float
    delta: float
    theta: float
    eps: float
    mu: float
    nu: float
    sigma: float

    @property
    def Sigma(self) -> float:
        """Total instantaneous variance sigma^2 + nu^2."""
        return self.sigma * self.sigma + self.nu * self.nu

    def check(self, index: int | None = None) -> None:
        """Raise a ValidationError naming the first violated field."""
        for field in ("x0", "delta", "eps", "mu"):
            if not getattr(self, field) > 0:
                raise NonPositiveParameter(field, index)
        if not 0.0 <= self.theta <= 1.0:
            raise ThetaOutOfRange(index)
        for field in ("nu", "sigma"):
            if getattr(self, field) < 0:
                raise NonPositiveParameter(field, index)
        if self.sigma + self.nu <= 0:
            raise DegenerateVolatility(index)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Population:
    """A finite n-agent game: common horizon plus an ordered agent list."""

    horizon: float
    agents: tuple[AgentType, ...]

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))

    @property
    def n(self) -> int:
        return len(self.agents)

    def arrays(self) -> SimpleNamespace:
        """Fresh float64 columns of the agent parameters, plus Sigma."""
        return _columns(self.agents)

    def to_dict(self) -> dict:
        return {"horizon": self.horizon, "agents": [a.to_dict() for a in self.agents]}


@dataclass(frozen=True)
class TypeDistribution:
    """Weighted atoms on the type space; weights sum to one."""

    horizon: float
    atoms: tuple[tuple[float, AgentType], ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple((float(w), a) for w, a in self.atoms))

    @property
    def weights(self) -> np.ndarray:
        return np.fromiter(map(itemgetter(0), self.atoms), dtype=float, count=len(self.atoms))

    @property
    def types(self) -> tuple[AgentType, ...]:
        return tuple(map(itemgetter(1), self.atoms))

    def arrays(self) -> SimpleNamespace:
        """Fresh float64 columns of the atom parameters, plus Sigma and weights w."""
        out = _columns(self.types)
        out.w = self.weights
        return out

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "atoms": [{"weight": w, **a.to_dict()} for w, a in self.atoms],
        }


def _columns(agents: tuple[AgentType, ...]) -> SimpleNamespace:
    """One float64 array per agent field, in agent order, plus Sigma = sigma^2 + nu^2."""
    out = SimpleNamespace(**{
        name: np.fromiter(map(attrgetter(name), agents), dtype=float, count=len(agents))
        for name in _AGENT_FIELDS})
    out.Sigma = out.sigma**2 + out.nu**2
    return out


@dataclass(frozen=True)
class SingleStockMarket:
    """Shared (mu, sigma) when every agent trades the same stock (nu = 0)."""

    mu: float
    sigma: float


def _failing(a: SimpleNamespace) -> np.ndarray:
    """Mask of the agents whose AgentType.check raises: its comparisons, NaN included."""
    ok = (a.x0 > 0) & (a.delta > 0) & (a.eps > 0) & (a.mu > 0)
    ok &= (0.0 <= a.theta) & (a.theta <= 1.0)
    # sigma + nu is NaN only for opposite infinities, which the signs already flag.
    with np.errstate(invalid="ignore"):
        return ~ok | (a.nu < 0) | (a.sigma < 0) | (a.sigma + a.nu <= 0)


def validate_population(p: Population) -> SimpleNamespace:
    """Check every agent invariant plus n >= 2 and T > 0.

    Raises the subclass of ValidationError naming the first violation;
    returns the parameter columns (``p.arrays()``) when the population is
    valid, so callers build them once.
    """
    if p.n < 2:
        raise TooFewAgents(p.n)
    if not p.horizon > 0:
        raise NonPositiveParameter("horizon")
    a = p.arrays()
    for i in np.flatnonzero(_failing(a)):
        p.agents[i].check(int(i))
    return a


def validate_distribution(d: TypeDistribution) -> SimpleNamespace:
    """Check atom validity, positive weights and unit total weight.

    Returns the parameter columns (``d.arrays()``) when the distribution
    is valid.
    """
    if not d.horizon > 0:
        raise NonPositiveParameter("horizon")
    if len(d.atoms) == 0:
        raise InvalidWeights("distribution has no atoms")
    a = d.arrays()
    for i in np.flatnonzero(_failing(a) | ~(a.w > 0)):
        w, atom = d.atoms[i]
        if not w > 0:
            raise InvalidWeights(f"atom {i} has nonpositive weight {w}")
        atom.check(int(i))
    total = math.fsum(a.w.tolist())
    if abs(total - 1.0) > _WEIGHT_TOL:
        raise InvalidWeights(f"weights sum to {total!r}, expected 1")
    return a


def detect_single_stock(p: Population | TypeDistribution) -> SingleStockMarket | None:
    """Return the shared market when all agents have nu=0 and identical (mu, sigma).

    Equality is exact (bitwise): the single-stock formulas are algebraic
    identities, not approximations, so callers opting in must supply exactly
    matching parameters.
    """
    agents = p.agents if isinstance(p, Population) else p.types
    first = agents[0]
    for a in agents:
        if a.nu != 0.0 or a.mu != first.mu or a.sigma != first.sigma:
            return None
    return SingleStockMarket(first.mu, first.sigma)


def _shared_market(a: SimpleNamespace) -> SingleStockMarket | None:
    """`detect_single_stock` on the parameter columns, with the same exact comparisons."""
    mu, sigma = a.mu[0], a.sigma[0]
    if a.nu.any() or (a.mu != mu).any() or (a.sigma != sigma).any():
        return None
    return SingleStockMarket(float(mu), float(sigma))


# ---------------------------------------------------------------------------
# JSON config schema (consumed by the CLI)
#
#   population:   {"horizon": T, "agents": [{"x0":, "delta":, "theta":,
#                  "eps":, "mu":, "nu":, "sigma":}, ...]}
#   distribution: {"horizon": T, "atoms": [{"weight":, "x0":, ...}, ...]}
# ---------------------------------------------------------------------------

def _number(value, what: str) -> float:
    """``float(value)``, or a ValidationError naming ``what`` when it is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a number, got {value!r}") from None


def _agent_from_dict(entry: dict, index: int) -> AgentType:
    missing = [k for k in _AGENT_FIELDS if k not in entry]
    if missing:
        raise ValidationError(f"agent entry {index} is missing fields {missing}")
    return AgentType(**{k: _number(entry[k], f"agent entry {index} field '{k}'")
                        for k in _AGENT_FIELDS})


def population_from_dict(cfg: dict) -> Population:
    agents = tuple(_agent_from_dict(e, i) for i, e in enumerate(cfg["agents"]))
    return Population(horizon=_number(cfg["horizon"], "horizon"), agents=agents)


def distribution_from_dict(cfg: dict) -> TypeDistribution:
    atoms = tuple(
        (_number(e["weight"], f"atom {i} weight"), _agent_from_dict(e, i))
        for i, e in enumerate(cfg["atoms"])
    )
    return TypeDistribution(horizon=_number(cfg["horizon"], "horizon"), atoms=atoms)


def _from_config(cfg: dict) -> Population | TypeDistribution:
    if "agents" in cfg:
        return population_from_dict(cfg)
    if "atoms" in cfg:
        return distribution_from_dict(cfg)
    raise ValidationError("config must contain an 'agents' or 'atoms' list")


def load_config(path: str) -> Population | TypeDistribution:
    """Parse a JSON config file into a Population or TypeDistribution."""
    with open(path, "r", encoding="utf-8") as fh:
        return _from_config(json.load(fh))

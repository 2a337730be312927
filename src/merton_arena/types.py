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
import struct
from dataclasses import dataclass
from operator import attrgetter, index, itemgetter
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateVolatility,
    InvalidWeights,
    NegativeParameter,
    NonPositiveParameter,
    ThetaOutOfRange,
    TooFewAgents,
    ValidationError,
)

_WEIGHT_TOL = 1e-12
_AGENT_FIELDS = ("x0", "delta", "theta", "eps", "mu", "nu", "sigma")
_VECTOR = struct.Struct("7d")  # an agent's fields as C doubles, in _AGENT_FIELDS order
_DOUBLE = struct.Struct("d")
_MARKET = struct.Struct("32x3d")  # (mu, nu, sigma): skips x0, delta, theta and eps


@dataclass(frozen=True, init=False)
class AgentType:
    """One agent's parameter vector.

    The seven fields are stored packed, as C doubles in field order, so a
    population's columns are built by one join over its agents (`columns`).
    Each field accepts a real number in the float range and reads back as a
    float; any other value raises a ValidationError naming its field.
    """

    __slots__ = ("_v",)

    x0: float
    delta: float
    theta: float
    eps: float
    mu: float
    nu: float
    sigma: float

    def __init__(self, x0, delta, theta, eps, mu, nu, sigma):
        try:
            v = _VECTOR.pack(x0, delta, theta, eps, mu, nu, sigma)
        except struct.error:
            for name, value in zip(_AGENT_FIELDS, (x0, delta, theta, eps, mu, nu, sigma)):
                _double(name, value)
            raise
        object.__setattr__(self, "_v", v)

    def __reduce__(self):
        return type(self), _VECTOR.unpack(self._v)

    def __hash__(self):
        # Each read makes a new float and a NaN hashes by identity, so NaN maps to
        # one object here: an agent holding NaN still finds itself in a set or dict.
        return hash(tuple(v if v == v else math.nan for v in _VECTOR.unpack(self._v)))

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
            if not getattr(self, field) >= 0:
                raise NegativeParameter(field, index)
        if self.sigma + self.nu <= 0:
            raise DegenerateVolatility(index)

    def to_dict(self) -> dict:
        return dict(zip(_AGENT_FIELDS, _VECTOR.unpack(self._v)))


def _field_reader(offset: int) -> property:
    return property(lambda self: _DOUBLE.unpack_from(self._v, offset)[0])


# Attached after @dataclass, which would take class-body properties for field defaults.
for _j, _name in enumerate(_AGENT_FIELDS):
    setattr(AgentType, _name, _field_reader(_DOUBLE.size * _j))


def _double(name: str, value) -> None:
    """Raise a ValidationError naming field ``name`` when ``value`` does not pack as a C double."""
    try:
        _DOUBLE.pack(value)
    except struct.error:
        raise ValidationError(f"parameter '{name}' must be a real number in the float range, "
                              f"got {value!r}") from None


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
        return columns(self.agents)

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
        out = columns(self.types)
        out.w = self.weights
        return out

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "atoms": [{"weight": w, **a.to_dict()} for w, a in self.atoms],
        }


def columns(agents: Sequence[AgentType]) -> SimpleNamespace:
    """One float64 array per agent field, in agent order, plus Sigma = sigma^2 + nu^2."""
    block = np.ndarray((len(agents), len(_AGENT_FIELDS)), float,
                       b"".join(map(attrgetter("_v"), agents)))
    # take copies each column into an array of its own, as np.fromiter did; rows of one
    # transposed copy would share a buffer, so a column kept alive would keep all seven.
    out = SimpleNamespace(**{name: block.take(j, axis=1) for j, name in enumerate(_AGENT_FIELDS)})
    out.Sigma = out.sigma**2 + out.nu**2
    return out


@dataclass(frozen=True)
class SingleStockMarket:
    """Shared (mu, sigma) when every agent trades the same stock (nu = 0)."""

    mu: float
    sigma: float


def _failing(a: SimpleNamespace) -> np.ndarray:
    """Mask of the agents whose AgentType.check raises: its comparisons, NaN included."""
    ok = (a.x0 > 0) & (a.delta > 0) & (a.eps > 0) & (a.mu > 0) & (a.nu >= 0) & (a.sigma >= 0)
    ok &= (0.0 <= a.theta) & (a.theta <= 1.0)
    # sigma + nu is NaN only where a sign test already failed: a NaN term or opposite infinities.
    with np.errstate(invalid="ignore"):
        return ~ok | (a.sigma + a.nu <= 0)


def _check_horizon(horizon) -> None:
    """NonPositiveParameter("horizon") unless 0 < T < inf; NaN fails too."""
    if not 0.0 < horizon < math.inf:
        raise NonPositiveParameter("horizon")


def _agent_count(n) -> int:
    """n as an int: ValueError unless it is an integer (``operator.index``), TooFewAgents below 2."""
    try:
        n = index(n)
    except TypeError:
        raise ValueError(f"agent count must be an integer, got {n!r}") from None
    if n < 2:
        raise TooFewAgents(n)
    return n


def validate_population(p: Population) -> SimpleNamespace:
    """Check every agent invariant plus n >= 2 and 0 < T < inf.

    Raises the subclass of ValidationError naming the first violation;
    returns the parameter columns (``p.arrays()``) when the population is
    valid, so callers build them once.
    """
    _agent_count(p.n)
    _check_horizon(p.horizon)
    a = p.arrays()
    for i in np.flatnonzero(_failing(a)):
        p.agents[i].check(int(i))
    return a


def _check_agents(name: str, count: int, p: Population) -> None:
    """ValueError unless the named per-agent input has one entry per agent of p."""
    if count != p.n:
        raise ValueError(f"{name} has {count} agents, population has {p.n}")


def validate_distribution(d: TypeDistribution) -> SimpleNamespace:
    """Check atom validity, positive weights, unit total weight and 0 < T < inf.

    Returns the parameter columns (``d.arrays()``) when the distribution
    is valid.
    """
    _check_horizon(d.horizon)
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
    matching parameters.  An empty population shares no stock.
    """
    agents = p.agents if isinstance(p, Population) else p.types
    if not agents:
        return None
    mu, _, sigma = _MARKET.unpack(agents[0]._v)
    for mu_k, nu_k, sigma_k in map(_MARKET.unpack, map(attrgetter("_v"), agents)):
        if nu_k != 0.0 or mu_k != mu or sigma_k != sigma:
            return None
    return SingleStockMarket(mu, sigma)


def _shared_market(a: SimpleNamespace) -> SingleStockMarket | None:
    """`detect_single_stock` on the parameter columns, with the same exact comparisons."""
    market = SingleStockMarket(float(a.mu[0]), float(a.sigma[0]))
    return market if _trades(a, market) else None


def _trades(a: SimpleNamespace, market: SingleStockMarket) -> bool:
    """Whether every entry of the columns trades ``market``'s stock alone: nu = 0, the same (mu, sigma)."""
    return not (a.nu.any() or (a.mu != market.mu).any() or (a.sigma != market.sigma).any())


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
    except OverflowError:  # a JSON integer beyond the float range
        raise ValidationError(f"{what} is outside the float range") from None


def _object(value, what: str) -> dict:
    """``value`` when it is a JSON object (a dict), else a ValidationError naming ``what``."""
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be an object, got {type(value).__name__}")
    return value


def _entries(cfg: dict, key: str, what: str) -> list[dict]:
    """``cfg[key]``, which must be a list of objects; ``what`` names one entry."""
    entries = _object(cfg, "config").get(key)
    if not isinstance(entries, list):
        raise ValidationError(f"'{key}' must be a list, got {type(entries).__name__}")
    return [_object(entry, f"{what} {i}") for i, entry in enumerate(entries)]


def _field(cfg: dict, key: str, what: str) -> float:
    """``cfg[key]`` as a number; a ValidationError naming ``what`` if it is missing or not one."""
    if key not in cfg:
        raise ValidationError(f"{what} is missing")
    return _number(cfg[key], what)


def _agent_from_dict(entry: dict, index: int) -> AgentType:
    missing = [k for k in _AGENT_FIELDS if k not in entry]
    if missing:
        raise ValidationError(f"agent entry {index} is missing fields {missing}")
    return AgentType(**{k: _number(entry[k], f"agent entry {index} field '{k}'")
                        for k in _AGENT_FIELDS})


def population_from_dict(cfg: dict) -> Population:
    entries = _entries(cfg, "agents", "agent entry")
    agents = tuple(_agent_from_dict(e, i) for i, e in enumerate(entries))
    return Population(horizon=_field(cfg, "horizon", "horizon"), agents=agents)


def distribution_from_dict(cfg: dict) -> TypeDistribution:
    atoms = tuple(
        (_field(e, "weight", f"atom {i} weight"), _agent_from_dict(e, i))
        for i, e in enumerate(_entries(cfg, "atoms", "atom"))
    )
    return TypeDistribution(horizon=_field(cfg, "horizon", "horizon"), atoms=atoms)


def _from_config(cfg: dict) -> Population | TypeDistribution:
    _object(cfg, "config")
    if "agents" in cfg:
        return population_from_dict(cfg)
    if "atoms" in cfg:
        return distribution_from_dict(cfg)
    raise ValidationError("config must contain an 'agents' or 'atoms' list")


def load_config(path: str) -> Population | TypeDistribution:
    """Parse a JSON config file into a Population or TypeDistribution."""
    with open(path, "r", encoding="utf-8") as fh:
        return _from_config(json.load(fh))

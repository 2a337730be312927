"""Validation, single-stock detection, and the JSON config schema."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merton_arena import (
    AgentType,
    DegenerateVolatility,
    InvalidWeights,
    NonPositiveParameter,
    Population,
    ThetaOutOfRange,
    TooFewAgents,
    TypeDistribution,
    ValidationError,
    detect_single_stock,
    distribution_from_dict,
    load_config,
    population_from_dict,
    validate_distribution,
    validate_population,
)
from merton_arena.types import _shared_market


def agent(**kw) -> AgentType:
    base = dict(x0=1.0, delta=3.0, theta=0.8, eps=1.0, mu=5.0, nu=0.0, sigma=1.0)
    base.update(kw)
    return AgentType(**base)


def pop(*agents, horizon=1.0) -> Population:
    return Population(horizon=horizon, agents=tuple(agents))


class TestValidatePopulation:
    def test_reference_population_is_valid(self):
        validate_population(pop(agent(), agent()))

    def test_degenerate_volatility(self):
        with pytest.raises(DegenerateVolatility) as exc:
            validate_population(pop(agent(), agent(sigma=0.0, nu=0.0)))
        assert exc.value.index == 1

    def test_theta_out_of_range(self):
        with pytest.raises(ThetaOutOfRange):
            validate_population(pop(agent(theta=1.2), agent()))
        with pytest.raises(ThetaOutOfRange):
            validate_population(pop(agent(theta=-0.1), agent()))

    @pytest.mark.parametrize("field", ["x0", "delta", "eps", "mu"])
    def test_nonpositive_parameters(self, field):
        with pytest.raises(NonPositiveParameter) as exc:
            validate_population(pop(agent(), agent(**{field: 0.0})))
        assert exc.value.field == field
        assert exc.value.index == 1

    def test_negative_volatilities(self):
        with pytest.raises(NonPositiveParameter):
            validate_population(pop(agent(nu=-0.1), agent()))
        with pytest.raises(NonPositiveParameter):
            validate_population(pop(agent(sigma=-0.1, nu=1.0), agent()))

    def test_too_few_agents(self):
        with pytest.raises(TooFewAgents):
            validate_population(pop(agent()))

    def test_nonpositive_horizon(self):
        with pytest.raises(NonPositiveParameter) as exc:
            validate_population(pop(agent(), agent(), horizon=0.0))
        assert exc.value.field == "horizon"

    def test_theta_boundaries_allowed(self):
        validate_population(pop(agent(theta=0.0), agent(theta=1.0)))


class TestValidateDistribution:
    def test_valid(self):
        validate_distribution(TypeDistribution(1.0, ((0.25, agent()), (0.75, agent(delta=1.0)))))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidWeights):
            validate_distribution(TypeDistribution(1.0, ((0.5, agent()), (0.4, agent()))))

    def test_weights_must_be_positive(self):
        with pytest.raises(InvalidWeights):
            validate_distribution(TypeDistribution(1.0, ((1.2, agent()), (-0.2, agent()))))

    def test_atoms_validated(self):
        with pytest.raises(ThetaOutOfRange):
            validate_distribution(TypeDistribution(1.0, ((1.0, agent(theta=2.0)),)))


class TestDetectSingleStock:
    def test_shared_stock(self):
        market = detect_single_stock(pop(agent(), agent(delta=1.5, theta=0.2)))
        assert market is not None
        assert market.mu == 5.0 and market.sigma == 1.0

    def test_idiosyncratic_component_blocks(self):
        assert detect_single_stock(pop(agent(), agent(nu=0.1))) is None

    def test_different_drifts_block(self):
        assert detect_single_stock(pop(agent(), agent(mu=4.0))) is None

    def test_works_on_distributions(self):
        d = TypeDistribution(1.0, ((0.5, agent()), (0.5, agent(delta=2.0))))
        assert detect_single_stock(d) is not None


# Few distinct market values, so that shared markets are common; each has
# an int, a float and (for nu) a negative-zero spelling of some value.
_MARKET_MU = st.sampled_from([2, 2.0, 0.5, 3.25])
_MARKET_SIGMA = st.sampled_from([1, 1.0, 0.7])
_MARKET_NU = st.sampled_from([0.0, -0.0, 0, 0.25])


class TestSharedMarketOnColumns:
    """`_shared_market` on columns agrees with `detect_single_stock` on the objects."""

    @staticmethod
    def assert_agree(agents):
        p = pop(*agents)
        d = TypeDistribution(1.0, tuple((1.0 / len(agents), a) for a in agents))
        for obj in (p, d):
            expected = detect_single_stock(obj)
            got = _shared_market(obj.arrays())
            assert got == expected
            if expected is not None:
                assert (got.mu, got.sigma) == (float(expected.mu), float(expected.sigma))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(agent, mu=_MARKET_MU, sigma=_MARKET_SIGMA, nu=_MARKET_NU,
                              delta=st.sampled_from([3, 0.5, 2.0])),
                    min_size=1, max_size=8))
    def test_agrees_with_detect_single_stock(self, agents):
        self.assert_agree(agents)

    @pytest.mark.parametrize("last", [dict(nu=0.1), dict(mu=4.0), dict(sigma=1.5),
                                      dict(mu=np.nextafter(5.0, 6.0)), dict(nu=-0.0),
                                      dict(mu=5, sigma=1, nu=0)])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_last_agent_alone_differs(self, n, last):
        self.assert_agree([agent()] * (n - 1) + [agent(**last)])


class TestSigmaAccessor:
    def test_total_variance(self):
        a = agent(sigma=0.6, nu=0.8)
        assert a.Sigma == pytest.approx(1.0, abs=1e-15)


class TestJsonConfig:
    def test_population_round_trip(self, tmp_path):
        p = pop(agent(), agent(delta=2.0, theta=0.1))
        path = tmp_path / "pop.json"
        path.write_text(json.dumps(p.to_dict()))
        loaded = load_config(str(path))
        assert isinstance(loaded, Population)
        assert loaded == p

    def test_distribution_round_trip(self, tmp_path):
        d = TypeDistribution(2.0, ((0.5, agent()), (0.5, agent(mu=1.0))))
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(d.to_dict()))
        loaded = load_config(str(path))
        assert isinstance(loaded, TypeDistribution)
        assert loaded == d

    def test_from_dict_helpers(self):
        cfg = {"horizon": 1.0, "agents": [agent().to_dict(), agent().to_dict()]}
        assert population_from_dict(cfg).n == 2
        cfg = {"horizon": 1.0, "atoms": [{"weight": 1.0, **agent().to_dict()}]}
        assert len(distribution_from_dict(cfg).atoms) == 1

    def test_missing_field_rejected(self, tmp_path):
        entry = agent().to_dict()
        del entry["sigma"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"horizon": 1.0, "agents": [entry, agent().to_dict()]}))
        with pytest.raises(ValidationError):
            load_config(str(path))

    def test_unrecognized_shape_rejected(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"horizon": 1.0}))
        with pytest.raises(ValidationError):
            load_config(str(path))


class TestImmutability:
    def test_agent_frozen(self):
        with pytest.raises(Exception):
            agent().delta = 2.0

    def test_arrays_are_copies(self):
        p = pop(agent(), agent())
        arrs = p.arrays()
        arrs.delta[0] = 99.0
        assert p.agents[0].delta == 3.0


# ---------------------------------------------------------------------------
# Vectorized validators against the per-agent loops they replaced
# ---------------------------------------------------------------------------

def loop_validate_population(p):
    if p.n < 2:
        raise TooFewAgents(p.n)
    if not p.horizon > 0:
        raise NonPositiveParameter("horizon")
    for i, a in enumerate(p.agents):
        a.check(i)


def loop_validate_distribution(d):
    if not d.horizon > 0:
        raise NonPositiveParameter("horizon")
    if len(d.atoms) == 0:
        raise InvalidWeights("distribution has no atoms")
    for i, (w, a) in enumerate(d.atoms):
        if not w > 0:
            raise InvalidWeights(f"atom {i} has nonpositive weight {w}")
        a.check(i)
    total = math.fsum(w for w, _ in d.atoms)
    if abs(total - 1.0) > 1e-12:
        raise InvalidWeights(f"weights sum to {total!r}, expected 1")


def outcome(validate, obj):
    """None when valid, else the raised class, message and fields."""
    try:
        validate(obj)
    except ValidationError as exc:
        return (type(exc), str(exc), getattr(exc, "index", None), getattr(exc, "field", None))
    return None


FIELDS = ("x0", "delta", "theta", "eps", "mu", "nu", "sigma")
BAD_VALUES = st.sampled_from([0.0, -0.0, -1.0, -1e-300, 5e-324, 1.5, 2.0,
                              math.nan, math.inf, -math.inf])


@st.composite
def corrupted(draw, min_size):
    """(horizon, agents, weights) with 0-3 fields, weights or the horizon corrupted."""
    size = draw(st.integers(min_size, 6))
    unit = st.floats(0.0, 1.0)
    agents = [dict(x0=draw(st.floats(0.1, 3.0)), delta=draw(st.floats(0.1, 5.0)),
                   theta=draw(unit), eps=draw(st.floats(0.1, 4.0)),
                   mu=draw(st.floats(0.1, 4.0)), nu=draw(st.sampled_from([0.0, 0.5])),
                   sigma=draw(st.floats(0.5, 2.0)))
              for _ in range(size)]
    raw = [draw(st.floats(0.5, 1.5)) for _ in range(size)]
    weights = [w / math.fsum(raw) for w in raw]
    horizon = 1.0
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, size - 1))
        target = draw(st.sampled_from(FIELDS + ("weight", "weight", "horizon")))
        if target == "weight":
            weights[i] = draw(BAD_VALUES | st.floats(0.01, 1.0))
        elif target == "horizon":
            horizon = draw(BAD_VALUES)
        else:
            agents[i][target] = draw(BAD_VALUES)
    return horizon, [AgentType(**a) for a in agents], weights


class TestVectorizedValidators:
    @settings(max_examples=400, deadline=None, database=None)
    @given(corrupted(min_size=2))
    def test_population_matches_loop(self, case):
        horizon, agents, _ = case
        p = Population(horizon, tuple(agents))
        assert outcome(validate_population, p) == outcome(loop_validate_population, p)

    @settings(max_examples=400, deadline=None, database=None)
    @given(corrupted(min_size=1))
    def test_distribution_matches_loop(self, case):
        horizon, agents, weights = case
        d = TypeDistribution(horizon, tuple(zip(weights, agents)))
        assert outcome(validate_distribution, d) == outcome(loop_validate_distribution, d)

    def test_opposite_infinite_volatilities(self):
        # sigma + nu is inf - inf here; the vectorized mask must not warn.
        bad = AgentType(x0=1.0, delta=1.0, theta=0.0, eps=1.0, mu=1.0, nu=math.inf,
                        sigma=-math.inf)
        d = TypeDistribution(1.0, ((1.0, bad),))
        assert outcome(validate_distribution, d) == outcome(loop_validate_distribution, d)
        assert outcome(validate_distribution, d)[3] == "sigma"

    def test_valid_input_returns_columns(self):
        p = pop(agent(), agent(delta=2.0))
        cols = validate_population(p)
        assert cols.delta.tolist() == [3.0, 2.0]
        d = TypeDistribution(1.0, ((0.25, agent()), (0.75, agent(mu=1.0))))
        assert validate_distribution(d).w.tolist() == [0.25, 0.75]

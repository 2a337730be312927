"""Closed-form n-agent equilibrium: examples, identities, properties.

The reference two-agent population has exactly rational equilibrium
constants, frozen here as fractions: pi* = 75/13, rho = 25/13,
beta = -375/169, lambda = 1.
"""
import gc
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import merton_arena
from conftest import profile_sha256, random_population
from merton_arena import (
    AgentType,
    DegenerateAggregate,
    IdentityViolation,
    NotSingleStock,
    Population,
    ThetaOutOfRange,
    TooFewAgents,
    ValidationError,
    gamma_n,
    single_stock_beta_n,
    single_stock_invest_n,
    solve_n,
    theta_crit_n,
)
from merton_arena import nplayer
from merton_arena.nplayer import Aggregates, identity_residual

REF_PI = 75.0 / 13.0
REF_RHO = 25.0 / 13.0
REF_BETA = -375.0 / 169.0


class TestAggregates:
    def test_reference_values(self, ref_n2):
        agg = solve_n(ref_n2).aggregates
        assert agg.phi == pytest.approx(15.0, abs=1e-12)
        assert agg.psi == pytest.approx(1.6, abs=1e-12)
        assert agg.ratio == pytest.approx(15.0 / 2.6, abs=1e-12)

    def test_sigma_zero_kills_both(self):
        p = Population(1.0, (
            AgentType(1.0, 3.0, 0.8, 1.0, 5.0, 1.0, 0.0),
            AgentType(1.0, 2.0, 0.5, 1.0, 4.0, 0.5, 0.0),
        ))
        agg = solve_n(p).aggregates
        assert agg.phi == 0.0 and agg.psi == 0.0

    def test_theta_zero_kills_psi(self):
        rng = np.random.default_rng(1)
        p = random_population(rng, n=5, theta_zero=True)
        assert solve_n(p).aggregates.psi == 0.0


class TestGamma:
    def test_reference(self, ref_n2):
        assert gamma_n(ref_n2) == pytest.approx([5.0 / 3.0, 5.0 / 3.0], abs=1e-15)

    def test_theta_zero_gives_delta(self):
        p = Population(1.0, (
            AgentType(1.0, 2.5, 0.0, 1.0, 1.0, 0.0, 1.0),
            AgentType(1.0, 0.7, 0.0, 1.0, 1.0, 0.0, 1.0),
        ))
        assert gamma_n(p) == pytest.approx([2.5, 0.7], abs=1e-15)

    def test_log_investor_gives_one(self):
        p = Population(1.0, (
            AgentType(1.0, 1.0, 0.9, 1.0, 1.0, 0.0, 1.0),
            AgentType(1.0, 1.0, 0.2, 1.0, 1.0, 0.0, 1.0),
        ))
        assert np.all(gamma_n(p) == 1.0)


class TestInvest:
    def test_reference(self, ref_n2):
        pi = solve_n(ref_n2).pi
        assert pi == pytest.approx([REF_PI, REF_PI], abs=1e-12)

    def test_merton_without_competition(self):
        p = Population(1.0, (
            AgentType(1.0, 2.0, 0.0, 1.0, 1.5, 0.0, 0.5),
            AgentType(1.0, 3.0, 0.0, 1.0, 0.5, 0.0, 1.0),
        ))
        pi = solve_n(p).pi
        assert pi[0] == 2.0 * 1.5 / 0.25
        assert pi[1] == 3.0 * 0.5 / 1.0

    def test_log_investor(self):
        p = Population(1.0, (
            AgentType(1.0, 1.0, 0.7, 1.0, 1.2, 0.3, 0.4),
            AgentType(1.0, 2.0, 0.5, 1.0, 1.0, 0.0, 1.0),
        ))
        pi = solve_n(p).pi
        assert pi[0] == pytest.approx(1.2 / 0.25, abs=1e-12)


class TestRho:
    def test_reference(self, ref_n2):
        e = solve_n(ref_n2)
        assert e.rho == pytest.approx([REF_RHO, REF_RHO], abs=1e-12)

    def test_log_investor_zero_exactly(self, ref_n3):
        e = solve_n(ref_n3)
        assert e.rho[2] == 0.0

    def test_merton_reduction(self):
        p = Population(1.0, (
            AgentType(1.0, 2.0, 0.0, 1.0, 1.5, 0.0, 0.5),
            AgentType(1.0, 3.0, 0.0, 1.0, 0.5, 0.0, 1.0),
        ))
        rho = solve_n(p).rho
        expected = (np.array([2.0, 3.0]) - 1.0) * np.array([1.5, 0.5]) ** 2 / (
            2.0 * np.array([0.25, 1.0]))
        assert rho == pytest.approx(expected, abs=1e-12)


class TestBetaLambda:
    def test_reference(self, ref_n2):
        e = solve_n(ref_n2)
        assert e.beta == pytest.approx([REF_BETA, REF_BETA], abs=1e-12)
        assert np.all(e.lam == 1.0)

    def test_all_log_investors(self):
        p = Population(1.0, (
            AgentType(1.0, 1.0, 0.7, 2.0, 1.2, 0.3, 0.4),
            AgentType(1.0, 1.0, 0.5, 0.5, 1.0, 0.0, 1.0),
        ))
        e = solve_n(p)
        assert np.all(e.beta == 0.0)
        assert e.lam == pytest.approx([0.5, 2.0], abs=1e-14)

    def test_theta_zero_lambda(self):
        p = Population(1.0, (
            AgentType(1.0, 2.0, 0.0, 2.0, 1.5, 0.0, 0.5),
            AgentType(1.0, 3.0, 0.0, 0.7, 0.5, 0.0, 1.0),
        ))
        e = solve_n(p)
        assert e.lam == pytest.approx([2.0**-2.0, 0.7**-3.0], rel=1e-14)

    def test_lambda_always_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            e = solve_n(random_population(rng))
            assert np.all(e.lam > 0.0)


class TestThetaCrit:
    def test_fig3_moments(self):
        a = AgentType(1.0, 5.0, 0.4, 1.0, 5.0, 0.0, 1.0)
        p = Population(1.0, (a, a))
        assert theta_crit_n(p) == pytest.approx(0.52, abs=1e-15)

    def test_reference(self, ref_n2):
        assert theta_crit_n(ref_n2) == pytest.approx(2.6 / 3.0, abs=1e-15)

    def test_no_competition(self):
        p = Population(1.0, (
            AgentType(1.0, 2.0, 0.0, 1.0, 5.0, 0.0, 1.0),
            AgentType(1.0, 4.0, 0.0, 1.0, 5.0, 0.0, 1.0),
        ))
        assert theta_crit_n(p) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_requires_single_stock(self, ref_n3):
        with pytest.raises(NotSingleStock):
            theta_crit_n(ref_n3)

    def test_empty_population_is_not_single_stock(self):
        with pytest.raises(NotSingleStock):
            theta_crit_n(Population(1.0, ()))


SINGLE_STOCK_HELPERS = (theta_crit_n, single_stock_invest_n, single_stock_beta_n)


class TestSingleStockValidation:
    """The single-stock helpers reject what solve_n rejects."""

    @pytest.mark.parametrize("helper", SINGLE_STOCK_HELPERS)
    def test_theta_out_of_range(self, helper):
        a = AgentType(1.0, 3.0, 1.5, 1.0, 5.0, 0.0, 1.0)
        with pytest.raises(ThetaOutOfRange):
            helper(Population(1.0, (a, a)))

    @pytest.mark.parametrize("helper", SINGLE_STOCK_HELPERS)
    def test_one_agent(self, helper):
        with pytest.raises(TooFewAgents):
            helper(Population(1.0, (AgentType(1.0, 3.0, 0.8, 1.0, 5.0, 0.0, 1.0),)))


class TestEntryPointValidation:
    """gamma_n and identity_residual reject what solve_n rejects, with its error."""

    @pytest.mark.parametrize("call", [
        gamma_n,
        lambda p: identity_residual(p, np.zeros(p.n), Aggregates(phi=0.0, psi=0.0)),
    ], ids=["gamma_n", "identity_residual"])
    @pytest.mark.parametrize("agents", [
        (AgentType(1.0, -1.0, 0.5, 1.0, 1.0, 0.0, 1.0),  # delta = -1
         AgentType(1.0, 2.0, 0.5, 1.0, 1.0, 0.0, 1.0)),
        (AgentType(1.0, 3.0, 1.5, 1.0, 5.0, 0.0, 1.0),) * 2,  # theta above 1
        (AgentType(1.0, 3.0, 0.8, 1.0, 5.0, 0.0, 1.0),),  # one agent
    ], ids=["delta", "theta", "one_agent"])
    def test_raises_as_solve_n_does(self, call, agents):
        p = Population(1.0, agents)
        with pytest.raises(ValidationError) as expected:
            solve_n(p)
        with pytest.raises(ValidationError) as got:
            call(p)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)


class TestSolve:
    def test_reference_profile(self, ref_n2):
        e = solve_n(ref_n2)
        assert e.pi == pytest.approx([REF_PI] * 2, abs=1e-12)
        assert e.beta == pytest.approx([REF_BETA] * 2, abs=1e-12)
        assert np.all(e.lam == 1.0)
        assert e.theta_crit == pytest.approx(2.6 / 3.0, abs=1e-15)
        assert identity_residual(ref_n2, e.pi, e.aggregates) <= 1e-12

    def test_identity_residual_checks_pi_length(self, ref_n2):
        e = solve_n(ref_n2)
        for pi in (e.pi[:1], np.append(e.pi, 0.0)):
            with pytest.raises(ValueError, match=f"pi has {len(pi)} agents, population has 2"):
                identity_residual(ref_n2, pi, e.aggregates)

    def test_theta_crit_absent_off_single_stock(self, ref_n3):
        assert solve_n(ref_n3).theta_crit is None

    def test_all_theta_zero_beta(self):
        rng = np.random.default_rng(11)
        p = random_population(rng, n=4, theta_zero=True)
        e = solve_n(p)
        a = p.arrays()
        expected = a.mu**2 / (2.0 * a.Sigma) * a.delta * (1.0 - a.delta)
        assert e.beta == pytest.approx(expected, abs=1e-12)


class TestIdentity:
    def test_identity_over_random_populations(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(300):
            p = random_population(rng, n_max=64)
            e = solve_n(p)
            worst = max(worst, identity_residual(p, e.pi, e.aggregates))
        assert worst <= 1e-10


class TestLogInvestors:
    def test_delta_one_agents_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_population(rng, n=4)
            agents = list(p.agents)
            agents[2] = AgentType(1.0, 1.0, 0.6, 1.3, 1.1, 0.4, 0.7)
            p = Population(p.horizon, tuple(agents))
            e = solve_n(p)
            assert e.rho[2] == 0.0
            assert e.beta[2] == 0.0
            assert e.pi[2] == pytest.approx(1.1 / (0.4**2 + 0.7**2), abs=1e-15)


class TestSingleStockAgreement:
    def test_corollary_matches_theorem(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = random_population(rng, single_stock=True)
            e = solve_n(p)
            assert np.max(np.abs(e.pi - single_stock_invest_n(p))) <= 1e-12
            assert np.max(np.abs(e.beta - single_stock_beta_n(p))) <= 1e-12

    def test_requires_single_stock(self, ref_n3):
        with pytest.raises(NotSingleStock):
            single_stock_invest_n(ref_n3)


class TestPermutationEquivariance:
    def test_outputs_permute_with_agents(self):
        rng = np.random.default_rng(31)
        p = random_population(rng, n=6)
        e = solve_n(p)
        perm = rng.permutation(6)
        p2 = Population(p.horizon, tuple(p.agents[j] for j in perm))
        e2 = solve_n(p2)
        for name in ("pi", "rho", "beta", "lam"):
            assert getattr(e2, name) == pytest.approx(getattr(e, name)[perm], rel=1e-12)


class TestEpsScaling:
    def test_common_scaling_law(self):
        rng = np.random.default_rng(41)
        p = random_population(rng, n=5)
        e = solve_n(p)
        kappa = 1.7
        a = p.arrays()
        scaled = Population(p.horizon, tuple(
            AgentType(t.x0, t.delta, t.theta, t.eps * kappa, t.mu, t.nu, t.sigma)
            for t in p.agents))
        e2 = solve_n(scaled)
        denom = 1.0 + np.mean(a.theta * (a.delta - 1.0))
        factor = kappa ** (-a.delta) * kappa ** (
            np.mean(a.delta) * a.theta * (a.delta - 1.0) / denom)
        assert e2.lam == pytest.approx(e.lam * factor, rel=1e-12)
        # investments, rates and beta do not depend on eps at all
        assert np.all(e2.pi == e.pi)
        assert np.all(e2.beta == e.beta)


class TestRecordedOutputs:
    """solve_n output bytes, recorded before the formulas read prebuilt columns."""

    @pytest.mark.parametrize("seed, single_stock, digest", [
        (1000, False, "26c48ad44137d111275e5fbc5c1a3ca77c94ad79d35bb0ad25ecf6acf017bb9f"),
        (1001, True, "a4e27ca4d986881dd67f08771359f21160d3ab2492bd2b5e06949e5eacee64f4"),
    ])
    def test_bytes_unchanged(self, seed, single_stock, digest):
        p = random_population(np.random.default_rng(seed), n=1000, single_stock=single_stock)
        assert profile_sha256(solve_n(p)) == digest


class TestNoRetainedState:
    def test_solve_n_retains_nothing(self):
        rng = np.random.default_rng(8)
        warm, p = random_population(rng, n=1000), random_population(rng, n=1000)
        package = os.path.dirname(merton_arena.__file__)
        only_package = [tracemalloc.Filter(True, os.path.join(package, "*"))]
        tracemalloc.start()
        try:
            solve_n(warm)  # steady state of numpy's own small caches
            # A full collection frees pending garbage and empties the
            # interpreter's free lists, whose blocks tracemalloc counts as
            # live; one before each snapshot leaves only what is reachable.
            gc.collect()
            before = tracemalloc.take_snapshot().filter_traces(only_package)
            solve_n(p)
            gc.collect()
            after = tracemalloc.take_snapshot().filter_traces(only_package)
        finally:
            tracemalloc.stop()
        assert sum(s.size_diff for s in after.compare_to(before, "lineno")) == 0


class TestMean:
    """`_mean` is bitwise np.mean on 1-D float64, wrapper aside."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(1.0, 10.0), st.integers(-300, 299), st.booleans()),
                    min_size=1, max_size=300))
    def test_bitwise_np_mean(self, draws):
        x = np.array([(-m if neg else m) * 10.0**e for m, e, neg in draws])
        got = nplayer._mean(x)
        assert type(got) is np.float64
        assert got.tobytes() == np.mean(x).tobytes()


class TestNanGates:
    """A NaN fails each gate, as a value past its bound does."""

    def test_aggregates_gate(self, ref_n2):
        a = ref_n2.arrays()
        a.theta = np.array([np.nan, 0.8])
        with pytest.raises(DegenerateAggregate, match=r"1 \+ psi = nan"):
            nplayer._aggregates(a, nplayer._invest_denom(a, ref_n2.n), np.mean)

    def test_identity_gate(self, ref_n2, monkeypatch):
        monkeypatch.setattr(nplayer, "_identity_residual", lambda *args: math.nan)
        with pytest.raises(IdentityViolation, match="residual nan"):
            solve_n(ref_n2)


class TestRaisedInvariants:
    def test_raised_under_optimize_flag(self):
        # theta = 3, delta = 0.1 bypasses validation; the invariants must
        # still raise with assertions stripped (python -O).
        code = (
            "import numpy as np\n"
            "from merton_arena import AgentType, DegenerateAggregate, Population\n"
            "from merton_arena.nplayer import _mean, _moments, _rho\n"
            "if __debug__:\n"
            "    raise SystemExit('assertions are on')\n"
            "a = AgentType(x0=1.0, delta=0.1, theta=3.0, eps=1.0, mu=1.0, nu=0.2, sigma=0.5)\n"
            "c = Population(1.0, (a, a)).arrays()\n"
            "for call in (lambda: _rho(c, 2, np.ones(2)), lambda: _moments(c, np.zeros(2), _mean)):\n"
            "    try:\n"
            "        call()\n"
            "    except DegenerateAggregate as exc:\n"
            "        print(exc)\n"
            "    else:\n"
            "        raise SystemExit('no DegenerateAggregate')\n"
        )
        env = {**os.environ,
               "PYTHONPATH": os.path.dirname(os.path.dirname(merton_arena.__file__))}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        rho_msg, beta_msg = out.stdout.splitlines()
        assert rho_msg == "1/gamma = -3.5 <= 0"
        assert beta_msg.startswith("1 + mean(theta (delta - 1)) = -1.7")

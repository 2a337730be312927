"""Exact-path simulation: determinism, common random numbers, analytics."""
import math

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.integrate import quad
from scipy.special import ndtri

from merton_arena import (
    AgentType,
    DomainError,
    InvalidGrid,
    NonPositiveConsumption,
    Population,
    constant_strategy,
    equilibrium_strategy,
    estimate_objective,
    simulate,
    solve_n,
    utility,
)
from merton_arena.simulation import block_normals, trapezoid_weights


def two_agents(**kw) -> Population:
    base = dict(x0=1.0, delta=1.0, theta=0.0, eps=1.0, mu=1.0, nu=0.0, sigma=1.0)
    base.update(kw)
    a = AgentType(**base)
    return Population(horizon=1.0, agents=(a, a))


class TestStreams:
    def test_block_partition_invariance(self):
        whole = block_normals(99, 2, 0, 64, 250)
        part = block_normals(99, 2, 40, 24, 250)
        assert np.array_equal(whole[40:], part)

    def test_streams_differ(self):
        a = block_normals(1, 0, 0, 8, 100)
        b = block_normals(1, 1, 0, 8, 100)
        c = block_normals(2, 0, 0, 8, 100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("draws", [200, 250])
    def test_inverse_cdf_of_shifted_uniforms(self, draws):
        # the in-place midpoint shift must give exactly ndtri(u + 2^-54)
        words = 4 * ((draws + 3) // 4)
        start, count = 40, 24
        gen = Generator(Philox(key=np.array([99, 2], dtype=np.uint64),
                               counter=start * (words // 4)))
        u = gen.random((count, words))[:, :draws]
        expected = ndtri(u + 2.0**-54)
        assert np.array_equal(block_normals(99, 2, start, count, draws), expected)

    def test_moments(self):
        z = block_normals(7, 0, 0, 2000, 500)
        assert abs(z.mean()) < 3.0 / math.sqrt(z.size)
        assert abs(z.std() - 1.0) < 5e-3


class TestSimulateDeterminism:
    def test_bitwise_reproducible(self):
        p = two_agents(nu=0.3)
        s = constant_strategy([0.5, 0.7], [1.0, 1.2])
        b1 = simulate(p, s, grid=64, paths=512, seed=11)
        b2 = simulate(p, s, grid=64, paths=512, seed=11)
        assert np.array_equal(b1.log_wealth, b2.log_wealth)
        assert np.array_equal(b1.dW, b2.dW)
        assert np.array_equal(b1.dB, b2.dB)

    def test_block_size_does_not_change_paths(self):
        p = two_agents(nu=0.3)
        s = constant_strategy([0.5, 0.7], [1.0, 1.2])
        b1 = simulate(p, s, grid=64, paths=500, seed=3, block_size=500)
        b2 = simulate(p, s, grid=64, paths=500, seed=3, block_size=128)
        assert np.array_equal(b1.log_wealth, b2.log_wealth)

    def test_common_random_numbers_across_strategies(self):
        p = two_agents(nu=0.3)
        e = solve_n(p)
        s = equilibrium_strategy(p, e)
        b1 = simulate(p, s, grid=64, paths=256, seed=5)
        b2 = simulate(p, s.perturb(0, dpi=0.4, a=0.1, b=-0.2), grid=64,
                      paths=256, seed=5)
        assert np.array_equal(b1.dW, b2.dW)
        assert np.array_equal(b1.dB, b2.dB)


class TestDeterministicDynamics:
    def test_pure_consumption_paths(self):
        # pi = 0, c = kappa: X_T = x0 e^(-kappa T) on every path
        kappa = 0.8
        p = two_agents()
        s = constant_strategy([0.0, 0.0], [kappa, kappa])
        batch = simulate(p, s, grid=200, paths=64, seed=1)
        final = batch.log_wealth[:, :, -1]
        assert np.all(final == final[0, 0])  # no noise enters at pi = 0
        assert final[0, 0] == pytest.approx(-kappa, abs=1e-12)

    def test_zero_consumption_allowed_in_dynamics(self):
        # the paper's positivity requirement protects marginal utility, not
        # the wealth dynamics; simulate accepts c = 0
        p = two_agents(sigma=1.0)
        s = constant_strategy([1.0, 1.0], [0.0, 0.0])
        batch = simulate(p, s, grid=250, paths=20000, seed=9,
                         keep_increments=False)
        mean_log = batch.log_wealth[:, 0, -1].mean()
        se = batch.log_wealth[:, 0, -1].std(ddof=1) / math.sqrt(batch.paths)
        assert abs(mean_log - (1.0 - 0.5)) <= 3.0 * se

    def test_common_noise_cancels_in_wealth_ratio(self):
        p = Population(1.0, (
            AgentType(1.0, 2.0, 0.3, 1.0, 1.0, 0.0, 0.8),
            AgentType(2.0, 3.0, 0.6, 1.0, 1.2, 0.0, 0.8),
        ))
        s = constant_strategy([1.5, 1.5], [1.0, 1.0])
        batch = simulate(p, s, grid=50, paths=300, seed=13)
        diff = batch.log_wealth[:, 0, :] - batch.log_wealth[:, 1, :]
        assert np.max(np.abs(diff - diff[0])) <= 1e-12


class TestValidation:
    def test_invalid_grid(self):
        p = two_agents()
        s = constant_strategy([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(InvalidGrid):
            simulate(p, s, grid=1, paths=4, seed=0)

    def test_negative_consumption_rejected(self):
        p = two_agents()
        s = constant_strategy([0.0, 0.0], [1.0, -0.5])
        with pytest.raises(NonPositiveConsumption):
            simulate(p, s, grid=8, paths=4, seed=0)

    def test_strategy_size_mismatch(self):
        p = two_agents()
        s = constant_strategy([0.0], [1.0])
        with pytest.raises(ValueError):
            simulate(p, s, grid=8, paths=4, seed=0)


class TestUtility:
    def test_power_values(self):
        assert utility(1.0, 2.0) == pytest.approx(2.0, abs=1e-15)
        assert utility(4.0, 2.0) == pytest.approx(4.0, abs=1e-15)

    def test_log_value(self):
        assert utility(math.e, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            utility(0.0, 2.0)
        with pytest.raises(DomainError):
            utility(np.array([1.0, -1.0]), 0.5)

    def test_risk_averse_branch_negative(self):
        assert utility(2.0, 0.5) < 0.0


class TestEstimateObjective:
    def test_deterministic_log_case(self):
        # theta=0, delta=1, eps=1, pi=0, c=1, x0=1, T=1: J = -3/2 exactly
        p = two_agents()
        s = constant_strategy([0.0, 0.0], [1.0, 1.0])
        batch = simulate(p, s, grid=400, paths=16, seed=2)
        est = estimate_objective(batch, s, 0, p)
        assert est.mean == pytest.approx(-1.5, abs=1e-12)
        assert est.stderr == 0.0

    def test_log_agent_matches_analytic_mean(self):
        # J = int (log c + E log X) dt + eps E log X_T for theta=0, delta=1
        p = two_agents(mu=1.0, nu=0.3, sigma=0.4)
        e = solve_n(p)
        s = equilibrium_strategy(p, e)
        batch = simulate(p, s, grid=400, paths=30000, seed=6,
                         keep_increments=False)
        est = estimate_objective(batch, s, 0, p)

        pi = float(e.pi[0])
        growth = pi * 1.0 - 0.5 * pi**2 * 0.25
        lam = float(e.lam[0])

        def c_fn(t):
            return 1.0 / (1.0 - t + 1.0 / lam)

        def big_c(t):
            return math.log(1.0 + 1.0 / lam) - math.log(1.0 - t + 1.0 / lam)

        def integrand(t):
            return math.log(c_fn(t)) + growth * t - big_c(t)

        analytic = quad(integrand, 0.0, 1.0, limit=200)[0] + (growth - big_c(1.0))
        assert abs(est.mean - analytic) <= 3.0 * est.stderr

    def test_stderr_halves_with_quadrupled_paths(self):
        p = two_agents(mu=1.0, nu=0.3, sigma=0.4)
        e = solve_n(p)
        s = equilibrium_strategy(p, e)
        b1 = simulate(p, s, grid=100, paths=4000, seed=8, keep_increments=False)
        b2 = simulate(p, s, grid=100, paths=16000, seed=8, keep_increments=False)
        e1 = estimate_objective(b1, s, 0, p)
        e2 = estimate_objective(b2, s, 0, p)
        ratio = e2.stderr / e1.stderr
        assert 0.4 <= ratio <= 0.6

    def test_zero_consumption_rejected_by_objective(self):
        p = two_agents()
        s = constant_strategy([0.0, 0.0], [1.0, 0.0])
        batch = simulate(p, s, grid=16, paths=8, seed=0)
        with pytest.raises(DomainError):
            estimate_objective(batch, s, 1, p)

    def test_quadrature_bias_below_noise(self, ref_n3):
        e = solve_n(ref_n3)
        s = equilibrium_strategy(ref_n3, e)
        means = {}
        for grid in (500, 2000):
            batch = simulate(ref_n3, s, grid=grid, paths=8000, seed=10,
                             keep_increments=False)
            means[grid] = estimate_objective(batch, s, 0, ref_n3)
        gap = abs(means[500].mean - means[2000].mean)
        assert gap <= 3.0 * max(means[500].stderr, means[2000].stderr)

    @pytest.mark.parametrize("i", [-1, 2, 5])
    def test_agent_index_out_of_range(self, i):
        # a negative index would otherwise score the last agent
        p = two_agents()
        s = constant_strategy([0.0, 0.0], [1.0, 1.0])
        batch = simulate(p, s, grid=10, paths=4, seed=2)
        with pytest.raises(ValueError, match="out of range"):
            estimate_objective(batch, s, i, p)

    def test_agent_count_mismatch(self, ref_n3):
        p = two_agents()
        s = constant_strategy([0.0, 0.0], [1.0, 1.0])
        batch = simulate(p, s, grid=10, paths=4, seed=2)
        s3 = constant_strategy([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="batch has 2 agents, population has 3"):
            estimate_objective(batch, s3, 0, ref_n3)
        with pytest.raises(ValueError, match="strategy has 3 agents, population has 2"):
            estimate_objective(batch, s3, 0, p)


class TestTrapezoidWeights:
    def test_uniform_weights(self):
        t = np.linspace(0.0, 1.0, 5)
        w = trapezoid_weights(t)
        assert w == pytest.approx([0.125, 0.25, 0.25, 0.25, 0.125], abs=1e-15)
        assert np.polyval([2.0, 1.0], t) @ w == pytest.approx(2.0, abs=1e-12)

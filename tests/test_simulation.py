"""Exact-path simulation: determinism, common random numbers, analytics."""
import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

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
    NonPositiveParameter,
    Population,
    ValidationError,
    constant_strategy,
    equilibrium_strategy,
    estimate_objective,
    simulate,
    solve_n,
    utility,
)
from conftest import (
    assert_estimate_matches,
    random_population,
    reference_objective_paths,
    stored_path_objective,
)
from merton_arena import simulation
from merton_arena.simulation import (
    COMMON_STREAM,
    TILE_BYTES,
    StrategyProfile,
    _simulate_nodes,
    agent_stream,
    block_normals,
    trapezoid_weights,
    worker_count,
)


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
        # the paths are those of the increments block_normals regenerates
        log_wealth = reference_batch(p, s, 64, 512, 11, 512)
        assert np.array_equal(b1.log_wealth, log_wealth)

    def test_block_size_does_not_change_paths(self, monkeypatch):
        p = two_agents(nu=0.3)
        s = constant_strategy([0.5, 0.7], [1.0, 1.2])
        monkeypatch.setattr(simulation, "TILE_BYTES", 500 * 8 * 65)  # one 500-row tile
        b1 = simulate(p, s, grid=64, paths=500, seed=3)
        monkeypatch.setattr(simulation, "TILE_BYTES", 128 * 8 * 65)  # 128-row tiles
        b2 = simulate(p, s, grid=64, paths=500, seed=3)
        assert np.array_equal(b1.log_wealth, b2.log_wealth)

    def test_common_random_numbers_across_strategies(self):
        p = two_agents(nu=0.3)
        e = solve_n(p)
        s = equilibrium_strategy(p, e)
        s2 = s.perturb(0, dpi=0.4, a=0.1, b=-0.2)
        b1 = simulate(p, s, grid=64, paths=256, seed=5)
        b2 = simulate(p, s2, grid=64, paths=256, seed=5)
        # both batches are driven by the same regenerated increments ...
        for batch, strategy in ((b1, s), (b2, s2)):
            log_wealth = reference_batch(p, strategy, 64, 256, 5, 256)
            assert np.array_equal(batch.log_wealth, log_wealth)
        # ... so the agent whose strategy did not change has the same paths
        assert np.array_equal(b1.log_wealth[:, 1], b2.log_wealth[:, 1])
        assert not np.array_equal(b1.log_wealth[:, 0], b2.log_wealth[:, 0])


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
        batch = simulate(p, s, grid=250, paths=20000, seed=9)
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

    def test_investment_is_one_fraction_per_agent(self):
        s = constant_strategy([0.5, 0.7], [1.0, 1.0])
        with pytest.raises(ValidationError, match=r"one investment fraction per agent.*\(2, 4\)"):
            StrategyProfile(pi=np.ones((2, 4)), consumption=s.consumption)

    def test_strategy_size_mismatch(self):
        p = two_agents()
        s = constant_strategy([0.0], [1.0])
        with pytest.raises(ValueError):
            simulate(p, s, grid=8, paths=4, seed=0)


class TestEagerErrors:
    """simulate draws no path, yet raises at call time for every invalid input."""

    @pytest.mark.parametrize("case, error", [
        (dict(grid=1), InvalidGrid),
        (dict(paths=0), ValueError),
        (dict(c=[1.0, -0.5]), NonPositiveConsumption),
        (dict(pi=[0.0], c=[1.0]), ValueError),  # one strategy entry for two agents
        (dict(threads="two"), ValidationError),
        (dict(seed=1.5), TypeError),
        (dict(seed=None), TypeError),
        (dict(seed="3"), TypeError),
    ])
    def test_raises_before_drawing(self, monkeypatch, case, error):
        def no_tiles(*args):
            raise AssertionError("simulate ran a tile")

        monkeypatch.setattr(simulation, "_map_tiles", no_tiles)
        monkeypatch.setattr(simulation, "block_normals", no_tiles)
        monkeypatch.setenv("MERTON_ARENA_THREADS", case.get("threads", "2"))
        s = constant_strategy(case.get("pi", [0.0, 0.0]), case.get("c", [1.0, 1.0]))
        with pytest.raises(error):
            simulate(two_agents(), s, grid=case.get("grid", 8), paths=case.get("paths", 4),
                     seed=case.get("seed", 0))

    def test_numpy_unsigned_seed(self):
        # signed numpy integers too: every integer seed keys Philox modulo 2^64
        p, s = two_agents(nu=0.3), constant_strategy([0.5, 0.7], [1.0, 1.2])
        for seed in (np.uint64(5), np.int64(5), np.int32(5)):
            assert np.array_equal(simulate(p, s, grid=8, paths=8, seed=seed).log_wealth,
                                  simulate(p, s, grid=8, paths=8, seed=5).log_wealth)


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

    @pytest.mark.parametrize("x, delta", [(1e-6, 0.01), (np.array([1.0, 1e-6]), 0.01),
                                          (1e-300, 0.25), (math.inf, 2.0)])
    def test_out_of_range_is_a_domain_error(self, x, delta):
        # 1e-6 ** -99 and 1e-300 ** -3 overflow
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="leaves the float range"):
                utility(x, delta)
        assert caught == []

    def test_nan_is_outside_the_domain(self):
        with pytest.raises(DomainError, match="strictly positive"):
            utility(math.nan, 2.0)

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan])
    def test_delta_must_be_positive(self, delta):
        with pytest.raises(NonPositiveParameter, match="'delta'"):
            utility(2.0, delta)


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
        batch = simulate(p, s, grid=400, paths=30000, seed=6)
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
        b1 = simulate(p, s, grid=100, paths=4000, seed=8)
        b2 = simulate(p, s, grid=100, paths=16000, seed=8)
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
            batch = simulate(ref_n3, s, grid=grid, paths=8000, seed=10)
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

    def test_agent_index_bool_is_its_integer(self):
        # not a boolean mask over every agent's values
        p = two_agents(nu=0.3)
        s = constant_strategy([0.5, 0.7], [1.0, 1.2])
        batch = simulate(p, s, grid=10, paths=4, seed=2)
        assert estimate_objective(batch, s, True, p) == estimate_objective(batch, s, 1, p)

    @pytest.mark.parametrize("i", [1.0, np.float64(1.0), "1", None])
    def test_agent_index_not_an_integer(self, i):
        p = two_agents()
        s = constant_strategy([0.0, 0.0], [1.0, 1.0])
        batch = simulate(p, s, grid=10, paths=4, seed=2)
        with pytest.raises(ValueError, match="out of range: need an integer"):
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

    def test_population_validated(self):
        p = two_agents()
        s = constant_strategy([0.0, 0.0], [1.0, 1.0])
        batch = simulate(p, s, grid=10, paths=4, seed=2)
        with pytest.raises(ValidationError, match="delta"):
            estimate_objective(batch, s, 0, two_agents(delta=-1.0, theta=2.0))

    def test_batch_from_another_horizon(self):
        p = two_agents()
        s = constant_strategy([0.0, 0.0], [1.0, 1.0])
        batch = simulate(p, s, grid=10, paths=4, seed=2)
        longer = Population(horizon=3.0, agents=p.agents)
        with pytest.raises(ValueError, match=r"10-step grid on \[0, 3.0\]"):
            estimate_objective(batch, s, 0, longer)


class TestTrapezoidWeights:
    def test_uniform_weights(self):
        t = np.linspace(0.0, 1.0, 5)
        w = trapezoid_weights(t)
        assert w == pytest.approx([0.125, 0.25, 0.25, 0.25, 0.125], abs=1e-15)
        assert np.polyval([2.0, 1.0], t) @ w == pytest.approx(2.0, abs=1e-12)


def reference_batch(p, s, grid, paths, seed, block_size):
    """Log-wealth from whole-block increments regenerated through block_normals.

    This is simulate's block code before blocks were written in place,
    with investments repeated over the segments as it took them.
    """
    ar = p.arrays()
    times = np.linspace(0.0, p.horizon, grid + 1)
    dt = np.diff(times)
    pi_seg = np.repeat(s.pi[:, None], grid, axis=1)
    c_nodes = s.consumption_on(times)
    det_seg = ((pi_seg * ar.mu[:, None] - 0.5 * pi_seg**2 * ar.Sigma[:, None]) * dt
               - 0.5 * (c_nodes[:, :-1] + c_nodes[:, 1:]) * dt)
    sqrt_dt = np.sqrt(dt)
    log_x0 = np.log(ar.x0)
    log_wealth = np.empty((paths, p.n, grid + 1))
    for start in range(0, paths, block_size):
        count = min(block_size, paths - start)
        b = sqrt_dt * block_normals(seed, COMMON_STREAM, start, count, grid)
        w = np.empty((count, p.n, grid))
        for k in range(p.n):
            w[:, k, :] = sqrt_dt * block_normals(seed, agent_stream(k), start, count, grid)
        stoch = pi_seg[None, :, :] * (ar.nu[None, :, None] * w
                                      + ar.sigma[None, :, None] * b[:, None, :])
        lw = np.empty((count, p.n, grid + 1))
        lw[:, :, 0] = log_x0[None, :]
        np.cumsum(det_seg[None, :, :] + stoch, axis=2, out=lw[:, :, 1:])
        lw[:, :, 1:] += log_x0[None, :, None]
        log_wealth[start:start + count] = lw
    return log_wealth


class TestInPlaceBlocks:
    """simulate equals the whole-block reference bitwise, estimate_objective up to rounding."""

    GRID, PATHS, SEED = 48, 1000, 17
    BLOCK = 4096  # rows of a reference block

    @classmethod
    def tile_rows(cls, monkeypatch, rows, grid=None):
        """Make every route's tiles ``rows`` rows long."""
        monkeypatch.setattr(simulation, "TILE_BYTES", rows * 8 * ((grid or cls.GRID) + 1))

    @staticmethod
    def case(n=3, perturbed=True):
        # agent 0 is a log investor (delta = 1); perturbed: agent 1 deviates
        # from the equilibrium in pi and in tilted consumption, as a scan cell does
        p = random_population(np.random.default_rng(21), n=n)
        p = Population(p.horizon, (dataclasses.replace(p.agents[0], delta=1.0),) + p.agents[1:])
        base = equilibrium_strategy(p, solve_n(p))
        return p, base.perturb(1, dpi=0.3, a=-0.1, b=0.4) if perturbed else base

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("block_size", [128, 500, 4096])
    @pytest.mark.parametrize("perturbed", [True, False])
    def test_simulate_equals_reference(self, monkeypatch, threads, block_size, perturbed):
        monkeypatch.setenv("MERTON_ARENA_THREADS", threads)
        self.tile_rows(monkeypatch, block_size)
        p, s = self.case(perturbed=perturbed)
        # tile edges (a one-row last tile), and a full reference block plus
        # a partial one
        for paths in (1, block_size - 1, block_size + 1, self.BLOCK + 904):
            log_wealth = reference_batch(p, s, self.GRID, paths, self.SEED, block_size)
            batch = simulate(p, s, grid=self.GRID, paths=paths, seed=self.SEED)
            assert np.array_equal(batch.log_wealth, log_wealth)
            assert batch.dW is None and batch.dB is None

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_estimate_equals_reference(self, monkeypatch, threads):
        monkeypatch.setenv("MERTON_ARENA_THREADS", threads)
        self.check_estimate(self.GRID, self.BLOCK + 904)  # a full block and a partial one

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("grid, paths", [
        (400, 1027),  # six 163-row tiles and one of 49 rows
        (400, 1105),  # six 163-row tiles and one of 127 rows
        (1000, 131),  # two 65-row tiles and one of 1 row
    ], ids=["1027", "1105", "131"])
    def test_estimate_equals_reference_at_chunk_edges(self, monkeypatch, threads, grid, paths):
        monkeypatch.setenv("MERTON_ARENA_THREADS", threads)
        self.check_estimate(grid, paths)

    def check_estimate(self, grid, paths):
        p, s = self.case()
        batch = simulate(p, s, grid=grid, paths=paths, seed=self.SEED)
        ar = p.arrays()
        log_c = np.log(s.consumption_on(batch.times))
        weights = trapezoid_weights(batch.times)
        assert ar.delta[0] == 1.0 and np.all(ar.delta[1:] != 1.0)
        blocks = [batch.log_wealth[start:start + self.BLOCK]
                  for start in range(0, paths, self.BLOCK)]
        for i in range(p.n):
            args = (log_c, weights, i, float(ar.theta[i]), float(ar.delta[i]), float(ar.eps[i]))
            values = np.concatenate([reference_objective_paths(b, *args) for b in blocks])
            assert_estimate_matches(estimate_objective(batch, s, i, p), values)

    @staticmethod
    def scratch_bytes(p, s, grid, paths):
        """tracemalloc peak of materialising simulate's log_wealth minus the paths."""
        tracemalloc.start()
        try:
            log_wealth = simulate(p, s, grid=grid, paths=paths, seed=17).log_wealth
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - log_wealth.nbytes

    @pytest.mark.parametrize("perturbed", [True, False])
    def test_peak_memory_is_per_block_row(self, monkeypatch, perturbed):
        # Beyond the batch itself, each of the two workers holds at most four
        # (tile, grid) arrays; one (tile, n, grid) temporary is 16 of them.
        monkeypatch.setenv("MERTON_ARENA_THREADS", "2")
        grid, paths, rows = 200, 2048, 512
        self.tile_rows(monkeypatch, rows, grid)
        p, s = self.case(n=16, perturbed=perturbed)
        row_bytes = rows * grid * 8
        assert self.scratch_bytes(p, s, grid, paths) <= 2 * 4 * row_bytes

    def test_peak_memory_is_per_tile(self, monkeypatch):
        # Each of the two workers holds two (tile, grid) arrays, the common
        # increments and one agent's, whatever the number of paths.
        monkeypatch.setenv("MERTON_ARENA_THREADS", "2")
        grid = 200
        tile_bytes = TILE_BYTES // (8 * (grid + 1)) * grid * 8
        p, s = self.case(n=16)
        for paths in (1024, 4096):
            assert self.scratch_bytes(p, s, grid, paths) <= 2 * 4 * tile_bytes

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_simulate_nodes_are_batch_columns(self, monkeypatch, threads):
        # tiles of 300 paths: the last one 100 rows, or 1 row
        monkeypatch.setenv("MERTON_ARENA_THREADS", threads)
        self.tile_rows(monkeypatch, 300)
        p, s = self.case()
        nodes = [0, 3, self.GRID]
        for paths in (self.PATHS, 901):
            batch = simulate(p, s, grid=self.GRID, paths=paths, seed=self.SEED)
            times, log_wealth = _simulate_nodes(p, s, self.GRID, paths, self.SEED, nodes)
            assert np.array_equal(times, batch.times[nodes])
            assert np.array_equal(log_wealth, np.moveaxis(batch.log_wealth[:, :, nodes], 0, -1))

    def test_simulate_nodes_memory_is_per_tile(self, monkeypatch):
        # Beyond its (n, nodes, paths) output and the path model's columns,
        # each of the two workers holds one (tile, n, grid + 1) block and
        # two (tile, grid) draws, n + 2 tiles, and numpy's ufunc buffers and
        # the tile's node columns, under one tile more.  One (1024, n,
        # grid + 1) block per worker would be 24.6 MB here.
        monkeypatch.setenv("MERTON_ARENA_THREADS", "2")
        p, s = self.case()
        grid, paths, nodes = 1000, 4096, [0, 10, 500, 1000]
        tile_bytes = TILE_BYTES // (8 * (grid + 1)) * (grid + 1) * 8
        columns = 8 * p.n * (grid + 1) * 8
        _simulate_nodes(p, s, 8, 8, 1, [0, 8])  # loads ndtri
        tracemalloc.start()
        try:
            _, log_wealth = _simulate_nodes(p, s, grid, paths, self.SEED, nodes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert log_wealth.shape == (p.n, len(nodes), paths)
        assert peak - log_wealth.nbytes <= columns + 2 * (p.n + 3) * tile_bytes


class TestKeptScores:
    """estimate_objective scores every agent in one pass and keeps the n estimates on the batch."""

    GRID, PATHS, SEED = 48, 3000, 17

    def batch(self, p, s):
        return simulate(p, s, grid=self.GRID, paths=self.PATHS, seed=self.SEED)

    def test_batch_is_read_only(self):
        p, s = TestInPlaceBlocks.case()
        batch = self.batch(p, s)
        with pytest.raises(ValueError, match="read-only"):
            batch.log_wealth[0, 0, 1] = 0.0

    def test_estimates_leave_log_wealth_unformed(self):
        p, s = TestInPlaceBlocks.case()
        batch = self.batch(p, s)
        estimates = [estimate_objective(batch, s, i, p) for i in range(p.n)]
        assert "log_wealth" not in vars(batch)
        # paths read first, once and kept, change no estimate
        read_first = self.batch(p, s)
        assert read_first.log_wealth is read_first.log_wealth
        assert [estimate_objective(read_first, s, i, p) for i in range(p.n)] == estimates

    def test_batch_is_a_snapshot_of_the_strategy(self):
        # consumption curves read rates that change after simulate; s_ref has
        # the rates simulate saw and is never changed
        p, _ = TestInPlaceBlocks.case()
        rates = [1.0, 1.2, 0.9]
        cons = tuple((lambda t, _k=k: np.full_like(np.asarray(t, dtype=float), rates[_k]))
                     for k in range(p.n))
        s = StrategyProfile(pi=np.array([0.5, 0.7, 0.2]), consumption=cons)
        s_ref = constant_strategy([0.5, 0.7, 0.2], list(rates))
        ref = self.batch(p, s_ref)
        expected = [estimate_objective(ref, s_ref, i, p) for i in range(p.n)]
        batch = self.batch(p, s)
        s.pi[:] = [1.5, -0.3, 0.0]
        rates[:] = [2.0, 0.1, 3.0]
        # s's consumption now scores as other rates: only pi may enter here
        s_pi = StrategyProfile(pi=s.pi, consumption=s_ref.consumption)
        assert [estimate_objective(batch, s_pi, i, p) for i in range(p.n)] == expected
        assert [estimate_objective(batch, s_ref, i, p) for i in range(p.n)] == expected
        assert np.array_equal(batch.log_wealth, ref.log_wealth)

    def test_one_pass_scores_every_agent(self, monkeypatch):
        monkeypatch.setenv("MERTON_ARENA_THREADS", "2")
        p, s = TestInPlaceBlocks.case(n=4)
        batch = self.batch(p, s)
        calls = []
        real = simulation._map_tiles

        def counting(fn, paths, nodes, workspace):
            calls.append(paths)
            return real(fn, paths, nodes, workspace)

        monkeypatch.setattr(simulation, "_map_tiles", counting)
        for i in range(p.n):
            estimate_objective(batch, s, i, p)
        assert calls == [self.PATHS]

    def test_any_order_gives_the_same_estimates(self):
        p, s = TestInPlaceBlocks.case(n=4)
        first = {i: estimate_objective(self.batch(p, s), s, i, p) for i in range(p.n)}
        for order in ([3, 2, 1, 0], [2, 0, 2, 3, 1]):
            batch = self.batch(p, s)
            for i in order:
                assert estimate_objective(batch, s, i, p) == first[i]

    def test_changed_inputs_score_as_a_fresh_batch(self):
        p, s = TestInPlaceBlocks.case()
        batch = self.batch(p, s)
        for i in range(p.n):
            estimate_objective(batch, s, i, p)
        dev = s.perturb(1, dpi=0.2, a=0.1, b=-0.3)
        q = Population(p.horizon, p.agents[:2] + (
            dataclasses.replace(p.agents[2], theta=0.5 * p.agents[2].theta),))
        # and back to the inputs the kept scores were first formed for
        for s2, p2 in ((dev, p), (s, q), (s, p)):
            for i in range(p.n):
                fresh = estimate_objective(self.batch(p, s), s2, i, p2)
                assert estimate_objective(batch, s2, i, p2) == fresh

    def test_threads_sharing_a_batch(self):
        # callers on four threads, with two strategies, replace the kept
        # scores under each other; every call still scores its own inputs
        p, s = TestInPlaceBlocks.case()
        strategies = (s, s.perturb(2, a=0.2))
        batch = simulate(p, s, grid=8, paths=64, seed=3)
        expected = [[estimate_objective(simulate(p, s, grid=8, paths=64, seed=3), st, i, p)
                     for i in range(p.n)] for st in strategies]

        def work(k):
            return all(estimate_objective(batch, strategies[k % 2], i, p) == expected[k % 2][i]
                       for _ in range(50) for i in range(p.n))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(work, k) for k in range(4)]
                assert all(f.result(timeout=120) for f in futures)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def overflowing_pair():
        # agent 1's utility argument overflows exp: its objective leaves the float range
        kw = dict(theta=0.5, eps=1.0, mu=0.5, nu=0.3, sigma=0.4)
        p = Population(1.0, (AgentType(x0=1.0, delta=2.0, **kw),
                             AgentType(x0=1e-6, delta=0.01, **kw)))
        s = equilibrium_strategy(p, solve_n(p))
        return p, s, simulate(p, s, grid=50, paths=200, seed=1)

    def test_finite_mean_has_finite_stderr(self):
        # at x0 = 1 agent 1's per-path values reach about -5e177, so their
        # squares overflow, but its mean is representable: so is its stderr
        kw = dict(theta=0.5, eps=1.0, mu=0.5, nu=0.3, sigma=0.4)
        p = Population(1.0, (AgentType(x0=1.0, delta=2.0, **kw),
                             AgentType(x0=1.0, delta=0.01, **kw)))
        s = equilibrium_strategy(p, solve_n(p))
        batch = simulate(p, s, grid=50, paths=2000, seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = estimate_objective(batch, s, 1, p)
        assert caught == []
        values = stored_path_objective(batch, s, p, 1)
        assert np.abs(values).max() > 1e177
        assert -1e175 < est.mean < -1e174
        assert 0.0 < est.stderr < math.inf
        # the values' mean and standard error, taken on values scaled down by a power of two
        assert_estimate_matches(est, values)

    @pytest.mark.parametrize("order", [(0, 1, 0, 1), (1, 0, 1, 0)])
    def test_warnings_are_not_leaked(self, order):
        # agent 1's objective leaves the float range; agent 0 still scores
        # as the reference, and neither call warns
        p, s, batch = self.overflowing_pair()
        values = stored_path_objective(batch, s, p, 0)
        for i in order:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if i == 0:
                    assert_estimate_matches(estimate_objective(batch, s, i, p), values)
                else:
                    with pytest.raises(DomainError, match="objective of agent 1 leaves"):
                        estimate_objective(batch, s, i, p)
            assert [str(w.message) for w in caught] == []

    def test_memory_does_not_grow_with_paths(self, monkeypatch):
        # The batch keeps n (mean, stderr) pairs.  Each of the two workers
        # holds a cumulated tile per stream, three work tiles and the tile's
        # population sum or one stream's draws: streams + 4 tiles, plus its
        # (tile rows,) values and numpy's ufunc buffer.  The call also holds
        # a few (n, grid + 1) columns and each agent's (grid + 1) weights.
        # The (paths, n, grid + 1) paths would be 49.2 MB at 2048 paths.
        monkeypatch.setenv("MERTON_ARENA_THREADS", "2")
        grid = 1000
        p, s = TestInPlaceBlocks.case()
        streams = 1 + p.n  # every agent has nu != 0
        rows = TILE_BYTES // (8 * (grid + 1))
        per_worker = (streams + 4) * rows * (grid + 1) * 8 + rows * 8 + np.getbufsize() * 8
        weights = (p.n + 8) * (grid + 1) * 8
        columns = 8 * p.n * (grid + 1) * 8
        bound = weights + columns + 2 * per_worker
        for paths in (2048, 8192):
            batch = simulate(p, s, grid=grid, paths=paths, seed=self.SEED)
            tracemalloc.start()
            try:
                for i in range(p.n):
                    estimate_objective(batch, s, i, p)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert "log_wealth" not in vars(batch)
            assert peak <= bound < 2048 * p.n * (grid + 1) * 8


class TestObjectiveEngine:
    def test_terms_per_agent_do_not_grow_with_n(self):
        # An agent's tile terms are its own noise streams and the weight of
        # the population sum, formed once per tile: none of its fields has
        # a size that depends on n.  Agent 0 is the same agent at both n.
        sizes = []
        for n in (3, 64):
            p = random_population(np.random.default_rng(5), n=n, gentle=True)
            f = simulation._path_model(p, equilibrium_strategy(p, solve_n(p)), 20, 8)
            objective = simulation._objective(f, f.a, np.log(f.c_nodes))
            scan = simulation._agent_scan(0, f, objective, [(0.1, 0.0, 0.0), (0.0, 0.1, 0.0)])
            sizes.append({field.name: np.shape(getattr(scan, field.name))
                          for field in dataclasses.fields(scan)})
        assert sizes[0]["own_noise"] == (2, 2)  # the common and the idiosyncratic stream
        assert sizes[0] == sizes[1]


class TestMapTiles:
    def test_tiles_run_under_the_callers_error_state(self, monkeypatch):
        # pool threads start in a fresh context, where numpy only warns
        nodes = TILE_BYTES // (8 * 4)  # four-row tiles

        def tile(start, count, space):
            return np.exp(1000.0) if start == 4 else 0.0

        for threads in ("1", "2"):  # one worker is a pool thread too
            monkeypatch.setenv("MERTON_ARENA_THREADS", threads)
            with np.errstate(over="raise"):
                with pytest.raises(FloatingPointError, match="overflow encountered in exp"):
                    list(simulation._map_tiles(tile, 12, nodes, lambda rows: None))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_results_come_in_tile_order(self, monkeypatch, threads):
        # 4-row tiles, the last one 1 row
        monkeypatch.setenv("MERTON_ARENA_THREADS", threads)
        tiles = list(simulation._map_tiles(lambda start, count, space: (start, count), 41,
                                           TILE_BYTES // (8 * 4), lambda rows: None))
        assert tiles == [(start, 4) for start in range(0, 40, 4)] + [(40, 1)]

    @pytest.mark.parametrize("threads", ["1", "2", "4"])  # 4: more workers than cores
    @pytest.mark.parametrize("paths, nodes, rows", [
        (41, TILE_BYTES // (8 * 4), 4),  # 4-row tiles, the last one 1 row
        (1153, 1001, 65),  # 65-row tiles at grid 1000, the last one 48 rows
    ])
    def test_each_worker_builds_one_workspace_of_the_largest_tile(self, monkeypatch, threads,
                                                                   paths, nodes, rows):
        monkeypatch.setenv("MERTON_ARENA_THREADS", threads)
        built = []

        def workspace(size):
            built.append(size)
            return threading.get_ident()

        def tile(start, count, space):
            return count, space == threading.get_ident()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch inside every task
        try:
            tiles = list(simulation._map_tiles(tile, paths, nodes, workspace))
        finally:
            sys.setswitchinterval(interval)
        assert max(count for count, _ in tiles) == rows
        assert all(own for _, own in tiles)  # each task gets its own worker's workspace
        assert 1 <= len(built) <= int(threads)
        assert built == [rows] * len(built)


class TestWorkerCount:
    @pytest.mark.parametrize("value", ["abc", "2.5"])
    def test_non_integer_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("MERTON_ARENA_THREADS", value)
        with pytest.raises(ValueError,
                           match=f"MERTON_ARENA_THREADS must be an integer, got '{value}'"):
            worker_count()

    @pytest.mark.parametrize("value, expected", [("0", 1), ("-3", 1), ("3", 3)])
    def test_integer_values(self, monkeypatch, value, expected):
        monkeypatch.setenv("MERTON_ARENA_THREADS", value)
        assert worker_count() == expected

"""ODE oracle, fixed-point residuals, best-response scan, convergence."""
import dataclasses
import json
import math
import re
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import cumulative_simpson

from conftest import (
    assert_estimate_matches,
    random_agent,
    random_population,
    single_atom,
    stored_path_objective,
)
from merton_arena import (
    AgentType,
    BernoulliInputs,
    ConsumptionPolicy,
    DomainError,
    InvalidGrid,
    NonPositiveParameter,
    NonReplicableWeights,
    Population,
    ProfitableDeviationFound,
    TooFewAgents,
    TypeDistribution,
    bernoulli_oracle,
    best_response_scan,
    best_response_test,
    equilibrium_strategy,
    estimate_objective,
    fixed_point_check,
    gamma_n,
    mfg_convergence,
    simulate,
    solve_mf,
    solve_n,
)
from merton_arena import simulation, verification
from merton_arena.nplayer import EquilibriumProfile, identity_residual
from merton_arena.verification import ConvergenceRow, FixedPointReport, replicate


def const(value):
    return lambda t: np.full_like(np.asarray(t, dtype=float), value)


class TestBernoulliOracle:
    def test_log_investor_closed_form(self):
        # gamma=1, a=0, b=1/eps: f(t) = (T - t)/eps + 1
        inp = BernoulliInputs(gamma=1.0, theta=0.5, delta=1.0, eps=2.0, rho=0.0,
                              hat_c_minus=const(0.0), bar_c_minus=const(1.0))
        times, f = bernoulli_oracle(inp, 1.0, steps=2000)
        assert np.max(np.abs(f - ((1.0 - times) / 2.0 + 1.0))) <= 1e-10

    def test_homogeneous_exponential(self):
        # a = alpha, b = 0: f(t) = exp(alpha (T - t)); realized with theta=0
        # (so b carries no consumption term) and a tiny eps-free override
        alpha = 0.7

        class Homogeneous(BernoulliInputs):
            def b(self, t):
                return np.zeros_like(np.asarray(t, dtype=float))

        inp = Homogeneous(gamma=2.0, theta=0.0, delta=2.0, eps=1.0, rho=alpha,
                          hat_c_minus=const(0.0), bar_c_minus=const(1.0))
        times, f = bernoulli_oracle(inp, 1.0, steps=2000)
        assert np.max(np.abs(f - np.exp(alpha * (1.0 - times)))) <= 1e-10

    def test_negative_b_rejected(self):
        class Negative(BernoulliInputs):
            def b(self, t):
                return -np.ones_like(np.asarray(t, dtype=float))

        inp = Negative(gamma=1.0, theta=0.0, delta=1.0, eps=1.0, rho=0.0,
                       hat_c_minus=const(0.0), bar_c_minus=const(1.0))
        with pytest.raises(ValueError):
            bernoulli_oracle(inp, 1.0, steps=100)


class TestFixedPoint:
    def test_reference_population(self, ref_n2):
        e = solve_n(ref_n2)
        rep = fixed_point_check(ref_n2, e)
        assert rep.systeq1_max <= 1e-8
        assert rep.systeq2_max <= 1e-8
        assert rep.max_f_gap <= 1e-8
        assert rep.identity_residual <= 1e-10
        assert rep.passes()

    def test_all_log_investors_tight(self):
        p = Population(1.0, (
            AgentType(1.0, 1.0, 0.7, 2.0, 1.2, 0.3, 0.4),
            AgentType(1.0, 1.0, 0.5, 0.5, 1.0, 0.0, 1.0),
        ))
        e = solve_n(p)
        rep = fixed_point_check(p, e)
        assert rep.systeq1_max <= 1e-10
        assert rep.systeq2_max <= 1e-10

    def test_heterogeneous_population(self, ref_n3):
        e = solve_n(ref_n3)
        rep = fixed_point_check(ref_n3, e)
        assert rep.systeq1_max <= 1e-8
        assert rep.max_f_gap <= 1e-8

    def test_detector_sensitivity(self, ref_n2):
        # lambda scaled by 1.01 moves every curve off the fixed point
        e = solve_n(ref_n2)
        rep = fixed_point_check(ref_n2, dataclasses.replace(e, lam=e.lam * 1.01))
        assert rep.systeq1_max >= 1e-3

    def test_detector_catches_relative_tamper(self, ref_n2):
        # Gated on relative errors, a 1e-6 scaling of every lambda fails even
        # where value factors exceed 1e8, and the untouched input passes;
        # that population's absolute f gap is about 1e-2.
        e = solve_n(ref_n2)
        assert fixed_point_check(ref_n2, e).passes()
        assert not fixed_point_check(ref_n2, dataclasses.replace(e, lam=e.lam * (1 + 1e-6))).passes()
        p = random_population(np.random.default_rng(35), n_max=4)
        e = solve_n(p)
        _, scale = reference_fixed_point(p, e, steps=200)
        assert max(scale["f_gap"]) > 1e8
        assert fixed_point_check(p, e).passes()
        assert not fixed_point_check(p, dataclasses.replace(e, lam=e.lam * (1 + 1e-6))).passes()

    def test_random_corpus_small(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            p = random_population(rng, n_max=5, gentle=True)
            e = solve_n(p)
            rep = fixed_point_check(p, e, steps=4000)
            assert rep.systeq1_max <= 1e-8, p
            assert rep.systeq2_max <= 1e-8, p
            assert rep.max_f_gap <= 1e-8, p


class TestBestResponse:
    GRID_DPI = (-0.5, -0.1, 0.0, 0.1, 0.5)
    GRID_AB = (-0.2, 0.0, 0.2)

    def test_null_cell_exact_zero(self, ref_n3):
        e = solve_n(ref_n3)
        rep = best_response_test(ref_n3, e, 1, self.GRID_DPI, self.GRID_AB,
                                 paths=4000, seed=3, grid=200)
        null = [c for c in rep.cells if (c.dpi, c.a, c.b) == (0.0, 0.0, 0.0)][0]
        assert null.mean_diff == 0.0
        assert null.stderr == 0.0

    def test_equilibrium_survives_scan(self, ref_n3):
        e = solve_n(ref_n3)
        for i in range(ref_n3.n):
            rep = best_response_test(ref_n3, e, i, self.GRID_DPI, self.GRID_AB,
                                     paths=20000, seed=17, grid=250)
            assert not rep.violations()
            assert rep.worst.mean_diff <= 3.0 * max(rep.worst.stderr, 0.0)

    def test_merton_deviation_matches_analytic(self):
        # theta=0, delta=1: shifting pi by h changes J by -Sigma h^2/2 (T^2/2 + eps T)
        a = AgentType(1.0, 1.0, 0.0, 1.0, 1.0, 0.3, 0.4)
        p = Population(1.0, (a, a))
        e = solve_n(p)
        rep = best_response_test(p, e, 0, (0.0, 1.0), (0.0,),
                                 paths=40000, seed=7, grid=400)
        cell = [c for c in rep.cells if c.dpi == 1.0][0]
        analytic = -0.5 * a.Sigma * (0.5 + 1.0)
        assert abs(cell.mean_diff - analytic) <= 3.0 * cell.stderr
        assert cell.mean_diff < -3.0 * cell.stderr

    def test_tampered_profile_is_caught(self, ref_n3):
        e = solve_n(ref_n3)
        pi = np.array(e.pi)
        pi[0] -= 1.0  # held strategy is off-equilibrium for agent 0
        bad = EquilibriumProfile(pi=pi, rho=e.rho, beta=e.beta, lam=e.lam,
                                 aggregates=e.aggregates)
        with pytest.raises(ProfitableDeviationFound) as exc:
            best_response_test(ref_n3, bad, 0, (0.0, 1.0), (0.0,),
                               paths=20000, seed=23, grid=200)
        assert exc.value.report is not None
        assert exc.value.cell[0] == 1.0  # moving back toward the optimum wins

    def test_paths_accounted(self, ref_n2, monkeypatch):
        monkeypatch.setattr(simulation, "TILE_BYTES", 128 * 8 * 65)  # 128-row tiles at grid 64
        e = solve_n(ref_n2)
        rep = best_response_test(ref_n2, e, 0, (0.0,), (0.0,), paths=1000,
                                 seed=0, grid=64)
        assert rep.paths == 1000
        assert rep.equilibrium.paths == 1000

    def test_equilibrium_estimate_matches_simulation_route(self, ref_n3):
        # the scan evaluates J from closed-form node formulas; the stored
        # paths cumulate per-segment updates -- two code paths, one value
        e = solve_n(ref_n3)
        s = equilibrium_strategy(ref_n3, e)
        rep = best_response_test(ref_n3, e, 0, (0.0,), (0.0,), paths=3000,
                                 seed=41, grid=300)
        batch = simulate(ref_n3, s, grid=300, paths=3000, seed=41)
        values = stored_path_objective(batch, s, ref_n3, 0)
        assert rep.equilibrium.mean == pytest.approx(values.mean(), abs=1e-9)
        assert rep.equilibrium.stderr == pytest.approx(values.std(ddof=1) / math.sqrt(3000),
                                                       rel=1e-6)

    def test_cells_match_simulation_route(self, ref_n3):
        # a cell's paired mean is the stored-path objective of its deviation
        # minus that of the equilibrium, on the same paths, seed and grid
        e = solve_n(ref_n3)
        s = equilibrium_strategy(ref_n3, e)
        run = dict(paths=3000, seed=41, grid=300)
        reports = best_response_scan(ref_n3, e, range(ref_n3.n), (-0.1, 0.1), (0.05,), **run)
        for rep in reports:
            i = rep.agent
            eq = stored_path_objective(simulate(ref_n3, s, **run), s, ref_n3, i).mean()
            assert len(rep.cells) == 2
            for cell in rep.cells:
                dev = s.perturb(i, cell.dpi, cell.a, cell.b)
                mean = stored_path_objective(simulate(ref_n3, dev, **run), dev, ref_n3, i).mean()
                assert abs(cell.mean_diff - (mean - eq)) <= 1e-12

    def test_objective_reads_its_own_consumption_on_the_batch_paths(self, ref_n3):
        # Wealth follows the batch's strategy; the objective reads s's
        # consumption.  Here s tilts the log investor's (agent 2's)
        # consumption, which enters every agent's objective through the
        # geometric mean, while the batch's paths stay the equilibrium's.
        e = solve_n(ref_n3)
        batch = simulate(ref_n3, equilibrium_strategy(ref_n3, e), grid=300, paths=3000, seed=41)
        tilted = equilibrium_strategy(ref_n3, e).perturb(2, a=0.1, b=-0.2)
        assert ref_n3.agents[2].delta == 1.0
        for i in range(ref_n3.n):
            assert_estimate_matches(estimate_objective(batch, tilted, i, ref_n3),
                                    stored_path_objective(batch, tilted, ref_n3, i))


class TestBestResponseScan:
    GRID_DPI = (-0.5, -0.1, 0.0, 0.1, 0.5)
    GRID_AB = (-0.2, 0.0, 0.2)

    # Per-cell means of the one-agent scan before the shared-noise scan
    # existed, on dpi (0, 0.5) x a, b in (-0.2, 0.2) (paths=4000, seed=3,
    # grid=200).  That grid leaves out (0, 0, 0), so the reference column
    # is an extra one.
    PINNED_DPI = (0.0, 0.5)
    PINNED_AB = (-0.2, 0.2)
    PINNED_MEANS = (
        (-0.01773221541551384, -0.0024960103017088006, -0.0028843828018308986,
         -0.022292558075174305, -0.06287371281539299, -0.047338709834789605,
         -0.0466779242160339, -0.06523275156928399),
        (-0.04676965145432428, -0.0070778874249787845, -0.008013967971871597,
         -0.058385887200235666, -0.1730938384081481, -0.13372054899202374,
         -0.13659713796171188, -0.18889544014006263),
        (-0.02943615558238155, -0.004442857682234957, -0.004909180004694088,
         -0.03647901859152736, -0.08626977694532735, -0.06127647904518076,
         -0.06174280136763989, -0.09331263995447316),
    )
    PINNED_EQ = (3.6752275318138925, -8.63394468621851, -0.661506479430248)

    # 18 row tiles at grid 1000: 17 of 64 rows, then a 4m + 1-row tile
    # whose one-row tail joined the tile before it.
    TILED = dict(paths=1153, grid=1000)

    def test_matches_single_agent_scans(self, ref_n3, monkeypatch):
        e = solve_n(ref_n3)
        args = (self.GRID_DPI, self.GRID_AB)
        tiled = dict(seed=3, **self.TILED)
        alone = [best_response_scan(ref_n3, e, (i,), *args, **tiled)[0] for i in range(3)]
        assert best_response_scan(ref_n3, e, range(3), *args, **tiled) == tuple(alone)
        assert best_response_scan(ref_n3, e, (2, 0), *args, **tiled) == (alone[2], alone[0])
        monkeypatch.setattr(simulation, "TILE_BYTES", 1500 * 8 * 201)  # 1500-row tiles at grid 200
        kw = dict(paths=4000, seed=3, grid=200)
        together = best_response_scan(ref_n3, e, range(3), *args, **kw)
        alone = [best_response_test(ref_n3, e, i, *args, **kw) for i in range(3)]
        assert together == tuple(alone)  # dataclass equality: every field, bitwise
        subset = best_response_scan(ref_n3, e, (2, 0), *args, **kw)
        assert subset == (alone[2], alone[0])

    @pytest.mark.parametrize("fixture, streams", [("ref_n3", 4), ("ref_n2", 1)])
    def test_each_stream_drawn_once_per_block(self, fixture, streams, request,
                                              monkeypatch):
        p = request.getfixturevalue(fixture)
        calls = []
        draw = simulation.block_normals

        def counted(seed, stream, start, count, draws):
            calls.append((stream, start))
            return draw(seed, stream, start, count, draws)

        monkeypatch.setattr(simulation, "block_normals", counted)
        monkeypatch.setattr(simulation, "TILE_BYTES", 100 * 8 * 51)  # 100-row tiles at grid 50
        best_response_scan(p, solve_n(p), range(p.n), self.GRID_DPI, self.GRID_AB,
                           paths=300, seed=5, grid=50)
        assert len(calls) == 3 * streams
        assert len(set(calls)) == len(calls)

    def test_tiles_partition_each_stream(self, ref_n3, monkeypatch):
        calls = []
        draw = simulation.block_normals

        def counted(seed, stream, start, count, draws):
            calls.append((stream, start, count, draws))
            return draw(seed, stream, start, count, draws)

        monkeypatch.setattr(simulation, "block_normals", counted)
        paths, grid, streams = self.TILED["paths"], self.TILED["grid"], 1 + ref_n3.n
        best_response_scan(ref_n3, solve_n(ref_n3), range(3), (0.0, 0.1), (0.0,), seed=5,
                           **self.TILED)
        counts = [count for _, _, count, _ in calls]
        assert len(calls) == 18 * streams  # 17 tiles of 64 rows and one of 65
        assert any(count % 4 == 1 for count in counts)
        assert len({(stream, start) for stream, start, _, _ in calls}) == len(calls)
        for s in range(streams):
            windows = sorted((start, start + count) for stream, start, count, _ in calls
                             if stream == s)
            assert [lo for lo, _ in windows] == [0] + [hi for _, hi in windows[:-1]]
            assert windows[-1][1] == paths
        assert sum(count * draws for _, _, count, draws in calls) == streams * paths * grid

    def test_thread_count_does_not_change_bits(self, ref_n3, monkeypatch):
        e = solve_n(ref_n3)
        # three tiles, then 18 tiles; merged in tile order
        for sizes in (dict(paths=3000, grid=50), self.TILED):
            reports = []
            for threads in ("1", "2"):
                monkeypatch.setenv("MERTON_ARENA_THREADS", threads)
                reports.append(best_response_scan(ref_n3, e, range(3), self.GRID_DPI,
                                                  self.GRID_AB, seed=3, **sizes))
            assert reports[0] == reports[1]

    def test_peak_memory_is_per_unit(self, ref_n3, monkeypatch):
        # Each of the two workers holds one (tile, grid + 1) array per stream
        # (the cumulated noise), its noise/base/path buffers and, while a
        # stream is cumulated, its draws: streams + 4 tiles in all, plus
        # every agent's (cells, tile rows) values and the buffer numpy takes
        # to scale the draws in place.  The scan also holds each agent's
        # (cells, grid + 1) weights and the path model's columns.
        monkeypatch.setenv("MERTON_ARENA_THREADS", "2")
        grid, paths, streams = 200, 8192, 1 + ref_n3.n  # every agent has nu != 0
        cells = 2
        e = solve_n(ref_n3)
        best_response_scan(ref_n3, e, (0,), (0.0,), (0.0,), paths=8, seed=1, grid=8)  # loads ndtri
        tracemalloc.start()
        try:
            best_response_scan(ref_n3, e, range(3), (0.0, 0.1), (0.0,),
                               paths=paths, seed=1, grid=grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = simulation.TILE_BYTES // (8 * (grid + 1)) + 1  # a one-row tail may join a tile
        per_worker = ((streams + 4) * rows * (grid + 1) * 8 + ref_n3.n * cells * rows * 8
                      + np.getbufsize() * 8)
        weights = (ref_n3.n + 8) * cells * (grid + 1) * 8
        columns = 8 * ref_n3.n * (grid + 1) * 8
        assert peak <= weights + columns + 2 * per_worker

    def test_peak_memory_is_per_tile(self, monkeypatch):
        # Each of the two workers holds one tile per stream, its noise, base
        # and path tiles and one stream's draws (streams + 4 tiles), plus
        # every agent's (cells, tile rows) values.  The scan also keeps every
        # agent's (cells, grid + 1) weights, builds one agent's with at most
        # eight temporaries of that size, and holds a few (n, grid + 1)
        # columns of the path model.  Before the scan worked on row tiles,
        # each worker held streams + 3 (unit, grid + 1) arrays, 164 MB here.
        monkeypatch.setenv("MERTON_ARENA_THREADS", "2")
        rng = np.random.default_rng(16)
        p = Population(1.0, tuple(random_agent(rng, gentle=True) for _ in range(16)))
        e = solve_n(p)
        assert np.all(p.arrays().nu * e.pi != 0.0)  # all 16 idiosyncratic streams are drawn
        dpi, ab, grid, streams = (0.0, 0.1), self.GRID_AB, 1000, 1 + p.n
        cells = len(dpi) * len(ab) ** 2  # (0, 0, 0) among them
        best_response_scan(p, e, (0,), dpi, ab, paths=8, seed=1, grid=8)  # loads ndtri
        tracemalloc.start()
        try:
            best_response_scan(p, e, range(p.n), dpi, ab, paths=2048, seed=1, grid=grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tile = simulation.TILE_BYTES + 8 * (grid + 1)  # a one-row tail may join a tile
        per_worker = (streams + 4) * tile + p.n * cells * (tile // (8 * (grid + 1))) * 8
        weights = (p.n + 8) * cells * (grid + 1) * 8
        columns = 8 * p.n * (grid + 1) * 8
        assert peak <= weights + columns + 2 * per_worker

    def test_peak_memory_does_not_grow_with_paths(self, ref_n3, monkeypatch):
        # Each tile's moments are merged as they arrive, and only a few tiles
        # run ahead of the merge, so the peak at 8x the paths is the same:
        # 512 tiles' moments listed first would be about 1.6 MB more here.
        monkeypatch.setenv("MERTON_ARENA_THREADS", "2")
        e = solve_n(ref_n3)
        best_response_scan(ref_n3, e, (0,), (0.0,), (0.0,), paths=8, seed=1, grid=8)  # loads ndtri
        peaks = {}
        for paths in (4096, 32768):
            tracemalloc.start()
            try:
                best_response_scan(ref_n3, e, range(3), self.GRID_DPI, self.GRID_AB,
                                   paths=paths, seed=1, grid=1000)
                _, peaks[paths] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # the two workers' draws may overlap differently: allow a quarter tile
        assert peaks[32768] <= peaks[4096] + simulation.TILE_BYTES // 4

    def test_constant_differences_have_no_cancellation_noise(self, ref_n3):
        # The log investor (agent 2) at dpi = 0 plays the equilibrium's
        # investment, and its tilted consumption changes the objective by
        # the same amount on every path.  Taken from raw sums of squares,
        # that standard error was cancellation noise up to 4e-12; taken as
        # the difference of two objectives near 0.7, each rounded, it was
        # about 1e-18, 3.7e-15 of the 2.9e-4 mean of a tilt of 0.05.  The
        # tilts of 0.2 move the mean by 4e-3 or more, those of 0.05 by 2e-4.
        e = solve_n(ref_n3)
        for ab, smallest in ((self.GRID_AB, 4e-3), ((-0.05, 0.0, 0.05), 2e-4)):
            (rep,) = best_response_scan(ref_n3, e, (2,), (0.0,), ab,
                                        paths=4096, seed=777, grid=1000)
            for cell in rep.cells:
                if (cell.a, cell.b) == (0.0, 0.0):
                    assert cell.mean_diff == 0.0 and cell.stderr == 0.0
                else:
                    assert abs(cell.mean_diff) >= smallest
                    assert cell.stderr <= 1e-15 * abs(cell.mean_diff)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_merged_moments_match_two_pass(self, data):
        # values whose squares neither overflow nor underflow
        values = st.floats(-1e6, 1e6).filter(lambda v: v == 0.0 or abs(v) >= 1e-100)
        x = data.draw(hnp.arrays(np.float64, st.integers(2, 300), elements=values))
        cuts = sorted(data.draw(st.sets(st.integers(1, len(x) - 1), max_size=12)))
        pieces = np.split(x, cuts)
        count, mean, m2 = reduce(simulation._merge,
                                 (simulation._moments(piece[None].copy()) for piece in pieces))
        # relative to the sample's mean square, which bounds both roundings
        scale = float(np.mean(x * x))
        assert count == len(x)
        assert abs(mean[0] - np.mean(x)) <= 1e-12 * math.sqrt(scale)
        assert abs(m2[0] / (count - 1) - np.var(x, ddof=1)) <= 1e-12 * scale

    def test_means_match_recorded_values(self, ref_n3):
        e = solve_n(ref_n3)
        reports = best_response_scan(ref_n3, e, range(3), self.PINNED_DPI,
                                     self.PINNED_AB, paths=4000, seed=3, grid=200)
        for rep, means, eq in zip(reports, self.PINNED_MEANS, self.PINNED_EQ):
            got = [c.mean_diff for c in rep.cells]
            assert got == pytest.approx(means, rel=1e-12, abs=0.0)
            assert rep.equilibrium.mean == pytest.approx(eq, rel=1e-12, abs=0.0)

    def test_scan_does_not_raise(self, ref_n3):
        e = solve_n(ref_n3)
        pi = np.array(e.pi)
        pi[0] -= 1.0
        bad = EquilibriumProfile(pi=pi, rho=e.rho, beta=e.beta, lam=e.lam,
                                 aggregates=e.aggregates)
        (rep,) = best_response_scan(ref_n3, bad, (0,), (0.0, 1.0), (0.0,),
                                    paths=20000, seed=23, grid=200)
        assert rep.violations()

    @pytest.mark.parametrize("x0", [
        1e-6,  # agent 1's deterministic weights overflow: its mean is -inf
        1.0,  # its values reach 1e177 and their squares overflow, but its mean is finite
    ])
    def test_out_of_range_objective_is_a_domain_error(self, x0):
        market = dict(theta=0.5, eps=1.0, mu=0.5, nu=0.3, sigma=0.4)
        p = Population(1.0, (AgentType(x0=1.0, delta=2.0, **market),
                             AgentType(x0=x0, delta=0.01, **market)))
        e = solve_n(p)
        args = (self.GRID_DPI, self.GRID_AB, 2000, 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            (rep,) = best_response_scan(p, e, (0,), *args, grid=50)
            if x0 < 1.0:
                for agents in ((1,), (0, 1)):
                    with pytest.raises(DomainError, match="objective of agent 1 leaves the float"):
                        best_response_scan(p, e, agents, *args, grid=50)
            else:
                together = best_response_scan(p, e, (0, 1), *args, grid=50)
        assert caught == []
        assert all(np.isfinite([c.mean_diff, c.stderr]).all() for c in rep.cells)
        if x0 == 1.0:
            assert together[0] == rep
            big = together[1]
            assert -1e175 < big.equilibrium.mean < -1e174
            assert 0.0 < big.equilibrium.stderr < math.inf
            for cell in big.cells:
                assert np.isfinite(cell.mean_diff)
                null = (cell.dpi, cell.a, cell.b) == (0.0, 0.0, 0.0)
                assert (cell.stderr == 0.0) if null else (0.0 < cell.stderr < math.inf)
            assert big.violations() == []
            # the stored-path route scores the same paths to the same values
            s = equilibrium_strategy(p, e)
            est = estimate_objective(simulate(p, s, grid=50, paths=2000, seed=1), s, 1, p)
            assert big.equilibrium.mean == pytest.approx(est.mean, rel=1e-10)
            assert big.equilibrium.stderr == pytest.approx(est.stderr, rel=1e-10)

    def test_agent_out_of_range(self, ref_n2):
        with pytest.raises(ValueError):
            best_response_scan(ref_n2, solve_n(ref_n2), (2,), (0.0,), (0.0,),
                               paths=10, seed=0, grid=10)

    def test_agent_not_an_integer(self, ref_n2):
        # int(1.7) would scan agent 1 and report it
        with pytest.raises(ValueError, match="agent index 1.7 out of range: need an integer"):
            best_response_scan(ref_n2, solve_n(ref_n2), (1.7,), (0.0,), (0.0,),
                               paths=10, seed=0, grid=10)

    @pytest.mark.parametrize("seed", [np.uint64(3), np.int64(3), np.int32(3)])
    def test_numpy_integer_seed(self, ref_n2, seed):
        e = solve_n(ref_n2)
        reports = best_response_scan(ref_n2, e, (0, 1), (0.0, 0.1), (0.0,), 40, seed, grid=10)
        assert reports == best_response_scan(ref_n2, e, (0, 1), (0.0, 0.1), (0.0,), 40, 3,
                                             grid=10)
        # each report keeps the seed as a Python int, so it can be written as JSON
        assert [json.loads(json.dumps(r.as_dict()))["seed"] for r in reports] == [3, 3]

    @pytest.mark.parametrize("grid, paths, error", [
        (0, 10, InvalidGrid), (1, 10, InvalidGrid), (10.0, 10, InvalidGrid), (10, 0, ValueError),
        (10, 2.5, ValueError)])
    def test_sizes_checked_as_simulate_checks_them(self, ref_n2, grid, paths, error):
        e = solve_n(ref_n2)
        with pytest.raises(error) as raised:
            simulate(ref_n2, equilibrium_strategy(ref_n2, e), grid=grid, paths=paths, seed=0)
        match = re.escape(str(raised.value))
        with pytest.raises(error, match=match):
            best_response_scan(ref_n2, e, (0,), (0.0,), (0.0,), paths, 0, grid=grid)
        with pytest.raises(error, match=match):
            best_response_test(ref_n2, e, 0, (0.0,), (0.0,), paths, 0, grid=grid)

    def test_horizon_checked_as_simulate_checks_it(self, ref_n2):
        e = solve_n(ref_n2)
        flat = Population(horizon=0.0, agents=ref_n2.agents)
        with pytest.raises(NonPositiveParameter) as raised:
            simulate(flat, equilibrium_strategy(ref_n2, e), grid=10, paths=10, seed=0)
        assert raised.value.field == "horizon"
        match = re.escape(str(raised.value))
        with pytest.raises(NonPositiveParameter, match=match):
            best_response_scan(flat, e, (0,), (0.0,), (0.0,), 10, 0, grid=10)
        with pytest.raises(NonPositiveParameter, match=match):
            best_response_test(flat, e, 0, (0.0,), (0.0,), 10, 0, grid=10)

    def test_profile_of_wrong_length(self, ref_n2, ref_n3):
        with pytest.raises(ValueError, match="strategy has 2 agents, population has 3"):
            best_response_scan(ref_n3, solve_n(ref_n2), (0,), (0.0,), (0.0,),
                               paths=10, seed=0, grid=10)

    @pytest.mark.parametrize("dpi_grid, ab_grid, name", [
        ((), (0.0,), "dpi_grid"), ((0.0,), (), "ab_grid")])
    def test_empty_grid_raises_before_drawing(self, ref_n2, monkeypatch, dpi_grid, ab_grid,
                                              name):
        def no_draws(*args):
            raise AssertionError("a normal was drawn")

        monkeypatch.setattr(simulation, "block_normals", no_draws)
        e = solve_n(ref_n2)
        with pytest.raises(ValueError, match=f"{name} is empty"):
            best_response_scan(ref_n2, e, (0,), dpi_grid, ab_grid, paths=10, seed=0, grid=10)
        with pytest.raises(ValueError, match=f"{name} is empty"):
            best_response_test(ref_n2, e, 0, dpi_grid, ab_grid, paths=10, seed=0, grid=10)


class TestConvergence:
    ATOM_NU = AgentType(1.0, 3.0, 0.8, 1.0, 5.0, 0.5, 1.0)
    ATOM_NO_NU = AgentType(1.0, 3.0, 0.8, 1.0, 5.0, 0.0, 1.0)

    def test_idiosyncratic_gaps_halve(self):
        rows = mfg_convergence(single_atom(self.ATOM_NU), [4, 8, 16, 32, 64])
        gaps = [r.beta_gap for r in rows]
        ratios = np.array(gaps[1:]) / np.array(gaps[:-1])
        assert np.all((ratios >= 0.4) & (ratios <= 0.6))
        assert all(r.lambda_gap == 0.0 for r in rows)

    def test_single_stock_gaps_vanish(self):
        rows = mfg_convergence(single_atom(self.ATOM_NO_NU), [4, 8, 16, 32])
        for r in rows:
            assert r.pi_gap <= 1e-12
            assert r.beta_gap <= 1e-9

    def test_two_atom_replication(self):
        d = TypeDistribution(1.0, (
            (0.25, AgentType(1.0, 2.0, 0.5, 1.0, 1.0, 0.4, 0.5)),
            (0.75, AgentType(1.0, 0.8, 0.9, 1.5, 1.2, 0.3, 0.6)),
        ))
        rows = mfg_convergence(d, [4, 8, 16])
        assert rows[0].n == 4
        assert rows[-1].beta_gap < rows[0].beta_gap

    def test_non_replicable_weights(self):
        d = TypeDistribution(1.0, (
            (1.0 / 3.0, AgentType(1.0, 2.0, 0.5, 1.0, 1.0, 0.4, 0.5)),
            (2.0 / 3.0, AgentType(1.0, 0.8, 0.9, 1.5, 1.2, 0.3, 0.6)),
        ))
        with pytest.raises(NonReplicableWeights):
            mfg_convergence(d, [4])

    def test_replicate_layout(self):
        d = TypeDistribution(1.0, (
            (0.5, AgentType(1.0, 2.0, 0.5, 1.0, 1.0, 0.4, 0.5)),
            (0.5, AgentType(1.0, 0.8, 0.9, 1.5, 1.2, 0.3, 0.6)),
        ))
        pop = replicate(d, 6)
        assert pop.n == 6
        assert pop.agents[0] == d.types[0]
        assert pop.agents[5] == d.types[1]

    @pytest.mark.parametrize("seed, single_stock", [(11, False), (12, True), (13, False)])
    def test_rows_match_replicated_solve(self, seed, single_stock):
        # the atom-column route must give the rows of the n-agent populations
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 4, size=int(rng.integers(1, 5)))
        base = int(counts.sum())
        if single_stock:
            market = dict(mu=float(rng.uniform(0.5, 4.0)), sigma=float(rng.uniform(0.5, 2.0)))
        else:
            market = {}
        d = TypeDistribution(1.0, tuple(
            (c / base, random_agent(rng, single_stock=single_stock, **market))
            for c in counts.tolist()))
        ns = [base * 2**k for k in range(1, 7)]
        mf = solve_mf(d)
        expected = []
        for n in ns:
            e = solve_n(replicate(d, n))
            idx = np.repeat(np.arange(len(d.atoms)), counts * (n // base))
            expected.append(ConvergenceRow(
                n=n,
                pi_gap=float(np.max(np.abs(e.pi - mf.pi[idx]))),
                beta_gap=float(np.max(np.abs(e.beta - mf.beta[idx]))),
                lambda_gap=float(np.max(np.abs(e.lam - mf.lam[idx]))),
            ))
        assert mfg_convergence(d, ns) == expected

    def test_too_few_agents(self):
        d = single_atom(self.ATOM_NU)
        with pytest.raises(TooFewAgents):
            mfg_convergence(d, [1])
        with pytest.raises(NonReplicableWeights):
            mfg_convergence(d, [0])
        with pytest.raises(TooFewAgents):
            solve_n(replicate(d, 1))


# ---------------------------------------------------------------------------
# Batched RK4 kernel and the O(n) fixed-point check against explicit references
# ---------------------------------------------------------------------------

def scalar_rk4(gamma, a, b, horizon, steps):
    """Classical RK4 for u'/gamma + a u + b = 0 as a one-equation float loop.

    ``a`` and ``b`` are lists on the half-step grid (2 steps + 1 points).
    """
    h = -horizon / steps
    u = [0.0] * (steps + 1)
    u[steps] = 1.0
    g = -gamma
    for j in range(steps, 0, -1):
        uj = u[j]
        a0, b0 = a[2 * j], b[2 * j]
        am, bm = a[2 * j - 1], b[2 * j - 1]
        a1, b1 = a[2 * j - 2], b[2 * j - 2]
        k1 = g * (a0 * uj + b0)
        k2 = g * (am * (uj + 0.5 * h * k1) + bm)
        k3 = g * (am * (uj + 0.5 * h * k2) + bm)
        k4 = g * (a1 * (uj + h * k3) + b1)
        u[j - 1] = uj + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.array(u)


def scalar_affine_rk4(gamma, a, b, horizon, steps):
    """RK4 with each step written as u -> P u + Q: the loop the kernel reproduces bitwise.

    Each stage is affine in u; its slope (p) and offset (q) are carried
    separately, in the kernel's order of operations.
    """
    h = -horizon / steps
    half, sixth = 0.5 * h, h / 6.0
    u = [0.0] * (steps + 1)
    u[steps] = 1.0
    g = -gamma
    for j in range(steps, 0, -1):
        a0, b0 = a[2 * j], b[2 * j]
        am, bm = a[2 * j - 1], b[2 * j - 1]
        a1, b1 = a[2 * j - 2], b[2 * j - 2]
        k1p, k1q = g * a0, g * b0
        k2p, k2q = g * (am * (1.0 + half * k1p)), g * (am * (half * k1q) + bm)
        k3p, k3q = g * (am * (1.0 + half * k2p)), g * (am * (half * k2q) + bm)
        k4p, k4q = g * (a1 * (1.0 + h * k3p)), g * (a1 * (h * k3q) + b1)
        P = 1.0 + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        Q = sixth * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        u[j - 1] = P * u[j] + Q
    return np.array(u)


def reference_fixed_point(p, e, steps):
    """Fixed-point check with O(n^2) leave-one-out closures, one oracle call per agent.

    Returns the report fields, absolute and relative, plus, per absolute
    field, the magnitude of the quantities whose difference it measures:
    value factors for the gaps, consumption for the best-response residual,
    the ODE terms for the defect.  The O(n) check may differ from this
    reference by rounding of those quantities only.
    """
    ar = p.arrays()
    n, T = p.n, p.horizon
    gammas = gamma_n(p)
    policies = [ConsumptionPolicy(float(b), float(l), T) for b, l in zip(e.beta, e.lam)]
    times = np.linspace(0.0, T, steps + 1)
    c_nodes = np.array([pol.rate(times) for pol in policies])
    log_c = np.log(c_nodes)
    chat_full = c_nodes.mean(axis=0)
    idx = np.unique(np.append(np.arange(0, steps + 1, max(1, steps // 1000)), steps))
    out = {"systeq1_max": 0.0, "systeq2_max": 0.0, "systeq1_rel_max": 0.0,
           "systeq2_rel_max": 0.0, "f_gap_ode_closed": [], "f_gap_ode_exp": [],
           "f_gap_closed_exp": [], "f_rel_gap_ode_closed": [], "f_rel_gap_ode_exp": [],
           "f_rel_gap_closed_exp": []}
    scale = {"systeq1_max": 0.0, "systeq2_max": 0.0, "f_gap": []}
    for i in range(n):
        others = [k for k in range(n) if k != i]

        def hat_minus(t, _o=others):
            return sum(policies[k].rate(t) for k in _o) / n

        def bar_minus(t, _o=others):
            return np.exp(sum(np.log(policies[k].rate(t)) for k in _o) / n)

        inputs = BernoulliInputs(gamma=float(gammas[i]), theta=float(ar.theta[i]),
                                 delta=float(ar.delta[i]), eps=float(ar.eps[i]),
                                 rho=float(e.rho[i]), hat_c_minus=hat_minus,
                                 bar_c_minus=bar_minus)
        _, f_ode = bernoulli_oracle(inputs, T, steps)
        a_vals, b_vals, gamma = inputs.a(times), inputs.b(times), inputs.gamma
        big_a = verification._reverse_cumulative(a_vals, times)
        weight = np.exp(gamma * big_a)
        tail = verification._reverse_cumulative(gamma * b_vals / weight, times)
        f_closed = (weight * (1.0 + tail)) ** (1.0 / gamma)
        shrink = e.rho[i] + ar.theta[i] * (1.0 - 1.0 / ar.delta[i]) * chat_full \
            + c_nodes[i] / ar.delta[i]
        f_exp = np.exp(verification._reverse_cumulative(shrink, times))
        for name, x, y in (("ode_closed", f_ode, f_closed), ("ode_exp", f_ode, f_exp),
                           ("closed_exp", f_closed, f_exp)):
            out[f"f_gap_{name}"].append(np.max(np.abs(x - y)))
            out[f"f_rel_gap_{name}"].append(np.max(np.abs(x - y) / np.maximum(x, y)))
        scale["f_gap"].append(max(np.max(f_ode), np.max(f_closed), np.max(f_exp)))
        log_bar_minus = (log_c.sum(axis=0) - log_c[i]) / n
        best = np.exp(-gamma * np.log(ar.eps[i])
                      - gamma * ar.theta[i] * (1.0 - 1.0 / ar.delta[i]) * log_bar_minus
                      - gamma * np.log(f_ode))
        terms = (-shrink * f_exp, a_vals * f_exp, b_vals * f_exp ** (1.0 - gamma))
        out["systeq1_max"] = max(out["systeq1_max"],
                                 float(np.max(np.abs(c_nodes[i] - best)[idx])))
        out["systeq2_max"] = max(out["systeq2_max"], float(np.max(np.abs(sum(terms))[idx])))
        out["systeq1_rel_max"] = max(out["systeq1_rel_max"], float(np.max(
            (np.abs(c_nodes[i] - best) / c_nodes[i])[idx])))
        out["systeq2_rel_max"] = max(out["systeq2_rel_max"], float(np.max(
            (np.abs(sum(terms)) / sum(np.abs(x) for x in terms))[idx])))
        scale["systeq1_max"] = max(scale["systeq1_max"], float(np.max(c_nodes[i][idx])))
        scale["systeq2_max"] = max(scale["systeq2_max"],
                                   max(float(np.max(np.abs(x)[idx])) for x in terms))
    out["identity_residual"] = identity_residual(p, e.pi, e.aggregates)
    return out, scale


class TestReverseCumulative:
    """The package's own Simpson sums are bitwise scipy's ``cumulative_simpson``."""

    @staticmethod
    def scipy_reverse(y, x):
        forward = cumulative_simpson(y, x=x, axis=-1, initial=0.0)
        return forward[..., -1:] - forward

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_bitwise_equal_to_scipy(self, data):
        m = data.draw(st.integers(3, 40), label="points")
        if data.draw(st.booleans(), label="linspace"):
            x = np.linspace(0.0, data.draw(st.floats(0.01, 5.0), label="end"), m)
        else:
            steps = data.draw(hnp.arrays(float, m - 1, elements=st.floats(1e-3, 1.0)),
                              label="steps")
            x = data.draw(st.floats(-2.0, 2.0), label="start") \
                + np.concatenate(([0.0], np.cumsum(steps)))
        rows = data.draw(st.sampled_from([(), (2,)]), label="rows")
        y = data.draw(hnp.arrays(float, rows + (m,), elements=st.one_of(
            st.just(-0.0), st.floats(-1.0, 1.0))), label="values")
        y *= 10.0 ** data.draw(st.integers(0, 35), label="exponent")
        got = verification._reverse_cumulative(y, x)
        assert got.shape == y.shape
        assert got.tobytes() == self.scipy_reverse(y, x).tobytes()

    @pytest.mark.parametrize("m", [3, 4, 9, 10])
    def test_negative_zeros(self, m):
        x = np.linspace(0.0, 1.0, m)
        y = np.full((2, m), -0.0)
        y[1, ::2] = 1e35
        got = verification._reverse_cumulative(y, x)
        assert not np.signbit(got[0]).any()
        assert got.tobytes() == self.scipy_reverse(y, x).tobytes()


class TestBatchedOracle:
    @staticmethod
    def agent_inputs(rng, count):
        """Smooth positive coefficient curves, one BernoulliInputs per agent."""
        inputs = []
        for _ in range(count):
            c0, c1, w = rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5), rng.uniform(1.0, 6.0)
            inputs.append(BernoulliInputs(
                gamma=float(rng.uniform(0.3, 3.0)), theta=float(rng.uniform(0.0, 1.0)),
                delta=float(rng.uniform(0.3, 5.0)), eps=float(rng.uniform(0.25, 4.0)),
                rho=float(rng.uniform(-1.0, 1.0)),
                hat_c_minus=lambda t, c0=c0, c1=c1, w=w: c0 + c1 * np.sin(w * t),
                bar_c_minus=lambda t, c0=c0, w=w: c0 * np.exp(0.1 * np.cos(w * t))))
        return inputs

    def test_batched_equals_per_agent_bitwise(self):
        steps, horizon = 1300, 1.3  # three coefficient chunks
        assert steps > 2 * verification._RK4_CHUNK
        inputs = self.agent_inputs(np.random.default_rng(11), 5)
        half = np.linspace(0.0, horizon, 2 * steps + 1)
        a = np.column_stack([inp.a(half) for inp in inputs])
        b = np.column_stack([inp.b(half) for inp in inputs])
        gammas = np.array([inp.gamma for inp in inputs])
        u = verification._rk4_backward(
            gammas, lambda lo, hi: (a[2 * lo:2 * hi + 1], b[2 * lo:2 * hi + 1]), steps, horizon)
        for k, inp in enumerate(inputs):
            _, f = bernoulli_oracle(inp, horizon, steps)
            assert np.array_equal(u[:, k] ** (1.0 / inp.gamma), f)
            col_a, col_b = a[:, k].tolist(), b[:, k].tolist()
            assert np.array_equal(u[:, k], scalar_affine_rk4(inp.gamma, col_a, col_b,
                                                             horizon, steps))
            # The affine form regroups each step's stage sums into P u + Q, so
            # it rounds differently from the classical stage-by-stage update.
            ref = scalar_rk4(inp.gamma, col_a, col_b, horizon, steps)
            assert np.all(np.abs(u[:, k] - ref) <= 1e-12 * np.abs(ref))

    @settings(max_examples=40, deadline=None, database=None)
    @given(agents=st.lists(st.tuples(st.floats(0.2, 5.0), st.floats(-2.0, 2.0),
                                     st.floats(-1.0, 1.0), st.floats(0.05, 3.0),
                                     st.floats(-0.5, 0.5), st.floats(0.0, 8.0)),
                           min_size=1, max_size=4),
           steps=st.integers(32, 3 * verification._RK4_CHUNK).filter(
               lambda s: s % verification._RK4_CHUNK != 0),
           horizon=st.floats(0.1, 2.0))
    def test_kernel_equals_scalar_affine_loop(self, agents, steps, horizon):
        # a(t) = a0 + a1 sin(w t), b(t) = b0 exp(b1 cos(w t)) > 0, per agent.
        # At 32 steps or more, |gamma a h| < 1, where RK4 keeps u positive.
        half = np.linspace(0.0, horizon, 2 * steps + 1)
        gammas = np.array([agent[0] for agent in agents])
        a = np.column_stack([a0 + a1 * np.sin(w * half) for _, a0, a1, _, _, w in agents])
        b = np.column_stack([b0 * np.exp(b1 * np.cos(w * half)) for _, _, _, b0, b1, w in agents])

        def run(k):
            return verification._rk4_backward(
                gammas[k], lambda lo, hi: (a[2 * lo:2 * hi + 1, k], b[2 * lo:2 * hi + 1, k]),
                steps, horizon)

        u = run(slice(None))
        for k in range(len(agents)):
            col_a, col_b = a[:, k].tolist(), b[:, k].tolist()
            assert np.array_equal(u[:, k], scalar_affine_rk4(gammas[k], col_a, col_b,
                                                             horizon, steps))
            assert np.array_equal(u[:, k], run(slice(k, k + 1))[:, 0])
            ref = scalar_rk4(gammas[k], col_a, col_b, horizon, steps)
            assert np.all(np.abs(u[:, k] - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("n, seed", [(5, 1), (5, 2), (32, 3)])
    def test_fixed_point_matches_quadratic_reference(self, n, seed):
        # Leave-one-out sums are now full sums minus own: summation order,
        # hence rounding, differs; the report agrees with the reference to
        # 1e-12 of the magnitudes each field compares.
        p = random_population(np.random.default_rng(seed), n=n)
        e = solve_n(p)
        rep = fixed_point_check(p, e, steps=2000)
        ref, scale = reference_fixed_point(p, e, steps=2000)
        assert rep.identity_residual == ref["identity_residual"]
        for field in ("systeq1_max", "systeq2_max"):
            assert abs(getattr(rep, field) - ref[field]) <= 1e-12 * scale[field], field
        for field in ("f_gap_ode_closed", "f_gap_ode_exp", "f_gap_closed_exp"):
            diff = np.abs(getattr(rep, field) - np.array(ref[field]))
            assert np.all(diff <= 1e-12 * np.array(scale["f_gap"])), field
        # Relative fields are differences over those magnitudes, pointwise.
        for field in ("systeq1_rel_max", "systeq2_rel_max", "f_rel_gap_ode_closed",
                      "f_rel_gap_ode_exp", "f_rel_gap_closed_exp"):
            assert np.all(np.abs(getattr(rep, field) - np.array(ref[field])) <= 1e-12), field
        assert rep.passes() == FixedPointReport(
            identity_residual=ref["identity_residual"],
            **{f: ref[f] for f in ("systeq1_max", "systeq2_max", "systeq1_rel_max",
                                   "systeq2_rel_max")},
            **{f: np.array(ref[f]) for f in ("f_gap_ode_closed", "f_gap_ode_exp",
                                             "f_gap_closed_exp", "f_rel_gap_ode_closed",
                                             "f_rel_gap_ode_exp", "f_rel_gap_closed_exp")}
        ).passes()

    def test_fixed_point_peak_memory(self):
        p = random_population(np.random.default_rng(3), n=32)
        e = solve_n(p)
        tracemalloc.start()
        try:
            fixed_point_check(p, e, steps=10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # About 10.9e6 bytes with 512-step coefficient chunks and agent pairs
        # in the residual pass; 28.8e6 unchunked.
        assert peak <= 12e6

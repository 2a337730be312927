"""Mean-field equilibrium: examples, single-stock closed forms, properties."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import profile_sha256, random_distribution, single_atom
from merton_arena import (
    AgentType,
    IdentityViolation,
    NotSingleStock,
    Population,
    TypeDistribution,
    aggregates_mf,
    beta_mf,
    delta_eff,
    lambda_mf,
    pi_star_mf,
    rho_mf,
    solve_mf,
    solve_n,
    theta_crit_mf,
)
from merton_arena import mfg

REF_ATOM = AgentType(x0=1.0, delta=3.0, theta=0.8, eps=1.0, mu=5.0, nu=0.0, sigma=1.0)
REF_PI = 75.0 / 13.0
REF_RHO = 25.0 / 13.0
REF_BETA = -375.0 / 169.0


class TestAggregates:
    def test_single_atom_point_evaluation(self):
        agg = aggregates_mf(single_atom(REF_ATOM))
        assert agg.phi == pytest.approx(15.0, abs=1e-12)
        assert agg.psi == pytest.approx(1.6, abs=1e-12)

    def test_sigma_zero_atoms(self):
        d = TypeDistribution(1.0, (
            (0.5, AgentType(1.0, 3.0, 0.8, 1.0, 5.0, 1.0, 0.0)),
            (0.5, AgentType(1.0, 2.0, 0.4, 1.0, 4.0, 0.8, 0.0)),
        ))
        agg = aggregates_mf(d)
        assert agg.phi == 0.0 and agg.psi == 0.0

    def test_log_investor_pair(self):
        d = TypeDistribution(1.0, (
            (0.5, AgentType(1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0)),
            (0.5, AgentType(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0)),
        ))
        agg = aggregates_mf(d)
        assert agg.phi == pytest.approx(1.0, abs=1e-15)
        assert agg.psi == 0.0


class TestPiStar:
    def test_single_atom(self):
        d = single_atom(REF_ATOM)
        assert pi_star_mf(REF_ATOM, aggregates_mf(d)) == pytest.approx(REF_PI, abs=1e-12)

    def test_theta_zero(self):
        d = single_atom(REF_ATOM)
        t = AgentType(1.0, 2.0, 0.0, 1.0, 1.5, 0.3, 0.4)
        assert pi_star_mf(t, aggregates_mf(d)) == pytest.approx(2.0 * 1.5 / 0.25, abs=1e-12)

    def test_log_investor(self):
        d = single_atom(REF_ATOM)
        t = AgentType(1.0, 1.0, 0.9, 1.0, 1.5, 0.3, 0.4)
        assert pi_star_mf(t, aggregates_mf(d)) == pytest.approx(1.5 / 0.25, abs=1e-12)


class TestRho:
    def test_log_investor_zero(self):
        d = single_atom(REF_ATOM)
        t = AgentType(1.0, 1.0, 0.9, 1.0, 1.5, 0.3, 0.4)
        assert rho_mf(t, aggregates_mf(d), d) == 0.0

    def test_theta_zero(self):
        d = single_atom(REF_ATOM)
        t = AgentType(1.0, 2.0, 0.0, 1.0, 1.5, 0.3, 0.4)
        assert rho_mf(t, aggregates_mf(d), d) == pytest.approx(
            (2.0 - 1.0) * 1.5**2 / (2.0 * 0.25), abs=1e-12)

    def test_reference_atom(self):
        d = single_atom(REF_ATOM)
        assert rho_mf(REF_ATOM, aggregates_mf(d), d) == pytest.approx(REF_RHO, abs=1e-12)


def _beta_with_ungrouped_cross_term(t: AgentType, d: TypeDistribution) -> float:
    """Variant whose third rho term multiplies the whole expectation by the
    volatility ratio instead of applying it inside E[mu pi*]; kept as a
    regression reference because it breaks the single-stock closed form."""
    agg = aggregates_mf(d)
    a = d.arrays()
    r = agg.ratio
    one_m = 1.0 - 1.0 / t.delta
    tilted_mu = t.mu - t.sigma * r * t.theta * one_m
    cross = float(np.dot(a.w, (a.delta * a.mu**2 - a.theta * (a.delta - 1.0)
                               * a.sigma * a.mu) / a.Sigma))
    rho = one_m * (
        t.delta * tilted_mu**2 / (2.0 * t.Sigma)
        + 0.5 * r**2 * t.theta**2 * one_m
        - t.theta * r * cross
        + 0.5 * t.theta * agg.avg_sigma2_pi2
    )
    denom = 1.0 + agg.avg_theta_dm1
    return float(t.theta * (t.delta - 1.0) * agg.avg_delta_rho / denom - t.delta * rho)


class TestCrossTermGrouping:
    """The implemented rho must reproduce the single-stock closed form."""

    def test_implemented_form_matches_corollary(self):
        d = single_atom(REF_ATOM)
        m = solve_mf(d)
        tc = theta_crit_mf(d)
        deff = delta_eff(REF_ATOM, tc)
        closed = 25.0 / 2.0 * deff * (1.0 - deff)
        assert m.beta[0] == pytest.approx(closed, abs=1e-10)
        assert m.beta[0] == pytest.approx(REF_BETA, abs=1e-10)

    def test_ungrouped_variant_fails_by_orders_of_magnitude(self):
        d = single_atom(REF_ATOM)
        wrong = _beta_with_ungrouped_cross_term(REF_ATOM, d)
        assert abs(wrong - REF_BETA) > 100.0


class TestBetaLambda:
    def test_unit_eps_gives_unit_lambda(self):
        d = single_atom(REF_ATOM)
        agg = aggregates_mf(d)
        for t in (REF_ATOM, AgentType(1.0, 2.0, 0.3, 1.0, 1.0, 0.2, 0.5)):
            assert lambda_mf(t, agg) == 1.0

    def test_reference_beta(self):
        d = single_atom(REF_ATOM)
        assert beta_mf(REF_ATOM, aggregates_mf(d)) == pytest.approx(REF_BETA, abs=1e-12)

    def test_log_investor_beta_zero(self):
        d = single_atom(REF_ATOM)
        t = AgentType(1.0, 1.0, 0.9, 1.0, 1.5, 0.3, 0.4)
        assert beta_mf(t, aggregates_mf(d)) == 0.0

    def test_lambda_matches_replicated_population(self):
        # the finite-game lambda is n-free once the distribution is replicated
        d = TypeDistribution(1.0, (
            (0.5, AgentType(1.0, 2.0, 0.5, 2.0, 5.0, 0.0, 1.0)),
            (0.5, AgentType(1.0, 4.0, 0.9, 0.5, 5.0, 0.0, 1.0)),
        ))
        m = solve_mf(d)
        pop = Population(1.0, (d.types[0], d.types[1]))
        e = solve_n(pop)
        assert m.lam == pytest.approx(e.lam, rel=1e-13)


class TestThetaCritDeltaEff:
    def test_fig3_value_exact(self):
        d = single_atom(AgentType(1.0, 5.0, 0.4, 1.0, 5.0, 0.0, 1.0))
        assert theta_crit_mf(d) == 0.52

    def test_delta_eff_theta_zero(self):
        t = AgentType(1.0, 2.7, 0.0, 1.0, 5.0, 0.0, 1.0)
        assert delta_eff(t, 0.52) == 2.7

    def test_delta_eff_reference(self):
        t = AgentType(1.0, 3.0, 0.8, 1.0, 5.0, 0.0, 1.0)
        assert delta_eff(t, 0.6) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_requires_single_stock(self):
        d = single_atom(AgentType(1.0, 3.0, 0.8, 1.0, 5.0, 0.5, 1.0))
        with pytest.raises(NotSingleStock):
            theta_crit_mf(d)


class TestSolveMf:
    def test_single_atom_composition(self):
        m = solve_mf(single_atom(REF_ATOM))
        assert m.pi[0] == pytest.approx(REF_PI, abs=1e-12)
        assert m.beta[0] == pytest.approx(REF_BETA, abs=1e-12)
        assert m.lam[0] == 1.0
        assert m.theta_crit == pytest.approx(2.6 / 3.0, abs=1e-15)

    def test_single_stock_gate_fails_on_nan(self, monkeypatch):
        monkeypatch.setattr(mfg, "_single_stock_beta",
                            lambda market, deff: np.full_like(deff, np.nan))
        with pytest.raises(IdentityViolation, match="mismatch nan"):
            solve_mf(single_atom(REF_ATOM))

    def test_merton_distribution(self):
        d = TypeDistribution(1.0, (
            (0.25, AgentType(1.0, 2.0, 0.0, 1.0, 1.5, 0.3, 0.4)),
            (0.75, AgentType(1.0, 0.6, 0.0, 1.0, 0.8, 0.0, 0.9)),
        ))
        m = solve_mf(d)
        a = d.arrays()
        assert m.beta == pytest.approx(
            a.mu**2 / (2.0 * a.Sigma) * a.delta * (1.0 - a.delta), abs=1e-12)

    def test_log_investor_atom_eps_two(self):
        atom = AgentType(1.0, 1.0, 0.5, 2.0, 1.5, 0.3, 0.4)
        m = solve_mf(single_atom(atom))
        assert m.pi[0] == pytest.approx(1.5 / 0.25, abs=1e-13)
        assert m.beta[0] == 0.0
        assert m.lam[0] == pytest.approx(0.5, abs=1e-15)

    def test_single_stock_consistency_random(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            mu, sigma = rng.uniform(0.5, 4.0), rng.uniform(0.5, 2.0)
            atoms = []
            k = rng.integers(1, 5)
            w = rng.dirichlet(np.ones(k))
            for j in range(k):
                atoms.append((float(w[j]), AgentType(
                    1.0, float(rng.uniform(0.3, 5.0)), float(rng.uniform(0.0, 1.0)),
                    float(rng.uniform(0.25, 4.0)), mu, 0.0, sigma)))
            d = TypeDistribution(1.0, tuple(atoms))
            m = solve_mf(d)  # raises IdentityViolation if the corollary fails
            tc = m.theta_crit
            a = d.arrays()
            deff = (1.0 - a.theta / tc) * a.delta + a.theta / tc
            assert np.max(np.abs(m.pi - deff * mu / sigma**2)) <= 1e-10


class TestLambdaInvariance:
    def test_eps_power_transform(self):
        base = TypeDistribution(1.0, (
            (0.5, AgentType(1.0, 2.0, 0.5, 1.4, 1.0, 0.3, 0.6)),
            (0.5, AgentType(1.0, 0.7, 0.8, 0.6, 1.2, 0.2, 0.8)),
        ))
        kappa = 2.3
        powered = TypeDistribution(1.0, tuple(
            (w, AgentType(t.x0, t.delta, t.theta, t.eps**kappa, t.mu, t.nu, t.sigma))
            for w, t in base.atoms))
        m1, m2 = solve_mf(base), solve_mf(powered)
        # recompute directly from the transformed distribution's own formula
        agg = aggregates_mf(powered)
        direct = np.array([lambda_mf(t, agg) for t in powered.types])
        assert m2.lam == pytest.approx(direct, rel=1e-14)
        # the exponent is linear in log eps, so powers pass straight through
        assert m2.lam == pytest.approx(m1.lam**kappa, rel=1e-12)


class TestConvergenceToMeanField:
    def test_homogeneous_single_stock_is_exact(self):
        m = solve_mf(single_atom(REF_ATOM))
        for n in (2, 8, 32):
            pop = Population(1.0, (REF_ATOM,) * n)
            e = solve_n(pop)
            assert np.max(np.abs(e.beta - m.beta[0])) <= 1e-9
            assert np.max(np.abs(e.pi - m.pi[0])) <= 1e-12

    def test_idiosyncratic_error_halves(self):
        atom = AgentType(1.0, 3.0, 0.8, 1.0, 5.0, 0.5, 1.0)
        m = solve_mf(single_atom(atom))
        gaps = []
        for n in (4, 8, 16, 32, 64, 128, 256):
            e = solve_n(Population(1.0, (atom,) * n))
            gaps.append(abs(e.beta[0] - m.beta[0]))
        ratios = np.array(gaps[1:]) / np.array(gaps[:-1])
        assert np.all((ratios >= 0.4) & (ratios <= 0.6))


class TestRecordedOutputs:
    """solve_mf output bytes, recorded before the formulas read prebuilt columns."""

    @pytest.mark.parametrize("seed, single_stock, digest", [
        (1002, False, "7705aa527e792f55149458f1fc3f814ffb237a760cc79aa68aee7dccaf3d5ce7"),
        (1003, True, "e44b6c143841a00dad207c79ae7cc0ed0418e2ab38e2e3ce503637d834bf631f"),
    ])
    def test_bytes_unchanged(self, seed, single_stock, digest):
        d = random_distribution(np.random.default_rng(seed), 1000, single_stock=single_stock)
        assert profile_sha256(solve_mf(d)) == digest


class TestWrappersMatchSolve:
    """The per-agent wrappers evaluate the same formula bodies as solve_mf."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), atoms=st.integers(1, 12),
           single_stock=st.booleans())
    def test_bitwise_per_atom(self, seed, atoms, single_stock):
        d = random_distribution(np.random.default_rng(seed), atoms, single_stock=single_stock)
        m = solve_mf(d)
        agg = aggregates_mf(d)
        assert agg == m.aggregates
        for j, t in enumerate(d.types):
            assert pi_star_mf(t, agg) == m.pi[j]
            assert rho_mf(t, agg, d) == m.rho[j]
            assert beta_mf(t, agg) == m.beta[j]
            assert lambda_mf(t, agg) == m.lam[j]
            if single_stock:
                assert delta_eff(t, m.theta_crit) == m.delta_eff[j]
        assert (m.delta_eff is not None) == single_stock

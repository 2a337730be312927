"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single ``criterion NN ... PASS|FAIL`` line (visible with
``pytest -s``) and then asserts.  The Monte Carlo best-response criterion
is the long pole: a 5x5x5 perturbation grid at 200k paths and 1000 grid
steps for each of the three reference agents takes a few minutes.
"""
import math

import numpy as np
from scipy.integrate import quad

from conftest import random_population, single_atom
from merton_arena import (
    AgentType,
    ConsumptionPolicy,
    Population,
    TypeDistribution,
    best_response_scan,
    classify_regime,
    columns,
    constant_strategy,
    equilibrium_strategy,
    estimate_objective,
    fixed_point_check,
    mfg_convergence,
    representative,
    simulate,
    solve_mf,
    solve_n,
)
from merton_arena.nplayer import identity_residual
from merton_arena.policy import Regime
from test_mfg import _beta_with_ungrouped_cross_term


def report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {label}: {status}{suffix}")
    assert ok, f"criterion {num} {label} failed{suffix}"


FIG3_ATOM = AgentType(x0=1.0, delta=5.0, theta=0.4, eps=1.0, mu=5.0, nu=0.0, sigma=1.0)
FIG1_ATOM = AgentType(x0=1.0, delta=3.0, theta=0.4, eps=1.0, mu=5.0, nu=0.0, sigma=1.0)


def test_criterion_01_theta_crit_reproduction():
    # E[theta (delta-1)] = 1.6, E[delta] = 5  ->  theta_crit = 0.52
    m = solve_mf(single_atom(FIG3_ATOM))
    err = abs(m.theta_crit - 0.52)
    report(1, "critical competition weight 0.52", err <= 1e-12, f"err={err:.2e}")


def test_criterion_02_terminal_consumption_endpoint():
    # ambient moments E[theta (delta-1)] = 0.8, E[delta] = 3; representative
    # agent theta = 0.8, eps = 1, T = 1: c*(T) = lambda = 1 for every delta
    d = single_atom(FIG1_ATOM)
    worst = 0.0
    for delta in (0.5, 1.0, 2.0, 3.0, 5.0):
        m = representative(d, columns((AgentType(1.0, delta, 0.8, 1.0, 5.0, 0.0, 1.0),)))
        pol = ConsumptionPolicy(float(m.beta[0]), float(m.lam[0]), 1.0)
        worst = max(worst, abs(pol.rate(1.0) - 1.0))
    report(2, "terminal consumption equals lambda", worst <= 1e-10,
           f"worst={worst:.2e}")


def test_criterion_03_volatility_identity():
    rng = np.random.default_rng(20240809)
    worst = 0.0
    for _ in range(1000):
        p = random_population(rng, n_max=64)
        e = solve_n(p)
        worst = max(worst, identity_residual(p, e.pi, e.aggregates))
    report(3, "average-volatility identity over 1000 populations",
           worst <= 1e-10, f"worst={worst:.2e}")


def test_criterion_04_merton_reduction():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(200):
        p = random_population(rng, theta_zero=True)
        e = solve_n(p)
        a = p.arrays()
        worst = max(worst, float(np.max(np.abs(e.pi - a.delta * a.mu / a.Sigma))))
        merton_beta = a.mu**2 / (2.0 * a.Sigma) * a.delta * (1.0 - a.delta)
        worst = max(worst, float(np.max(np.abs(e.beta - merton_beta))))
    report(4, "non-competitive limit recovers the classical solution",
           worst <= 1e-12, f"worst={worst:.2e}")


def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(55)
    worst_gap = 0.0
    worst_resid = 0.0
    worst_identity = 0.0
    for _ in range(100):
        p = random_population(rng, n_max=8, gentle=True)
        e = solve_n(p)
        rep = fixed_point_check(p, e)
        worst_gap = max(worst_gap, rep.max_f_gap)
        worst_resid = max(worst_resid, rep.systeq1_max, rep.systeq2_max)
        worst_identity = max(worst_identity, rep.identity_residual)
    ok = worst_gap <= 1e-8 and worst_resid <= 1e-8 and worst_identity <= 1e-10
    report(5, "value-factor routes agree and fixed point holds", ok,
           f"gap={worst_gap:.2e} resid={worst_resid:.2e} id={worst_identity:.2e}")


def test_criterion_06_regime_law():
    rng = np.random.default_rng(66)
    ok = True
    for _ in range(1000):
        beta = float(rng.uniform(-4.0, 4.0))
        lam = float(rng.uniform(0.1, 4.0))
        horizon = float(rng.uniform(0.25, 2.0))
        pol = ConsumptionPolicy(beta, lam, horizon)
        t = np.sort(rng.uniform(0.0, horizon, size=(100, 2)), axis=1)
        keep = t[:, 1] > t[:, 0]
        change = pol.rate(t[keep, 1]) - pol.rate(t[keep, 0])
        if not np.all(np.sign(change) == np.sign(lam - beta)):
            ok = False
            break
    # constant classification triggers exactly on |beta - lambda| <= tol
    tol = 1e-12 * 1.0
    ok = ok and classify_regime(1.0 + 0.5 * tol, 1.0) is Regime.CONSTANT
    ok = ok and classify_regime(1.0 + 5.0 * tol, 1.0) is Regime.DECREASING
    ok = ok and classify_regime(1.0 - 5.0 * tol, 1.0) is Regime.INCREASING
    report(6, "consumption slope sign equals sign of lambda - beta", ok)


def test_criterion_07_best_response_monte_carlo(ref_n3):
    e = solve_n(ref_n3)
    dpi = (-0.5, -0.1, 0.0, 0.1, 0.5)
    ab = (-0.2, -0.05, 0.0, 0.05, 0.2)
    worst = -math.inf
    null_ok = True
    for rep in best_response_scan(ref_n3, e, range(ref_n3.n), dpi, ab,
                                  paths=200_000, seed=777, grid=1000):
        null = [c for c in rep.cells if (c.dpi, c.a, c.b) == (0.0, 0.0, 0.0)][0]
        null_ok = null_ok and null.mean_diff == 0.0 and null.stderr == 0.0
        margins = [c.mean_diff - 3.0 * c.stderr for c in rep.cells]
        worst = max(worst, max(margins))
    ok = null_ok and worst <= 0.0
    report(7, "no perturbation beats equilibrium beyond 3 stderr", ok,
           f"worst margin={worst:.2e}")


def test_criterion_08_mean_field_convergence():
    ns = [4, 8, 16, 32, 64, 128, 256]
    with_nu = single_atom(AgentType(1.0, 3.0, 0.8, 1.0, 5.0, 0.5, 1.0))
    rows = mfg_convergence(with_nu, ns)
    gaps = np.array([r.beta_gap for r in rows])
    ratios = gaps[1:] / gaps[:-1]
    ratio_ok = bool(np.all((ratios >= 0.4) & (ratios <= 0.6)))

    no_nu = single_atom(AgentType(1.0, 3.0, 0.8, 1.0, 5.0, 0.0, 1.0))
    flat = mfg_convergence(no_nu, ns)
    exact_ok = all(r.pi_gap <= 1e-9 and r.beta_gap <= 1e-9 for r in flat)
    report(8, "finite games approach the mean-field limit at rate 1/n",
           ratio_ok and exact_ok,
           f"ratios={np.round(ratios, 3).tolist()}")


def test_criterion_09_simulation_fidelity():
    p = Population(1.0, (
        AgentType(1.0, 1.0, 0.0, 1.0, 1.0, 0.3, 0.4),
        AgentType(2.0, 1.0, 0.0, 1.5, 0.8, 0.5, 0.3),
    ))
    e = solve_n(p)
    s = equilibrium_strategy(p, e)
    batch = simulate(p, s, grid=400, paths=100_000, seed=99)
    ok = True
    detail = []
    for i in range(2):
        est = estimate_objective(batch, s, i, p)
        agent = p.agents[i]
        pi = float(e.pi[i])
        growth = pi * agent.mu - 0.5 * pi**2 * agent.Sigma
        lam = float(e.lam[i])

        def big_c(t, _lam=lam):
            return math.log(1.0 + 1.0 / _lam) - math.log(1.0 - t + 1.0 / _lam)

        def integrand(t, _i=i, _growth=growth, _lam=lam, _x0=agent.x0):
            c = 1.0 / (1.0 - t + 1.0 / _lam)
            return math.log(c) + math.log(_x0) + _growth * t - big_c(t)

        analytic = quad(integrand, 0.0, 1.0, limit=200)[0] + agent.eps * (
            math.log(agent.x0) + growth - big_c(1.0))
        gap = abs(est.mean - analytic)
        ok = ok and gap <= 3.0 * est.stderr
        detail.append(f"agent{i}: gap={gap:.2e} 3se={3 * est.stderr:.2e}")

    # deterministic corner: no investment, constant consumption
    det_pop = Population(1.0, (
        AgentType(1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0),
        AgentType(1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0),
    ))
    det_s = constant_strategy([0.0, 0.0], [1.0, 1.0])
    det_batch = simulate(det_pop, det_s, grid=400, paths=1000, seed=1)
    det = estimate_objective(det_batch, det_s, 0, det_pop)
    det_ok = abs(det.mean + 1.5) <= 1e-12 and det.stderr == 0.0
    report(9, "Monte Carlo matches analytic objective", ok and det_ok,
           "; ".join(detail) + f"; deterministic err={abs(det.mean + 1.5):.1e}")


def test_criterion_10_mean_field_rho_repair():
    rng = np.random.default_rng(101)
    worst = 0.0
    wrong_min = math.inf
    for _ in range(25):
        mu, sigma = float(rng.uniform(1.0, 5.0)), float(rng.uniform(0.5, 1.5))
        k = int(rng.integers(1, 4))
        w = rng.dirichlet(np.ones(k))
        atoms = tuple(
            (float(w[j]), AgentType(1.0, float(rng.uniform(0.5, 5.0)),
                                    float(rng.uniform(0.0, 1.0)), 1.0,
                                    mu, 0.0, sigma))
            for j in range(k))
        d = TypeDistribution(1.0, atoms)
        for _, t in d.atoms:
            m = representative(d, columns((t,)))
            agg, deff, rho = m.aggregates, float(m.delta_eff[0]), float(m.rho[0])
            closed = mu**2 / (2.0 * sigma**2) * deff * (1.0 - deff)
            denom = 1.0 + agg.avg_theta_dm1
            beta = t.theta * (t.delta - 1.0) * agg.avg_delta_rho / denom \
                - t.delta * rho
            worst = max(worst, abs(beta - closed))
            if t.theta > 0.05 and abs(t.delta - 1.0) > 0.05:
                wrong = _beta_with_ungrouped_cross_term(t, d)
                wrong_min = min(wrong_min, abs(wrong - closed))
    # reference atom: the ungrouped variant misses by orders of magnitude
    ref = AgentType(1.0, 3.0, 0.8, 1.0, 5.0, 0.0, 1.0)
    ref_gap = abs(_beta_with_ungrouped_cross_term(ref, single_atom(ref))
                  - (-375.0 / 169.0))
    ok = worst <= 1e-10 and ref_gap > 100.0
    report(10, "corrected mean-field rate matches the closed form", ok,
           f"worst={worst:.2e} ungrouped ref gap={ref_gap:.1f}")

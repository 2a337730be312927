"""Tour of the closed-form equilibrium: finite game, mean-field limit,
and the single-stock shortcuts.

Run:  python demos/equilibrium_tour.py
"""
import numpy as np

from merton_arena import (
    AgentType,
    Population,
    TypeDistribution,
    single_stock_beta_n,
    single_stock_invest_n,
    solve_mf,
    solve_n,
)

# ---------------------------------------------------------------------------
# A two-agent market: identical, fairly competitive (theta = 0.8), risk
# tolerant (delta = 3), trading one aggressive stock (mu = 5, sigma = 1).
# ---------------------------------------------------------------------------
agent = AgentType(x0=1.0, delta=3.0, theta=0.8, eps=1.0, mu=5.0, nu=0.0, sigma=1.0)
duo = Population(horizon=1.0, agents=(agent, agent))
eq = solve_n(duo)

print("=" * 68)
print("Two identical competitive agents")
print("=" * 68)
print(f"aggregates:     phi = {eq.aggregates.phi:.6f}, psi = {eq.aggregates.psi:.6f}")
print(f"invested share: pi* = {eq.pi[0]:.6f}  (5.77x leverage, competition-damped)")
print(f"rates:          rho = {eq.rho[0]:.6f}, beta = {eq.beta[0]:.6f}, lambda = {eq.lam[0]:.4f}")
print(f"theta_crit:     {eq.theta_crit:.6f}")
print()
print("A lone Merton agent with the same delta would invest delta mu / sigma^2"
      f" = {3 * 5 / 1:.1f},")
print("so competition pushes this agent from 15x down to"
      f" {eq.pi[0]:.2f}x leverage.")
print()

# The single-stock corollary evaluates the same equilibrium through
# theta_crit alone; the two routes agree to machine precision.
print("corollary route: pi* =", single_stock_invest_n(duo)[0],
      " beta =", single_stock_beta_n(duo)[0])
print("closed-form route agrees within",
      f"{abs(single_stock_invest_n(duo)[0] - eq.pi[0]):.1e}")
print()

# ---------------------------------------------------------------------------
# A heterogeneous trio with idiosyncratic stocks and a log investor.
# ---------------------------------------------------------------------------
trio = Population(horizon=1.0, agents=(
    AgentType(x0=1.0, delta=2.0, theta=0.6, eps=1.0, mu=0.5, nu=0.5, sigma=0.5),
    AgentType(x0=1.5, delta=0.8, theta=0.3, eps=1.2, mu=0.6, nu=0.4, sigma=0.6),
    AgentType(x0=0.8, delta=1.0, theta=0.9, eps=0.8, mu=0.4, nu=0.6, sigma=0.4),
))
eq3 = solve_n(trio)

print("=" * 68)
print("Heterogeneous trio (note the log investor's beta = 0)")
print("=" * 68)
print(f"{'agent':>6} {'delta':>6} {'theta':>6} {'pi*':>9} {'rho':>9} {'beta':>9} {'lambda':>8}")
for i, a in enumerate(trio.agents):
    print(f"{i:>6} {a.delta:>6.2f} {a.theta:>6.2f} {eq3.pi[i]:>9.4f} "
          f"{eq3.rho[i]:>9.4f} {eq3.beta[i]:>9.4f} {eq3.lam[i]:>8.4f}")
resid = abs(np.mean([a.sigma for a in trio.agents] * eq3.pi)
            - eq3.aggregates.phi / (1 + eq3.aggregates.psi))
print(f"volatility identity residual: {resid:.2e}")
print()

# ---------------------------------------------------------------------------
# The mean-field limit: a continuum split 50/50 between two types.
# ---------------------------------------------------------------------------
dist = TypeDistribution(horizon=1.0, atoms=(
    (0.5, AgentType(1.0, 2.0, 0.5, 1.0, 5.0, 0.0, 1.0)),
    (0.5, AgentType(1.0, 4.0, 0.9, 1.0, 5.0, 0.0, 1.0)),
))
mf = solve_mf(dist)

print("=" * 68)
print("Mean-field limit, two-type continuum on a single stock")
print("=" * 68)
print(f"theta_crit = {mf.theta_crit:.6f}")
for j, (w, t) in enumerate(dist.atoms):
    print(f"type {j} (weight {w:.2f}): delta={t.delta:.1f} theta={t.theta:.1f}"
          f" -> pi*={mf.pi[j]:.4f}, beta={mf.beta[j]:.4f},"
          f" effective risk tolerance {mf.delta_eff[j]:.4f}")
print()
print("Both types act like lone Merton agents with the effective risk")
print("tolerance shown; highly competitive agents can land on the other")
print("side of the log-investor point (delta_eff crossing 1).")

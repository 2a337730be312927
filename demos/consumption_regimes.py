"""Consumption over time: who spends early, who defers, and why.

Reproduces the data behind the published consumption-policy pictures:
curves c*(t) for several risk tolerances, the mid-horizon consumption
surface, and the (delta, theta) region where consumption decreases.

Run:  python demos/consumption_regimes.py
"""
import numpy as np

from merton_arena import (
    AgentType,
    ConsumptionPolicy,
    TypeDistribution,
    classify_regime,
    columns,
    delta_band,
    detect_single_stock,
    representative,
    single_stock_beta,
)


def grid(ambient, deltas, thetas):
    """`representative` for the first atom's type over the (delta, theta) grid, delta fastest."""
    t = columns(ambient.types[:1])
    t.delta, t.theta = np.tile(deltas, len(thetas)), np.repeat(thetas, len(deltas))
    return representative(ambient, t)


# ---------------------------------------------------------------------------
# Consumption curves: ambient market with E[theta (delta-1)] = 0.8 and
# E[delta] = 3 (so theta_crit = 0.6); the representative agent has
# theta = 0.8 and eps = 1, so every curve ends at lambda = 1.
# ---------------------------------------------------------------------------
ambient = TypeDistribution(horizon=1.0, atoms=(
    (1.0, AgentType(x0=1.0, delta=3.0, theta=0.4, eps=1.0, mu=5.0, nu=0.0, sigma=1.0)),))
curve_deltas = np.array([0.5, 1.0, 2.0, 3.0, 5.0])
curves = grid(ambient, curve_deltas, [0.8])

print("=" * 68)
print("Consumption curves c*(t), representative theta = 0.8, final value 1")
print("=" * 68)
times = np.linspace(0.0, 1.0, 6)
header = "delta   " + "".join(f"  t={t:4.2f}" for t in times)
print(header)
for delta, beta, lam in zip(curve_deltas, curves.beta.tolist(), curves.lam.tolist()):
    pol = ConsumptionPolicy(beta, lam, 1.0)
    row = "".join(f"  {pol.rate(t):6.3f}" for t in times)
    print(f"{delta:5.1f} {row}")
print()
print("delta = 3 consumes early and tapers (beta = 25/9 > lambda); the")
print("log investor delta = 1 ramps up instead. Terminal consumption is")
print("always lambda, whatever the risk tolerance.")
print()

# ---------------------------------------------------------------------------
# Mid-horizon consumption surface over (delta, theta): the wave shape.
# Ambient moments here: E[theta (delta-1)] = 1.6, E[delta] = 5.
# ---------------------------------------------------------------------------
ambient2 = TypeDistribution(horizon=1.0, atoms=(
    (1.0, AgentType(x0=1.0, delta=5.0, theta=0.4, eps=1.0, mu=5.0, nu=0.0, sigma=1.0)),))
market = detect_single_stock(ambient2)

print("=" * 68)
deltas = np.array([0.25, 0.5, 1.0, 2.0, 3.0, 5.0])
thetas = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
surface = grid(ambient2, deltas, thetas)
tc = surface.theta_crit
# the single-stock corollary beta = (mu^2 / 2 sigma^2) delta_eff (1 - delta_eff)
beta = single_stock_beta(market, surface.delta_eff).reshape(len(thetas), len(deltas))
print(f"Mid-horizon consumption c*(T/2); theta_crit = {tc}")
print("=" * 68)
print("        " + "".join(f" th={th:4.2f}" for th in thetas))
for j, dv in enumerate(deltas):
    cells = [ConsumptionPolicy(b, 1.0, 1.0).rate(0.5) for b in beta[:, j].tolist()]
    print(f"d={dv:4.2f} " + "".join(f" {c:7.3f}" for c in cells))
print()

# ---------------------------------------------------------------------------
# Regime map: decreasing consumption exactly inside the delta band.
# ---------------------------------------------------------------------------
print("=" * 68)
print("Who decreases consumption over time? ('D' = decreasing)")
print("=" * 68)
grid_d = np.linspace(0.05, 6.0, 40)
grid_t = np.linspace(0.0, 1.0, 11)
regime_beta = single_stock_beta(market, grid(ambient2, grid_d, grid_t).delta_eff)
regime_beta = regime_beta.reshape(len(grid_t), len(grid_d))
for th, betas in zip(grid_t[::-1], regime_beta[::-1].tolist()):
    row = ["D" if classify_regime(b, 1.0).value == "decreasing" else "." for b in betas]
    band = delta_band(5.0, 1.0, th, tc)
    edge = "" if band is None else f"   band = ({band[0]:.3f}, {band[1]:.3f})"
    print(f"theta={th:4.2f} |{''.join(row)}|{edge}")
print(f"           delta from {grid_d[0]:.2f} to {grid_d[-1]:.2f} ->")
print()
print("Below theta_crit the decreasing band sits under delta = 1 (the")
print("Merton picture); above it the band jumps to the risk-tolerant side:")
print("highly competitive, highly risk-tolerant agents front-load spending.")
print("Note the thin increasing wedge near the origin at small delta.")

"""Mean-field limit of the competitive investment/consumption game.

A continuum of agents is summarized by a `TypeDistribution`; every formula
below is an exact weighted sum over its atoms.  The limit is the n-agent
game of `nplayer` at n -> inf: the same private formula bodies run with
``n = math.inf`` and the atom-weighted average ``np.dot(a.w, .)`` in place
of `nplayer._mean`, so leave-one-out averages become distribution-level
expectations.  Only rho is written a second time, in its limit form.  On
the single-stock path the whole equilibrium reduces to the effective risk
tolerance delta_eff = (1 - theta/theta_crit) delta + theta/theta_crit.

Two entries answer every question.  `solve_mf` gives the equilibrium of
the atoms themselves, and `representative` that of any parameter columns,
one type or a grid of them, against a distribution's aggregates.  Both run
one body, so ``solve_mf(d)`` is ``representative(d, d.arrays())`` bit for
bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np

from .errors import IdentityViolation, NotSingleStock
from .nplayer import (
    Aggregates,
    EquilibriumProfile,
    _aggregates,
    _beta,
    _delta_eff,
    _invest,
    _invest_denom,
    _lambda,
    _moments,
    _theta_crit,
    single_stock_beta,
)
from .types import (
    AgentType,
    SingleStockMarket,
    TypeDistribution,
    _AGENT_FIELDS,
    _failing,
    _shared_market,
    _trades,
    validate_distribution,
)

SINGLE_STOCK_TOL = 1e-10


@dataclass(frozen=True)
class MfAggregates(Aggregates):
    """(phi, psi) plus the distribution-level moments of the representative agent's formulas."""

    avg_theta_dm1: float    # E[theta (delta - 1)]
    avg_delta_rho: float    # E[delta rho]
    log_eps_delta: float    # E[log(eps^delta)]
    avg_mu_pi: float        # E[mu pi*]
    avg_sigma2_pi2: float   # E[(sigma^2 + nu^2) pi*^2]


@dataclass(frozen=True)
class MfEquilibrium(EquilibriumProfile):
    """Per-type equilibrium values plus shared aggregates (`MfAggregates`).

    ``theta_crit`` and ``delta_eff`` are filled on the single-stock path
    only; ``delta_eff`` is per type and may be negative.
    """

    delta_eff: np.ndarray | None = None


def _pi_moments(a: SimpleNamespace, pi: np.ndarray) -> tuple[float, float]:
    """E[mu pi*] and E[(sigma^2 + nu^2) pi*^2] over the atoms."""
    return float(np.dot(a.w, a.mu * pi)), float(np.dot(a.w, a.Sigma * pi**2))


def _rho_limit(t: SimpleNamespace, r: float, avg_mu_pi: float,
               avg_sigma2_pi2: float) -> np.ndarray:
    # The n -> inf limit of nplayer._rho, kept as a second body and not as a
    # branch: the finite form divides by 1/gamma where this multiplies by
    # delta, and averages sigma pi* over the agents where this uses the
    # identity value phi/(1+psi).  They round differently (573 of the 1000
    # atoms of the recorded solve_mf case differ in the first term alone),
    # so one body would move a recorded digest.
    one_m = 1.0 - 1.0 / t.delta
    tilted_mu = t.mu - t.sigma * r * t.theta * one_m
    return one_m * (
        t.delta * tilted_mu**2 / (2.0 * t.Sigma)
        + 0.5 * r**2 * t.theta**2 * one_m
        - t.theta * avg_mu_pi
        + 0.5 * t.theta * avg_sigma2_pi2
    )


def _limit(a: SimpleNamespace) -> tuple[MfAggregates, np.ndarray, np.ndarray]:
    """Aggregates, pi* and rho of the mean-field limit on validated columns."""
    avg = partial(np.dot, a.w)
    denom = _invest_denom(a, math.inf)
    agg = _aggregates(a, denom, avg)
    pi = _invest(a, denom, agg)
    avg_mu_pi, avg_sigma2_pi2 = _pi_moments(a, pi)
    rho = _rho_limit(a, agg.ratio, avg_mu_pi, avg_sigma2_pi2)
    avg_delta_rho, avg_theta_dm1, log_eps_delta = _moments(a, rho, avg)
    return MfAggregates(agg.phi, agg.psi, avg_theta_dm1, avg_delta_rho, log_eps_delta,
                        avg_mu_pi, avg_sigma2_pi2), pi, rho


def _equilibrium(a: SimpleNamespace, t: SimpleNamespace) -> MfEquilibrium:
    """The types ``t`` against validated atom columns ``a``.

    ``t is a`` stands for the atoms themselves, whose pi* and rho the
    aggregates already needed, so they are not evaluated again.
    """
    agg, pi, rho = _limit(a)
    if t is not a:
        pi = _invest(t, _invest_denom(t, math.inf), agg)
        rho = _rho_limit(t, agg.ratio, agg.avg_mu_pi, agg.avg_sigma2_pi2)
    market = _shared_market(a)
    tc = deff = None
    if market is not None and (t is a or _trades(t, market)):
        tc = _theta_crit(a, partial(np.dot, a.w))
        deff = _delta_eff(t, tc)
    return MfEquilibrium(pi=pi, rho=rho, beta=_beta(t, rho, agg.avg_delta_rho, agg.avg_theta_dm1),
                         lam=_lambda(t, agg.log_eps_delta, agg.avg_theta_dm1), aggregates=agg,
                         theta_crit=tc, delta_eff=deff)


def representative(d: TypeDistribution, t: SimpleNamespace) -> MfEquilibrium:
    """Equilibrium constants of the types ``t`` against the distribution ``d``.

    ``t`` holds parameter columns as `types.columns` builds them, one entry
    per type: a single type, the atoms themselves (``d.arrays()``) or a
    whole grid.  Each entry gets its pi*, rho, beta and lambda against
    ``d``'s aggregates.  When ``d`` is single-stock and every entry trades
    that stock (nu = 0 and the same mu and sigma, compared exactly),
    theta_crit and delta_eff are filled too.  Raises the ValidationError of
    ``d`` or of the first invalid entry.
    """
    a = validate_distribution(d)
    for i in np.flatnonzero(_failing(t)):
        AgentType(**{name: float(getattr(t, name)[i]) for name in _AGENT_FIELDS}).check(int(i))
    return _equilibrium(a, t)


def theta_crit_mf(d: TypeDistribution) -> float:
    """Critical competition weight (1 + E[theta(delta-1)]) / E[delta] of a valid distribution."""
    a = validate_distribution(d)
    if _shared_market(a) is None:
        raise NotSingleStock("theta_crit is defined only for single-stock distributions")
    return _theta_crit(a, partial(np.dot, a.w))


def solve_mf(d: TypeDistribution) -> MfEquilibrium:
    """Equilibrium of the mean-field game per atom of the distribution.

    On the single-stock path also fills theta_crit and delta_eff, and
    verifies beta = (mu^2 / 2 sigma^2) delta_eff (1 - delta_eff) per atom
    to within ``SINGLE_STOCK_TOL``.
    """
    return _solve_mf(validate_distribution(d))


def _solve_mf(a: SimpleNamespace) -> MfEquilibrium:
    """`solve_mf` on validated atom columns."""
    m = _equilibrium(a, a)
    if m.delta_eff is not None:
        # delta_eff is filled only when every atom trades the first atom's stock
        market = SingleStockMarket(float(a.mu[0]), float(a.sigma[0]))
        worst = float(np.max(np.abs(m.beta - single_stock_beta(market, m.delta_eff))))
        if not worst <= SINGLE_STOCK_TOL:
            raise IdentityViolation(
                f"single-stock beta mismatch {worst:.3e} exceeds {SINGLE_STOCK_TOL}"
            )
    return m

"""Mean-field limit of the competitive investment/consumption game.

A continuum of agents is summarized by a `TypeDistribution`; every formula
below is an exact weighted sum over its atoms.  The limit is the n-agent
game of `nplayer` at n -> inf: `solve_mf` runs the same private formula
bodies with ``n = math.inf`` and the atom-weighted average
``np.dot(a.w, .)`` in place of ``np.mean``, so leave-one-out averages become
distribution-level expectations.  Only rho is written a second time, in
its limit form.  On the single-stock path the whole equilibrium reduces to
the effective risk tolerance delta_eff = (1 - theta/theta_crit) delta +
theta/theta_crit.  The public per-agent names are thin wrappers that
evaluate one `AgentType` through the same bodies.
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
    _lambda,
    _moments,
    _single_stock_beta,
    _theta_crit,
)
from .types import (
    AgentType,
    TypeDistribution,
    _columns,
    detect_single_stock,
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
    """Per-atom equilibrium values plus shared aggregates (`MfAggregates`).

    ``theta_crit`` and ``delta_eff`` are filled on the single-stock path
    only; ``delta_eff`` is per atom and may be negative.
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
    agg = _aggregates(a, math.inf, avg)
    pi = _invest(a, math.inf, agg)
    avg_mu_pi, avg_sigma2_pi2 = _pi_moments(a, pi)
    rho = _rho_limit(a, agg.ratio, avg_mu_pi, avg_sigma2_pi2)
    avg_delta_rho, avg_theta_dm1, log_eps_delta = _moments(a, rho, avg)
    return MfAggregates(agg.phi, agg.psi, avg_theta_dm1, avg_delta_rho, log_eps_delta,
                        avg_mu_pi, avg_sigma2_pi2), pi, rho


def aggregates_mf(d: TypeDistribution) -> MfAggregates:
    """All moments of the distribution used by the equilibrium formulas.

    phi = E[delta mu sigma / (sigma^2 + nu^2)] and psi = E[theta (delta-1)
    sigma^2 / (sigma^2 + nu^2)]; the remaining fields are the auxiliary
    expectations consumed by the rho/beta/lambda formulas (E[delta rho] is
    evaluated at the equilibrium investments).
    """
    return _limit(validate_distribution(d))[0]


def pi_star_mf(t: AgentType, agg: MfAggregates) -> float:
    """Representative agent's constant investment fraction."""
    return float(_invest(_columns((t,)), math.inf, agg)[0])


def rho_mf(t: AgentType, agg: MfAggregates, d: TypeDistribution) -> float:
    """Representative agent's rate rho against the ambient distribution.

    The cross terms use E[mu pi*] and E[(sigma^2+nu^2) pi*^2] evaluated
    atom-wise over ``d``, the limit of the finite game's leave-one-out
    sums; rho = 0 whenever delta = 1.
    """
    a = d.arrays()
    moments = _pi_moments(a, _invest(a, math.inf, agg))
    return float(_rho_limit(_columns((t,)), agg.ratio, *moments)[0])


def beta_mf(t: AgentType, agg: MfAggregates) -> float:
    """Consumption-slope constant beta of the representative agent."""
    c = _columns((t,))
    rho = _rho_limit(c, agg.ratio, agg.avg_mu_pi, agg.avg_sigma2_pi2)
    return float(_beta(c, rho, agg.avg_delta_rho, agg.avg_theta_dm1)[0])


def lambda_mf(t: AgentType, agg: MfAggregates) -> float:
    """Consumption-level constant lambda, in log space; always positive."""
    return float(_lambda(_columns((t,)), agg.log_eps_delta, agg.avg_theta_dm1)[0])


def theta_crit_mf(d: TypeDistribution) -> float:
    """Critical competition weight (1 + E[theta(delta-1)]) / E[delta]."""
    if detect_single_stock(d) is None:
        raise NotSingleStock("theta_crit is defined only for single-stock distributions")
    a = d.arrays()
    return _theta_crit(a, partial(np.dot, a.w))


def delta_eff(t: AgentType, theta_crit: float) -> float:
    """Effective risk tolerance (1 - theta/theta_crit) delta + theta/theta_crit.

    May be negative; the weight theta/theta_crit ranges over [0, inf).
    """
    return float(_delta_eff(_columns((t,)), theta_crit)[0])


def solve_mf(d: TypeDistribution) -> MfEquilibrium:
    """Equilibrium of the mean-field game per atom of the distribution.

    On the single-stock path also fills theta_crit and delta_eff, and
    verifies beta = (mu^2 / 2 sigma^2) delta_eff (1 - delta_eff) per atom
    to within ``SINGLE_STOCK_TOL``.
    """
    a = validate_distribution(d)
    agg, pi, rho = _limit(a)
    beta = _beta(a, rho, agg.avg_delta_rho, agg.avg_theta_dm1)
    market = detect_single_stock(d)
    tc = deff = None
    if market is not None:
        tc = _theta_crit(a, partial(np.dot, a.w))
        deff = _delta_eff(a, tc)
        worst = float(np.max(np.abs(beta - _single_stock_beta(market, deff))))
        if not worst <= SINGLE_STOCK_TOL:
            raise IdentityViolation(
                f"single-stock beta mismatch {worst:.3e} exceeds {SINGLE_STOCK_TOL}"
            )
    lam = _lambda(a, agg.log_eps_delta, agg.avg_theta_dm1)
    return MfEquilibrium(pi=pi, rho=rho, beta=beta, lam=lam, aggregates=agg,
                         theta_crit=tc, delta_eff=deff)

"""Mean-field limit of the competitive investment/consumption game.

A continuum of agents is summarized by a `TypeDistribution`; every formula
below is an exact weighted sum over its atoms.  The representative agent's
equilibrium constants mirror the finite-game ones with leave-one-out
averages replaced by distribution-level expectations.  On the single-stock
path the whole equilibrium reduces to the effective risk tolerance
delta_eff = (1 - theta/theta_crit) delta + theta/theta_crit.  The formula
bodies are private functions of the parameter columns ``a``
(``TypeDistribution.arrays()``, weights ``a.w``); `solve_mf` and
`aggregates_mf` validate and build the columns once.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DegenerateAggregate, IdentityViolation, NotSingleStock
from .types import (
    AgentType,
    TypeDistribution,
    detect_single_stock,
    validate_distribution,
)

SINGLE_STOCK_TOL = 1e-10


@dataclass(frozen=True)
class MfAggregates:
    """Distribution-level moments entering the representative agent's formulas."""

    phi: float
    psi: float
    avg_theta_dm1: float    # E[theta (delta - 1)]
    avg_delta_rho: float    # E[delta rho]
    log_eps_delta: float    # E[log(eps^delta)]
    avg_mu_pi: float        # E[mu pi*]
    avg_sigma2_pi2: float   # E[(sigma^2 + nu^2) pi*^2]

    @property
    def ratio(self) -> float:
        return self.phi / (1.0 + self.psi)


@dataclass(frozen=True)
class MfEquilibrium:
    """Per-atom equilibrium values plus shared aggregates.

    ``theta_crit`` and ``delta_eff`` are filled on the single-stock path
    only; ``delta_eff`` is per atom and may be negative.
    """

    pi: np.ndarray
    rho: np.ndarray
    beta: np.ndarray
    lam: np.ndarray
    aggregates: MfAggregates
    theta_crit: float | None = None
    delta_eff: np.ndarray | None = None


def _phi_psi(a: SimpleNamespace) -> tuple[float, float]:
    phi = float(np.dot(a.w, a.delta * a.mu * a.sigma / a.Sigma))
    psi = float(np.dot(a.w, a.theta * (a.delta - 1.0) * a.sigma**2 / a.Sigma))
    if 1.0 + psi <= 0.0:
        raise DegenerateAggregate(f"1 + psi = {1.0 + psi!r} <= 0")
    return phi, psi


def _pi_vector(a: SimpleNamespace, ratio: float) -> np.ndarray:
    return (a.delta * a.mu - a.theta * (a.delta - 1.0) * a.sigma * ratio) / a.Sigma


def _rho_vector(a: SimpleNamespace, agg: MfAggregates) -> np.ndarray:
    r = agg.ratio
    one_m = 1.0 - 1.0 / a.delta
    tilted_mu = a.mu - a.sigma * r * a.theta * one_m
    return one_m * (
        a.delta * tilted_mu**2 / (2.0 * a.Sigma)
        + 0.5 * r**2 * a.theta**2 * one_m
        - a.theta * agg.avg_mu_pi
        + 0.5 * a.theta * agg.avg_sigma2_pi2
    )


def _aggregates(a: SimpleNamespace) -> MfAggregates:
    phi, psi = _phi_psi(a)
    avg_theta_dm1 = float(np.dot(a.w, a.theta * (a.delta - 1.0)))
    log_eps_delta = float(np.dot(a.w, a.delta * np.log(a.eps)))

    pi = _pi_vector(a, phi / (1.0 + psi))
    avg_mu_pi = float(np.dot(a.w, a.mu * pi))
    avg_sigma2_pi2 = float(np.dot(a.w, a.Sigma * pi**2))

    partial = MfAggregates(phi, psi, avg_theta_dm1, 0.0, log_eps_delta,
                           avg_mu_pi, avg_sigma2_pi2)
    rho = _rho_vector(a, partial)
    avg_delta_rho = float(np.dot(a.w, a.delta * rho))
    return MfAggregates(phi, psi, avg_theta_dm1, avg_delta_rho, log_eps_delta,
                        avg_mu_pi, avg_sigma2_pi2)


def aggregates_mf(d: TypeDistribution) -> MfAggregates:
    """All moments of the distribution used by the equilibrium formulas.

    phi = E[delta mu sigma / (sigma^2 + nu^2)] and psi = E[theta (delta-1)
    sigma^2 / (sigma^2 + nu^2)]; the remaining fields are the auxiliary
    expectations consumed by the rho/beta/lambda formulas (E[delta rho] is
    evaluated at the equilibrium investments).
    """
    return _aggregates(validate_distribution(d))


def pi_star_mf(t: AgentType, agg: MfAggregates) -> float:
    """Representative agent's constant investment fraction."""
    return float(
        (t.delta * t.mu - t.theta * (t.delta - 1.0) * t.sigma * agg.ratio) / t.Sigma
    )


def rho_mf(t: AgentType, agg: MfAggregates, d: TypeDistribution) -> float:
    """Representative agent's rate rho against the ambient distribution.

    The cross terms use E[mu pi*] and E[(sigma^2+nu^2) pi*^2] evaluated
    atom-wise over ``d``, the limit of the finite game's leave-one-out
    sums; rho = 0 whenever delta = 1.
    """
    a = d.arrays()
    pi = _pi_vector(a, agg.ratio)
    avg_mu_pi = float(np.dot(a.w, a.mu * pi))
    avg_sigma2_pi2 = float(np.dot(a.w, a.Sigma * pi**2))
    r = agg.ratio
    one_m = 1.0 - 1.0 / t.delta
    tilted_mu = t.mu - t.sigma * r * t.theta * one_m
    return float(
        one_m
        * (
            t.delta * tilted_mu**2 / (2.0 * t.Sigma)
            + 0.5 * r**2 * t.theta**2 * one_m
            - t.theta * avg_mu_pi
            + 0.5 * t.theta * avg_sigma2_pi2
        )
    )


def beta_mf(t: AgentType, agg: MfAggregates) -> float:
    """Consumption-slope constant beta of the representative agent."""
    one_m = 1.0 - 1.0 / t.delta
    tilted_mu = t.mu - t.sigma * agg.ratio * t.theta * one_m
    rho = one_m * (
        t.delta * tilted_mu**2 / (2.0 * t.Sigma)
        + 0.5 * agg.ratio**2 * t.theta**2 * one_m
        - t.theta * agg.avg_mu_pi
        + 0.5 * t.theta * agg.avg_sigma2_pi2
    )
    denom = 1.0 + agg.avg_theta_dm1
    return float(t.theta * (t.delta - 1.0) * agg.avg_delta_rho / denom - t.delta * rho)


def lambda_mf(t: AgentType, agg: MfAggregates) -> float:
    """Consumption-level constant lambda, in log space; always positive."""
    denom = 1.0 + agg.avg_theta_dm1
    return float(
        np.exp(
            -t.delta * np.log(t.eps)
            + agg.log_eps_delta * t.theta * (t.delta - 1.0) / denom
        )
    )


def theta_crit_mf(d: TypeDistribution) -> float:
    """Critical competition weight (1 + E[theta(delta-1)]) / E[delta]."""
    if detect_single_stock(d) is None:
        raise NotSingleStock("theta_crit is defined only for single-stock distributions")
    return _theta_crit(d.arrays())


def _theta_crit(a: SimpleNamespace) -> float:
    num = 1.0 + float(np.dot(a.w, a.theta * (a.delta - 1.0)))
    return num / float(np.dot(a.w, a.delta))


def delta_eff(t: AgentType, theta_crit: float) -> float:
    """Effective risk tolerance (1 - theta/theta_crit) delta + theta/theta_crit.

    May be negative; the weight theta/theta_crit ranges over [0, inf).
    """
    x = t.theta / theta_crit
    return float((1.0 - x) * t.delta + x)


def solve_mf(d: TypeDistribution) -> MfEquilibrium:
    """Equilibrium of the mean-field game per atom of the distribution.

    On the single-stock path also fills theta_crit and delta_eff, and
    verifies beta = (mu^2 / 2 sigma^2) delta_eff (1 - delta_eff) per atom
    to within ``SINGLE_STOCK_TOL``.
    """
    a = validate_distribution(d)
    agg = _aggregates(a)
    pi = _pi_vector(a, agg.ratio)
    rho = _rho_vector(a, agg)
    denom = 1.0 + agg.avg_theta_dm1
    beta = a.theta * (a.delta - 1.0) * agg.avg_delta_rho / denom - a.delta * rho
    lam = np.exp(-a.delta * np.log(a.eps)
                 + agg.log_eps_delta * a.theta * (a.delta - 1.0) / denom)

    market = detect_single_stock(d)
    tc = None
    deff = None
    if market is not None:
        tc = _theta_crit(a)
        x = a.theta / tc
        deff = (1.0 - x) * a.delta + x
        merton_beta = market.mu**2 / (2.0 * market.sigma**2) * deff * (1.0 - deff)
        worst = float(np.max(np.abs(beta - merton_beta)))
        if worst > SINGLE_STOCK_TOL:
            raise IdentityViolation(
                f"single-stock beta mismatch {worst:.3e} exceeds {SINGLE_STOCK_TOL}"
            )
    return MfEquilibrium(pi=pi, rho=rho, beta=beta, lam=lam, aggregates=agg,
                         theta_crit=tc, delta_eff=deff)

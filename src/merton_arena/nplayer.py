"""Closed-form strong equilibrium of the game, finite and mean-field.

Every quantity here is an explicit function of the agent parameters: the
drift/volatility aggregates (phi, psi), the constant investment fractions
pi*, the per-agent rates rho, and the consumption-curve constants (beta,
lambda).  In the single-stock case the same equilibrium collapses to a
formula driven by one critical competition level theta_crit.

One formula family serves both games.  Each body is a private function of
the parameter columns ``a`` (``Population.arrays()``), the agent count
``n`` and an averaging function ``avg``: the n-agent game is `_mean`
(bitwise ``np.mean`` without its Python wrapper) at finite n, and its
mean-field limit (`mfg`) is ``math.inf`` with the atom-weighted average
``np.dot(a.w, .)``.  Only rho has a second body, the limit form in `mfg`.
The public names are thin wrappers; `solve_n` validates and builds the
columns once, and each solve evaluates the investment denominator once.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import DegenerateAggregate, IdentityViolation, NotSingleStock
from .types import (
    Population,
    SingleStockMarket,
    _shared_market,
    detect_single_stock,
    validate_population,
)

IDENTITY_TOL = 1e-10


def _mean(x: np.ndarray) -> np.float64:
    """The mean of a 1-D float64 array: bitwise ``np.mean``, without its Python wrapper."""
    return np.add.reduce(x) / len(x)


@dataclass(frozen=True)
class Aggregates:
    """Population aggregates coupling the agents' investment problems."""

    phi: float
    psi: float

    @property
    def ratio(self) -> float:
        """phi / (1 + psi), the equilibrium average of sigma_k * pi_k."""
        return self.phi / (1.0 + self.psi)


@dataclass(frozen=True)
class EquilibriumProfile:
    """Per-agent equilibrium constants plus the shared aggregates.

    ``pi`` is the constant fraction of wealth invested, ``rho`` the
    per-agent rate entering beta, and (``beta``, ``lam``) parameterize the
    consumption curve c*(t).  ``theta_crit`` is set on the single-stock
    path only.
    """

    pi: np.ndarray
    rho: np.ndarray
    beta: np.ndarray
    lam: np.ndarray
    aggregates: Aggregates
    theta_crit: float | None = None


def _gamma(a: SimpleNamespace, n: int) -> np.ndarray:
    return 1.0 / (1.0 - (1.0 - a.theta / n) * (1.0 - 1.0 / a.delta))


def gamma_n(p: Population) -> np.ndarray:
    """Exponents gamma_i = 1 / (1 - (1 - theta_i/n)(1 - 1/delta_i)).

    Always positive for valid inputs; equals delta_i when theta_i = 0 and
    equals 1 when delta_i = 1.
    """
    return _gamma(p.arrays(), p.n)


def _invest_denom(a: SimpleNamespace, n: float) -> np.ndarray:
    # At n = inf this is bitwise a.Sigma: the theta/n term is exactly +-0.
    return a.sigma**2 + a.nu**2 * (1.0 + (a.delta - 1.0) * a.theta / n)


def _aggregates(a: SimpleNamespace, denom: np.ndarray, avg: Callable) -> Aggregates:
    """(phi, psi) on the investment denominator ``_invest_denom(a, n)``."""
    phi = float(avg(a.delta * a.mu * a.sigma / denom))
    psi = float(avg(a.theta * (a.delta - 1.0) * a.sigma**2 / denom))
    if not 1.0 + psi > 0.0:
        raise DegenerateAggregate(f"1 + psi = {1.0 + psi!r} is not positive")
    return Aggregates(phi=phi, psi=psi)


def aggregates_n(p: Population) -> Aggregates:
    """Compute (phi, psi) for a finite population."""
    a = p.arrays()
    return _aggregates(a, _invest_denom(a, p.n), _mean)


def _invest(a: SimpleNamespace, denom: np.ndarray, agg: Aggregates) -> np.ndarray:
    return (a.delta * a.mu - a.theta * (a.delta - 1.0) * a.sigma * agg.ratio) / denom


def invest_n(p: Population, agg: Aggregates) -> np.ndarray:
    """Constant equilibrium investment fractions pi*.

    Values may be negative (shorting) or exceed one (leverage); the
    strategy space is all of the reals.
    """
    a = p.arrays()
    return _invest(a, _invest_denom(a, p.n), agg)


def _rho(a: SimpleNamespace, n: int, pi: np.ndarray) -> np.ndarray:
    sigma_pi = a.sigma * pi
    mu_pi = a.mu * pi
    Sigma_pi2 = a.Sigma * pi**2
    nu_pi2 = (a.nu * pi) ** 2

    # leave-one-out sums: the total less the agent's own term
    hat_sigma_pi = (np.add.reduce(sigma_pi) - sigma_pi) / n
    hat_mu_pi = (np.add.reduce(mu_pi) - mu_pi) / n
    hat_Sigma_pi2 = (np.add.reduce(Sigma_pi2) - Sigma_pi2) / n
    sum_nu_pi2 = np.add.reduce(nu_pi2) - nu_pi2

    one_m = 1.0 - 1.0 / a.delta
    keep = 1.0 - a.theta / n
    denom = 1.0 - keep * one_m
    # denom = 1/gamma_i > 0 for delta > 0, theta in [0,1], n >= 2
    if not (denom > 0.0).all():
        raise DegenerateAggregate(f"1/gamma = {float(np.min(denom))!r} <= 0")

    tilted_mu = a.mu - a.sigma * a.theta * one_m * hat_sigma_pi
    term_a = keep * tilted_mu**2 / (2.0 * a.Sigma * denom)
    term_b = 0.5 * (hat_sigma_pi**2 + sum_nu_pi2 / n**2) * a.theta**2 * one_m
    term_c = -a.theta * hat_mu_pi
    term_d = 0.5 * a.theta * hat_Sigma_pi2
    return one_m * (term_a + term_b + term_c + term_d)


def rho_n(p: Population, pi: np.ndarray) -> np.ndarray:
    """Per-agent rates rho_i evaluated at the equilibrium investments.

    Each rho_i aggregates the other agents' investments through leave-one-out
    averages; the squared idiosyncratic term carries a 1/n^2 coefficient so
    that it vanishes at the mean-field rate.  rho_i = 0 whenever delta_i = 1.
    Raises DegenerateAggregate when some 1/gamma_i <= 0, which valid inputs
    cannot produce.
    """
    return _rho(p.arrays(), p.n, np.asarray(pi, dtype=float))


def _moments(a: SimpleNamespace, rho: np.ndarray, avg: Callable) -> tuple[float, float, float]:
    """E[delta rho], E[theta (delta - 1)] and E[delta log eps], the averages beta and lambda read."""
    avg_theta_dm1 = float(avg(a.theta * (a.delta - 1.0)))
    if not 1.0 + avg_theta_dm1 > 0.0:
        raise DegenerateAggregate(
            f"1 + mean(theta (delta - 1)) = {1.0 + avg_theta_dm1!r} <= 0")
    return float(avg(a.delta * rho)), avg_theta_dm1, float(avg(a.delta * np.log(a.eps)))


def _beta(t: SimpleNamespace, rho: np.ndarray, avg_delta_rho: float,
          avg_theta_dm1: float) -> np.ndarray:
    return t.theta * (t.delta - 1.0) * avg_delta_rho / (1.0 + avg_theta_dm1) - t.delta * rho


def _lambda(t: SimpleNamespace, log_eps_delta: float, avg_theta_dm1: float) -> np.ndarray:
    # log space: the geometric mean of eps_k^delta_k enters through E[delta log eps]
    return np.exp(-t.delta * np.log(t.eps)
                  + log_eps_delta * t.theta * (t.delta - 1.0) / (1.0 + avg_theta_dm1))


def beta_lambda_n(p: Population, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Consumption constants (beta_i, lambda_i).

    beta_i mixes the population average of delta*rho with the agent's own
    rate; lambda_i is built from the geometric mean of eps_k^delta_k,
    computed in log space to avoid overflow.  beta_i = 0 whenever
    delta_i = 1, and lambda_i > 0 always.  Raises DegenerateAggregate when
    1 + mean(theta (delta - 1)) <= 0, which valid inputs cannot produce.
    """
    a = p.arrays()
    rho = np.asarray(rho, dtype=float)
    avg_delta_rho, avg_theta_dm1, log_eps_delta = _moments(a, rho, _mean)
    return (_beta(a, rho, avg_delta_rho, avg_theta_dm1),
            _lambda(a, log_eps_delta, avg_theta_dm1))


def _theta_crit(a: SimpleNamespace, avg: Callable) -> float:
    return (1.0 + float(avg(a.theta * (a.delta - 1.0)))) / float(avg(a.delta))


def _delta_eff(t: SimpleNamespace, theta_crit: float) -> np.ndarray:
    x = t.theta / theta_crit
    return (1.0 - x) * t.delta + x


def _single_stock_beta(market: SingleStockMarket, deff: np.ndarray) -> np.ndarray:
    return market.mu**2 / (2.0 * market.sigma**2) * deff * (1.0 - deff)


def _single_stock(p: Population) -> tuple[SingleStockMarket, SimpleNamespace, float]:
    """The shared market, the columns and theta_crit of a single-stock population."""
    market = detect_single_stock(p)
    if market is None:
        raise NotSingleStock("population does not share a single stock")
    a = p.arrays()
    return market, a, _theta_crit(a, _mean)


def theta_crit_n(p: Population) -> float:
    """Critical competition weight for a single-stock population."""
    return _single_stock(p)[2]


def single_stock_invest_n(p: Population) -> np.ndarray:
    """Corollary form of pi* for a shared stock: delta_eff mu / sigma^2."""
    market, a, tc = _single_stock(p)
    return _delta_eff(a, tc) * market.mu / market.sigma**2


def single_stock_beta_n(p: Population) -> np.ndarray:
    """Corollary form of beta for a shared stock: (mu^2 / 2 sigma^2) delta_eff (1 - delta_eff)."""
    market, a, tc = _single_stock(p)
    return _single_stock_beta(market, _delta_eff(a, tc))


def _identity_residual(a: SimpleNamespace, pi: np.ndarray, agg: Aggregates) -> float:
    return abs(float(_mean(a.sigma * pi)) - agg.ratio)


def identity_residual(p: Population, pi: np.ndarray, agg: Aggregates) -> float:
    """|mean(sigma_k pi_k) - phi/(1+psi)|, zero in exact arithmetic."""
    return _identity_residual(p.arrays(), pi, agg)


def _solve(a: SimpleNamespace, n: int, theta_crit: float | None = None) -> EquilibriumProfile:
    """`solve_n` on validated columns of n agents."""
    denom = _invest_denom(a, n)
    agg = _aggregates(a, denom, _mean)
    pi = _invest(a, denom, agg)
    rho = _rho(a, n, pi)
    avg_delta_rho, avg_theta_dm1, log_eps_delta = _moments(a, rho, _mean)
    beta = _beta(a, rho, avg_delta_rho, avg_theta_dm1)
    lam = _lambda(a, log_eps_delta, avg_theta_dm1)
    resid = _identity_residual(a, pi, agg)
    if not resid <= IDENTITY_TOL:
        raise IdentityViolation(f"volatility identity residual {resid:.3e}")
    return EquilibriumProfile(pi=pi, rho=rho, beta=beta, lam=lam, aggregates=agg,
                              theta_crit=theta_crit)


def solve_n(p: Population) -> EquilibriumProfile:
    """Full equilibrium for a finite population.

    Composes the aggregate, investment, rate and consumption-constant
    computations, then asserts the volatility identity
    mean(sigma pi*) = phi/(1+psi) to within ``IDENTITY_TOL``.
    """
    a = validate_population(p)
    tc = _theta_crit(a, _mean) if _shared_market(a) is not None else None
    return _solve(a, p.n, tc)

"""Equilibrium consumption curve, its time integral, and regime analytics.

The curve c(t) = [-expm1(-beta (T-t))/beta + exp(-beta (T-t))/lambda]^{-1}
is monotone on [0, T]: increasing when beta < lambda, decreasing when
beta > lambda, constant at equality, and always ends at c(T) = lambda.
Evaluation uses expm1/log1p with an explicit switch to the beta = 0 branch
for |beta (T-t)| < 1e-12; the naive form suffers catastrophic cancellation
near beta = 0.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain

_BRANCH_TOL = 1e-12
_REGIME_TOL = 1e-12


class Regime(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    CONSTANT = "constant"


@dataclass(frozen=True)
class ConsumptionPolicy:
    """The (beta, lambda, T) triple defining the consumption curve."""

    beta: float
    lam: float
    horizon: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")

    def rate(self, t):
        return consumption_rate(self, t)

    def cumulative(self, t):
        return cumulative_consumption(self, t)


def _check_domain(policy: ConsumptionPolicy, t: np.ndarray) -> None:
    if np.any(t < 0.0) or np.any(t > policy.horizon):
        raise OutOfDomain(f"t must lie in [0, {policy.horizon}]")


def _rate(beta, lam, tau):
    """c at time to go tau = T - t; broadcasts over beta, lambda and tau.

    Where |beta tau| < 1e-12 the discarded general form is evaluated at
    beta = 1, so a column with beta = 0 never divides 0 by 0.
    """
    small = np.abs(beta * tau) < _BRANCH_TOL
    b = np.where(small, 1.0, beta)
    general = 1.0 / (-np.expm1(-b * tau) / b + np.exp(-b * tau) / lam)
    return np.where(small, 1.0 / (tau + 1.0 / lam), general)


def consumption_rate(policy: ConsumptionPolicy, t):
    """Consumption rate c(t); strictly positive, with c(T) = lambda.

    Accepts scalars or arrays of times in [0, T].
    """
    t_arr = np.asarray(t, dtype=float)
    _check_domain(policy, t_arr)
    out = _rate(policy.beta, policy.lam, policy.horizon - t_arr)
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def cumulative_consumption(policy: ConsumptionPolicy, t):
    """Remaining integral of the rate, int_t^T c(s) ds; zero at t = T."""
    t_arr = np.asarray(t, dtype=float)
    _check_domain(policy, t_arr)
    tau = policy.horizon - t_arr
    beta, lam = policy.beta, policy.lam
    small = np.abs(beta * tau) < _BRANCH_TOL
    if beta == 0.0:
        out = np.log1p(lam * tau)
    else:
        out = np.where(small, np.log1p(lam * tau),
                       np.log1p(lam / beta * np.expm1(beta * tau)))
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def _regimes(beta, lam) -> np.ndarray:
    """Regime values (``Regime.value``) for columns of (beta, lambda > 0)."""
    tol = _REGIME_TOL * np.maximum(1.0, np.abs(lam))
    return np.select([beta < lam - tol, beta > lam + tol],
                     [Regime.INCREASING.value, Regime.DECREASING.value],
                     Regime.CONSTANT.value)


def classify_regime(beta: float, lam: float) -> Regime:
    """Monotonicity of c(t): the sign of lambda - beta decides it.

    A relative tolerance of 1e-12 makes the constant regime testable;
    exact equality is measure-zero.
    """
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return Regime(_regimes(beta, lam).item())


def delta_band(mu: float, sigma: float, theta: float,
               theta_crit: float) -> tuple[float, float] | None:
    """Risk-tolerance interval on which consumption decreases over time.

    Valid on the single-stock path under the standing normalization
    lambda = 1 (eps identically 1), which is the caller's responsibility.
    Returns the ordered pair (delta_minus, delta_plus), or None when
    8 sigma^2 >= mu^2 (beta < 1 then holds for every delta) or when
    theta = theta_crit (beta = 0 identically).
    """
    if 8.0 * sigma**2 >= mu**2:
        return None
    x = theta / theta_crit
    if x == 1.0:
        return None
    root = math.sqrt(1.0 - 8.0 * sigma**2 / mu**2)
    lo = 1.0 + 0.5 * (1.0 / (x - 1.0) - root / abs(x - 1.0))
    hi = 1.0 + 0.5 * (1.0 / (x - 1.0) + root / abs(x - 1.0))
    return lo, hi


@dataclass(frozen=True)
class RegimeReport:
    """Regime classification plus the single-stock band when it exists."""

    regime: Regime
    band: tuple[float, float] | None
    condition_8s2_gt_m2: bool


def regime_report(beta: float, lam: float, mu: float, sigma: float,
                  theta: float, theta_crit: float) -> RegimeReport:
    """Assemble a RegimeReport for one agent on the single-stock path."""
    return RegimeReport(
        regime=classify_regime(beta, lam),
        band=delta_band(mu, sigma, theta, theta_crit),
        condition_8s2_gt_m2=8.0 * sigma**2 > mu**2,
    )

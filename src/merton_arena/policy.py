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

from .errors import NonPositiveParameter, OutOfDomain

_BRANCH_TOL = 1e-12
_REGIME_TOL = 1e-12
# Exponents below this keep exp (and the sums it feeds) finite, with a rounding margin.
_EXP_LIMIT = math.log(np.finfo(float).max) - 1e-9


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
            raise NonPositiveParameter("horizon")

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
    beta = 1, so a column with beta = 0 never divides 0 by 0.  Where the
    general form's denominator, below e^(-beta tau) (1/|beta| + 1/lambda),
    could leave the float range (-beta tau above about 709.8), the same
    expression multiplied through by e^(beta tau) is evaluated instead:
    e^(beta tau) / (expm1(beta tau)/beta + 1/lambda), as the exponential
    of its logarithm so that a subnormal e^(beta tau) loses no digits.
    """
    small = np.abs(beta * tau) < _BRANCH_TOL
    b = np.where(small, 1.0, beta)
    x = b * tau

    def general(x, b, lam):
        return 1.0 / (-np.expm1(-x) / b + np.exp(-x) / lam)

    flip = np.maximum(np.log(1.0 / np.abs(b) + 1.0 / lam), 0.0) - x > _EXP_LIMIT
    if flip.any():
        x, b, lam_x = np.broadcast_arrays(x, b, lam)
        out = np.empty(x.shape)
        keep = ~flip
        out[keep] = general(x[keep], b[keep], lam_x[keep])
        x, b, lam_x = x[flip], b[flip], lam_x[flip]
        out[flip] = np.exp(x - np.log(np.expm1(x) / b + 1.0 / lam_x))
    else:
        out = general(x, b, lam)
    return np.where(small, 1.0 / (tau + 1.0 / lam), out)


def consumption_rate(policy: ConsumptionPolicy, t):
    """Consumption rate c(t); strictly positive, with c(T) = lambda.

    Accepts scalars or arrays of times in [0, T].
    """
    t_arr = np.asarray(t, dtype=float)
    _check_domain(policy, t_arr)
    out = _rate(policy.beta, policy.lam, policy.horizon - t_arr)
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def cumulative_consumption(policy: ConsumptionPolicy, t):
    """Remaining integral of the rate, int_t^T c(s) ds; zero at t = T.

    That is log1p((lambda/beta) expm1(x)) at x = beta (T - t).  Where its
    argument could leave the float range (beta > 0 and x + log(max(1,
    lambda/beta)) above about 709.8), the same value is evaluated in log
    space instead: x + log(lambda/beta) + log1p((beta/lambda - 1) e^(-x)).
    """
    t_arr = np.asarray(t, dtype=float)
    _check_domain(policy, t_arr)
    tau = policy.horizon - t_arr
    beta, lam = policy.beta, policy.lam
    small = np.abs(beta * tau) < _BRANCH_TOL
    if beta == 0.0:
        out = np.log1p(lam * tau)
    else:
        x = beta * tau
        flip = x + math.log(max(lam / beta, 1.0)) > _EXP_LIMIT
        out = np.where(small, np.log1p(lam * tau),
                       np.log1p(lam / beta * np.expm1(np.where(flip, 0.0, x))))
        if flip.any():  # then beta > 0, so x >= 0
            x = x[flip]
            out[flip] = x + math.log(lam / beta) + np.log1p((beta / lam - 1.0) * np.exp(-x))
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

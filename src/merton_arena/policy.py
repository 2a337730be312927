"""Equilibrium consumption curve, its time integral, and regime analytics.

The curve c(t) = [-expm1(-beta (T-t))/beta + exp(-beta (T-t))/lambda]^{-1}
is monotone on [0, T]: increasing when beta < lambda, decreasing when
beta > lambda, constant at equality, and always ends at c(T) = lambda.
Both it and its integral are evaluated by one broadcast kernel shape using
expm1/log1p with an explicit switch to the beta = 0 branch for |beta (T-t)|
< 1e-12; the naive form suffers catastrophic cancellation near beta = 0.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain
from .types import _check_horizon

_BRANCH_TOL = 1e-12
_REGIME_TOL = 1e-12
# Exponents below this keep exp (and the sums it feeds) finite, with a rounding margin.
_EXP_LIMIT = float(np.log(np.finfo(float).max)) - 1e-9


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
        _check_horizon(self.horizon)

    def rate(self, t):
        return consumption_rate(self, t)

    def cumulative(self, t):
        return cumulative_consumption(self, t)


def _branches(beta, lam, tau, general, flipped, exponent, at_zero):
    """The one shape of `_rate` and `_cumulative`; broadcasts over beta, lambda and tau.

    Gives at_zero(lambda, tau), the beta = 0 limit, where |beta tau| < 1e-12;
    else general(x, beta, lambda) at x = beta tau, or flipped(...) where
    the general form's exponent(...) passes _EXP_LIMIT.  general runs on the
    whole block; the others overwrite their own entries, the only ones where
    it can leave the float range, so only the exponent's warnings are kept.
    A block that is all at the limit gets at_zero alone, on its shape.
    A beta with |beta| max|tau| < 1e-12 is read as 1, so nothing divides by
    it.  x is a fresh array that general may overwrite, so its temporaries stay few.
    """
    x = np.empty(np.broadcast_shapes(np.shape(beta), np.shape(lam), np.shape(tau)))
    np.multiply(beta, tau, out=x)
    small = np.abs(x) < _BRANCH_TOL
    if small.all():  # a beta = 0 curve: the limit alone, with x freed first
        del x
        return at_zero(lam, np.broadcast_to(tau, small.shape))
    masked = small.any()
    b = np.where(np.abs(beta) * np.max(np.abs(tau)) < _BRANCH_TOL, 1.0, beta) if masked else beta
    flip = ~small & (exponent(x, b, lam) > _EXP_LIMIT)
    flipped_args = [np.broadcast_to(v, x.shape)[flip] for v in (x, b, lam)] if flip.any() else None
    with np.errstate(over="ignore", invalid="ignore"):
        out = general(x, b, lam)
    if flipped_args is not None:
        out[flip] = flipped(*flipped_args)
    if masked:
        at = np.flatnonzero(small)  # few entries, typically a t = T row: index them, not the mask
        out.flat[at] = at_zero(*(np.broadcast_to(v, out.shape).flat[at] for v in (lam, tau)))
    return out


def _rate(beta, lam, tau):
    """c at time to go tau = T - t (see `_branches`).

    Where the denominator, below e^(-x) (1/|beta| + 1/lambda), could leave the
    float range (-x above about 709.8), c = e^x / (expm1(x)/beta + 1/lambda),
    as the exponential of its logarithm so that a subnormal e^x loses no digits.
    """
    def general(x, b, lam):  # 1 / (-expm1(-x)/b + exp(-x)/lambda), in place on x
        np.negative(x, out=x)
        d = np.expm1(x, out=np.empty_like(x))
        np.negative(d, out=d)
        d /= b
        np.exp(x, out=x)
        x /= lam
        d += x
        return np.divide(1.0, d, out=d)

    return _branches(beta, lam, tau, general,
                     lambda x, b, lam: np.exp(x - np.log(np.expm1(x) / b + 1.0 / lam)),
                     lambda x, b, lam: np.maximum(np.log(1.0 / np.abs(b) + 1.0 / lam), 0.0) - x,
                     lambda lam, tau: 1.0 / (tau + 1.0 / lam))


def _cumulative(beta, lam, tau):
    """int_t^T c(s) ds = log1p((lambda/beta) expm1(x)) at time to go tau = T - t.

    Where its argument could leave the float range (x + log(max(1,
    lambda/beta)) above about 709.8), it is x + log(lambda/beta) +
    log1p((beta/lambda - 1) e^(-x)).
    """
    def general(x, b, lam):  # log1p(lambda/b expm1(x)), in place on x
        np.expm1(x, out=x)
        np.multiply(lam / b, x, out=x)
        return np.log1p(x, out=x)

    return _branches(beta, lam, tau, general,
                     lambda x, b, lam: x + np.log(lam / b) + np.log1p((b / lam - 1) * np.exp(-x)),
                     lambda x, b, lam: x + np.log(np.maximum(lam / b, 1.0)),
                     lambda lam, tau: np.log1p(lam * tau))


def _along(kernel, policy: ConsumptionPolicy, t):
    """kernel(beta, lambda, T - t), a float for scalar t; OutOfDomain unless all t in [0, T]."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr >= 0.0) & (t_arr <= policy.horizon)):
        raise OutOfDomain(f"t must lie in [0, {policy.horizon}]")
    out = kernel(policy.beta, policy.lam, policy.horizon - t_arr)
    return float(out) if np.ndim(t) == 0 else out


def consumption_rate(policy: ConsumptionPolicy, t):
    """Consumption rate c(t) at scalar or array t in [0, T]; positive, with c(T) = lambda."""
    return _along(_rate, policy, t)


def cumulative_consumption(policy: ConsumptionPolicy, t):
    """Remaining integral of the rate, int_t^T c(s) ds; zero at t = T."""
    return _along(_cumulative, policy, t)


def _regimes(beta, lam) -> np.ndarray:
    """Regime values (``Regime.value``) for columns of (beta, lambda > 0)."""
    tol = _REGIME_TOL * np.maximum(1.0, np.abs(lam))
    return np.select([beta < lam - tol, beta > lam + tol],
                     [Regime.INCREASING.value, Regime.DECREASING.value],
                     Regime.CONSTANT.value)


def classify_regime(beta: float, lam: float) -> Regime:
    """Monotonicity of c(t): the sign of lambda - beta decides it.

    A relative tolerance of 1e-12 makes the constant regime testable;
    exact equality is measure-zero.  ValueError unless lambda > 0 and beta
    is finite.
    """
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
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

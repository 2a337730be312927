"""Independent checks of the closed-form equilibrium.

Three routes confirm the consumption fixed point: a classical RK4
integration of the per-agent value-factor ODE (linearized by the power
substitution), which reads only the curves (`policy._rate`); its
closed-form solution, which also reads their exact integrals
(`policy._cumulative`) and sums its one other integral, the tail, by
Simpson's rule on the RK4's half-step grid; and an exponential identity
that reads only the integrals.  The check makes one pass backward over
chunks of RK4 steps, for all agents at once: each chunk evaluates the
curves and their integrals once, advances u by one affine map per step,
sums its stretch of the tail, and folds the three routes' gaps and the
residuals into per-agent running maxima, so memory is O(chunk n) at any
step count.  The residuals are gated relative to the magnitudes they
compare.  On top of that, a paired common-random-numbers Monte Carlo
scan asserts that no perturbed strategy in a (dpi, a, b) grid beats the
equilibrium, and a replication harness measures how fast the finite game
approaches its mean-field limit.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .errors import NonPositiveSolution, NonReplicableWeights, ProfitableDeviationFound
# solve_mf, solve_n and block_normals are unused here but stay attributes:
# benchmarks/tracing.py wraps verification.solve_mf, .solve_n and .block_normals.
from .mfg import _solve_mf, solve_mf  # noqa: F401
from .nplayer import IDENTITY_TOL, EquilibriumProfile, _gamma, _identity_residual, _solve, solve_n  # noqa: F401
from .policy import _cumulative, _rate
from .simulation import (
    DEFAULT_GRID,
    UtilityEstimate,
    _agent_index,
    _objective_moments,
    _out_of_range,
    _path_model,
    equilibrium_strategy,
)
from .simulation import block_normals  # noqa: F401
from .types import (Population, TypeDistribution, _agent_count, _check_agents, _check_horizon,
                    validate_distribution, validate_population)

DEFAULT_ODE_STEPS = 10_000
REPORT_POINTS = 1000  # grid points where the best response and the ODE defect are checked
REL_TOL = 1e-8  # gate on each relative fixed-point residual

_WEIGHT_INT_TOL = 1e-9


def _fields_dict(report) -> dict:
    """A report dataclass's fields by name, arrays as lists, for JSON."""
    return {f.name: np.asarray(getattr(report, f.name)).tolist() for f in fields(report)}


# ---------------------------------------------------------------------------
# Value-factor ODE oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BernoulliInputs:
    """Data of one agent's value-factor equation f' + a f + b f^(1-gamma) = 0.

    ``hat_c_minus`` and ``bar_c_minus`` are the arithmetic and geometric
    (power 1/n over the n-1 others) averages of the other agents'
    consumption, as functions of time.  The coefficients are
    a(t) = rho + theta (1 - 1/delta) hat_c_minus(t) and
    b(t) = (eps^-gamma / gamma) bar_c_minus(t)^(-gamma theta (1 - 1/delta)),
    with b > 0 everywhere.
    """

    gamma: float
    theta: float
    delta: float
    eps: float
    rho: float
    hat_c_minus: Callable
    bar_c_minus: Callable

    def a(self, t):
        return self.rho + self.theta * (1.0 - 1.0 / self.delta) * np.asarray(
            self.hat_c_minus(t), dtype=float
        )

    def b(self, t):
        bar = np.asarray(self.bar_c_minus(t), dtype=float)
        expo = -self.gamma * self.theta * (1.0 - 1.0 / self.delta)
        return math.exp(-self.gamma * math.log(self.eps)) / self.gamma * bar**expo


_RK4_CHUNK = 512  # steps the fixed-point check evaluates at once


def _check_steps(steps) -> None:
    """ValueError unless ``steps``, the ODE grid's step count, is an integer >= 2."""
    if not isinstance(steps, (int, np.integer)) or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")


def _rk4_steps(u_top, gamma, a, b, h: float) -> np.ndarray:
    """Classical RK4 for u'/gamma + a u + b = 0 over one run of k steps, for m equations.

    ``a`` and ``b`` are (2k + 1, m) arrays on the run's half-step grid,
    column j for equation j, nodes at even rows and midpoints at odd rows;
    ``u_top`` is u at the last node, and the steps of size h < 0 run back
    from it.  Each step is an affine map u_r = P_r u_(r+1) + Q_r, built for
    all equations at once and applied by one loop over steps to length-m
    rows.  Every operation is elementwise, so each column is bitwise what
    it would be alone, and runs chained through their top node are bitwise
    one run.  Returns u at the k + 1 nodes, as (k + 1, m).
    """
    if np.any(b < 0.0):
        raise ValueError("coefficient b(t) must be nonnegative")
    half, sixth = 0.5 * h, h / 6.0
    g = -gamma
    # Each stage k = g (a (u + c h k_prev) + b) is affine in u: carry its
    # slope (p) and offset (q).  Row r is the step from node r + 1
    # (coefficients a0, b0) over the midpoint (am, bm) to node r (a1, b1).
    a0, am, a1 = a[2::2], a[1::2], a[:-1:2]
    b0, bm, b1 = b[2::2], b[1::2], b[:-1:2]
    k1p, k1q = g * a0, g * b0
    k2p, k2q = g * (am * (1.0 + half * k1p)), g * (am * (half * k1q) + bm)
    k3p, k3q = g * (am * (1.0 + half * k2p)), g * (am * (half * k2q) + bm)
    k4p, k4q = g * (a1 * (1.0 + h * k3p)), g * (a1 * (h * k3q) + b1)
    P = 1.0 + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    Q = sixth * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
    u = np.empty((len(P) + 1, P.shape[1]))
    u[-1] = u_top
    for p, q, row, nxt in zip(P[::-1], Q[::-1], u[-2::-1], u[:0:-1]):
        np.multiply(p, nxt, out=row)
        row += q
    if np.any(u <= 0.0):
        raise NonPositiveSolution("linearized value factor hit a nonpositive value")
    return u


def bernoulli_oracle(inputs: BernoulliInputs, horizon: float,
                     steps: int = DEFAULT_ODE_STEPS) -> tuple[np.ndarray, np.ndarray]:
    """Solve the value-factor equation backward from f(T) = 1 by RK4.

    Integrates the linearized variable u = f^gamma, for which
    u'/gamma + a u + b = 0, with classical fourth-order Runge-Kutta on a
    uniform grid, then maps back via f = u^(1/gamma).  Returns (times, f)
    with times ascending on [0, T].  NonPositiveParameter unless
    0 < T < inf.
    """
    _check_steps(steps)
    _check_horizon(horizon)
    gamma = inputs.gamma
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    half_times = np.linspace(0.0, horizon, 2 * steps + 1)
    a = np.broadcast_to(np.asarray(inputs.a(half_times), dtype=float), half_times.shape)
    b = np.broadcast_to(np.asarray(inputs.b(half_times), dtype=float), half_times.shape)
    u = _rk4_steps(1.0, np.array([gamma]), a[:, None], b[:, None], -horizon / steps)[:, 0]
    return half_times[::2], u ** (1.0 / gamma)


# ---------------------------------------------------------------------------
# Fixed-point residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointReport:
    """Residual maxima of the consumption fixed point, per population.

    Each absolute residual has a relative twin, named with ``_rel``: the
    f gaps divided pointwise by the larger of the two value factors, the
    best-response residual systeq1 by the consumption c, and the ODE defect
    systeq2 by the sum of the magnitudes of its three terms.  The gates
    apply to the relative twins, since value factors reach 1e35, where an
    absolute 1e-8 lies far below one ulp; ``identity_residual`` involves
    no value factor and stays absolute.
    """

    systeq1_max: float
    systeq2_max: float
    identity_residual: float
    f_gap_ode_closed: np.ndarray
    f_gap_ode_exp: np.ndarray
    f_gap_closed_exp: np.ndarray
    systeq1_rel_max: float
    systeq2_rel_max: float
    f_rel_gap_ode_closed: np.ndarray
    f_rel_gap_ode_exp: np.ndarray
    f_rel_gap_closed_exp: np.ndarray

    @property
    def max_f_gap(self) -> float:
        return float(max(self.f_gap_ode_closed.max(), self.f_gap_ode_exp.max(),
                         self.f_gap_closed_exp.max()))

    @property
    def max_f_rel_gap(self) -> float:
        return float(max(self.f_rel_gap_ode_closed.max(), self.f_rel_gap_ode_exp.max(),
                         self.f_rel_gap_closed_exp.max()))

    def checks(self) -> dict[str, tuple[float, float]]:
        """Each gated maximum as (value, tolerance)."""
        return {
            "systeq1_rel_max": (self.systeq1_rel_max, REL_TOL),
            "systeq2_rel_max": (self.systeq2_rel_max, REL_TOL),
            "max_f_rel_gap": (self.max_f_rel_gap, REL_TOL),
            "identity_residual": (self.identity_residual, IDENTITY_TOL),
        }

    def passes(self) -> bool:
        return all(value <= tol for value, tol in self.checks().values())

    def as_dict(self) -> dict:
        return _fields_dict(self)


def fixed_point_check(p: Population, e: EquilibriumProfile,
                      steps: int = DEFAULT_ODE_STEPS) -> FixedPointReport:
    """Confirm that the closed-form consumption solves the coupled system.

    Builds each agent's leave-one-out consumption averages from the
    closed-form curves, obtains the value factor three independent ways,
    and reports the maxima of the best-response residual, the ODE defect of
    the exponential form, and the volatility identity over a subsampled
    grid, absolute and relative (see `FixedPointReport`).  The routes:

    - RK4 oracle: reads only the curves c_k (`_rate`);
    - closed form f^gamma = e^(gamma A) (1 + int_t^T gamma b e^(-gamma A)):
      reads `_rate` and `_cumulative`, since
      A(t) = rho tau + theta (1 - 1/delta) (sum_j C_j - C_k) / n exactly,
      and sums the tail by Simpson's rule over each RK4 step;
    - exponential identity f = exp(A + C_k (theta (1 - 1/delta) / n + 1/delta)):
      reads only `_cumulative`.

    One loop walks back from T over chunks of `_RK4_CHUNK` steps.  Each
    chunk evaluates every agent's curve and integral C_j once, on its
    stretch of the half-step grid, and builds the coefficients of
    `BernoulliInputs` from their sums over the agents: each leave-one-out
    average is the full sum minus the agent's own term.  It advances u by
    RK4 (`_rk4_steps`) and the tail by Simpson's rule from their values at
    the chunk's last node, then folds the gaps between the three value
    factors on its nodes, and the best response and ODE defect on its
    report nodes, into per-agent running maxima.  Nothing is kept per node
    across chunks, so memory is O(chunk n) whatever ``steps`` is, and the
    chunk size moves no bit of the report.
    p is validated as ``solve_n`` validates it; ValueError when ``steps``
    is no integer >= 2, e has a different agent count from p or a lambda
    is not positive.
    """
    ar = validate_population(p)
    _check_steps(steps)
    _check_agents("profile", len(e.pi), p)
    n = p.n
    T = p.horizon
    gammas = _gamma(ar, n)
    rho = np.asarray(e.rho, dtype=float)
    coef = ar.theta * (1.0 - 1.0 / ar.delta)
    b_scale = np.array([math.exp(-g * math.log(eps)) / g
                        for g, eps in zip(gammas.tolist(), ar.eps.tolist())])
    b_power = -gammas * ar.theta * (1.0 - 1.0 / ar.delta)
    log_eps = np.array([math.log(eps) for eps in ar.eps.tolist()])
    if not np.all(e.lam > 0):
        raise ValueError(f"lambda must be positive, got {e.lam[~(e.lam > 0)][0]}")

    half_times = np.linspace(0.0, T, 2 * steps + 1)
    stride = max(1, steps // REPORT_POINTS)
    tail_gain, tail_drift = -gammas * coef / n, -gammas * rho  # -gamma A, term by term
    tail_scale = gammas * (T / steps / 6.0)
    peaks = dict.fromkeys(("f_gap_ode_closed", "f_gap_ode_exp", "f_gap_closed_exp",
                           "f_rel_gap_ode_closed", "f_rel_gap_ode_exp", "f_rel_gap_closed_exp",
                           "systeq1", "systeq1_rel", "systeq2", "systeq2_rel"), 0.0)

    def fold(name, values):
        """Raise each agent's running maximum of one residual by a chunk's (rows, n) values."""
        peaks[name] = np.maximum(peaks[name], values.max(axis=0, initial=0.0))

    u_top, tail_top = np.ones(n), np.zeros(n)
    for hi in range(steps, 0, -_RK4_CHUNK):
        lo = max(hi - _RK4_CHUNK, 0)
        tau_half = T - half_times[2 * lo:2 * hi + 1, None]
        # BernoulliInputs.a and .b of every agent: each leave-one-out sum is
        # the full sum over the agents minus the agent's own term.
        c = _rate(e.beta, e.lam, tau_half)
        log_c = np.log(c)
        c_sum, log_sum = c.sum(axis=1, keepdims=True), log_c.sum(axis=1, keepdims=True)
        a = rho + coef * ((c_sum - c) / n)
        b = b_scale * np.power(np.exp((log_sum - log_c) / n), b_power)
        u = _rk4_steps(u_top, gammas, a, b, -T / steps)
        # The best response and the ODE defect are checked on the report nodes only.
        node = np.arange(lo, hi + 1)
        report = (node % stride == 0) | (node == steps)
        c, log_c, a, b_report, c_sum, log_sum = (
            x[::2][report] for x in (c, log_c, a, b, c_sum, log_sum))

        # The integrals C_j(t) = int_t^T c_j give A(t) = int_t^T a exactly:
        # A = rho tau + coef (sum_j C_j - C_k) / n.  The exponential identity
        # is f = exp int_t^T shrink, where shrink = rho + coef c_hat + c / delta
        # = a + (coef / n + 1 / delta) c.
        g = _cumulative(e.beta, e.lam, tau_half)
        total = g.sum(axis=1, keepdims=True)
        big_a = rho * tau_half[::2] + coef * ((total[::2] - g[::2]) / n)
        f_exp = np.exp(big_a + g[::2] * (coef / n + 1.0 / ar.delta))
        # Integrating-factor solution of the linearized equation:
        # u(t) = e^(gamma A(t)) (1 + int_t^T gamma b(s) e^(-gamma A(s)) ds).
        # Its tail is summed by Simpson's rule on each step's node, midpoint
        # and node, of g = b e^(-gamma A), in place on the integrals; the
        # weights carry the factor gamma.  Summed on from the tail at the
        # chunk's last node, the chunks make one sequential sum from T,
        # whatever their size.
        np.subtract(total, g, out=g)
        g *= tail_gain
        g += tail_drift * tau_half
        np.exp(g, out=g)
        g *= b
        step = g[:-1:2] + 4.0 * g[1::2]
        step += g[2::2]
        step *= tail_scale
        del g, b
        tail = np.cumsum(np.vstack((step, tail_top))[::-1], axis=0)[::-1]
        f_closed = (np.exp(gammas * big_a) * (1.0 + tail)) ** (1.0 / gammas)
        f_ode = u ** (1.0 / gammas)

        # All three value factors are positive, so the larger one is the scale.
        for name, x, y in (("ode_closed", f_ode, f_closed), ("ode_exp", f_ode, f_exp),
                           ("closed_exp", f_closed, f_exp)):
            diff = np.abs(x - y)
            fold(f"f_gap_{name}", diff)
            diff /= np.maximum(x, y)
            fold(f"f_rel_gap_{name}", diff)

        f_ode, f_exp = f_ode[report], f_exp[report]
        shrink = rho + coef * (c_sum / n) + c / ar.delta
        log_bar_minus = (log_sum - log_c) / n
        best_response = np.exp(-gammas * log_eps + b_power * log_bar_minus
                               - gammas * np.log(f_ode))
        miss = np.abs(c - best_response)
        fold("systeq1", miss)
        fold("systeq1_rel", miss / c)
        terms = (-shrink * f_exp, a * f_exp, b_report * f_exp ** (1.0 - gammas))
        defect = np.abs(terms[0] + terms[1] + terms[2])
        fold("systeq2", defect)
        fold("systeq2_rel", defect / (np.abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2])))
        u_top, tail_top = u[0], tail[0]

    resid = _identity_residual(ar, e.pi, e.aggregates)
    return FixedPointReport(systeq1_max=float(peaks.pop("systeq1").max()),
                            systeq2_max=float(peaks.pop("systeq2").max()),
                            identity_residual=resid,
                            systeq1_rel_max=float(peaks.pop("systeq1_rel").max()),
                            systeq2_rel_max=float(peaks.pop("systeq2_rel").max()), **peaks)


# ---------------------------------------------------------------------------
# Paired Monte Carlo best-response scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BestResponseCell:
    """One perturbation (dpi, a, b) with its paired difference estimate."""

    dpi: float
    a: float
    b: float
    mean_diff: float
    stderr: float

    def as_dict(self) -> dict:
        return _fields_dict(self)


@dataclass(frozen=True)
class BestResponseReport:
    """Equilibrium estimate plus the grid of paired perturbation results."""

    agent: int
    paths: int
    seed: int
    equilibrium: UtilityEstimate
    cells: tuple[BestResponseCell, ...]

    @property
    def worst(self) -> BestResponseCell:
        return max(self.cells, key=lambda c: c.mean_diff)

    def violations(self) -> list[BestResponseCell]:
        return [c for c in self.cells if c.mean_diff > 3.0 * c.stderr]

    def as_dict(self) -> dict:
        return {
            "agent": self.agent,
            "paths": self.paths,
            "seed": self.seed,
            "equilibrium_mean": self.equilibrium.mean,
            "equilibrium_stderr": self.equilibrium.stderr,
            "worst_diff": self.worst.mean_diff,
            "cells": [c.as_dict() for c in self.cells],
        }


def best_response_scan(p: Population, e: EquilibriumProfile, agents: Sequence[int],
                       dpi_grid: Sequence[float], ab_grid: Sequence[float], paths: int,
                       seed: int, grid: int = DEFAULT_GRID) -> tuple[BestResponseReport, ...]:
    """Scan unilateral deviations of each listed agent with paired CRN.

    Every other agent plays the closed-form equilibrium; the scanned agent
    plays (pi* + dpi, c*(t) e^(a + b t)) for each cell of
    dpi_grid x ab_grid^2.  The objective engine
    (`simulation._objective_moments`) evaluates every scanned agent's
    cells on each row tile of paths, with the equilibrium as both the
    wealth model and the objective's consumption; the perturbed and the
    equilibrium objective share the increments path by path, so the
    (0, 0, 0) cell differs by exactly zero.  Its work per agent does not
    grow with n.  Reports come back in the order of ``agents``, do not
    depend on which other agents are scanned alongside, and are bitwise
    the same for every thread count; a different tile size moves their
    last bits.  Each report's seed is ``operator.index(seed)``.  No
    exception is raised for a profitable deviation: check
    ``violations()``.  The population, ``grid``, ``paths`` and the
    profile's agent count are checked as ``simulate`` checks them;
    ValueError for an agent that is no integer index of p or an empty
    grid.  A finite mean has a finite standard error; an agent with any
    mean or standard error that is not finite raises DomainError once the
    tiles are done, with no warning.
    """
    _check_agents("profile", len(e.pi), p)
    f = _path_model(p, equilibrium_strategy(p, e), grid, paths)
    agents = tuple(_agent_index(i, p.n) for i in agents)
    seed = operator.index(seed)
    for name, values in (("dpi_grid", dpi_grid), ("ab_grid", ab_grid)):
        if len(values) == 0:
            raise ValueError(f"{name} is empty: the scan needs at least one cell")
    cells = [(float(dp), float(a), float(b))
             for dp in dpi_grid for a in ab_grid for b in ab_grid]
    results = _objective_moments(f, f.a, np.log(f.c_nodes), agents, cells, seed, paths)
    reports = []
    for i, ((eq_mean, eq_se), *diffs) in zip(agents, results):
        if not np.all(np.isfinite([(eq_mean, eq_se), *diffs])):
            raise _out_of_range(i)
        reports.append(BestResponseReport(
            agent=i, paths=paths, seed=seed,
            equilibrium=UtilityEstimate(mean=eq_mean, stderr=eq_se, paths=paths),
            cells=tuple(BestResponseCell(dpi=dp, a=a, b=b, mean_diff=mean, stderr=se)
                        for (dp, a, b), (mean, se) in zip(cells, diffs))))
    return tuple(reports)


def best_response_test(p: Population, e: EquilibriumProfile, i: int,
                       dpi_grid: Sequence[float], ab_grid: Sequence[float],
                       paths: int, seed: int, grid: int = DEFAULT_GRID) -> BestResponseReport:
    """Scan deviations of agent i alone (see best_response_scan).

    Raises ProfitableDeviationFound if any cell's mean paired difference
    exceeds +3 standard errors.
    """
    report = best_response_scan(p, e, (i,), dpi_grid, ab_grid, paths, seed, grid=grid)[0]
    for cell in report.violations():
        raise ProfitableDeviationFound((cell.dpi, cell.a, cell.b),
                                       cell.mean_diff, cell.stderr, report)
    return report


# ---------------------------------------------------------------------------
# Mean-field convergence by exact replication
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    """Worst-case gaps between the n-agent game and its mean-field limit."""

    n: int
    pi_gap: float
    beta_gap: float
    lambda_gap: float

    def as_dict(self) -> dict:
        return _fields_dict(self)


def _counts(d: TypeDistribution, n: int) -> list[int]:
    """Agents per atom when n agents realize the distribution's weights exactly."""
    counts = [round(w * n) for w, _ in d.atoms]
    for (w, _), c in zip(d.atoms, counts):
        if abs(w * n - c) > _WEIGHT_INT_TOL or c < 1:
            raise NonReplicableWeights(f"weight {w} cannot be realized with {n} agents")
    if sum(counts) != n:
        raise NonReplicableWeights(f"weights do not partition {n} agents")
    return counts


def replicate(d: TypeDistribution, n: int) -> Population:
    """An n-agent population realizing the distribution's weights; n is checked first."""
    agents = []
    for (_, atom), c in zip(d.atoms, _counts(d, _agent_count(n))):
        agents.extend([atom] * c)
    return Population(horizon=d.horizon, agents=tuple(agents))


def mfg_convergence(d: TypeDistribution, ns: Sequence[int]) -> list[ConvergenceRow]:
    """Gap table |x^(n) - x^MF| for x in (pi, beta, lambda) over a list of n.

    Each n must replicate the distribution weights exactly; agents are
    matched to their atoms when measuring gaps.  The n-agent game is
    solved on the atom columns repeated by their agent counts, the same
    numbers as ``solve_n(replicate(d, n))`` without building n agents.
    Each n is checked before its weights, by `types._agent_count`.
    """
    a = validate_distribution(d)
    mf = _solve_mf(a)
    rows = []
    for n in map(_agent_count, ns):
        idx = np.repeat(np.arange(len(d.atoms)), _counts(d, n))
        e = _solve(SimpleNamespace(**{k: v[idx] for k, v in vars(a).items()}), n)
        rows.append(ConvergenceRow(
            n=n,
            pi_gap=float(np.max(np.abs(e.pi - mf.pi[idx]))),
            beta_gap=float(np.max(np.abs(e.beta - mf.beta[idx]))),
            lambda_gap=float(np.max(np.abs(e.lam - mf.lam[idx]))),
        ))
    return rows

"""Independent checks of the closed-form equilibrium.

Three routes confirm the consumption fixed point: a classical RK4
integration of the per-agent value-factor ODE (linearized by the power
substitution), a quadrature evaluation of its closed-form solution, and an
exponential-integral identity that ties the factor back to the equilibrium
consumption itself.  The linearized ODE is affine in its unknown, so each
RK4 step is an affine map, built for all agents at once and applied by
one loop over steps; the residuals are then computed one agent at a
time, and gated relative to the magnitudes they compare.  On top of
that, a paired common-random-numbers Monte Carlo scan asserts that no
perturbed strategy in a (dpi, a, b) grid beats the equilibrium, and a
replication harness measures how fast the finite game approaches its
mean-field limit.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .errors import NonPositiveSolution, NonReplicableWeights, ProfitableDeviationFound, TooFewAgents
# solve_mf, solve_n and block_normals are unused here but stay attributes:
# benchmarks/tracing.py wraps verification.solve_mf, .solve_n and .block_normals.
from .mfg import _solve_mf, solve_mf  # noqa: F401
from .nplayer import IDENTITY_TOL, EquilibriumProfile, _gamma, _identity_residual, _solve, solve_n  # noqa: F401
from .policy import _rate
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
from .types import (Population, TypeDistribution, _check_agents, validate_distribution,
                    validate_population)

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


_RK4_CHUNK = 512  # steps whose coefficients are held at once


def _rk4_backward(gamma: np.ndarray, coefficients: Callable, steps: int,
                  horizon: float) -> np.ndarray:
    """Classical RK4 for u'/gamma + a u + b = 0, u(T) = 1, for m equations.

    ``coefficients(lo, hi)`` returns (a, b) on the half-step grid from node
    lo to node hi: (2 (hi - lo) + 1, m) arrays, column k for equation k,
    nodes at even rows and midpoints at odd rows.  They are asked for a
    chunk of steps at a time, so memory beyond u stays O(chunk m).  The
    chunk's steps become affine maps u_{j-1} = P_j u_j + Q_j for all
    equations at once, and one loop over steps applies them to
    length-m rows.  Every operation is elementwise, so each column is
    bitwise what it would be alone.  Returns u as (steps + 1, m).
    """
    m = len(gamma)
    h = -horizon / steps
    half, sixth = 0.5 * h, h / 6.0
    g = -np.asarray(gamma, dtype=float)
    u = np.empty((steps + 1, m))
    u[steps] = 1.0
    for hi in range(steps, 0, -_RK4_CHUNK):
        lo = max(hi - _RK4_CHUNK, 0)
        a, b = coefficients(lo, hi)
        if np.any(b < 0.0):
            raise ValueError("coefficient b(t) must be nonnegative")
        # Each stage k = g (a (u + c h k_prev) + b) is affine in u: carry its
        # slope (p) and offset (q).  Row r is the step from node lo + r + 1
        # (coefficients a0, b0) over the midpoint (am, bm) to node lo + r (a1, b1).
        a0, am, a1 = a[2::2], a[1::2], a[:-1:2]
        b0, bm, b1 = b[2::2], b[1::2], b[:-1:2]
        k1p, k1q = g * a0, g * b0
        k2p, k2q = g * (am * (1.0 + half * k1p)), g * (am * (half * k1q) + bm)
        k3p, k3q = g * (am * (1.0 + half * k2p)), g * (am * (half * k2q) + bm)
        k4p, k4q = g * (a1 * (1.0 + h * k3p)), g * (a1 * (h * k3q) + b1)
        P = 1.0 + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        Q = sixth * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        rows = u[lo:hi + 1]
        for p, q, row, nxt in zip(P[::-1], Q[::-1], rows[-2::-1], rows[:0:-1]):
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
    with times ascending on [0, T].
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    gamma = inputs.gamma
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    half_times = np.linspace(0.0, horizon, 2 * steps + 1)
    a = np.broadcast_to(np.asarray(inputs.a(half_times), dtype=float), half_times.shape)
    b = np.broadcast_to(np.asarray(inputs.b(half_times), dtype=float), half_times.shape)

    def coefficients(lo, hi):
        rows = slice(2 * lo, 2 * hi + 1)
        return a[rows, None], b[rows, None]

    u = _rk4_backward(np.array([gamma]), coefficients, steps, horizon)[:, 0]
    return half_times[::2], u ** (1.0 / gamma)


def _simpson_plan(times: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """int_t^T of sampled integrands along the last axis, via cumulative Simpson.

    Returns that function of the value arrays on one strictly increasing
    time grid of at least three points, its interval coefficients computed
    once.  The forward sums are bitwise those of scipy's
    ``cumulative_simpson`` with ``initial=0.0``: Cartwright's eq. (8) for
    unequal intervals (J. Math. Sci. Math. Educ. 12(2)), in scipy's
    formula and operation order: each even interval takes the Simpson
    integral of the triple it opens, each odd one and the last that of the
    triple it closes (scipy's flipped pass, here aligned to forward
    order).  Only the pieces kept are evaluated, on stride-2 slices of the
    values.
    """
    dx = np.diff(times)
    n = len(dx)

    def coefficients(x21, x32):
        x31 = x21 + x32
        x21_x31 = x21 / x31
        x21_x32 = x21 / x32
        x21x21_x31x32 = x21_x31 * x21_x32
        return x21 / 6, 3 - x21_x31, 3 + x21x21_x31x32 + x21_x31, -x21x21_x31x32

    # Interval i of triple (i, i+1, i+2) for even i, interval i + 1 of the
    # same triple, and the last interval, closing the last triple.
    opens = coefficients(dx[0:n - 1:2], dx[1:n:2])
    closes = coefficients(dx[1:n:2], dx[0:n - 1:2])
    last = coefficients(dx[-1], dx[-2])

    def reverse(values: np.ndarray) -> np.ndarray:
        first, mid, third = values[..., 0:n - 1:2], values[..., 1:n:2], values[..., 2:n + 1:2]
        forward = np.zeros(values.shape)
        pieces = forward[..., 1:]
        for out, (w, c1, c2, c3), (f1, f2, f3) in (
                (pieces[..., 0:n - 1:2], opens, (first, mid, third)),
                (pieces[..., 1::2], closes, (third, mid, first)),
                (pieces[..., -1], last, (values[..., -1], values[..., -2], values[..., -3]))):
            np.multiply(w, c1 * f1 + c2 * f2 + c3 * f3, out=out)
        np.cumsum(pieces, axis=-1, out=pieces)
        forward += 0.0  # as scipy adds its initial value: -0.0 becomes +0.0
        return forward[..., -1:] - forward

    return reverse


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
    closed-form curves, obtains the value factor three independent ways
    (RK4 oracle, quadrature of the closed form, exponential identity), and
    reports the maxima of the best-response residual, the ODE defect of
    the exponential form, and the volatility identity over a subsampled
    grid, absolute and relative (see `FixedPointReport`).

    The RK4 oracle asks for the coefficients of `BernoulliInputs` for all
    agents a chunk of steps at a time; all agents' curves are evaluated for
    that chunk alone, on its stretch of the half-step grid, and only their
    node rows are kept.  Each agent's leave-one-out averages are the full
    sums minus its own term, and one affine map per step advances every
    agent.  The residuals are then computed one agent at a time on its
    (steps + 1,) time series; the Simpson coefficients of the node grid
    are built once for all of them.  p is validated as ``solve_n``
    validates it; ValueError when ``steps`` < 2, e has a different agent
    count from p or a lambda is not positive.
    """
    ar = validate_population(p)
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
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

    half_times = np.linspace(0.0, T, 2 * steps + 1)
    times = half_times[::2].copy()  # bitwise np.linspace(0, T, steps + 1)
    if not np.all(e.lam > 0):
        raise ValueError(f"lambda must be positive, got {e.lam[~(e.lam > 0)][0]}")

    def coefficients(c, log_c, c_sum, log_sum, k):
        """BernoulliInputs.a and .b of agents k, whose curves are c, given the sums over all agents.

        Each leave-one-out sum is the full sum minus the agent's own term.
        The parameters indexed by k must broadcast against c.
        """
        a = rho[k] + coef[k] * ((c_sum - c) / n)
        b = b_scale[k] * np.power(np.exp((log_sum - log_c) / n), b_power[k])
        return a, b

    # Each chunk's curves are evaluated on its stretch of the half-step grid;
    # its nodes are kept agent-major, with their sums over the agents.
    c_rows = np.empty((n, steps + 1))
    c_sum = np.empty(steps + 1)
    log_c_sum = np.empty(steps + 1)

    def chunk_coefficients(lo, hi):
        c = _rate(e.beta, e.lam, T - half_times[2 * lo:2 * hi + 1, None])
        log_c = np.log(c)
        sums = c.sum(axis=1, keepdims=True), log_c.sum(axis=1, keepdims=True)
        c_rows[:, lo:hi + 1] = c[::2].T
        c_sum[lo:hi + 1], log_c_sum[lo:hi + 1] = (s[::2, 0] for s in sums)
        return coefficients(c, log_c, *sums, slice(None))

    u = _rk4_backward(gammas, chunk_coefficients, steps, T)
    chat_full = c_sum / n  # bitwise the mean over the agents
    reverse_cumulative = _simpson_plan(times)
    stride = max(1, steps // REPORT_POINTS)
    report_idx = np.unique(np.append(np.arange(0, steps + 1, stride), steps))

    gaps = {name: np.zeros(n) for name in ("f_gap_ode_closed", "f_gap_ode_exp",
                                           "f_gap_closed_exp", "f_rel_gap_ode_closed",
                                           "f_rel_gap_ode_exp", "f_rel_gap_closed_exp")}
    r1 = np.zeros(n)
    r1_rel = np.zeros(n)
    r2 = np.zeros(n)
    r2_rel = np.zeros(n)
    for k in range(n):
        gamma = gammas[k]
        c = c_rows[k]
        log_c = np.log(c)
        a_vals, b_vals = coefficients(c, log_c, c_sum, log_c_sum, k)
        f_ode = u[:, k] ** (1.0 / gamma)
        # Integrating-factor solution of the linearized equation:
        # u(t) = e^(gamma A(t)) (1 + int_t^T gamma b(s) e^(-gamma A(s)) ds),
        # A(t) = int_t^T a.  Verified against the ODE by substitution.
        weight = np.exp(gamma * reverse_cumulative(a_vals))
        tail = reverse_cumulative(gamma * b_vals / weight)
        f_closed = (weight * (1.0 + tail)) ** (1.0 / gamma)
        del weight, tail

        shrink = rho[k] + coef[k] * chat_full + c / ar.delta[k]
        f_exp = np.exp(reverse_cumulative(shrink))

        # All three value factors are positive, so the larger one is the scale.
        for name, x, y in (("ode_closed", f_ode, f_closed), ("ode_exp", f_ode, f_exp),
                           ("closed_exp", f_closed, f_exp)):
            diff = np.abs(x - y)
            gaps[f"f_gap_{name}"][k] = diff.max()
            diff /= np.maximum(x, y)
            gaps[f"f_rel_gap_{name}"][k] = diff.max()

        # The best response and the ODE defect on the report grid only.
        del x, y, diff, f_closed
        c, log_c, f_ode, f_exp, shrink, a_vals, b_vals = (
            v[report_idx] for v in (c, log_c, f_ode, f_exp, shrink, a_vals, b_vals))
        log_bar_minus = (log_c_sum[report_idx] - log_c) / n
        best_response = np.exp(-gamma * log_eps[k] + b_power[k] * log_bar_minus
                               - gamma * np.log(f_ode))
        miss = np.abs(c - best_response)
        r1[k] = miss.max()
        r1_rel[k] = (miss / c).max()
        terms = (-shrink * f_exp, a_vals * f_exp, b_vals * f_exp ** (1.0 - gamma))
        defect = np.abs(terms[0] + terms[1] + terms[2])
        r2[k] = defect.max()
        r2_rel[k] = (defect / (np.abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2]))).max()

    resid = _identity_residual(ar, e.pi, e.aggregates)
    return FixedPointReport(systeq1_max=float(r1.max()), systeq2_max=float(r2.max()),
                            identity_residual=resid,
                            systeq1_rel_max=float(r1_rel.max()),
                            systeq2_rel_max=float(r2_rel.max()), **gaps)


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
    """An n-agent population realizing the distribution's weights exactly."""
    agents = []
    for (_, atom), c in zip(d.atoms, _counts(d, n)):
        agents.extend([atom] * c)
    return Population(horizon=d.horizon, agents=tuple(agents))


def mfg_convergence(d: TypeDistribution, ns: Sequence[int]) -> list[ConvergenceRow]:
    """Gap table |x^(n) - x^MF| for x in (pi, beta, lambda) over a list of n.

    Each n must replicate the distribution weights exactly; agents are
    matched to their atoms when measuring gaps.  The n-agent game is
    solved on the atom columns repeated by their agent counts, the same
    numbers as ``solve_n(replicate(d, n))`` without building n agents.
    """
    a = validate_distribution(d)
    mf = _solve_mf(a)
    rows = []
    for n in ns:
        idx = np.repeat(np.arange(len(d.atoms)), _counts(d, n))
        if n < 2:
            raise TooFewAgents(n)
        e = _solve(SimpleNamespace(**{k: v[idx] for k, v in vars(a).items()}), n)
        rows.append(ConvergenceRow(
            n=n,
            pi_gap=float(np.max(np.abs(e.pi - mf.pi[idx]))),
            beta_gap=float(np.max(np.abs(e.beta - mf.beta[idx]))),
            lambda_gap=float(np.max(np.abs(e.lam - mf.lam[idx]))),
        ))
    return rows

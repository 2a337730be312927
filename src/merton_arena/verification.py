"""Independent checks of the closed-form equilibrium.

Three routes confirm the consumption fixed point: a classical RK4
integration of the per-agent value-factor ODE (linearized by the power
substitution), a quadrature evaluation of its closed-form solution, and an
exponential-integral identity that ties the factor back to the equilibrium
consumption itself.  On top of that, a paired common-random-numbers Monte
Carlo scan asserts that no perturbed strategy in a (dpi, a, b) grid beats
the equilibrium, and a replication harness measures how fast the finite
game approaches its mean-field limit.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import cumulative_simpson

from .errors import NonPositiveSolution, NonReplicableWeights, ProfitableDeviationFound, TooFewAgents
from .mfg import MfEquilibrium, solve_mf
# solve_n is unused here but stays an attribute: benchmarks/tracing.py wraps verification.solve_n.
from .nplayer import EquilibriumProfile, _gamma, _identity_residual, _solve, solve_n  # noqa: F401
from .policy import ConsumptionPolicy
from .simulation import (
    BLOCK_SIZE,
    COMMON_STREAM,
    UtilityEstimate,
    agent_stream,
    block_normals,
    trapezoid_weights,
    worker_count,
)
from .types import Population, TypeDistribution, validate_distribution, validate_population

DEFAULT_ODE_STEPS = 10_000
REPORT_POINTS = 1000

_WEIGHT_INT_TOL = 1e-9


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
    chunk of steps at a time, so memory beyond u stays O(chunk m).  Each
    equation runs its own float loop, so every column is bitwise what it
    would be alone.  Returns u as (steps + 1, m).
    """
    m = len(gamma)
    h = -horizon / steps
    neg_gamma = (-np.asarray(gamma, dtype=float)).tolist()
    u = np.empty((steps + 1, m))
    u[steps] = 1.0
    for hi in range(steps, 0, -_RK4_CHUNK):
        lo = max(hi - _RK4_CHUNK, 0)
        a, b = coefficients(lo, hi)
        if np.any(b < 0.0):
            raise ValueError("coefficient b(t) must be nonnegative")
        for k in range(m):
            al, bl, g = a[:, k].tolist(), b[:, k].tolist(), neg_gamma[k]
            col = u[lo:hi + 1, k].tolist()
            for j in range(hi - lo, 0, -1):
                uj, am, bm = col[j], al[2 * j - 1], bl[2 * j - 1]
                k1 = g * (al[2 * j] * uj + bl[2 * j])
                k2 = g * (am * (uj + 0.5 * h * k1) + bm)
                k3 = g * (am * (uj + 0.5 * h * k2) + bm)
                k4 = g * (al[2 * j - 2] * (uj + h * k3) + bl[2 * j - 2])
                col[j - 1] = uj + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            u[lo:hi + 1, k] = col
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


def _reverse_cumulative(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """int_t^T of a sampled integrand, via cumulative Simpson."""
    forward = cumulative_simpson(values, x=times, initial=0.0)
    return forward[-1] - forward


# ---------------------------------------------------------------------------
# Fixed-point residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointReport:
    """Residual maxima of the consumption fixed point, per population."""

    systeq1_max: float
    systeq2_max: float
    identity_residual: float
    f_gap_ode_closed: np.ndarray
    f_gap_ode_exp: np.ndarray
    f_gap_closed_exp: np.ndarray

    @property
    def max_f_gap(self) -> float:
        return float(max(self.f_gap_ode_closed.max(), self.f_gap_ode_exp.max(),
                         self.f_gap_closed_exp.max()))

    def checks(self, residual_tol: float = 1e-8, gap_tol: float = 1e-8,
               identity_tol: float = 1e-10) -> dict[str, tuple[float, float]]:
        """Each checked maximum as (value, tolerance)."""
        return {
            "systeq1_max": (self.systeq1_max, residual_tol),
            "systeq2_max": (self.systeq2_max, residual_tol),
            "max_f_gap": (self.max_f_gap, gap_tol),
            "identity_residual": (self.identity_residual, identity_tol),
        }

    def passes(self, residual_tol: float = 1e-8, gap_tol: float = 1e-8,
               identity_tol: float = 1e-10) -> bool:
        return all(value <= tol for value, tol in
                   self.checks(residual_tol, gap_tol, identity_tol).values())

    def as_dict(self) -> dict:
        return {
            "systeq1_max": self.systeq1_max,
            "systeq2_max": self.systeq2_max,
            "identity_residual": self.identity_residual,
            "f_gap_ode_closed": self.f_gap_ode_closed.tolist(),
            "f_gap_ode_exp": self.f_gap_ode_exp.tolist(),
            "f_gap_closed_exp": self.f_gap_closed_exp.tolist(),
        }


def fixed_point_check(p: Population, e: EquilibriumProfile,
                      steps: int = DEFAULT_ODE_STEPS,
                      report_points: int = REPORT_POINTS,
                      consumption_scale: float = 1.0) -> FixedPointReport:
    """Confirm that the closed-form consumption solves the coupled system.

    Builds each agent's leave-one-out consumption averages from the
    closed-form curves, obtains the value factor three independent ways
    (RK4 oracle, quadrature of the closed form, exponential identity), and
    reports the maxima of the best-response residual, the ODE defect of
    the exponential form, and the volatility identity over a subsampled
    grid.  ``consumption_scale`` multiplies every curve and exists so
    detector sensitivity can be demonstrated on non-fixed-point input.

    The curves are evaluated once on the half-step grid; each agent's
    leave-one-out averages are the full sums minus its own term, and the
    RK4 oracle takes the coefficients of `BernoulliInputs` for all agents
    a chunk of steps at a time.
    """
    ar = validate_population(p)
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    n = p.n
    T = p.horizon
    gammas = _gamma(ar, n)
    rho = np.asarray(e.rho, dtype=float)
    coef = ar.theta * (1.0 - 1.0 / ar.delta)
    b_scale = np.array([math.exp(-g * math.log(eps)) / g
                        for g, eps in zip(gammas.tolist(), ar.eps.tolist())])
    b_power = -gammas * ar.theta * (1.0 - 1.0 / ar.delta)

    # One column per agent, one row per point of the half-step grid.
    half_times = np.linspace(0.0, T, 2 * steps + 1)
    times = half_times[::2].copy()  # bitwise np.linspace(0, T, steps + 1)
    c_half = np.empty((2 * steps + 1, n))
    for k, (beta, lam) in enumerate(zip(e.beta, e.lam)):
        c_half[:, k] = consumption_scale * ConsumptionPolicy(float(beta), float(lam), T).rate(half_times)

    def coefficients(c, log_c, c_sum, log_sum, k):
        """BernoulliInputs.a and .b of agents k, whose curves are c, given the sums over all agents.

        Each leave-one-out sum is the full sum minus the agent's own term.
        """
        a = rho[k] + coef[k] * ((c_sum - c) / n)
        b = b_scale[k] * np.power(np.exp((log_sum - log_c) / n), b_power[k])
        return a, b

    def chunk_coefficients(lo, hi):
        c = c_half[2 * lo:2 * hi + 1]
        log_c = np.log(c)
        return coefficients(c, log_c, c.sum(axis=1, keepdims=True),
                            log_c.sum(axis=1, keepdims=True), slice(None))

    u = _rk4_backward(gammas, chunk_coefficients, steps, T)

    c_nodes = c_half[::2]
    c_sum = c_nodes.sum(axis=1)
    log_c_sum = np.log(c_nodes).sum(axis=1)
    chat_full = c_nodes.mean(axis=1)
    stride = max(1, steps // report_points)
    report_idx = np.unique(np.append(np.arange(0, steps + 1, stride), steps))

    r1_max = 0.0
    r2_max = 0.0
    gap_oc = np.zeros(n)
    gap_oe = np.zeros(n)
    gap_ce = np.zeros(n)
    for i in range(n):
        gamma = float(gammas[i])
        f_ode = u[:, i] ** (1.0 / gamma)
        c_i = c_nodes[:, i]
        log_c_i = np.log(c_i)
        a_vals, b_vals = coefficients(c_i, log_c_i, c_sum, log_c_sum, i)
        # Integrating-factor solution of the linearized equation:
        # u(t) = e^(gamma A(t)) (1 + int_t^T gamma b(s) e^(-gamma A(s)) ds),
        # A(t) = int_t^T a.  Verified against the ODE by substitution.
        big_a = _reverse_cumulative(a_vals, times)
        weight = np.exp(gamma * big_a)
        tail = _reverse_cumulative(gamma * b_vals / weight, times)
        f_closed = (weight * (1.0 + tail)) ** (1.0 / gamma)

        shrink = e.rho[i] + ar.theta[i] * (1.0 - 1.0 / ar.delta[i]) * chat_full \
            + c_i / ar.delta[i]
        f_exp = np.exp(_reverse_cumulative(shrink, times))

        gap_oc[i] = np.max(np.abs(f_ode - f_closed))
        gap_oe[i] = np.max(np.abs(f_ode - f_exp))
        gap_ce[i] = np.max(np.abs(f_closed - f_exp))

        log_bar_minus = (log_c_sum - log_c_i) / n
        best_response = np.exp(
            -gamma * math.log(ar.eps[i])
            - gamma * ar.theta[i] * (1.0 - 1.0 / ar.delta[i]) * log_bar_minus
            - gamma * np.log(f_ode)
        )
        r1 = np.abs(c_i - best_response)[report_idx]
        defect = np.abs(-shrink * f_exp + a_vals * f_exp
                        + b_vals * f_exp ** (1.0 - gamma))[report_idx]
        r1_max = max(r1_max, float(r1.max()))
        r2_max = max(r2_max, float(defect.max()))

    resid = _identity_residual(ar, e.pi, e.aggregates)
    return FixedPointReport(systeq1_max=r1_max, systeq2_max=r2_max,
                            identity_residual=resid,
                            f_gap_ode_closed=gap_oc, f_gap_ode_exp=gap_oe,
                            f_gap_closed_exp=gap_ce)


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
        return {"dpi": self.dpi, "a": self.a, "b": self.b,
                "mean_diff": self.mean_diff, "stderr": self.stderr}


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


@dataclass(frozen=True)
class _DeviationGroup:
    """One agent's cells that share a dpi, evaluated together on each block.

    For delta != 1 a cell's objective on a block is
    exp_path @ weights[c] + terminal[c] * exp_path[:, -1], so the group
    costs one GEMM plus a rank-1 term.  For delta = 1 the path part
    path @ w + eps * path[:, -1] is the same for every cell and
    ``terminal`` holds each cell's additive constant.
    """

    scale: float                 # own * (pi_i + dpi): weight of the agent's own noise
    weights: np.ndarray | None   # (cells, grid + 1); None at delta = 1
    terminal: np.ndarray         # (cells,)


@dataclass(frozen=True)
class _AgentScan:
    """The deterministic half of one agent's scan; path blocks supply the rest."""

    agent: int
    own_noise: tuple[tuple[int, float], ...]     # (stream, weight) terms
    others_noise: tuple[tuple[int, float], ...]
    others_scale: float                          # -theta / n
    k_pow: float | None                          # 1 - 1/delta; None at delta = 1
    eps: float
    w: np.ndarray                                # trapezoid weights
    groups: tuple[_DeviationGroup, ...]          # dpi = 0 first, (0, 0, 0) its first cell
    columns: tuple[int, ...]                     # stacked column of each reported cell


def _cum_trapezoid(values: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Trapezoid cumulative integral along the last axis, 0 at the first node."""
    out = np.zeros(values.shape)
    np.cumsum(0.5 * (values[..., :-1] + values[..., 1:]) * dt, axis=-1,
              out=out[..., 1:])
    return out


def _agent_scan(i: int, ar, pi: np.ndarray, times: np.ndarray, w: np.ndarray,
                c_eq: np.ndarray, det: np.ndarray,
                cells: list[tuple[float, float, float]]) -> _AgentScan:
    """Stack agent i's deviation cells into groups of equal dpi.

    ``det[k]`` is the deterministic part of agent k's equilibrium log
    wealth at the grid nodes.  Cell (dpi, a, b) plays pi_i + dpi and
    consumes c_i(t) e^(a + b t) against everyone else's equilibrium.
    """
    n = len(pi)
    theta, delta, eps = float(ar.theta[i]), float(ar.delta[i]), float(ar.eps[i])
    own = 1.0 - theta / n
    log_c_eq = np.log(c_eq)
    others = [k for k in range(n) if k != i]
    row_others = (log_c_eq[others] + det[others]).sum(axis=0)
    row_others_term = det[others, -1].sum()

    # Unique cells grouped by dpi; the reference (0, 0, 0) opens group 0.
    by_dpi: dict[float, list] = {}
    for cell in dict.fromkeys([(0.0, 0.0, 0.0)] + cells):
        by_dpi.setdefault(cell[0], []).append(cell)
    order = [cell for group in by_dpi.values() for cell in group]
    column = {cell: j for j, cell in enumerate(order)}

    dp, a, b = (np.array(order)[:, k:k + 1] for k in range(3))
    tilt = a + b * times
    pi_cell = pi[i] + dp
    det_cell = (math.log(ar.x0[i])
                + (pi_cell * ar.mu[i] - 0.5 * pi_cell**2 * ar.Sigma[i]) * times
                - _cum_trapezoid(c_eq[i] * np.exp(tilt), np.diff(times)))
    row_run = own * ((log_c_eq[i] + tilt) + det_cell) - (theta / n) * row_others
    row_term = own * det_cell[:, -1] - (theta / n) * row_others_term

    k_pow = 1.0 - 1.0 / delta if delta != 1.0 else None
    if k_pow is None:
        weights = None
        terminal = np.array([float(r @ w) for r in row_run]) + eps * row_term
    else:
        weights = w * np.exp(k_pow * row_run) / k_pow
        terminal = np.array([eps * math.exp(k_pow * t) / k_pow for t in row_term])
    groups = []
    lo = 0
    for dpi, group in by_dpi.items():
        hi = lo + len(group)
        groups.append(_DeviationGroup(
            scale=own * (pi[i] + dpi),
            weights=None if weights is None else weights[lo:hi],
            terminal=terminal[lo:hi]))
        lo = hi

    w_nu = pi * ar.nu
    own_noise = ((COMMON_STREAM, ar.sigma[i]),)
    if ar.nu[i] != 0.0:
        own_noise += ((agent_stream(i), ar.nu[i]),)
    others_noise = ((COMMON_STREAM, float(np.sum(pi[others] * ar.sigma[others]))),)
    others_noise += tuple((agent_stream(k), w_nu[k]) for k in others if w_nu[k] != 0.0)
    return _AgentScan(agent=i, own_noise=own_noise, others_noise=others_noise,
                      others_scale=-(theta / n), k_pow=k_pow, eps=eps, w=w,
                      groups=tuple(groups),
                      columns=tuple(column[cell] for cell in cells))


def _cumulative_noise(seed: int, stream: int, start: int, count: int,
                      sqrt_dt: np.ndarray) -> np.ndarray:
    """One stream's Brownian motion at the grid nodes for a block of paths."""
    dz = block_normals(seed, stream, start, count, len(sqrt_dt))
    dz *= sqrt_dt
    out = np.empty((count, len(sqrt_dt) + 1))
    out[:, 0] = 0.0
    np.cumsum(dz, axis=1, out=out[:, 1:])
    return out


def _weighted_sum(cum: dict, terms: tuple[tuple[int, float], ...],
                  out: np.ndarray, scratch: np.ndarray) -> None:
    """out = sum of weight * cum[stream] over terms, in order."""
    (stream, weight), *rest = terms
    np.multiply(cum[stream], weight, out=out)
    for stream, weight in rest:
        np.multiply(cum[stream], weight, out=scratch)
        out += scratch


def _scan_block(scan: _AgentScan, cum: dict, noise: np.ndarray, base: np.ndarray,
                path: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Paired sums of one block for one agent, per stacked column.

    Returns (sums, sqsums) of the differences against the reference
    column, plus the sum and square sum of the equilibrium objective.
    ``noise``, ``base`` and ``path`` are (count, grid + 1) work buffers.
    """
    _weighted_sum(cum, scan.own_noise, noise, path)
    _weighted_sum(cum, scan.others_noise, base, path)
    base *= scan.others_scale
    sums, sqsums = [], []
    j_eq = None
    for group in scan.groups:
        np.multiply(noise, group.scale, out=path)
        path += base
        if scan.k_pow is None:
            values = (path @ scan.w + scan.eps * path[:, -1]) + group.terminal[:, None]
        else:
            path *= scan.k_pow
            np.exp(path, out=path)
            values = group.weights @ path.T
            values += group.terminal[:, None] * path[:, -1]
        if j_eq is None:
            j_eq = values[0].copy()
        values -= j_eq
        sums.append(values.sum(axis=1))
        values *= values
        sqsums.append(values.sum(axis=1))
    return (np.concatenate(sums), np.concatenate(sqsums),
            float(j_eq.sum()), float((j_eq * j_eq).sum()))


def best_response_scan(p: Population, e: EquilibriumProfile, agents: Sequence[int],
                       dpi_grid: Sequence[float], ab_grid: Sequence[float],
                       paths: int, seed: int, grid: int = 1000,
                       block_size: int = BLOCK_SIZE) -> tuple[BestResponseReport, ...]:
    """Scan unilateral deviations of each listed agent with paired CRN.

    Every other agent plays the closed-form equilibrium; the scanned agent
    plays (pi* + dpi, c*(t) e^(a + b t)) for each cell of
    dpi_grid x ab_grid^2.  Each path block draws the common stream and
    every idiosyncratic stream some scanned agent needs once, and all
    agents are evaluated on those same increments; the perturbed and the
    equilibrium objective share them path by path, so the (0, 0, 0) cell
    differs by exactly zero.  Reports come back in the order of ``agents``
    and do not depend on which other agents are scanned alongside.  No
    exception is raised for a profitable deviation: check ``violations()``.
    """
    ar = validate_population(p)
    agents = tuple(int(i) for i in agents)
    for i in agents:
        if not 0 <= i < p.n:
            raise ValueError(f"agent index {i} out of range for {p.n} agents")
    times = np.linspace(0.0, p.horizon, grid + 1)
    dt = np.diff(times)
    sqrt_dt = np.sqrt(dt)
    w = trapezoid_weights(times)
    pi = np.asarray(e.pi, dtype=float)
    c_eq = np.array([ConsumptionPolicy(float(b), float(l), p.horizon).rate(times)
                     for b, l in zip(e.beta, e.lam)])
    drift = pi * ar.mu - 0.5 * pi**2 * ar.Sigma
    det = (np.log(ar.x0)[:, None] + drift[:, None] * times[None, :]
           - _cum_trapezoid(c_eq, dt))

    cells = [(float(dp), float(a), float(b))
             for dp in dpi_grid for a in ab_grid for b in ab_grid]
    scans = [_agent_scan(i, ar, pi, times, w, c_eq, det, cells) for i in agents]
    streams = sorted({stream for scan in scans
                      for stream, _ in scan.own_noise + scan.others_noise})

    def block_task(start):
        count = min(block_size, paths - start)
        cum = {s: _cumulative_noise(seed, s, start, count, sqrt_dt) for s in streams}
        noise, base, path = (np.empty((count, grid + 1)) for _ in range(3))
        return count, [_scan_block(scan, cum, noise, base, path) for scan in scans]

    starts = list(range(0, paths, block_size))
    workers = worker_count()
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(block_task, starts))
    else:
        results = [block_task(s) for s in starts]
    total = sum(count for count, _ in results)

    def mean_stderr(s, sq):
        mean = s / total
        var = max((sq - total * mean * mean) / (total - 1), 0.0) if total > 1 else 0.0
        return mean, math.sqrt(var / total)

    reports = []
    for k, scan in enumerate(scans):
        # Block results summed in block order, whatever the thread count.
        sums, sqsums, eq_sum, eq_sqsum = (
            sum(parts) for parts in zip(*(per_agent[k] for _, per_agent in results)))
        eq_mean, eq_se = mean_stderr(eq_sum, eq_sqsum)
        out_cells = []
        for cell, j in zip(cells, scan.columns):
            mean, se = mean_stderr(sums[j], sqsums[j])
            out_cells.append(BestResponseCell(dpi=cell[0], a=cell[1], b=cell[2],
                                              mean_diff=mean, stderr=se))
        reports.append(BestResponseReport(
            agent=scan.agent, paths=total, seed=seed,
            equilibrium=UtilityEstimate(mean=eq_mean, stderr=eq_se, paths=total),
            cells=tuple(out_cells)))
    return tuple(reports)


def best_response_test(p: Population, e: EquilibriumProfile, i: int,
                       dpi_grid: Sequence[float], ab_grid: Sequence[float],
                       paths: int, seed: int, grid: int = 1000,
                       block_size: int = BLOCK_SIZE) -> BestResponseReport:
    """Scan deviations of agent i alone (see best_response_scan).

    Raises ProfitableDeviationFound if any cell's mean paired difference
    exceeds +3 standard errors.
    """
    report = best_response_scan(p, e, (i,), dpi_grid, ab_grid, paths, seed,
                                grid=grid, block_size=block_size)[0]
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
        return {"n": self.n, "pi_gap": self.pi_gap, "beta_gap": self.beta_gap,
                "lambda_gap": self.lambda_gap}


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


def mfg_convergence(d: TypeDistribution, ns: Sequence[int],
                    mf: MfEquilibrium | None = None) -> list[ConvergenceRow]:
    """Gap table |x^(n) - x^MF| for x in (pi, beta, lambda) over a list of n.

    Each n must replicate the distribution weights exactly; agents are
    matched to their atoms when measuring gaps.  The n-agent game is
    solved on the atom columns repeated by their agent counts, the same
    numbers as ``solve_n(replicate(d, n))`` without building n agents.
    """
    a = validate_distribution(d)
    if mf is None:
        mf = solve_mf(d)
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

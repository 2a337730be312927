"""Exact-path Monte Carlo for the coupled wealth dynamics.

Paths are simulated in log space with exact Gaussian increments per grid
segment, so there is no SDE discretization error for the constant
investments a strategy holds; only the time integrals (consumption and
the utility integrand) use trapezoid quadrature on the grid.

Randomness comes from counter-based Philox streams: stream 0 carries the
common noise shared by every agent, stream k+1 the idiosyncratic noise of
agent k.  Each stream is keyed by (seed, stream id) and each path owns a
fixed window of the stream's counter, so draws for a given (seed, stream,
path) never depend on how paths are grouped into tiles.  Two batches run
with the same seed therefore share identical Brownian increments whatever
the strategies -- the common-random-numbers contract the verification
module's paired tests rely on.  Increments are never stored; any
path's draws can be regenerated with ``block_normals``.

One engine, `_objective_moments`, turns a path model into per-agent
objective moments: ``estimate_objective`` and the verification module's
best-response scan both run it.
"""
from __future__ import annotations

import contextvars
import math
import operator
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain
from types import SimpleNamespace
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .errors import DomainError, InvalidGrid, NonPositiveConsumption, ValidationError
from .nplayer import EquilibriumProfile
from .policy import ConsumptionPolicy
from .types import Population, validate_population

DEFAULT_GRID = 1000
DEFAULT_PATHS = 100_000
# Bytes of one (rows, grid + 1) row tile, the work unit of every Monte
# Carlo route: 64 rows at grid 1000.  No worker holds a (paths, grid + 1)
# array; only a batch's materialised `log_wealth` is that large.  On the reference trio's
# best-response scan at 20k paths x grid 1000 (125 cells, 2 worker
# threads, BLAS on one thread, a 2-core x86 VM) the scan took a median
# 1.395 s at 512 KiB, 1.409 s at 256 KiB and 1.434 s at 1 MiB (7 runs
# each), and 1.82 s at 128 KiB.  At 256 KiB a tile has 32 rows, and
# OpenBLAS's GEMM there costs 30% more per multiply-add than at 64.
TILE_BYTES = 1 << 19

COMMON_STREAM = 0

_MASK64 = (1 << 64) - 1
# Midpoint shift keeps uniform doubles strictly inside (0, 1) for ndtri.
_HALF_ULP = 2.0**-54


def worker_count() -> int:
    """Worker threads for row tiles: min(4, cores), or MERTON_ARENA_THREADS.

    ``simulate``, ``estimate_objective``, the best-response scan and
    ``cli simulate`` run their row tiles on this many threads; their
    results do not depend on it.  MERTON_ARENA_THREADS sets the count,
    also above the number of cores; values below 1 mean 1, and a value
    that is not an integer raises ValidationError, a ValueError that the
    CLI reports as invalid input.
    """
    env = os.environ.get("MERTON_ARENA_THREADS")
    if env:
        try:
            count = int(env)
        except ValueError:
            raise ValidationError(
                f"MERTON_ARENA_THREADS must be an integer, got {env!r}") from None
        return max(1, count)
    return min(4, os.cpu_count() or 1)


def agent_stream(i: int) -> int:
    """Stream id of agent i's idiosyncratic noise."""
    return i + 1


def _seed_key(seed) -> int:
    """The seed as Philox keys it: any integer modulo 2^64; TypeError for a float, str or None."""
    return operator.index(seed) & _MASK64


def block_normals(seed: int, stream: int, path_start: int, count: int,
                  draws: int) -> np.ndarray:
    """Standard normals for paths [path_start, path_start + count).

    Each path consumes a fixed, whole number of Philox counter ticks
    (``draws`` padded to a multiple of four words), so the returned rows
    are a pure function of (seed, stream, path index, draws).  Normals are
    produced by the inverse CDF of midpoint-shifted uniforms because each
    uniform double consumes exactly one counter word; rejection sampling
    would consume a variable number and break the per-path alignment.
    The normals overwrite the uniforms in place, so the result is a view
    when ``draws`` is not a multiple of four.
    """
    # Imported on the first draw: loading scipy.special takes about 0.25 s,
    # which runs that draw no normals should not pay.
    from scipy.special import ndtri

    words = 4 * ((draws + 3) // 4)
    key = np.array([_seed_key(seed), stream & _MASK64], dtype=np.uint64)
    bit_gen = Philox(key=key, counter=path_start * (words // 4))
    u = Generator(bit_gen).random((count, words))
    if words != draws:
        u = u[:, :draws]
    u += _HALF_ULP
    return ndtri(u, out=u)


def trapezoid_weights(times: np.ndarray) -> np.ndarray:
    """Quadrature weights so that integral = values @ weights."""
    d = np.diff(times)
    w = np.zeros(len(times))
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


@dataclass(frozen=True)
class StrategyProfile:
    """Admissible strategies: constant investments, nonnegative consumption.

    ``pi`` holds one constant fraction of wealth invested per agent, the
    strategy class among which the paper's equilibrium is unique; any
    other shape raises ValidationError.  ``consumption`` holds one
    callable per agent mapping times to rates; grids sample the callables
    at their nodes.
    """

    pi: np.ndarray
    consumption: tuple[Callable, ...]

    def __post_init__(self):
        object.__setattr__(self, "pi", np.atleast_1d(np.asarray(self.pi, dtype=float)))
        object.__setattr__(self, "consumption", tuple(self.consumption))
        if self.pi.ndim != 1:
            raise ValidationError(
                f"pi must hold one investment fraction per agent, got shape {self.pi.shape}")
        if not np.all(np.isfinite(self.pi)):
            raise ValidationError("investment fractions must be finite")

    @property
    def n(self) -> int:
        return self.pi.shape[0]

    def consumption_on(self, times: np.ndarray) -> np.ndarray:
        """Evaluate all consumption callables on a grid; rates must be >= 0."""
        out = np.empty((self.n, len(times)))
        for k, fn in enumerate(self.consumption):
            out[k] = np.asarray(fn(times), dtype=float)
        if not np.all(np.isfinite(out)) or np.any(out < 0.0):
            raise NonPositiveConsumption("consumption must be finite and >= 0 on the grid")
        return out

    def perturb(self, i: int, dpi: float = 0.0, a: float = 0.0,
                b: float = 0.0) -> "StrategyProfile":
        """Shift agent i's investment by dpi and tilt consumption by e^(a+bt)."""
        pi = np.array(self.pi, copy=True)
        pi[i] = pi[i] + dpi
        base = self.consumption[i]

        def tilted(t, _base=base, _a=a, _b=b):
            return _base(t) * np.exp(_a + _b * np.asarray(t, dtype=float))

        cons = list(self.consumption)
        cons[i] = tilted
        return StrategyProfile(pi=pi, consumption=tuple(cons))


def constant_strategy(pi: Sequence[float], c: Sequence[float]) -> StrategyProfile:
    """Strategy with constant investments and constant consumption rates."""
    cons = tuple(
        (lambda t, _v=float(v): np.full_like(np.asarray(t, dtype=float), _v))
        for v in c
    )
    return StrategyProfile(pi=np.asarray(pi, dtype=float), consumption=cons)


def equilibrium_strategy(p: Population, e: EquilibriumProfile) -> StrategyProfile:
    """The closed-form equilibrium as a simulatable strategy profile."""
    policies = [
        ConsumptionPolicy(float(b), float(l), p.horizon)
        for b, l in zip(e.beta, e.lam)
    ]
    return StrategyProfile(
        pi=np.array(e.pi, copy=True),
        consumption=tuple(pol.rate for pol in policies),
    )


@dataclass(frozen=True)
class SimulationBatch:
    """Seeded log-wealth paths on a grid, kept as ``simulate``'s path model and the seed.

    ``estimate_objective`` runs the objective engine on the batch's paths
    and keeps every agent's (mean, stderr), finite or not, in
    ``_estimates`` (key, n pairs): n results, whatever ``paths`` is.
    """

    times: np.ndarray           # (M+1,)
    paths: int
    seed: int
    _model: SimpleNamespace = field(repr=False, compare=False)
    _estimates: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # Always None; benchmarks/tracing.py still sizes these attributes.
    dW = None
    dB = None

    @cached_property
    def log_wealth(self) -> np.ndarray:
        """The (P, n, M+1) paths, filled tile by tile on first read, then kept read-only."""
        f = self._model
        out = np.empty((self.paths, f.pi.shape[0], len(self.times)))

        def fill(start, count, _):
            _fill_block(f, self.seed, start, out[start:start + count])

        for _ in _map_tiles(fill, self.paths, len(self.times), lambda rows: None):
            pass
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class UtilityEstimate:
    """Monte Carlo estimate of one agent's objective."""

    mean: float
    stderr: float
    paths: int


def _row_chunks(count: int, nodes: int, nbytes: int) -> range:
    """Starts of the consecutive row chunks of a (count, nodes) block.

    A chunk runs to the next start, the last one to ``count``, and holds
    about ``nbytes`` of doubles.  OpenBLAS's dgemv takes output rows in
    fours and numpy hands a single row to ddot, so chunks are multiples of
    four rows and a one-row tail joins the chunk before it: each row's
    matrix-vector product is then that of one product over the block.
    The chunks depend on nothing but the three sizes.
    """
    return range(0, max(count - 1, 1), max(4, nbytes // (8 * nodes) // 4 * 4))


def _map_tiles(fn: Callable, paths: int, nodes: int, workspace: Callable) -> Iterator:
    """Yield fn(start, count, space) for each row tile of a (paths, nodes) block, in tile order.

    The tiles are the `_row_chunks` of ``TILE_BYTES``, the one partition
    of every Monte Carlo route.  They run on ``worker_count()`` threads,
    each in a copy of the caller's context, so its ``np.errstate`` holds.
    Each worker's ``space`` is the ``workspace(rows)`` it builds on its
    first tile, rows the largest tile's.  At most two tiles per worker are
    queued or done ahead of the caller, so memory does not grow with
    ``paths``; numpy releases the interpreter lock inside a tile's passes.
    """
    starts = _row_chunks(paths, nodes, TILE_BYTES)
    rows = min(paths, starts.step + 1)  # a one-row tail joins the tile before it
    workers = min(worker_count(), len(starts))
    own = threading.local()

    def task(start, count):
        if not hasattr(own, "space"):
            own.space = workspace(rows)
        return fn(start, count, own.space)

    caller = contextvars.copy_context()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = deque()
        for start, stop in zip(starts, chain(starts[1:], [paths])):
            # one Context cannot be entered by two threads at once: a copy per tile
            ahead.append(pool.submit(caller.copy().run, task, start, stop - start))
            if len(ahead) == 2 * workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def _time_grid(horizon: float, grid: int, paths: int) -> np.ndarray:
    """The grid + 1 nodes of a Monte Carlo run on [0, horizon].

    Every Monte Carlo route checks its sizes here: InvalidGrid unless
    ``grid`` is an integer >= 2, ValueError unless ``paths`` is one >= 1.
    """
    if not isinstance(grid, (int, np.integer)) or grid < 2:
        raise InvalidGrid(f"grid must be an integer >= 2, got {grid}")
    if not isinstance(paths, (int, np.integer)) or paths < 1:
        raise ValueError(f"paths must be an integer >= 1, got {paths}")
    return np.linspace(0.0, horizon, grid + 1)


def _path_model(p: Population, s: StrategyProfile, grid: int,
                paths: int) -> SimpleNamespace:
    """Validated inputs plus the per-agent columns of every Monte Carlo route.

    ``a`` holds p's columns, ``c_nodes`` the consumption rates at the nodes
    and ``det_seg`` each segment's drift minus its trapezoid consumption integral.
    """
    ar = validate_population(p)
    times = _time_grid(p.horizon, grid, paths)
    if s.n != p.n:
        raise ValueError(f"strategy has {s.n} agents, population has {p.n}")
    dt = np.diff(times)
    c_nodes = s.consumption_on(times)
    return SimpleNamespace(a=ar, times=times, c_nodes=c_nodes, pi=s.pi.copy(),  # a snapshot
                           det_seg=_segments(s.pi, ar.mu, ar.Sigma, c_nodes, dt),
                           sqrt_dt=np.sqrt(dt), log_x0=np.log(ar.x0))


def _segments(pi: np.ndarray, mu, Sigma, c_nodes: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Each segment's drift minus its trapezoid consumption integral, a row per pi."""
    drift = (pi * mu - 0.5 * pi**2 * Sigma)[:, None] * dt
    return drift - 0.5 * (c_nodes[:, :-1] + c_nodes[:, 1:]) * dt


def _fill_block(f: SimpleNamespace, seed: int, start: int, log_wealth: np.ndarray) -> None:
    """Write the tile of paths [start, start + count) into log_wealth (count, n, grid + 1).

    The tile's common normals come first, then each agent's normals,
    which are scaled into dW and then serve as the scratch where the row
    is combined and cumulated.  Per-path counter windows make a tile's
    normals the same rows of the whole batch's, and each element sees the
    same IEEE operations as the whole-batch expression
    pi (nu dW + sigma dB) + det, cumulated and shifted by log x0, so
    results do not depend on the tiles.
    """
    count, n, _ = log_wealth.shape
    grid = len(f.sqrt_dt)
    db = block_normals(seed, COMMON_STREAM, start, count, grid)
    db *= f.sqrt_dt
    for k in range(n):
        row = log_wealth[:, k, 1:]
        z = block_normals(seed, agent_stream(k), start, count, grid)
        z *= f.sqrt_dt
        np.multiply(z, f.a.nu[k], out=row)
        np.multiply(db, f.a.sigma[k], out=z)
        z += row
        z *= f.pi[k]
        z += f.det_seg[k]
        np.cumsum(z, axis=1, out=row)
        row += f.log_x0[k]
        del z  # before the next agent's draw, so a worker holds two tiles
    log_wealth[:, :, 0] = f.log_x0


def simulate(p: Population, s: StrategyProfile, grid: int = DEFAULT_GRID,
             paths: int = DEFAULT_PATHS, seed: int = 0) -> SimulationBatch:
    """Simulate the n coupled wealth processes under strategy profile s.

    Validates every input now and returns the batch as a recipe: a
    snapshot of the path model, a few (n, grid + 1) columns that later
    changes to s do not reach, and the seed.  Reading ``log_wealth`` fills
    paths x n x (grid + 1) doubles once, read-only, on ``worker_count()``
    threads.  The paths depend on neither the thread count nor the tile size.
    """
    f = _path_model(p, s, grid, paths)
    worker_count()  # an invalid MERTON_ARENA_THREADS raises now, not at the first tile
    _seed_key(seed)  # so does a seed that keys no stream
    return SimulationBatch(times=f.times, paths=paths, seed=seed, _model=f)


def _simulate_nodes(p: Population, s: StrategyProfile, grid: int, paths: int, seed: int,
                    nodes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(times[nodes], log_wealth): ``simulate``'s batch at the nodes, paths last.

    log_wealth is (n, len(nodes), paths).  Each worker's `_map_tiles`
    workspace is one (rows, n, grid + 1) block, which `_fill_block` fills
    tile by tile, so a worker holds n + 2 tiles.
    """
    f = _path_model(p, s, grid, paths)
    log_wealth = np.empty((p.n, len(nodes), paths))

    def keep(start, count, block):
        block = block[:count]
        _fill_block(f, seed, start, block)
        log_wealth[:, :, start:start + count] = np.moveaxis(block[:, :, nodes], 0, -1)

    for _ in _map_tiles(keep, paths, len(f.times),
                        lambda rows: np.empty((rows, p.n, len(f.times)))):
        pass
    return f.times[nodes], log_wealth


def utility(x, delta: float):
    """CRRA utility x^(1 - 1/delta) / (1 - 1/delta), or log x at delta = 1.

    DomainError, with no warning, unless every x is positive and every
    value is finite.
    """
    x_arr = np.asarray(x, dtype=float)
    if not np.all(x_arr > 0.0):
        raise DomainError("utility requires strictly positive arguments")
    with np.errstate(over="ignore"):
        if delta == 1.0:
            out = np.log(x_arr)
        else:
            k = 1.0 - 1.0 / delta
            out = x_arr**k / k
    if not np.all(np.isfinite(out)):
        raise DomainError(f"utility at delta = {delta!r} leaves the float range")
    return float(out) if np.ndim(x) == 0 else out


def _pow2_scale(magnitude: float) -> float:
    """2^-e with magnitude < 2^e, or 1 for a magnitude below 1 or not finite.

    Multiplying by a power of two is exact in IEEE arithmetic (barring
    subnormals), so values scaled by it keep every bit while their squares
    stay in range.
    """
    return math.ldexp(1.0, -max(math.frexp(magnitude)[1], 0))


def _agent_index(i, n: int) -> int:
    """i as an agent index, by operator.index: ValueError unless it is an integer in [0, n)."""
    try:
        index = operator.index(i)
    except TypeError:
        index = -1
    if 0 <= index < n:
        return index
    raise ValueError(f"agent index {i!r} out of range: need an integer in [0, {n})")


def _out_of_range(i: int) -> DomainError:
    """The error for agent i's Monte Carlo objective outside the float range."""
    return DomainError(f"the objective of agent {i} leaves the float range")


@dataclass(frozen=True)
class _AgentScan:
    """The deterministic half of one agent's objective cells; path tiles supply the rest.

    On a tile, a cell's path is slope[c] * noise + base.  noise is the
    agent's own cumulated noise X_i = sigma_i B + nu_i W_i, the weighted
    sum of the streams in ``own_noise``; base is ``base_weight`` times the
    tile's population sum S = sum_k pi_k X_k, formed once for all agents.
    S holds the agent's own term, which the slope takes back out, so the
    terms per agent do not grow with n.  For delta != 1 the cell's
    objective is weights[c] @ exp(path) + terminal[c] * exp(path[-1]): the
    slopes and the base weight carry 1 - 1/delta, so a group of cells that
    share a dpi costs one exp, one GEMM and a rank-1 term.  For delta = 1
    the objective path @ w + eps * path[-1] + terminal[c] is affine in the
    slope, so two GEMVs per tile give every cell.
    """

    own_noise: tuple[tuple[int, float], ...]     # (stream, weight) terms of X_i
    base_weight: float                           # -theta / n, times 1 - 1/delta at delta != 1
    eps: float
    scale: float                                 # power of two the cell values carry
    w: np.ndarray                                # trapezoid weights
    slope: np.ndarray                            # (cells,) weight of noise in the path
    weights: np.ndarray | None                   # (cells, grid + 1); None at delta = 1
    terminal: np.ndarray                         # (cells,)
    groups: tuple[slice, ...]                    # cells of equal dpi; (0, 0, 0) is cell 0
    columns: tuple[int, ...]                     # stacked cell of each requested cell


def _node_values(log_x0, segments: np.ndarray) -> np.ndarray:
    """log x0 plus the running sum of the segments, at each grid node."""
    return log_x0 + np.cumsum(np.pad(segments, ((0, 0), (1, 0))), axis=1)


def _objective(f: SimpleNamespace, a: SimpleNamespace, log_c: np.ndarray) -> SimpleNamespace:
    """What every agent's objective reads of the population, formed once.

    a's theta, delta and eps; the (n, grid + 1) log consumption rates
    ``log_c`` the objective reads; ``det``, the deterministic part of the
    wealth model f's log wealth at the nodes; the sums over agents of
    log_c + det and of det at T; and the trapezoid weights.
    """
    det = _node_values(f.log_x0[:, None], f.det_seg)
    return SimpleNamespace(theta=a.theta, delta=a.delta, eps=a.eps, log_c=log_c, det=det,
                           run_sum=(log_c + det).sum(axis=0), term_sum=det[:, -1].sum(),
                           w=trapezoid_weights(f.times))


def _agent_scan(i: int, f: SimpleNamespace, objective: SimpleNamespace,
                cells: Sequence[tuple[float, float, float]]) -> _AgentScan:
    """Stack agent i's cells, with the reference (0, 0, 0) first, into groups of equal dpi.

    Wealth follows the path model f, except that in cell (dpi, a, b)
    agent i invests f.pi[i] + dpi and consumes f.c_nodes[i] e^(a + b t);
    the objective (see `_objective`) reads agent i's log consumption
    tilted by a + b t.  The others' deterministic sums are the population
    sums minus agent i's own term.  At delta != 1 the weights and terminal
    factors are multiplied by a power of two that brings the largest
    cell's sum of their magnitudes below 1, so the values and their
    squares stay in range; the product is exact.  A weight or terminal
    factor that overflows is left infinite: the agent's summed values are
    then not finite, which its callers report.
    """
    ar, pi, times = f.a, f.pi, f.times
    n = len(pi)
    theta = float(objective.theta[i])
    delta, eps = float(objective.delta[i]), float(objective.eps[i])
    own = 1.0 - theta / n
    log_c, det = objective.log_c, objective.det
    row_others = objective.run_sum - (log_c[i] + det[i])
    row_others_term = objective.term_sum - det[i, -1]

    # Unique cells grouped by dpi; the reference (0, 0, 0) opens group 0.
    by_dpi: dict[float, list] = {}
    for cell in dict.fromkeys([(0.0, 0.0, 0.0)] + list(cells)):
        by_dpi.setdefault(cell[0], []).append(cell)
    order = [cell for group in by_dpi.values() for cell in group]
    column = {cell: j for j, cell in enumerate(order)}

    dp, a, b = (np.array(order)[:, k:k + 1] for k in range(3))
    tilt = a + b * times
    det_cell = _node_values(f.log_x0[i], _segments(
        pi[i] + dp[:, 0], ar.mu[i], ar.Sigma[i], f.c_nodes[i] * np.exp(tilt), np.diff(times)))
    row_run = own * ((log_c[i] + tilt) + det_cell) - (theta / n) * row_others
    row_term = own * det_cell[:, -1] - (theta / n) * row_others_term
    slope = own * (pi[i] + dp[:, 0]) + (theta / n) * pi[i]
    base_weight = -(theta / n)

    w = objective.w
    scale = 1.0
    with np.errstate(over="ignore"):
        if delta == 1.0:
            weights = None
            terminal = row_run @ w + eps * row_term
        else:
            k_pow = 1.0 - 1.0 / delta
            slope *= k_pow
            base_weight *= k_pow
            weights = w * np.exp(k_pow * row_run) / k_pow
            terminal = eps * np.exp(k_pow * row_term) / k_pow
            scale = _pow2_scale(float((np.abs(weights).sum(axis=1) + np.abs(terminal)).max()))
            weights *= scale
            terminal *= scale

    own_noise = ((COMMON_STREAM, ar.sigma[i]),)
    if ar.nu[i] != 0.0:
        own_noise += ((agent_stream(i), ar.nu[i]),)
    return _AgentScan(own_noise=own_noise, base_weight=base_weight, eps=eps,
                      scale=scale, w=w, slope=slope, weights=weights, terminal=terminal,
                      groups=tuple(slice(column[g[0]], column[g[-1]] + 1) for g in by_dpi.values()),
                      columns=tuple(column[cell] for cell in cells))


def _weighted_sum(cum: dict, terms: tuple[tuple[int, float], ...],
                  out: np.ndarray, scratch: np.ndarray) -> None:
    """out = sum of weight * cum[stream] over terms, in order."""
    (stream, weight), *rest = terms
    np.multiply(cum[stream], weight, out=out)
    for stream, weight in rest:
        np.multiply(cum[stream], weight, out=scratch)
        out += scratch


def _scan_tile(scan: _AgentScan, cum: dict, total: np.ndarray, noise: np.ndarray,
               base: np.ndarray, path: np.ndarray, out: np.ndarray) -> None:
    """Write the reference objective and each cell's paired difference into out (cells, rows).

    Row 0 is the (0, 0, 0) cell's objective on each path of the tile, row
    c the c-th stacked cell's objective minus it.  ``cum`` maps each
    stream to its cumulated noise on the tile, ``total`` is the tile's
    population sum S, and ``noise``, ``base`` and ``path`` are
    (rows, grid + 1) work buffers.  At delta = 1 the differences are
    formed from the slope and terminal differences alone, so a cell with
    the reference's slope differs by one constant on every path.
    """
    _weighted_sum(cum, scan.own_noise, noise, path)
    np.multiply(total, scan.base_weight, out=base)
    if scan.weights is None:
        noise_w = noise @ scan.w + scan.eps * noise[:, -1]
        out[0] = scan.slope[0] * noise_w + (base @ scan.w + scan.eps * base[:, -1])
        out[0] += scan.terminal[0]
        np.multiply.outer(scan.slope[1:] - scan.slope[0], noise_w, out=out[1:])
        out[1:] += (scan.terminal[1:] - scan.terminal[0])[:, None]
        return
    for group in scan.groups:
        np.multiply(noise, scan.slope[group.start], out=path)
        path += base
        np.exp(path, out=path)
        np.matmul(scan.weights[group], path.T, out=out[group])
        out[group] += scan.terminal[group, None] * path[:, -1]
    out[1:] -= out[0]


def _moments(values: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, mean, M2) of each row of ``values``, M2 its sum of squared deviations.

    Two passes: the mean, then the squares of the deviations from it, so a
    row whose values are all equal has M2 = 0.  ``values`` is overwritten.
    """
    count = values.shape[1]
    mean = values.sum(axis=1) / count
    values -= mean[:, None]
    values *= values
    return count, mean, values.sum(axis=1)


def _merge(a: tuple, b: tuple) -> tuple:
    """The (count, mean, M2) of two samples joined, from those of each.

    The pairwise update of Chan, Golub & LeVeque (Amer. Statist. 37, 1983):
    no raw sum of squares is formed, so nothing cancels.
    """
    (na, mean_a, m2_a), (nb, mean_b, m2_b) = a, b
    n = na + nb
    d = mean_b - mean_a
    return n, mean_a + d * (nb / n), m2_a + m2_b + d * d * (na * nb / n)


def _objective_moments(f: SimpleNamespace, a: SimpleNamespace, log_c: np.ndarray,
                       agents: Sequence[int], cells: Sequence[tuple[float, float, float]],
                       seed: int, paths: int) -> list[list[tuple[float, float]]]:
    """(mean, stderr) of each agent's objective and of its cells' paired differences.

    The one Monte Carlo engine of the package's objective.  For each agent
    of ``agents``, in order: the objective at cell (0, 0, 0), then each
    cell (dpi, a, b) of ``cells`` minus it on the same paths.  Wealth
    follows the path model f (see `_agent_scan`); the objective reads a's
    theta, delta and eps and the log consumption rates ``log_c``.

    Each `_map_tiles` tile of paths draws every stream a term needs once,
    forms the population sum S once, and evaluates every agent's cells
    while the tile is in cache (`_scan_tile`).  Each agent's (cells, rows)
    values are reduced at once to (count, mean, M2) (`_moments`), and the
    tiles are merged by Chan's update (`_merge`) in tile order as they
    arrive.  A worker holds a cumulated tile per stream, three work tiles,
    and, once the draws are freed, the tile's S: streams + 4 tiles,
    whatever ``paths`` is.  Results are bitwise the same for every thread
    count; the GEMM bits depend on a tile's row count, so a different tile
    size moves them.  Values scaled by a power of two (see `_agent_scan`)
    keep a finite mean's standard error finite; values out of the float
    range give a mean or standard error that is not finite, with no warning.
    """
    objective = _objective(f, a, log_c)
    scans = [_agent_scan(i, f, objective, cells) for i in agents]
    w_nu = f.pi * f.a.nu
    population = ((COMMON_STREAM, float(np.sum(f.pi * f.a.sigma))),)
    population += tuple((agent_stream(k), v) for k, v in enumerate(w_nu) if v != 0.0)
    streams = sorted({stream for scan in scans for stream, _ in scan.own_noise}
                     | {stream for stream, _ in population})
    grid = len(f.sqrt_dt)
    cells_max = max((len(scan.slope) for scan in scans), default=0)

    def workspace(rows):
        """A worker's buffers: a cumulated tile per stream, three work tiles, one agent's values."""
        return ({s: np.zeros((rows, grid + 1)) for s in streams},  # column 0 stays 0
                np.empty((3, rows, grid + 1)),  # noise, base, path
                np.empty(cells_max * rows))

    def tile_task(start, count, space):
        """Each agent's (count, mean, M2) on the tile of paths [start, start + count)."""
        cum, work, values = space
        tile = {s: buffer[:count] for s, buffer in cum.items()}
        for s, buffer in tile.items():
            dz = block_normals(seed, s, start, count, grid)
            dz *= f.sqrt_dt
            np.cumsum(dz, axis=1, out=buffer[:, 1:])
            del dz  # before the next draw, so a worker holds streams + 4 tiles
        total = np.empty((count, grid + 1))  # in the place of the freed draws
        noise, base, path = work[:, :count]
        _weighted_sum(tile, population, total, path)
        moments = []
        for scan in scans:
            out = values[:len(scan.slope) * count].reshape(-1, count)
            _scan_tile(scan, tile, total, noise, base, path, out)
            moments.append(_moments(out))
        return moments

    with np.errstate(all="ignore"):  # the merges too: no warning for an agent out of range
        totals = reduce(lambda acc, part: list(map(_merge, acc, part)),
                        _map_tiles(tile_task, paths, grid + 1, workspace))

    def mean_stderr(mean, m2, scale):
        """Mean and standard error of values carrying ``scale``; Python floats never warn."""
        var = float(m2) / (paths - 1) if paths > 1 else 0.0
        return float(mean) / scale, math.sqrt(var / paths) / scale

    results = []
    for scan, (_, means, m2s) in zip(scans, totals):
        result = [mean_stderr(means[0], m2s[0], scan.scale)]
        means[0] = m2s[0] = 0.0  # the (0, 0, 0) cell's differences are exactly zero
        results.append(result + [mean_stderr(means[j], m2s[j], scan.scale)
                                 for j in scan.columns])
    return results


def estimate_objective(batch: SimulationBatch, s: StrategyProfile, i: int,
                       p: Population) -> UtilityEstimate:
    """Monte Carlo mean and standard error of agent i's objective.

    The time integral uses trapezoid quadrature on the batch grid; the
    consumption rates must be strictly positive there (DomainError
    otherwise, since the utility argument would leave its domain).
    p is validated as ``simulate`` validates it.  Raises ValueError when
    i is not an agent of p, when the batch or the strategy has a
    different agent count from p, or when the batch's grid is not p's.

    Wealth follows the batch's own strategy; the objective reads p's
    theta, delta and eps and s's consumption rates.  One run of the
    objective engine (`_objective_moments`) on ``worker_count()`` threads
    regenerates the batch's paths tile by tile, never ``log_wealth``, and
    estimates every agent at the (0, 0, 0) cell of the best-response scan;
    the batch keeps the n (mean, stderr) results, keyed by the log
    consumption rates at the nodes and theta, delta and eps, so a later
    call with equal ones only reads agent i's.  Estimates depend on
    neither the order nor the thread count, but a different tile size
    moves their last bits.  A finite mean has a finite standard error.
    Raises DomainError when agent i's objective leaves the float range
    (its mean or standard error is not finite); the other agents still
    score.
    """
    i = _agent_index(i, p.n)
    if batch._model.pi.shape[0] != p.n:
        raise ValueError(f"batch has {batch._model.pi.shape[0]} agents, population has {p.n}")
    f = _path_model(p, s, len(batch.times) - 1, batch.paths)
    if not np.array_equal(batch.times, f.times):
        raise ValueError(f"batch grid is not the {len(f.times) - 1}-step grid on [0, {p.horizon}]")
    if np.any(f.c_nodes <= 0.0):
        raise DomainError("objective needs strictly positive consumption rates")
    log_c = np.log(f.c_nodes)
    key = b"".join(x.tobytes() for x in (log_c, f.a.theta, f.a.delta, f.a.eps))
    kept = batch._estimates  # read once: another thread may replace it
    if kept is None or kept[0] != key:
        results = _objective_moments(batch._model, f.a, log_c, range(p.n), (), batch.seed,
                                     batch.paths)
        kept = (key, [result[0] for result in results])
        object.__setattr__(batch, "_estimates", kept)
    mean, stderr = kept[1][i]
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise _out_of_range(i)
    return UtilityEstimate(mean=mean, stderr=stderr, paths=batch.paths)

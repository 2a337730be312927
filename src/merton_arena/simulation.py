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
from functools import cached_property
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

    ``estimate_objective`` regenerates the paths tile by tile and keeps
    every agent's per-path objective, finite or not, in ``_scores`` (key, (n, P)).
    """

    times: np.ndarray           # (M+1,)
    paths: int
    seed: int
    _model: SimpleNamespace = field(repr=False, compare=False)
    _scores: tuple | None = field(default=None, init=False, repr=False, compare=False)
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


def _map_paths(fn: Callable[[int, np.ndarray], object], f: SimpleNamespace, seed: int,
               paths: int) -> Iterator:
    """Yield fn(start, block) for each `_map_tiles` tile, block its paths from `_fill_block`.

    Each worker's workspace is one (rows, n, grid + 1) block, which it fills tile by tile.
    """
    nodes = len(f.times)

    def tile(start, count, block):
        block = block[:count]
        _fill_block(f, seed, start, block)
        return fn(start, block)

    return _map_tiles(tile, paths, nodes, lambda rows: np.empty((rows, f.pi.shape[0], nodes)))


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

    log_wealth is (n, len(nodes), paths).  Tiles are filled by `_map_paths`
    into one reused block per worker, so a worker holds n + 2 tiles.
    """
    f = _path_model(p, s, grid, paths)
    log_wealth = np.empty((p.n, len(nodes), paths))

    def keep(start, block):
        log_wealth[:, :, start:start + len(block)] = np.moveaxis(block[:, :, nodes], 0, -1)

    for _ in _map_paths(keep, f, seed, paths):
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


def _score_block(log_wealth: np.ndarray, log_c: np.ndarray, weights: np.ndarray,
                 a: SimpleNamespace) -> np.ndarray:
    """Per-path objectives (n, count) of every agent from one tile of paths.

    Agent i's running integrand is U applied to c_i X_i times the
    population geometric mean of c_k X_k raised to -theta_i; the terminal
    term applies U to X_i(T) times the geometric mean wealth raised to
    -theta_i.  The tile's row sum of log c_k X_k is formed once in agent
    order, the order of numpy's reduction over the agent axis, and every
    agent is reduced from it, while the elementwise passes stay in cache.
    Each path's quadrature is that of one GEMV over any run of whole
    `_row_chunks` tiles.
    """
    count, n, nodes = log_wealth.shape
    s, cx, arg = (np.empty((count, nodes)) for _ in range(3))
    out = np.empty((n, count))
    np.add(log_wealth[:, 0], log_c[0], out=s)
    for j in range(1, n):
        s += np.add(log_wealth[:, j], log_c[j], out=cx)
    s /= n
    mean_xt = log_wealth[:, :, -1].mean(axis=1)
    for i in range(n):
        np.multiply(s, a.theta[i], out=arg)
        np.subtract(np.add(log_wealth[:, i], log_c[i], out=cx), arg, out=arg)
        arg_term = log_wealth[:, i, -1] - a.theta[i] * mean_xt
        if a.delta[i] == 1.0:
            out[i] = arg @ weights + a.eps[i] * arg_term
        else:
            k = 1.0 - 1.0 / a.delta[i]
            arg *= k
            out[i] = np.exp(arg, out=arg) @ weights / k + a.eps[i] * np.exp(k * arg_term) / k
    return out


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


def estimate_objective(batch: SimulationBatch, s: StrategyProfile, i: int,
                       p: Population) -> UtilityEstimate:
    """Monte Carlo mean and standard error of agent i's objective.

    The time integral uses trapezoid quadrature on the batch grid; the
    consumption rates must be strictly positive there (DomainError
    otherwise, since the utility argument would leave its domain).
    p is validated as ``simulate`` validates it.  Raises ValueError when
    i is not an agent of p, when the batch or the strategy has a
    different agent count from p, or when the batch's grid is not p's.

    One pass on ``worker_count()`` threads, with floating-point warnings
    off, regenerates the paths tile by tile, never ``log_wealth``, and
    scores every agent; the batch keeps the per-path values, keyed by the
    log consumption rates at the nodes and theta, delta and eps, so a
    later call with equal ones only reads agent i's row.  Estimates depend
    on neither the order nor the threads.  The standard error is taken on
    the values scaled by a power of two, so that their squares stay in
    range and a finite mean has a finite one.  Raises DomainError when agent
    i's objective leaves the float range (its mean or standard error is
    not finite); the other agents still score.
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
    weights = trapezoid_weights(f.times)
    key = b"".join(x.tobytes() for x in (log_c, f.a.theta, f.a.delta, f.a.eps))
    kept = batch._scores  # read once: another thread may replace it
    if kept is None or kept[0] != key:
        values = np.empty((p.n, batch.paths))

        def score(start, block):
            values[:, start:start + len(block)] = _score_block(block, log_c, weights, f.a)

        with np.errstate(all="ignore"):
            for _ in _map_paths(score, batch._model, batch.seed, batch.paths):
                pass
        kept = (key, values)
        object.__setattr__(batch, "_scores", kept)
    values = kept[1][i]
    with np.errstate(all="ignore"):
        mean = float(values.mean())
    if not math.isfinite(mean):
        raise _out_of_range(i)
    # a finite mean means finite values; their squares are taken scaled
    scale = _pow2_scale(float(np.abs(values).max()))
    stderr = (float((values * scale).std(ddof=1) / math.sqrt(batch.paths)) / scale
              if batch.paths > 1 else 0.0)
    if not math.isfinite(stderr):
        raise _out_of_range(i)
    return UtilityEstimate(mean=mean, stderr=stderr, paths=batch.paths)

"""Exact-path Monte Carlo for the coupled wealth dynamics.

Paths are simulated in log space with exact Gaussian increments per grid
segment, so there is no SDE discretization error for the constant
investments a strategy holds; only the time integrals (consumption and
the utility integrand) use trapezoid quadrature on the grid.

Randomness comes from counter-based Philox streams: stream 0 carries the
common noise shared by every agent, stream k+1 the idiosyncratic noise of
agent k.  Each stream is keyed by (seed, stream id) and each path owns a
fixed window of the stream's counter, so draws for a given (seed, stream,
path) never depend on how paths are grouped into blocks.  Two batches run
with the same seed therefore share identical Brownian increments whatever
the strategies -- the common-random-numbers contract the verification
module's paired tests rely on.  Increments are never stored; any
path's draws can be regenerated with ``block_normals``.
"""
from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .errors import DomainError, InvalidGrid, NonPositiveConsumption, ValidationError
from .nplayer import EquilibriumProfile
from .policy import ConsumptionPolicy
from .types import Population, validate_population

DEFAULT_GRID = 1000
DEFAULT_PATHS = 100_000
# Paths per work unit of every Monte Carlo route (read only by `_units`):
# two workers share 10^4 paths evenly.  Inside a unit the routes work on
# row tiles, so no worker holds a (unit, grid + 1) array (8.2 MB at grid
# 1000) except the stored batch and `_simulate_nodes`' block.
WORK_UNIT = 1024
# Rows of a path block that elementwise passes take at once: about 256 KiB.
_CHUNK_BYTES = 1 << 18

COMMON_STREAM = 0

_MASK64 = (1 << 64) - 1
# Midpoint shift keeps uniform doubles strictly inside (0, 1) for ndtri.
_HALF_ULP = 2.0**-54


def worker_count() -> int:
    """Worker threads for path blocks: min(4, cores), or MERTON_ARENA_THREADS.

    ``simulate``, ``estimate_objective``, the best-response scan and
    ``cli simulate`` run their path blocks on this many threads; their
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
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
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
    """Seeded log-wealth paths on a grid (increments are not stored).

    ``simulate`` makes ``log_wealth`` read-only: ``estimate_objective`` keeps
    every agent's per-path objective, finite or not, in ``_scores`` (key, (n, P)).
    """

    times: np.ndarray           # (M+1,)
    paths: int
    seed: int
    log_wealth: np.ndarray      # (P, n, M+1)
    _scores: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # Always None; benchmarks/tracing.py still sizes these attributes.
    dW = None
    dB = None


@dataclass(frozen=True)
class UtilityEstimate:
    """Monte Carlo estimate of one agent's objective."""

    mean: float
    stderr: float
    paths: int


def _units(paths: int) -> list[tuple[int, int]]:
    """(start, count) of the consecutive WORK_UNIT-path units of [0, paths)."""
    return [(start, min(WORK_UNIT, paths - start)) for start in range(0, paths, WORK_UNIT)]


def _row_chunks(count: int, nodes: int, nbytes: int) -> list[tuple[int, int]]:
    """(start, stop) of the consecutive row chunks of a (count, nodes) block.

    A chunk holds about ``nbytes`` of doubles.  OpenBLAS's dgemv takes
    output rows in fours and numpy hands a single row to ddot, so chunks
    are multiples of four rows and a one-row tail joins the chunk before
    it: each row's matrix-vector product is then that of one product over
    the block.  The chunks depend on nothing but the three sizes.
    """
    chunk = max(4, nbytes // (8 * nodes) // 4 * 4)
    stops = [*range(chunk, count - 1, chunk), count]
    return list(zip([0, *stops[:-1]], stops))


def _map_units(fn: Callable[[int, int], object], paths: int) -> list:
    """[fn(start, count) for each unit of [0, paths)], on worker_count() threads.

    Results come back in unit order, and each unit runs in a copy of the
    caller's context, so the caller's ``np.errstate`` holds in it.  Memory
    stays bounded per unit, and numpy releases the interpreter lock inside
    the array passes that dominate one.
    """
    units = _units(paths)
    workers = min(worker_count(), len(units))
    if workers > 1:
        # one Context cannot be entered by two threads at once: a copy per unit
        caller = contextvars.copy_context()
        starts, counts = zip(*units)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda start, count: caller.copy().run(fn, start, count),
                                 starts, counts))
    return [fn(start, count) for start, count in units]


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
    return SimpleNamespace(a=ar, times=times, c_nodes=c_nodes, pi=s.pi,
                           det_seg=_segments(s.pi, ar.mu, ar.Sigma, c_nodes, dt),
                           sqrt_dt=np.sqrt(dt), log_x0=np.log(ar.x0))


def _segments(pi: np.ndarray, mu, Sigma, c_nodes: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Each segment's drift minus its trapezoid consumption integral, a row per pi."""
    drift = (pi * mu - 0.5 * pi**2 * Sigma)[:, None] * dt
    return drift - 0.5 * (c_nodes[:, :-1] + c_nodes[:, 1:]) * dt


def _fill_block(f: SimpleNamespace, seed: int, start: int, log_wealth: np.ndarray) -> None:
    """Write paths [start, start + count) into log_wealth (count, n, grid + 1).

    The rows go one cache-sized tile at a time: the tile's common
    normals, then each agent's normals, which are scaled into dW and
    then serve as the scratch where the row is combined and cumulated.
    Per-path counter windows make a tile's normals the same rows of its
    block's, and each element sees the same IEEE operations as the
    whole-block expression pi (nu dW + sigma dB) + det, cumulated and
    shifted by log x0, so results do not depend on the block or tile
    layout.
    """
    count, n, _ = log_wealth.shape
    grid = len(f.sqrt_dt)
    tile = max(1, _CHUNK_BYTES // (8 * grid))
    for r in range(0, count, tile):
        rows = min(tile, count - r)
        db = block_normals(seed, COMMON_STREAM, start + r, rows, grid)
        db *= f.sqrt_dt
        for k in range(n):
            row = log_wealth[r:r + rows, k, 1:]
            z = block_normals(seed, agent_stream(k), start + r, rows, grid)
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

    Deterministic given the seed: the same inputs reproduce the batch
    bitwise.  Work units of ``WORK_UNIT`` paths are written in place
    into the batch on ``worker_count()`` threads; the result does not
    depend on the thread count or the unit size.  Memory is the batch,
    paths x n x (grid + 1) doubles, plus a few tile-sized arrays per
    worker.  The batch's ``log_wealth`` is read-only.
    """
    f = _path_model(p, s, grid, paths)
    log_wealth = np.empty((paths, p.n, grid + 1))

    def fill(start, count):
        _fill_block(f, seed, start, log_wealth[start:start + count])

    _map_units(fill, paths)
    log_wealth.flags.writeable = False
    return SimulationBatch(times=f.times, paths=paths, seed=seed, log_wealth=log_wealth)


def _simulate_nodes(p: Population, s: StrategyProfile, grid: int, paths: int, seed: int,
                    nodes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(times[nodes], log_wealth): ``simulate``'s batch at the nodes, paths last.

    log_wealth is (n, len(nodes), paths).  Each worker fills its units
    into one (WORK_UNIT, n, grid + 1) block of its own, not the batch.
    """
    f = _path_model(p, s, grid, paths)
    log_wealth = np.empty((p.n, len(nodes), paths))
    own = threading.local()

    def fill(start, count):
        if not hasattr(own, "block"):
            own.block = np.empty((min(WORK_UNIT, paths), p.n, grid + 1))
        _fill_block(f, seed, start, own.block[:count])
        log_wealth[:, :, start:start + count] = np.moveaxis(own.block[:count, :, nodes], 0, -1)

    _map_units(fill, paths)
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
    """Per-path objectives (n, count) of every agent from one block of paths.

    Agent i's running integrand is U applied to c_i X_i times the
    population geometric mean of c_k X_k raised to -theta_i; the terminal
    term applies U to X_i(T) times the geometric mean wealth raised to
    -theta_i.  One `_row_chunks` chunk at a time, so that the elementwise
    passes stay in cache, the row sum of log c_k X_k is formed once in
    agent order, the order of numpy's reduction over the agent axis, and
    every agent is reduced from it; each path's quadrature is that of one
    GEMV over the block.
    """
    count, n, nodes = log_wealth.shape
    chunks = _row_chunks(count, nodes, _CHUNK_BYTES)
    s, cx, arg = (np.empty((max(stop - start for start, stop in chunks), nodes))
                  for _ in range(3))
    out = np.empty((n, count))
    for start, stop in chunks:
        lw, rows = log_wealth[start:stop], stop - start
        sk, ck, ak = s[:rows], cx[:rows], arg[:rows]
        np.add(lw[:, 0], log_c[0], out=sk)
        for j in range(1, n):
            sk += np.add(lw[:, j], log_c[j], out=ck)
        sk /= n
        mean_xt = lw[:, :, -1].mean(axis=1)
        for i in range(n):
            np.multiply(sk, a.theta[i], out=ak)
            np.subtract(np.add(lw[:, i], log_c[i], out=ck), ak, out=ak)
            arg_term = lw[:, i, -1] - a.theta[i] * mean_xt
            if a.delta[i] == 1.0:
                out[i, start:stop] = ak @ weights + a.eps[i] * arg_term
            else:
                k = 1.0 - 1.0 / a.delta[i]
                ak *= k
                out[i, start:stop] = (np.exp(ak, out=ak) @ weights / k
                                      + a.eps[i] * np.exp(k * arg_term) / k)
    return out


def _pow2_scale(magnitude: float) -> float:
    """2^-e with magnitude < 2^e, or 1 for a magnitude below 1 or not finite.

    Multiplying by a power of two is exact in IEEE arithmetic (barring
    subnormals), so values scaled by it keep every bit while their squares
    stay in range.
    """
    return math.ldexp(1.0, -max(math.frexp(magnitude)[1], 0))


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
    off, scores every agent; the batch keeps the per-path values, keyed by
    the log consumption rates at the nodes and theta, delta and eps, so a
    later call with equal ones only reads agent i's row.  Estimates depend
    on neither the order nor the threads.  The standard error is taken on
    the values scaled by a power of two, so that their squares stay in
    range and a finite mean has a finite one.  Raises DomainError when agent
    i's objective leaves the float range (its mean or standard error is
    not finite); the other agents still score.
    """
    if not 0 <= i < p.n:
        raise ValueError(f"agent index {i} out of range for {p.n} agents")
    if batch.log_wealth.shape[1] != p.n:
        raise ValueError(f"batch has {batch.log_wealth.shape[1]} agents, population has {p.n}")
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

        def score(start, count):
            values[:, start:start + count] = _score_block(
                batch.log_wealth[start:start + count], log_c, weights, f.a)

        with np.errstate(all="ignore"):
            _map_units(score, batch.paths)
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

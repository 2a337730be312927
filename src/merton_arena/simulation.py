"""Exact-path Monte Carlo for the coupled wealth dynamics.

Paths are simulated in log space with exact Gaussian increments per grid
segment, so there is no SDE discretization error for piecewise-constant
investments; only the time integrals (consumption and the utility
integrand) use trapezoid quadrature on the grid.

Randomness comes from counter-based Philox streams: stream 0 carries the
common noise shared by every agent, stream k+1 the idiosyncratic noise of
agent k.  Each stream is keyed by (seed, stream id) and each path owns a
fixed window of the stream's counter, so draws for a given (seed, stream,
path) never depend on how paths are grouped into blocks.  Two batches run
with the same seed therefore share identical Brownian increments whatever
the strategies -- the common-random-numbers contract the verification
module's paired tests rely on.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .errors import DomainError, InvalidGrid, NonPositiveConsumption, ValidationError
from .nplayer import EquilibriumProfile
from .policy import ConsumptionPolicy
from .types import Population, validate_population

DEFAULT_GRID = 1000
DEFAULT_PATHS = 100_000
BLOCK_SIZE = 4096
# Rows of a path block that elementwise passes take at once: about 256 KiB.
_CHUNK_BYTES = 1 << 18

COMMON_STREAM = 0

_MASK64 = (1 << 64) - 1
# Midpoint shift keeps uniform doubles strictly inside (0, 1) for ndtri.
_HALF_ULP = 2.0**-54


def worker_count() -> int:
    """Worker threads for path blocks; MERTON_ARENA_THREADS caps it.

    ``simulate``, ``estimate_objective`` and the best-response scan run
    their path blocks on this many threads; their results do not depend
    on it.  Values below 1 mean 1; a value that is not an integer raises
    ValidationError, a ValueError that the CLI reports as invalid input.
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
    """Admissible strategies: constant-ish investments, positive consumption.

    ``pi`` is either an (n,) vector of constant fractions or an (n, M)
    array of per-segment values (piecewise constant on the grid).
    ``consumption`` holds one callable per agent mapping times to rates;
    grids sample the callables at their nodes.
    """

    pi: np.ndarray
    consumption: tuple[Callable, ...]

    def __post_init__(self):
        object.__setattr__(self, "pi", np.atleast_1d(np.asarray(self.pi, dtype=float)))
        object.__setattr__(self, "consumption", tuple(self.consumption))
        if not np.all(np.isfinite(self.pi)):
            raise ValueError("investment fractions must be finite")

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

    def investment_segments(self, m: int) -> np.ndarray:
        """Per-segment investment fractions as an (n, m) array."""
        if self.pi.ndim == 1:
            return np.repeat(self.pi[:, None], m, axis=1)
        if self.pi.shape[1] != m:
            raise InvalidGrid(
                f"strategy has {self.pi.shape[1]} investment segments, grid wants {m}"
            )
        return self.pi

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
    """Seeded log-wealth paths on a grid, plus the driving increments."""

    times: np.ndarray           # (M+1,)
    paths: int
    seed: int
    log_wealth: np.ndarray      # (P, n, M+1)
    dW: np.ndarray | None       # (P, n, M) idiosyncratic increments
    dB: np.ndarray | None       # (P, M) common increments

    @property
    def grid_size(self) -> int:
        return len(self.times) - 1


@dataclass(frozen=True)
class UtilityEstimate:
    """Monte Carlo estimate of one agent's objective."""

    mean: float
    stderr: float
    paths: int


def _deterministic_segments(ar: SimpleNamespace, s: StrategyProfile,
                            times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-agent, per-segment drift minus consumption integral, plus pi."""
    m = len(times) - 1
    dt = np.diff(times)
    pi_seg = s.investment_segments(m)
    c_nodes = s.consumption_on(times)
    c_int = 0.5 * (c_nodes[:, :-1] + c_nodes[:, 1:]) * dt
    drift = (pi_seg * ar.mu[:, None] - 0.5 * pi_seg**2 * ar.Sigma[:, None]) * dt
    return drift - c_int, pi_seg


def _map_blocks(fn: Callable, items: Sequence) -> list:
    """[fn(item) for item in items], on worker_count() threads when that helps.

    Results come back in item order.  Each item is a whole path block, so
    memory stays bounded per task, and numpy releases the interpreter lock
    inside the array passes that dominate a block.
    """
    workers = worker_count()
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _path_model(p: Population, s: StrategyProfile, grid: int,
                paths: int) -> SimpleNamespace:
    """Validated inputs plus the per-agent columns a path block needs."""
    ar = validate_population(p)
    if not isinstance(grid, (int, np.integer)) or grid < 2:
        raise InvalidGrid(f"grid must be an integer >= 2, got {grid}")
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    if s.n != p.n:
        raise ValueError(f"strategy has {s.n} agents, population has {p.n}")
    times = np.linspace(0.0, p.horizon, grid + 1)
    det_seg, pi_seg = _deterministic_segments(ar, s, times)
    return SimpleNamespace(times=times, det_seg=det_seg, pi_seg=pi_seg,
                           sqrt_dt=np.sqrt(np.diff(times)), log_x0=np.log(ar.x0),
                           nu=ar.nu, sigma=ar.sigma)


def _fill_block(f: SimpleNamespace, seed: int, start: int, log_wealth: np.ndarray,
                dW: np.ndarray | None, dB: np.ndarray | None) -> None:
    """Write paths [start, start + count) into log_wealth (count, n, grid + 1).

    ``dW`` (count, n, grid) and ``dB`` (count, grid) receive the increments
    when given.  Agents are filled one at a time, a few rows per pass, so
    the only scratch is one stream's normals, the common increments when
    they are not kept, and one row chunk.  Each element sees the same IEEE
    operations as the whole-block expression pi (nu dW + sigma dB) + det,
    cumulated and shifted by log x0, so results do not depend on the
    block layout.
    """
    count, n, _ = log_wealth.shape
    grid = len(f.sqrt_dt)
    z = block_normals(seed, COMMON_STREAM, start, count, grid)
    db = np.multiply(z, f.sqrt_dt, out=z if dB is None else dB)
    chunk = max(1, _CHUNK_BYTES // (8 * grid))
    scratch = np.empty((min(chunk, count), grid))
    for k in range(n):
        z = block_normals(seed, agent_stream(k), start, count, grid)
        dw = z if dW is None else dW[:, k]
        for r in range(0, count, chunk):
            rows = slice(r, r + chunk)
            w, row, inc = dw[rows], log_wealth[rows, k, 1:], scratch[:count - r]
            np.multiply(z[rows], f.sqrt_dt, out=w)
            np.multiply(w, f.nu[k], out=row)
            np.multiply(db[rows], f.sigma[k], out=inc)
            inc += row
            inc *= f.pi_seg[k]
            inc += f.det_seg[k]
            np.cumsum(inc, axis=1, out=row)
            row += f.log_x0[k]
        log_wealth[:, k, 0] = f.log_x0[k]


def iter_path_blocks(p: Population, s: StrategyProfile, grid: int, paths: int,
                     seed: int,
                     block_size: int = BLOCK_SIZE) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (start, log_wealth, dW, dB) for consecutive path blocks.

    Blocks partition [0, paths); identical inputs give identical blocks
    regardless of block size thanks to the per-path counter windows, and
    each block equals the same rows of ``simulate``'s batch.
    """
    f = _path_model(p, s, grid, paths)

    def blocks():
        for start in range(0, paths, block_size):
            count = min(block_size, paths - start)
            log_wealth = np.empty((count, p.n, grid + 1))
            dW = np.empty((count, p.n, grid))
            dB = np.empty((count, grid))
            _fill_block(f, seed, start, log_wealth, dW, dB)
            yield start, log_wealth, dW, dB

    return blocks()


def simulate(p: Population, s: StrategyProfile, grid: int = DEFAULT_GRID,
             paths: int = DEFAULT_PATHS, seed: int = 0,
             keep_increments: bool = True,
             block_size: int = BLOCK_SIZE) -> SimulationBatch:
    """Simulate the n coupled wealth processes under strategy profile s.

    Deterministic given the seed: the same inputs reproduce the batch
    bitwise.  Path blocks are written in place into the batch on
    ``worker_count()`` threads; the result does not depend on the thread
    count or the block size.  Increments can be dropped to halve memory
    for large runs; beyond the batch, each worker holds a few
    (block_size, grid) arrays.
    """
    f = _path_model(p, s, grid, paths)
    log_wealth = np.empty((paths, p.n, grid + 1))
    dW = np.empty((paths, p.n, grid)) if keep_increments else None
    dB = np.empty((paths, grid)) if keep_increments else None

    def fill(start):
        rows = slice(start, min(start + block_size, paths))
        _fill_block(f, seed, start, log_wealth[rows],
                    None if dW is None else dW[rows], None if dB is None else dB[rows])

    _map_blocks(fill, range(0, paths, block_size))
    return SimulationBatch(times=f.times, paths=paths, seed=seed,
                           log_wealth=log_wealth, dW=dW, dB=dB)


def utility(x, delta: float):
    """CRRA utility x^(1 - 1/delta) / (1 - 1/delta), or log x at delta = 1."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0):
        raise DomainError("utility requires strictly positive arguments")
    if delta == 1.0:
        out = np.log(x_arr)
    else:
        k = 1.0 - 1.0 / delta
        out = x_arr**k / k
    return float(out) if np.ndim(x) == 0 else out


def _objective_paths(log_wealth: np.ndarray, log_c: np.ndarray, weights: np.ndarray,
                     i: int, theta: float, delta: float, eps: float) -> np.ndarray:
    """Per-path objective of agent i from log-wealth paths and log-rates.

    The running integrand is U applied to c_i X_i times the population
    geometric mean of c_k X_k raised to -theta; the terminal term applies
    U to X_i(T) times the geometric mean wealth raised to -theta.  The
    geometric mean is a running row sum over agents in agent order, the
    order of numpy's reduction over the agent axis, taken a few rows at a
    time so that the elementwise passes stay in cache; only the quadrature
    runs on the whole block.
    """
    count, n, nodes = log_wealth.shape
    k = None if delta == 1.0 else 1.0 - 1.0 / delta
    chunk = max(1, _CHUNK_BYTES // (8 * nodes))
    arg_run = np.empty((count, nodes))
    log_cx = np.empty((min(chunk, count), nodes))
    for r in range(0, count, chunk):
        rows = slice(r, r + chunk)
        lw, arg, cx = log_wealth[rows], arg_run[rows], log_cx[:count - r]
        np.add(lw[:, 0], log_c[0], out=arg)
        for j in range(1, n):
            arg += np.add(lw[:, j], log_c[j], out=cx)
        arg /= n
        arg *= theta
        np.subtract(np.add(lw[:, i], log_c[i], out=cx), arg, out=arg)
        if k is not None:
            arg *= k
            np.exp(arg, out=arg)
    mean_xt = log_wealth[:, :, -1].mean(axis=1)
    arg_term = log_wealth[:, i, -1] - theta * mean_xt
    if k is None:
        running = arg_run @ weights
        terminal = eps * arg_term
    else:
        running = arg_run @ weights / k
        terminal = eps * np.exp(k * arg_term) / k
    return running + terminal


def estimate_objective(batch: SimulationBatch, s: StrategyProfile, i: int,
                       p: Population) -> UtilityEstimate:
    """Monte Carlo mean and standard error of agent i's objective.

    The time integral uses trapezoid quadrature on the batch grid; the
    consumption rates must be strictly positive there (DomainError
    otherwise, since the utility argument would leave its domain).
    Path blocks are reduced on ``worker_count()`` threads; the estimate
    does not depend on the thread count.
    Raises ValueError when i is not an agent of p, or when the batch or
    the strategy has a different agent count from p.
    """
    if not 0 <= i < p.n:
        raise ValueError(f"agent index {i} out of range for {p.n} agents")
    for name, count in (("batch", batch.log_wealth.shape[1]), ("strategy", s.n)):
        if count != p.n:
            raise ValueError(f"{name} has {count} agents, population has {p.n}")
    ar = p.arrays()
    c_nodes = s.consumption_on(batch.times)
    if np.any(c_nodes <= 0.0):
        raise DomainError("objective needs strictly positive consumption rates")
    log_c = np.log(c_nodes)
    weights = trapezoid_weights(batch.times)
    theta = float(ar.theta[i])
    delta = float(ar.delta[i])
    eps = float(ar.eps[i])

    values = np.empty(batch.paths)

    def reduce(start):
        rows = slice(start, min(start + BLOCK_SIZE, batch.paths))
        values[rows] = _objective_paths(batch.log_wealth[rows], log_c, weights,
                                        i, theta, delta, eps)

    _map_blocks(reduce, range(0, batch.paths, BLOCK_SIZE))
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(batch.paths)) if batch.paths > 1 else 0.0
    return UtilityEstimate(mean=mean, stderr=stderr, paths=batch.paths)

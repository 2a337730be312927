"""Shared fixtures and random-input generators for the test suite."""
import hashlib
import math
import os

# One BLAS thread, as benchmarks/run.py pins it, so that BLAS's own threads
# do not oversubscribe the Monte Carlo worker threads.  This has to run
# before numpy loads its BLAS; an explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from merton_arena import AgentType, Population, TypeDistribution
from merton_arena.simulation import trapezoid_weights


@pytest.fixture
def ref_n2() -> Population:
    """Two identical competitive agents; every constant is a small rational."""
    agent = AgentType(x0=1.0, delta=3.0, theta=0.8, eps=1.0, mu=5.0, nu=0.0, sigma=1.0)
    return Population(horizon=1.0, agents=(agent, agent))


@pytest.fixture
def ref_n3() -> Population:
    """Heterogeneous trio covering delta > 1, delta < 1 and the log investor."""
    return Population(horizon=1.0, agents=(
        AgentType(x0=1.0, delta=2.0, theta=0.6, eps=1.0, mu=0.5, nu=0.5, sigma=0.5),
        AgentType(x0=1.5, delta=0.8, theta=0.3, eps=1.2, mu=0.6, nu=0.4, sigma=0.6),
        AgentType(x0=0.8, delta=1.0, theta=0.9, eps=0.8, mu=0.4, nu=0.6, sigma=0.4),
    ))


def random_agent(rng: np.random.Generator, single_stock: bool = False,
                 mu: float | None = None, sigma: float | None = None,
                 theta_zero: bool = False, gentle: bool = False) -> AgentType:
    """Draw one valid agent; `gentle` keeps the value factor O(1)-sized."""
    if gentle:
        delta = rng.uniform(0.5, 2.5)
        mu_v = mu if mu is not None else rng.uniform(0.5, 2.0)
        sigma_v = sigma if sigma is not None else rng.uniform(0.8, 1.3)
        nu_v = 0.0 if single_stock else rng.uniform(0.0, 0.8)
        eps = rng.uniform(0.6, 1.8)
    else:
        delta = rng.uniform(0.3, 5.0)
        mu_v = mu if mu is not None else rng.uniform(0.5, 4.0)
        sigma_v = sigma if sigma is not None else rng.uniform(0.5, 2.0)
        nu_v = 0.0 if single_stock else rng.uniform(0.0, 1.5)
        eps = rng.uniform(0.25, 4.0)
    return AgentType(
        x0=rng.uniform(0.5, 2.0),
        delta=delta,
        theta=0.0 if theta_zero else rng.uniform(0.0, 1.0),
        eps=eps,
        mu=mu_v,
        nu=nu_v,
        sigma=sigma_v,
    )


def random_population(rng: np.random.Generator, n: int | None = None,
                      n_max: int = 8, **agent_kwargs) -> Population:
    if n is None:
        n = int(rng.integers(2, n_max + 1))
    horizon = rng.uniform(0.4, 1.25) if agent_kwargs.get("gentle") else rng.uniform(0.25, 2.0)
    if agent_kwargs.get("single_stock"):
        agent_kwargs.setdefault("mu", float(rng.uniform(0.5, 4.0)))
        agent_kwargs.setdefault("sigma", float(rng.uniform(0.5, 2.0)))
    agents = tuple(random_agent(rng, **agent_kwargs) for _ in range(n))
    return Population(horizon=horizon, agents=agents)


def single_atom(agent: AgentType, horizon: float = 1.0) -> TypeDistribution:
    return TypeDistribution(horizon=horizon, atoms=((1.0, agent),))


def random_distribution(rng: np.random.Generator, atoms: int,
                        **agent_kwargs) -> TypeDistribution:
    """Atoms drawn like random_population's agents, with random positive weights."""
    raw = rng.uniform(0.5, 1.5, atoms)
    weights = (raw / math.fsum(raw)).tolist()
    if agent_kwargs.get("single_stock"):
        agent_kwargs.setdefault("mu", float(rng.uniform(0.5, 4.0)))
        agent_kwargs.setdefault("sigma", float(rng.uniform(0.5, 2.0)))
    return TypeDistribution(horizon=float(rng.uniform(0.25, 2.0)),
                            atoms=tuple((w, random_agent(rng, **agent_kwargs)) for w in weights))


def profile_sha256(e) -> str:
    """Digest of the float64 bytes of pi, rho, beta and lam, in that order."""
    h = hashlib.sha256()
    for name in ("pi", "rho", "beta", "lam"):
        h.update(np.ascontiguousarray(getattr(e, name), dtype=np.float64).tobytes())
    return h.hexdigest()


def reference_objective_paths(log_wealth, log_c, weights, i, theta, delta, eps):
    """Agent i's objective on each stored path: the reference for the objective engine.

    This is estimate_objective's block reduction before it dropped the
    log_cx temporary and, later, the stored paths.
    """
    log_cx = log_c[None, :, :] + log_wealth
    mean_cx = log_cx.mean(axis=1)
    arg_run = log_cx[:, i, :] - theta * mean_cx
    mean_xt = log_wealth[:, :, -1].mean(axis=1)
    arg_term = log_wealth[:, i, -1] - theta * mean_xt
    if delta == 1.0:
        running = arg_run @ weights
        terminal = eps * arg_term
    else:
        k = 1.0 - 1.0 / delta
        running = np.exp(k * arg_run) @ weights / k
        terminal = eps * np.exp(k * arg_term) / k
    return running + terminal


def stored_path_objective(batch, s, p, i) -> np.ndarray:
    """Agent i's objective on each of batch's stored paths, with s's consumption and p's preferences."""
    ar = p.arrays()
    return reference_objective_paths(batch.log_wealth, np.log(s.consumption_on(batch.times)),
                                     trapezoid_weights(batch.times), i, float(ar.theta[i]),
                                     float(ar.delta[i]), float(ar.eps[i]))


def assert_estimate_matches(est, values) -> None:
    """est holds the mean and standard error of the per-path values, up to rounding.

    The bound of the merged moments against two passes: |dmean| <= 1e-12
    sqrt(mean(x^2)) and |dvar| <= 1e-12 mean(x^2).  The values are first
    scaled by a power of two, which is exact, so that their squares stay
    in range.
    """
    scale = math.ldexp(1.0, -max(math.frexp(float(np.abs(values).max()))[1], 0))
    x = values * scale
    square = float(np.mean(x * x))
    assert est.paths == len(x)
    assert abs(est.mean * scale - float(np.mean(x))) <= 1e-12 * math.sqrt(square)
    assert abs((est.stderr * scale) ** 2 * len(x) - float(np.var(x, ddof=1))) <= 1e-12 * square

"""The benchmark's workloads: seeded inputs, the timed calls, and their checks.

Each workload has a ``setup(seed, workdir)`` that generates its inputs from
the workload seed and builds the package objects, and a ``run(state)`` that
makes the timed calls into merton_arena and checks the outputs.  The
package only ever sees the generated inputs, never the workload seed.

Why these four (each ROADMAP item B-E has a workload where its layer does
most of the work and one where it does almost none):

* ``verify-trio``: the user's ``verify`` command on the reference trio at
  1/10 of acceptance criterion 7's paths.  Half of it is ``block_normals``,
  the rest the scan's per-cell reductions (items C, D).
* ``solve-wide``: a few closed-form problems with 10^4-10^5 agents or atoms
  and an n = 32 fixed-point check; no Monte Carlo.  Array rebuilding in
  ``types`` (item B) and the O(n^2) leave-one-out closures (item E.1).
* ``solve-many``: thousands of small problems, where per-call overhead
  dominates, so a change that speeds large n but adds fixed cost shows.
* ``simulate-store``: ``simulate`` with stored paths and increments plus
  ``estimate_objective``; the route the scan does not take (items D, E.3).
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from merton_arena import (
    AgentType,
    NotSingleStock,
    Population,
    TypeDistribution,
    cli,
    mfg,
    nplayer,
    simulation,
    verification,
)

# Reference trio of the test suite (delta > 1, delta < 1, the log investor).
TRIO = (
    dict(x0=1.0, delta=2.0, theta=0.6, eps=1.0, mu=0.5, nu=0.5, sigma=0.5),
    dict(x0=1.5, delta=0.8, theta=0.3, eps=1.2, mu=0.6, nu=0.4, sigma=0.6),
    dict(x0=0.8, delta=1.0, theta=0.9, eps=0.8, mu=0.4, nu=0.6, sigma=0.4),
)
VERIFY_PATHS = 20_000
VERIFY_GRID = 1000
VERIFY_CELLS = 125  # the CLI's default 5 x 5 x 5 (dpi, a, b) grid
SCAN_DPI = (-0.5, -0.1, 0.0, 0.1, 0.5)  # the same grid, for a direct scan call
SCAN_AB = (-0.2, -0.05, 0.0, 0.05, 0.2)

WIDE_N = 100_000
WIDE_ATOMS = 100_000
WIDE_CONVERGENCE_NS = tuple(4 * 2**k for k in range(15))  # 4 .. 2^16
WIDE_FIXED_POINT_N = 32
# Criterion 8's band for successive 1/n gap ratios, checked from n = 16 on:
# with four default-range atoms the 1/n^2 term can still push the 4 -> 8
# and 8 -> 16 ratios to about 0.65.
RATIO_BAND = (0.4, 0.6)
WIDE_BAND_FROM = 2

MANY_POPULATIONS = 2000
MANY_N = tuple(range(2, 65))
MANY_SINGLE_STOCK_SHARE = 0.25
MANY_GRID = ("0.05:6:240", "0:1:101")  # (delta range, theta range)
MANY_CELLS = 240 * 101

STORE_N = 6
STORE_LOG_AGENTS = 2  # theta = 0, delta = 1 agents with a closed-form objective
STORE_PATHS = 10_000
STORE_GRID = 1000
# Two-sided gate on |estimate - closed form|: a spurious failure has
# probability about 6e-7 per agent, so a benchmark run never flakes.
STORE_Z = 5.0


def default_agents(rng: np.random.Generator, count: int, single_stock: bool = False,
                   mu: float | None = None, sigma: float | None = None) -> list[AgentType]:
    """Agents from the test suite's default (not "gentle") parameter ranges."""
    draws = {
        "x0": rng.uniform(0.5, 2.0, count),
        "delta": rng.uniform(0.3, 5.0, count),
        "theta": rng.uniform(0.0, 1.0, count),
        "eps": rng.uniform(0.25, 4.0, count),
        "mu": np.full(count, mu) if mu is not None else rng.uniform(0.5, 4.0, count),
        "nu": np.zeros(count) if single_stock else rng.uniform(0.0, 1.5, count),
        "sigma": np.full(count, sigma) if sigma is not None else rng.uniform(0.5, 2.0, count),
    }
    columns = {k: v.tolist() for k, v in draws.items()}
    return [AgentType(**{k: columns[k][j] for k in columns}) for j in range(count)]


def single_stock_market(rng: np.random.Generator) -> dict:
    return {"single_stock": True, "mu": float(rng.uniform(0.5, 4.0)),
            "sigma": float(rng.uniform(0.5, 2.0))}


def program_seed(rng: np.random.Generator) -> int:
    """Monte Carlo seed handed to the program, derived from the workload seed."""
    return int(rng.integers(0, 2**31))


@dataclass
class Outcome:
    """Checks and facts of one timed iteration."""

    checks: dict = field(default_factory=dict)
    max_stderr: float = 0.0
    fixed_point_verdicts: list = field(default_factory=list)
    report_sha256: str | None = None

    def check(self, name: str, value: float, tolerance: float,
              passed: bool | None = None) -> None:
        """Record value vs tolerance; passes when value <= tolerance unless given."""
        ok = bool(value <= tolerance) if passed is None else bool(passed)
        self.checks[name] = {"value": float(value), "tolerance": float(tolerance),
                             "passed": ok}

    def expect(self, name: str, ok: bool) -> None:
        self.check(name, 0.0 if ok else 1.0, 0.0, ok)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, str], dict]
    run: Callable[[dict], Outcome]


# ---------------------------------------------------------------------------
# verify-trio
# ---------------------------------------------------------------------------

def _verify_argv(state: dict, paths: int, grid: int, seed: int) -> list[str]:
    return ["verify", "--config", state["config"], "--out", state["out"],
            "--paths", str(paths), "--grid", str(grid), "--seed", str(seed)]


def setup_verify(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng(seed)
    state = {"config": os.path.join(workdir, "trio.json"),
             "out": os.path.join(workdir, "verify.json"),
             "mc_seed": program_seed(rng)}
    with open(state["config"], "w", encoding="utf-8") as fh:
        json.dump({"horizon": 1.0, "agents": list(TRIO)}, fh)
    cli.main(_verify_argv(state, 64, 8, 0))  # warm-up; its verdict is not checked
    # Streams each agent's scan draws: the common one plus every agent whose
    # idiosyncratic noise enters its objective.
    p = Population(horizon=1.0, agents=tuple(AgentType(**a) for a in TRIO))
    noisy = nplayer.solve_n(p).pi * np.array([a["nu"] for a in TRIO]) != 0.0
    streams = len(TRIO) * (1 + int(noisy.sum()))
    state["sizes"] = {"n": len(TRIO), "paths": VERIFY_PATHS, "grid": VERIFY_GRID,
                      "cells": VERIFY_CELLS * len(TRIO),
                      "normals_drawn": streams * VERIFY_PATHS * VERIFY_GRID}
    state["pop"] = p
    return state


def run_verify(state: dict) -> Outcome:
    out = Outcome()
    code = cli.main(_verify_argv(state, VERIFY_PATHS, VERIFY_GRID, state["mc_seed"]))
    with open(state["out"], "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    out.expect("verify.exit_code_0", code == 0)
    out.expect("verify.passed", payload["passed"] is True)
    stderrs = []
    for rep in payload["best_response"]["reports"]:
        null = [c for c in rep["cells"] if (c["dpi"], c["a"], c["b"]) == (0.0, 0.0, 0.0)]
        out.check(f"verify.agent{rep['agent']}.null_cell",
                  abs(null[0]["mean_diff"]) + null[0]["stderr"], 0.0)
        stderrs += [c["stderr"] for c in rep["cells"]] + [rep["equilibrium_stderr"]]
    out.max_stderr = max(stderrs)
    # Digest of the report without run-dependent fields, for the self-check.
    stable = {k: v for k, v in payload.items() if k not in ("timings", "environment")}
    out.report_sha256 = hashlib.sha256(
        json.dumps(stable, sort_keys=True).encode()).hexdigest()
    return out


def time_scan(state: dict) -> float:
    """Seconds of agent 0's best-response scan at the verify-trio sizes."""
    p = state["pop"]
    e = nplayer.solve_n(p)
    t0 = time.perf_counter()
    verification.best_response_test(p, e, 0, SCAN_DPI, SCAN_AB, VERIFY_PATHS,
                                    state["mc_seed"], grid=VERIFY_GRID)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# solve-wide
# ---------------------------------------------------------------------------

def setup_wide(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng(seed)
    big = Population(horizon=float(rng.uniform(0.25, 2.0)),
                     agents=tuple(default_agents(rng, WIDE_N)))
    market = single_stock_market(rng)
    raw_w = rng.uniform(0.5, 1.5, WIDE_ATOMS)
    weights = (raw_w / math.fsum(raw_w)).tolist()
    atoms = default_agents(rng, WIDE_ATOMS, **market)
    dist = TypeDistribution(horizon=float(rng.uniform(0.25, 2.0)),
                            atoms=tuple(zip(weights, atoms)))
    # Four equal atoms with idiosyncratic noise, so every gap decays like 1/n.
    four = [AgentType(**{**a.to_dict(), "nu": float(rng.uniform(0.3, 1.5))})
            for a in default_agents(rng, 4)]
    conv = TypeDistribution(horizon=float(rng.uniform(0.25, 2.0)),
                            atoms=tuple((0.25, a) for a in four))
    fp_pop = Population(horizon=float(rng.uniform(0.25, 2.0)),
                        agents=tuple(default_agents(rng, WIDE_FIXED_POINT_N)))
    # Warm-up on small problems of each kind.
    small = Population(horizon=1.0, agents=fp_pop.agents[:2])
    verification.fixed_point_check(small, nplayer.solve_n(small), steps=100)
    mfg.solve_mf(TypeDistribution(horizon=1.0, atoms=((1.0, dist.atoms[0][1]),)))
    verification.mfg_convergence(conv, WIDE_CONVERGENCE_NS[:2])
    return {"big": big, "dist": dist, "conv": conv, "fp_pop": fp_pop,
            "sizes": {"n": WIDE_N, "atoms": WIDE_ATOMS,
                      "convergence_n_max": WIDE_CONVERGENCE_NS[-1],
                      "fixed_point_n": WIDE_FIXED_POINT_N}}


def run_wide(state: dict) -> Outcome:
    out = Outcome()
    e = nplayer.solve_n(state["big"])
    out.expect("solve_n.finite", bool(np.all(np.isfinite(e.pi)) and np.all(np.isfinite(e.beta))
                                      and np.all(e.lam > 0)))
    try:
        nplayer.theta_crit_n(state["big"])
        raised = False
    except NotSingleStock:
        raised = True
    out.expect("theta_crit_n.raises_not_single_stock", raised)

    mf = mfg.solve_mf(state["dist"])  # raises IdentityViolation on a single-stock mismatch
    out.expect("solve_mf.single_stock_path", mf.theta_crit is not None)

    rows = verification.mfg_convergence(state["conv"], WIDE_CONVERGENCE_NS)
    gaps = np.array([r.beta_gap for r in rows])
    ratios = (gaps[1:] / gaps[:-1])[WIDE_BAND_FROM:]
    lo, hi = RATIO_BAND
    worst = float(np.max(np.maximum(lo - ratios, ratios - hi)))
    out.check("mfg_convergence.beta_gap_ratio_band", worst, 0.0)

    fp_e = nplayer.solve_n(state["fp_pop"])
    fp = verification.fixed_point_check(state["fp_pop"], fp_e)
    # The program's own verdict, recorded as-is (see README: not a benchmark check).
    out.fixed_point_verdicts.append(bool(fp.passes()))
    return out


# ---------------------------------------------------------------------------
# solve-many
# ---------------------------------------------------------------------------

def setup_many(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng(seed)
    sizes = np.resize(np.array(MANY_N), MANY_POPULATIONS)
    single = np.zeros(MANY_POPULATIONS, dtype=bool)
    single[: int(MANY_SINGLE_STOCK_SHARE * MANY_POPULATIONS)] = True
    single = rng.permutation(single)
    pops, dists = [], []
    for n, ss in zip(sizes.tolist(), single.tolist()):
        market = single_stock_market(rng) if ss else {}
        agents = tuple(default_agents(rng, n, **market))
        horizon = float(rng.uniform(0.25, 2.0))
        pops.append(Population(horizon=horizon, agents=agents))
        dists.append(TypeDistribution(horizon=horizon,
                                      atoms=tuple((1.0 / n, a) for a in agents)))
    market = single_stock_market(rng)
    grid_atoms = default_agents(rng, 3, **market)
    config = os.path.join(workdir, "single_stock.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"horizon": 1.0,
                   "atoms": [{"weight": w, **a.to_dict()}
                             for w, a in zip((0.5, 0.25, 0.25), grid_atoms)]}, fh)
    state = {"pops": pops, "dists": dists, "single": single.tolist(),
             "config": config, "workdir": workdir,
             "sizes": {"populations": MANY_POPULATIONS, "n_min": MANY_N[0],
                       "n_max": MANY_N[-1], "agents": int(sizes.sum()),
                       "single_stock": int(single.sum()),
                       "cells": MANY_CELLS}}
    nplayer.solve_n(pops[0])
    mfg.solve_mf(dists[0])
    for command in ("regime", "sweep"):
        cli.main(_grid_argv(state, command, "0.05:6:3", "0:1:3"))
    return state


def _grid_argv(state: dict, command: str, deltas: str, thetas: str) -> list[str]:
    return [command, "--config", state["config"],
            "--out", os.path.join(state["workdir"], f"{command}.csv"),
            "--delta-range", deltas, "--theta-range", thetas]


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def run_many(state: dict) -> Outcome:
    out = Outcome()
    corollary_gap = 0.0
    finite = True
    for p, d, ss in zip(state["pops"], state["dists"], state["single"]):
        e = nplayer.solve_n(p)
        mf = mfg.solve_mf(d)
        finite = finite and bool(np.all(np.isfinite(e.pi)) and np.all(e.lam > 0)
                                 and np.all(np.isfinite(mf.beta)))
        if ss:
            # The single-stock corollary is a separate closed form for pi*.
            ref = nplayer.single_stock_invest_n(p)
            scale = max(1.0, float(np.max(np.abs(ref))))
            corollary_gap = max(corollary_gap, float(np.max(np.abs(e.pi - ref))) / scale)
    out.expect("solve.finite", finite)
    out.check("solve_n.single_stock_corollary_rel_gap", corollary_gap, 1e-9)
    for command in ("regime", "sweep"):
        code = cli.main(_grid_argv(state, command, *MANY_GRID))
        header, rows = _read_csv(os.path.join(state["workdir"], f"{command}.csv"))
        out.expect(f"{command}.exit_code_0", code == 0)
        out.expect(f"{command}.rows", len(rows) == MANY_CELLS)
        if command == "regime":
            col = header.index("regime")
            out.expect("regime.labels", {r[col] for r in rows}
                       <= {"increasing", "decreasing", "constant"})
        else:
            col = header.index("c_mid")
            out.expect("sweep.c_mid_positive", all(float(r[col]) > 0 for r in rows))
    return out


# ---------------------------------------------------------------------------
# simulate-store
# ---------------------------------------------------------------------------

def _log_investor_objective(agent: AgentType, horizon: float) -> float:
    """Closed-form objective of a theta = 0, delta = 1 agent (criterion 9).

    Such an agent ignores the others: pi* = mu / Sigma, lambda = 1 / eps,
    beta = 0, so c(t) = 1 / (T - t + 1/lambda) and E log X_t = log x0 +
    g t - int_0^t c with g = mu^2 / (2 Sigma).  The objective
    int_0^T (log c + E log X) dt + eps E log X_T is integrated exactly.
    """
    T, a = horizon, agent.eps  # a = 1 / lambda
    g = agent.mu**2 / (2.0 * agent.Sigma)

    def anti(u):  # antiderivative of log u
        return u * math.log(u) - u

    int_log_tail = anti(T + a) - anti(a)           # int_0^T log(T - t + a) dt
    int_big_c = T * math.log(T + a) - int_log_tail  # int_0^T C(t) dt
    log_x0 = math.log(agent.x0)
    running = -int_log_tail + T * log_x0 + 0.5 * g * T**2 - int_big_c
    terminal = agent.eps * (log_x0 + g * T - (math.log(T + a) - math.log(a)))
    return running + terminal


def setup_store(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng(seed)
    agents = default_agents(rng, STORE_N)
    for k in range(STORE_LOG_AGENTS):
        agents[k] = AgentType(**{**agents[k].to_dict(), "theta": 0.0, "delta": 1.0})
    p = Population(horizon=1.0, agents=tuple(agents))
    tiny = Population(horizon=1.0, agents=p.agents[:2])
    s = simulation.equilibrium_strategy(tiny, nplayer.solve_n(tiny))
    batch = simulation.simulate(tiny, s, grid=8, paths=16, seed=0)
    simulation.estimate_objective(batch, s, 0, tiny)
    return {"pop": p, "mc_seed": program_seed(rng),
            "sizes": {"n": STORE_N, "paths": STORE_PATHS, "grid": STORE_GRID,
                      "normals_drawn": (STORE_N + 1) * STORE_PATHS * STORE_GRID}}


def run_store(state: dict) -> Outcome:
    out = Outcome()
    p = state["pop"]
    s = simulation.equilibrium_strategy(p, nplayer.solve_n(p))
    batch = simulation.simulate(p, s, grid=STORE_GRID, paths=STORE_PATHS,
                                seed=state["mc_seed"])
    stderrs = []
    for i in range(p.n):
        est = simulation.estimate_objective(batch, s, i, p)
        stderrs.append(est.stderr)
        if i < STORE_LOG_AGENTS:
            target = _log_investor_objective(p.agents[i], p.horizon)
            out.check(f"estimate_objective.agent{i}.z", abs(est.mean - target) / est.stderr,
                      STORE_Z)
        else:
            out.expect(f"estimate_objective.agent{i}.finite",
                       math.isfinite(est.mean) and est.stderr > 0)
    out.max_stderr = max(stderrs)
    return out


WORKLOADS = {
    "verify-trio": Workload(setup_verify, run_verify),
    "solve-wide": Workload(setup_wide, run_wide),
    "solve-many": Workload(setup_many, run_many),
    "simulate-store": Workload(setup_store, run_store),
}

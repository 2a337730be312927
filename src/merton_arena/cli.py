"""Command-line front end.

Subcommands: ``solve-n`` (per-agent equilibrium CSV), ``curves``
(consumption curves over a delta list), ``regime`` (consumption-regime
grid), ``sweep`` (mid-horizon consumption over a (delta, theta) grid),
``simulate`` (path summaries), ``verify`` (fixed-point, best-response and
convergence report as JSON).

Output files are CSV with 17-significant-digit floats and ``#`` comment
lines echoing the config and scalar outputs, so they round-trip losslessly.
Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import platform
import sys
import time
from typing import Iterable, Sequence

import numpy as np
import scipy

from . import __version__, mfg, nplayer, policy, simulation, verification
from .errors import MertonArenaError, NumericalError, ValidationError
from .types import (
    AgentType,
    Population,
    TypeDistribution,
    _columns,
    _from_config,
    detect_single_stock,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_DEFAULT_DPI = (-0.5, -0.1, 0.0, 0.1, 0.5)
_DEFAULT_AB = (-0.2, -0.05, 0.0, 0.05, 0.2)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_range(text: str) -> np.ndarray:
    """Parse 'a:b:k' into k evenly spaced values from a to b."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"range must look like a:b:k, got {text!r}")
    a, b, k = float(parts[0]), float(parts[1]), int(parts[2])
    if k < 1:
        raise ValidationError(f"range must contain at least one point, got {text!r}")
    return np.linspace(a, b, k)


@dataclasses.dataclass
class RunConfig:
    """Parsed command-line options shared by the subcommands."""

    command: str
    config: str
    out: str
    grid: int
    paths: int
    seed: int
    time_grid: int
    deltas: np.ndarray | None
    thetas: np.ndarray | None

    def validate(self) -> None:
        if self.grid < 2:
            raise ValidationError(f"--grid must be >= 2, got {self.grid}")
        if self.paths < 1:
            raise ValidationError(f"--paths must be >= 1, got {self.paths}")
        if self.time_grid < 2:
            raise ValidationError(f"--time-grid must be >= 2, got {self.time_grid}")


def _write_csv(path: str, comments: list[str], header: list[str],
               rows: Iterable[Sequence]) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(x if isinstance(x, str) else _fmt(x) for x in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _config_echo(obj) -> str:
    return "config: " + json.dumps(obj.to_dict(), sort_keys=True)


def _representative(d: TypeDistribution, overrides: dict | None) -> AgentType:
    """First atom's type, with optional config-level field overrides."""
    base = d.types[0]
    if overrides:
        known = {f.name for f in dataclasses.fields(AgentType)}
        bad = set(overrides) - known
        if bad:
            raise ValidationError(f"unknown representative fields: {sorted(bad)}")
        base = dataclasses.replace(base, **{k: float(v) for k, v in overrides.items()})
    return base


_CONFIG_KINDS = {Population: "a population config ('agents' list)",
                 TypeDistribution: "a distribution config ('atoms' list)"}


def _load(path: str, kind: type) -> tuple[Population | TypeDistribution, dict]:
    """The config file parsed once: the object, which must be a ``kind``, and its raw dict."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    obj = _from_config(raw)
    if not isinstance(obj, kind):
        raise ValidationError(f"this command needs {_CONFIG_KINDS[kind]}")
    return obj, raw


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve_n(rc: RunConfig) -> int:
    p, _ = _load(rc.config, Population)
    e = nplayer.solve_n(p)
    comments = [
        "merton-arena solve-n",
        _config_echo(p),
        f"phi = {_fmt(e.aggregates.phi)}",
        f"psi = {_fmt(e.aggregates.psi)}",
    ]
    if e.theta_crit is not None:
        comments.append(f"theta_crit = {_fmt(e.theta_crit)}")
    rows = [[str(i), e.pi[i], e.rho[i], e.beta[i], e.lam[i]] for i in range(p.n)]
    _write_csv(rc.out, comments, ["agent", "pi_star", "rho", "beta", "lambda"], rows)
    return EXIT_OK


def parse_solve_csv(path: str) -> dict:
    """Re-parse a solve-n CSV into scalars and per-agent arrays."""
    scalars: dict = {}
    table: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    name, _, value = body.partition("=")
                    scalars[name.strip()] = float(value)
                continue
            if not line or line.startswith("agent"):
                continue
            table.append([float(v) for v in line.split(",")])
    arr = np.asarray(table)
    return {
        **scalars,
        "pi": arr[:, 1],
        "rho": arr[:, 2],
        "beta": arr[:, 3],
        "lambda": arr[:, 4],
    }


def cmd_curves(rc: RunConfig) -> int:
    d, raw = _load(rc.config, TypeDistribution)
    rep = _representative(d, raw.get("representative"))
    deltas = rc.deltas if rc.deltas is not None else np.array([0.5, 1.0, 2.0, 3.0, 5.0])
    agg = mfg.aggregates_mf(d)
    times = np.linspace(0.0, d.horizon, rc.time_grid)
    comments = ["merton-arena curves", _config_echo(d)]
    if detect_single_stock(d) is not None:
        comments.append(f"theta_crit = {_fmt(mfg.theta_crit_mf(d))}")
    columns = []
    for dv in deltas:
        t = dataclasses.replace(rep, delta=float(dv))
        beta = mfg.beta_mf(t, agg)
        lam = mfg.lambda_mf(t, agg)
        comments.append(f"delta = {_fmt(dv)} : beta = {_fmt(beta)}, lambda = {_fmt(lam)}")
        columns.append(policy.ConsumptionPolicy(beta, lam, d.horizon).rate(times))
    header = ["t"] + [f"c(delta={_fmt(dv)})" for dv in deltas]
    rows = [[times[j]] + [col[j] for col in columns] for j in range(len(times))]
    _write_csv(rc.out, comments, header, rows)
    return EXIT_OK


def _single_stock_grid(rc: RunConfig, d: TypeDistribution, raw: dict):
    """theta_crit and the columns (delta, theta, delta_eff, beta, lambda) of the grid, delta fastest."""
    market = detect_single_stock(d)
    if market is None:
        raise ValidationError("regime/sweep need a single-stock distribution")
    t = _columns((_representative(d, raw.get("representative")),))
    tc = mfg.theta_crit_mf(d)
    agg = mfg.aggregates_mf(d)
    deltas = rc.deltas if rc.deltas is not None else np.linspace(0.05, 6.0, 120)
    thetas = rc.thetas if rc.thetas is not None else np.linspace(0.0, 1.0, 21)
    t.delta, t.theta = np.tile(deltas, len(thetas)), np.repeat(thetas, len(deltas))
    deff = nplayer._delta_eff(t, tc)
    lam = nplayer._lambda(t, agg.log_eps_delta, agg.avg_theta_dm1)
    if not np.all(lam > 0):
        raise ValueError(f"lambda must be positive, got {lam[~(lam > 0)][0]}")
    return tc, t.delta, t.theta, deff, nplayer._single_stock_beta(market, deff), lam


def cmd_regime(rc: RunConfig) -> int:
    d, raw = _load(rc.config, TypeDistribution)
    tc, delta, theta, deff, beta, lam = _single_stock_grid(rc, d, raw)
    comments = ["merton-arena regime", _config_echo(d), f"theta_crit = {_fmt(tc)}"]
    rows = zip(delta.tolist(), theta.tolist(), policy._regimes(beta, lam).tolist(),
               beta.tolist(), deff.tolist())
    _write_csv(rc.out, comments, ["delta", "theta", "regime", "beta", "delta_eff"], rows)
    return EXIT_OK


def cmd_sweep(rc: RunConfig) -> int:
    d, raw = _load(rc.config, TypeDistribution)
    tc, delta, theta, _, beta, lam = _single_stock_grid(rc, d, raw)
    comments = ["merton-arena sweep", _config_echo(d), f"theta_crit = {_fmt(tc)}"]
    c_mid = policy._rate(beta, lam, 0.5 * d.horizon)  # time to go at t = T/2
    rows = zip(delta.tolist(), theta.tolist(), beta.tolist(), lam.tolist(), c_mid.tolist())
    _write_csv(rc.out, comments, ["delta", "theta", "beta", "lambda", "c_mid"], rows)
    return EXIT_OK


def _strategy_from_config(p: Population, raw: dict) -> simulation.StrategyProfile:
    override = raw.get("strategy")
    if override is None:
        return simulation.equilibrium_strategy(p, nplayer.solve_n(p))
    pi = override.get("pi")
    c = override.get("c")
    if pi is None or c is None:
        raise ValidationError("strategy override needs 'pi' and 'c' lists")
    if len(pi) != p.n or len(c) != p.n:
        raise ValidationError("strategy override length must match the agent count")
    return simulation.constant_strategy(pi, c)


def cmd_simulate(rc: RunConfig) -> int:
    p, raw = _load(rc.config, Population)
    s = _strategy_from_config(p, raw)
    keep = np.unique(np.round(np.linspace(0, rc.grid, rc.time_grid)).astype(int))
    times = np.linspace(0.0, p.horizon, rc.grid + 1)

    kept = []
    for _, log_wealth, _, _ in simulation.iter_path_blocks(
            p, s, rc.grid, rc.paths, rc.seed):
        kept.append(log_wealth[:, :, keep])
    data = np.concatenate(kept, axis=0)

    comments = [
        "merton-arena simulate",
        _config_echo(p),
        f"paths = {rc.paths}",
        f"grid = {rc.grid}",
        f"seed = {rc.seed}",
    ]
    header = ["t"]
    for k in range(p.n):
        header += [f"agent{k}_mean", f"agent{k}_p05", f"agent{k}_p50", f"agent{k}_p95"]
    rows = []
    for j, idx in enumerate(keep):
        row = [times[idx]]
        for k in range(p.n):
            col = data[:, k, j]
            row += [col.mean(), np.percentile(col, 5), np.percentile(col, 50),
                    np.percentile(col, 95)]
        rows.append(row)
    _write_csv(rc.out, comments, header, rows)
    return EXIT_OK


def _verify_failures(fp: verification.FixedPointReport, fp_pass: bool,
                     br: tuple[verification.BestResponseReport, ...],
                     conv: list[verification.ConvergenceRow],
                     grown: list[str]) -> list[str]:
    """One line per failed verify section: the checked values vs tolerances."""
    lines = []
    if not fp_pass:
        parts = []
        for name, (value, tol) in fp.checks().items():
            part = f"{name} {value:.3e} {'<=' if value <= tol else '>'} {tol:g}"
            absolute = name.replace("_rel", "")  # a relative field's absolute twin
            if absolute != name:
                part += f" ({absolute} {getattr(fp, absolute):.3e})"
            parts.append(part)
        lines.append("fixed point failed: " + ", ".join(parts))
    parts = []
    for rep in br:
        if rep.violations():
            c = max(rep.violations(), key=lambda v: v.mean_diff - 3.0 * v.stderr)
            parts.append(f"agent {rep.agent} cell (dpi={c.dpi:g}, a={c.a:g}, b={c.b:g}) "
                         f"mean_diff {c.mean_diff:.3e} > 3*stderr {3.0 * c.stderr:.3e}")
    if parts:
        lines.append("best response failed: " + "; ".join(parts))
    if grown:
        first, last = conv[0], conv[-1]
        parts = [f"{name} grew from {getattr(first, name):.3e} at n={first.n} "
                 f"to {getattr(last, name):.3e} at n={last.n}" for name in grown]
        lines.append("mfg convergence failed: " + ", ".join(parts))
    return lines


@contextlib.contextmanager
def _timed(timings: dict, stage: str):
    """Record the wall time of the enclosed block as timings[stage], in seconds."""
    start = time.perf_counter()
    yield
    timings[stage] = time.perf_counter() - start


def _environment() -> dict:
    """Versions and the worker-thread count a run depends on."""
    return {"package": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threads": simulation.worker_count()}


def cmd_verify(rc: RunConfig) -> int:
    p, _ = _load(rc.config, Population)
    timings: dict = {}
    with _timed(timings, "solve"):
        e = nplayer.solve_n(p)

    with _timed(timings, "fixed_point"):
        fp = verification.fixed_point_check(p, e)
    fp_pass = fp.passes()

    with _timed(timings, "best_response"):
        br = verification.best_response_scan(
            p, e, range(p.n), _DEFAULT_DPI, _DEFAULT_AB, rc.paths, rc.seed, grid=rc.grid)
    br_pass = not any(report.violations() for report in br)

    weights = [1.0 / p.n] * p.n
    dist = TypeDistribution(
        horizon=p.horizon, atoms=tuple(zip(weights, p.agents)))
    ns = [p.n * k for k in (1, 2, 4, 8)]
    with _timed(timings, "mfg_convergence"):
        conv = verification.mfg_convergence(dist, ns)
    grown = [name for name in ("pi_gap", "beta_gap")
             if not getattr(conv[-1], name) <= getattr(conv[0], name) + 1e-12]
    conv_pass = not grown

    passed = fp_pass and br_pass and conv_pass
    payload = {
        "population": p.to_dict(),
        "paths": rc.paths,
        "grid": rc.grid,
        "seed": rc.seed,
        "fixed_point": {**fp.as_dict(), "passed": fp_pass},
        "best_response": {"reports": [r.as_dict() for r in br], "passed": br_pass},
        "mfg_convergence": {"rows": [r.as_dict() for r in conv], "passed": conv_pass},
        "passed": passed,
        "timings": timings,
        "environment": _environment(),
    }
    with open(rc.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for line in _verify_failures(fp, fp_pass, br, conv, grown):
        print(f"merton-arena: verify: {line}", file=sys.stderr)
    return EXIT_OK if passed else EXIT_NUMERICAL


_COMMANDS = {
    "solve-n": cmd_solve_n,
    "curves": cmd_curves,
    "regime": cmd_regime,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="merton-arena",
        description="Equilibria of the competitive investment/consumption game",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON population/distribution")
        sp.add_argument("--out", required=True, help="output CSV/JSON path")
        sp.add_argument("--grid", type=int, default=simulation.DEFAULT_GRID,
                        help="simulation grid steps")
        sp.add_argument("--paths", type=int, default=simulation.DEFAULT_PATHS,
                        help="Monte Carlo paths")
        sp.add_argument("--seed", type=int, default=0, help="master seed")
        sp.add_argument("--time-grid", type=int, default=101,
                        help="time samples for curves/summaries")
        sp.add_argument("--delta-range", default=None, metavar="a:b:k",
                        help="risk-tolerance sweep range")
        sp.add_argument("--theta-range", default=None, metavar="a:b:k",
                        help="competition-weight sweep range")
        sp.add_argument("--deltas", default=None,
                        help="explicit comma-separated delta list (overrides --delta-range)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        deltas = None
        if args.deltas is not None:
            deltas = np.array([float(v) for v in args.deltas.split(",")])
        elif args.delta_range is not None:
            deltas = _parse_range(args.delta_range)
        thetas = _parse_range(args.theta_range) if args.theta_range else None
        rc = RunConfig(
            command=args.command, config=args.config, out=args.out,
            grid=args.grid, paths=args.paths, seed=args.seed,
            time_grid=args.time_grid, deltas=deltas, thetas=thetas,
        )
        rc.validate()
        return _COMMANDS[args.command](rc)
    except (ValidationError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"merton-arena: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"merton-arena: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MertonArenaError as exc:
        print(f"merton-arena: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

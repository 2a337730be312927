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
import math
import os
import platform
import sys
import time
import warnings
from typing import Sequence

import numpy as np
import scipy

from . import __version__, mfg, nplayer, policy, simulation, verification
from .errors import DomainError, MertonArenaError, NumericalError, ValidationError
from .types import (
    Population,
    TypeDistribution,
    _AGENT_FIELDS,
    _failing,
    _from_config,
    _number,
    columns,
    detect_single_stock,
    validate_distribution,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_DEFAULT_DPI = (-0.5, -0.1, 0.0, 0.1, 0.5)
_DEFAULT_AB = (-0.2, -0.05, 0.0, 0.05, 0.2)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _finite(text: str) -> float:
    """``float(text)``; a ValueError unless that is a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _parse_range(text: str) -> np.ndarray:
    """Parse 'a:b:k' into k evenly spaced values from a to b."""
    try:
        a, b, k = text.split(":")
        a, b, k = _finite(a), _finite(b), int(k)
    except ValueError:
        raise ValidationError(f"range must look like a:b:k, got {text!r}") from None
    if k < 1:
        raise ValidationError(f"range must contain at least one point, got {text!r}")
    return np.linspace(a, b, k)


def _parse_list(text: str) -> np.ndarray:
    """Parse 'a,b,...' into an array of its values."""
    try:
        return np.array([_finite(v) for v in text.split(",")])
    except ValueError:
        raise ValidationError(f"--deltas must be comma-separated numbers, got {text!r}") from None


def _float_texts(column) -> list[str]:
    """``"%.17g"`` of each value of the column as float64, one format per distinct value.

    Values are keyed by their bits, so -0.0 keeps its sign beside 0.0.
    """
    x = np.ascontiguousarray(column, dtype=np.float64)
    bits, where = np.unique(x.view(np.int64), return_inverse=True)
    texts = list(map("%.17g".__mod__, bits.view(np.float64).tolist()))
    return list(map(texts.__getitem__, where.tolist()))


def _write_csv(path: str, comments: list[str], header: list[str],
               columns: Sequence[Sequence]) -> None:
    """Write the comments, the header and one row per index of the equal-length columns.

    A column of str is written as it is; any other is read as float64.
    """
    texts = [c if isinstance(c[0], str) else _float_texts(c) for c in columns]
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*texts)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _config_echo(obj) -> str:
    return "config: " + json.dumps(obj.to_dict(), sort_keys=True)


def _representative_grid(d: TypeDistribution, raw: dict, deltas: np.ndarray,
                         thetas: np.ndarray | None = None):
    """Columns of the first atom, with the config's ``representative`` overrides,
    over the (delta, theta) grid, delta fastest; ``thetas`` None keeps its theta.

    The first cell that fails ``AgentType.check`` raises its ValidationError,
    and the first whose lambda leaves the float range a DomainError.
    Returns the columns and `mfg.representative` on them.
    """
    validate_distribution(d)  # names an empty or invalid distribution before its first atom is read
    overrides = raw.get("representative")
    if overrides is None:
        overrides = {}
    elif not isinstance(overrides, dict):
        raise ValidationError(f"representative must be an object, got {overrides!r}")
    bad = set(overrides) - set(_AGENT_FIELDS)
    if bad:
        raise ValidationError(f"unknown representative fields: {sorted(bad)}")
    rep = dataclasses.replace(d.types[0], **{
        k: _number(v, f"representative field '{k}'") for k, v in overrides.items()})
    t = columns((rep,))
    if thetas is None:
        thetas = t.theta
    t.delta, t.theta = np.tile(deltas, len(thetas)), np.repeat(thetas, len(deltas))
    for i in np.flatnonzero(_failing(t)):
        dataclasses.replace(rep, delta=float(t.delta[i]), theta=float(t.theta[i])).check()
    m = mfg.representative(d, t)
    for i in np.flatnonzero(~(np.isfinite(m.lam) & (m.lam > 0))):
        raise DomainError(f"lambda = {float(m.lam[i])!r} is outside the float range at "
                          f"delta = {float(t.delta[i])!r}, theta = {float(t.theta[i])!r}")
    return t, m


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

def cmd_solve_n(args: argparse.Namespace) -> int:
    p, _ = _load(args.config, Population)
    e = nplayer.solve_n(p)
    comments = [
        "merton-arena solve-n",
        _config_echo(p),
        f"phi = {_fmt(e.aggregates.phi)}",
        f"psi = {_fmt(e.aggregates.psi)}",
    ]
    if e.theta_crit is not None:
        comments.append(f"theta_crit = {_fmt(e.theta_crit)}")
    columns = [[str(i) for i in range(p.n)], e.pi, e.rho, e.beta, e.lam]
    _write_csv(args.out, comments, ["agent", "pi_star", "rho", "beta", "lambda"], columns)
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


def cmd_curves(args: argparse.Namespace) -> int:
    d, raw = _load(args.config, TypeDistribution)
    deltas = args.deltas if args.deltas is not None else np.array([0.5, 1.0, 2.0, 3.0, 5.0])
    _, m = _representative_grid(d, raw, deltas)
    times = np.linspace(0.0, d.horizon, args.time_grid)
    curves = [policy.ConsumptionPolicy(b, lam, d.horizon).rate(times)
              for b, lam in zip(m.beta, m.lam)]
    comments = ["merton-arena curves", _config_echo(d)]
    if detect_single_stock(d) is not None:
        comments.append(f"theta_crit = {_fmt(mfg.theta_crit_mf(d))}")
    comments += [f"delta = {_fmt(dv)} : beta = {_fmt(b)}, lambda = {_fmt(lam)}"
                 for dv, b, lam in zip(deltas, m.beta, m.lam)]
    header = ["t"] + [f"c(delta={_fmt(dv)})" for dv in deltas]
    _write_csv(args.out, comments, header, [times, *curves])
    return EXIT_OK


def _single_stock_grid(args: argparse.Namespace):
    """The distribution, the grid columns, `mfg.representative` on them, and the corollary beta."""
    d, raw = _load(args.config, TypeDistribution)
    deltas = args.deltas if args.deltas is not None else np.linspace(0.05, 6.0, 120)
    t, m = _representative_grid(d, raw, deltas, args.thetas)
    market = detect_single_stock(d)
    if market is None:
        raise ValidationError("regime/sweep need a single-stock distribution")
    if m.delta_eff is None:
        raise ValidationError("regime/sweep need a representative on the distribution's "
                              f"stock (nu = 0, mu = {market.mu!r}, sigma = {market.sigma!r})")
    return d, t, m, nplayer.single_stock_beta(market, m.delta_eff)


def cmd_regime(args: argparse.Namespace) -> int:
    d, t, m, beta = _single_stock_grid(args)
    comments = ["merton-arena regime", _config_echo(d), f"theta_crit = {_fmt(m.theta_crit)}"]
    columns = [t.delta, t.theta, policy._regimes(beta, m.lam).tolist(), beta, m.delta_eff]
    _write_csv(args.out, comments, ["delta", "theta", "regime", "beta", "delta_eff"], columns)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    d, t, m, beta = _single_stock_grid(args)
    comments = ["merton-arena sweep", _config_echo(d), f"theta_crit = {_fmt(m.theta_crit)}"]
    c_mid = policy._rate(beta, m.lam, 0.5 * d.horizon)  # time to go at t = T/2
    columns = [t.delta, t.theta, beta, m.lam, c_mid]
    _write_csv(args.out, comments, ["delta", "theta", "beta", "lambda", "c_mid"], columns)
    return EXIT_OK


def _strategy_from_config(p: Population, raw: dict) -> simulation.StrategyProfile:
    override = raw.get("strategy")
    if override is None:
        return simulation.equilibrium_strategy(p, nplayer.solve_n(p))
    if not isinstance(override, dict):
        raise ValidationError(f"strategy must be an object, got {override!r}")
    pi, c = override.get("pi"), override.get("c")
    if not isinstance(pi, list) or not isinstance(c, list):
        raise ValidationError("strategy override needs 'pi' and 'c' lists")
    if len(pi) != p.n or len(c) != p.n:
        raise ValidationError("strategy override length must match the agent count")
    return simulation.constant_strategy([_number(v, "strategy 'pi' entry") for v in pi],
                                        [_number(v, "strategy 'c' entry") for v in c])


def cmd_simulate(args: argparse.Namespace) -> int:
    p, raw = _load(args.config, Population)
    s = _strategy_from_config(p, raw)
    keep = np.unique(np.round(np.linspace(0, args.grid, args.time_grid)).astype(int))
    times, data = simulation._simulate_nodes(p, s, args.grid, args.paths, args.seed, keep)
    means = data.mean(axis=-1)
    # (3, n, len(keep)); partitions data in place, so it is read no further
    quantiles = np.percentile(data, (5, 50, 95), axis=-1, overwrite_input=True)

    comments = [
        "merton-arena simulate",
        _config_echo(p),
        f"paths = {args.paths}",
        f"grid = {args.grid}",
        f"seed = {args.seed}",
    ]
    header, columns = ["t"], [times]
    for k in range(p.n):
        header += [f"agent{k}_mean", f"agent{k}_p05", f"agent{k}_p50", f"agent{k}_p95"]
        columns += [means[k], *quantiles[:, k]]
    _write_csv(args.out, comments, header, columns)
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


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """Versions, the worker-thread count and the BLAS thread settings a run depends on.

    Each BLAS variable is recorded as the process saw it, None when unset:
    an unpinned BLAS oversubscribes the scan's worker threads.
    """
    return {"package": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threads": simulation.worker_count(),
            **{name: os.environ.get(name) for name in _BLAS_THREAD_VARS}}


def cmd_verify(args: argparse.Namespace) -> int:
    p, _ = _load(args.config, Population)
    timings: dict = {}
    with _timed(timings, "solve"):
        e = nplayer.solve_n(p)

    with _timed(timings, "fixed_point"):
        fp = verification.fixed_point_check(p, e)
    fp_pass = fp.passes()

    with _timed(timings, "best_response"):
        br = verification.best_response_scan(
            p, e, range(p.n), _DEFAULT_DPI, _DEFAULT_AB, args.paths, args.seed, grid=args.grid)
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
        "paths": args.paths,
        "grid": args.grid,
        "seed": args.seed,
        "fixed_point": {**fp.as_dict(), "passed": fp_pass},
        "best_response": {"reports": [r.as_dict() for r in br], "passed": br_pass},
        "mfg_convergence": {"rows": [r.as_dict() for r in conv], "passed": conv_pass},
        "passed": passed,
        "timings": timings,
        "environment": _environment(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for line in _verify_failures(fp, fp_pass, br, conv, grown):
        print(f"merton-arena: verify: {line}", file=sys.stderr)
    return EXIT_OK if passed else EXIT_NUMERICAL


_FLAGS = {
    "--grid": dict(type=int, default=simulation.DEFAULT_GRID, help="simulation grid steps"),
    "--paths": dict(type=int, default=simulation.DEFAULT_PATHS, help="Monte Carlo paths"),
    "--seed": dict(type=int, default=0, help="master seed"),
    "--time-grid": dict(type=int, default=101, help="time samples for curves/summaries"),
    "--deltas": dict(help="explicit comma-separated delta list (overrides --delta-range)"),
    "--delta-range": dict(metavar="a:b:k", help="risk-tolerance sweep range"),
    "--theta-range": dict(metavar="a:b:k", dest="thetas", default="0:1:21",
                          help="competition-weight sweep range (default 0:1:21)"),
}

# Each subcommand with the optional flags it reads.
_COMMANDS = {
    "solve-n": (cmd_solve_n, ()),
    "curves": (cmd_curves, ("--time-grid", "--deltas", "--delta-range")),
    "regime": (cmd_regime, ("--deltas", "--delta-range", "--theta-range")),
    "sweep": (cmd_sweep, ("--deltas", "--delta-range", "--theta-range")),
    "simulate": (cmd_simulate, ("--grid", "--paths", "--seed", "--time-grid")),
    "verify": (cmd_verify, ("--grid", "--paths", "--seed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="merton-arena", description="Equilibria of the competitive investment/consumption game")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON population/distribution")
        sp.add_argument("--out", required=True, help="output CSV/JSON path")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
    return parser


def _reemit(caught: list[warnings.WarningMessage]) -> None:
    """Issue the recorded warnings again, under the caller's filters.

    One registry for all of them, so that a "default" filter still shows
    a warning raised many times at one place once.
    """
    registry: dict = {}
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                               registry=registry, source=w.source)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    Warnings the command raises are recorded while it runs.  A failure
    that exits 2 or 3 prints one stderr line, which ends with the first
    of them; otherwise they are issued again once the command is done,
    also before an exception this function does not handle propagates.
    """
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for flag, least in (("--grid", 2), ("--paths", 1), ("--time-grid", 2)):
                value = getattr(args, flag[2:].replace("-", "_"), None)
                if value is not None and value < least:
                    raise ValidationError(f"{flag} must be >= {least}, got {value}")
            if getattr(args, "deltas", None) is not None:
                args.deltas = _parse_list(args.deltas)
            elif getattr(args, "delta_range", None) is not None:
                args.deltas = _parse_range(args.delta_range)
            if getattr(args, "thetas", None) is not None:
                args.thetas = _parse_range(args.thetas)
            code = _COMMANDS[args.command][0](args)
    except NumericalError as exc:
        code, line = EXIT_NUMERICAL, f"numerical failure: {exc}"
    except (MertonArenaError, FileNotFoundError, json.JSONDecodeError) as exc:
        code, line = EXIT_VALIDATION, f"invalid input: {exc}"
    except BaseException:
        _reemit(caught)
        raise
    else:
        _reemit(caught)
        return code
    if caught:
        line += f" ({caught[0].category.__name__}: {caught[0].message})"
    print(f"merton-arena: {line}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

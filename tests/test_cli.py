"""Command-line interface: outputs, exit codes, determinism, round-trips."""
import ast
import dataclasses
import glob
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import merton_arena
from conftest import random_distribution
from merton_arena import (
    AgentType,
    Aggregates,
    ConsumptionPolicy,
    Population,
    columns,
    detect_single_stock,
    distribution_from_dict,
    representative,
    solve_mf,
    theta_crit_mf,
)
from merton_arena import cli
from merton_arena.cli import main, parse_solve_csv
from merton_arena.nplayer import EquilibriumProfile
from merton_arena.verification import (
    BestResponseReport,
    FixedPointReport,
    fixed_point_check,
)

REF_AGENT = {"x0": 1.0, "delta": 3.0, "theta": 0.8, "eps": 1.0,
             "mu": 5.0, "nu": 0.0, "sigma": 1.0}
POP_CONFIG = {"horizon": 1.0, "agents": [REF_AGENT, REF_AGENT]}

# Single-stock ambient distributions reproducing the published figure moments:
# curves uses E[theta (delta-1)] = 0.8, E[delta] = 3 (so theta_crit = 0.6);
# regime/sweep use E[theta (delta-1)] = 1.6, E[delta] = 5 (theta_crit = 0.52).
CURVES_CONFIG = {
    "horizon": 1.0,
    "atoms": [{"weight": 1.0, "x0": 1.0, "delta": 3.0, "theta": 0.4, "eps": 1.0,
               "mu": 5.0, "nu": 0.0, "sigma": 1.0}],
    "representative": {"theta": 0.8},
}
REGIME_CONFIG = {
    "horizon": 1.0,
    "atoms": [{"weight": 1.0, "x0": 1.0, "delta": 5.0, "theta": 0.4, "eps": 1.0,
               "mu": 5.0, "nu": 0.0, "sigma": 1.0}],
}


@pytest.fixture
def ref_config(tmp_path):
    path = tmp_path / "pop.json"
    path.write_text(json.dumps(POP_CONFIG))
    return str(path)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_table(path):
    comments, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line[2:])
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return comments, header, rows


class TestSolveN:
    def test_reference_csv(self, ref_config, tmp_path):
        out = tmp_path / "eq.csv"
        assert main(["solve-n", "--config", ref_config, "--out", str(out)]) == 0
        parsed = parse_solve_csv(str(out))
        assert parsed["phi"] == 15.0
        assert parsed["psi"] == pytest.approx(1.6, abs=1e-15)
        assert parsed["theta_crit"] == pytest.approx(2.6 / 3.0, abs=1e-15)
        assert parsed["pi"] == pytest.approx([75.0 / 13.0] * 2, abs=1e-12)
        assert parsed["beta"] == pytest.approx([-375.0 / 169.0] * 2, abs=1e-12)
        assert np.all(parsed["lambda"] == 1.0)

    def test_validation_exit_code(self, tmp_path):
        cfg = write_json(tmp_path, "bad.json", {
            "horizon": 1.0,
            "agents": [dict(REF_AGENT, theta=1.2), REF_AGENT],
        })
        assert main(["solve-n", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["solve-n", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_distribution_config_rejected(self, tmp_path):
        cfg = write_json(tmp_path, "d.json", CURVES_CONFIG)
        assert main(["solve-n", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    def test_round_trip_fixed_point(self, ref_config, tmp_path):
        out = tmp_path / "eq.csv"
        main(["solve-n", "--config", ref_config, "--out", str(out)])
        parsed = parse_solve_csv(str(out))
        profile = EquilibriumProfile(
            pi=parsed["pi"], rho=parsed["rho"], beta=parsed["beta"],
            lam=parsed["lambda"],
            aggregates=Aggregates(parsed["phi"], parsed["psi"]),
            theta_crit=parsed.get("theta_crit"),
        )
        agent = AgentType(**REF_AGENT)
        p = Population(1.0, (agent, agent))
        rep = fixed_point_check(p, profile)
        assert rep.passes()

    def test_deterministic_bytes(self, ref_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["solve-n", "--config", ref_config, "--out", str(a)])
        main(["solve-n", "--config", ref_config, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestCurves:
    def test_terminal_value_independent_of_delta(self, tmp_path):
        cfg = write_json(tmp_path, "curves.json", CURVES_CONFIG)
        out = tmp_path / "curves.csv"
        code = main(["curves", "--config", cfg, "--out", str(out),
                     "--deltas", "0.5,1,2,3,5", "--time-grid", "51"])
        assert code == 0
        _, header, rows = read_table(str(out))
        final = [float(v) for v in rows[-1][1:]]
        assert len(final) == 5
        assert final == pytest.approx([1.0] * 5, abs=1e-10)

    def test_log_investor_column_is_merton_curve(self, tmp_path):
        cfg = write_json(tmp_path, "curves.json", CURVES_CONFIG)
        out = tmp_path / "curves.csv"
        main(["curves", "--config", cfg, "--out", str(out),
              "--deltas", "1", "--time-grid", "21"])
        _, _, rows = read_table(str(out))
        for row in rows:
            t, c = float(row[0]), float(row[1])
            assert c == pytest.approx(1.0 / (1.0 - t + 1.0), abs=1e-12)

    def test_high_delta_column_decreases(self, tmp_path):
        cfg = write_json(tmp_path, "curves.json", CURVES_CONFIG)
        out = tmp_path / "curves.csv"
        main(["curves", "--config", cfg, "--out", str(out),
              "--deltas", "3", "--time-grid", "41"])
        comments, _, rows = read_table(str(out))
        beta_line = [c for c in comments if c.startswith("delta = 3")][0]
        beta = float(beta_line.split("beta =")[1].split(",")[0])
        assert beta == pytest.approx(25.0 / 9.0, abs=1e-10)
        col = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(col) < 0.0)


# Two atoms with nu > 0 (no single stock, so no theta_crit line) and a
# representative override, so beta and lambda both vary with delta.
NU_CONFIG = {
    "horizon": 0.8,
    "atoms": [
        {"weight": 0.6, "x0": 1.0, "delta": 2.5, "theta": 0.5, "eps": 1.4,
         "mu": 0.9, "nu": 0.4, "sigma": 0.6},
        {"weight": 0.4, "x0": 2.0, "delta": 0.7, "theta": 0.9, "eps": 0.8,
         "mu": 1.3, "nu": 0.2, "sigma": 1.1},
    ],
    "representative": {"theta": 0.3, "eps": 1.2},
}


def reference_curves_csv(config, deltas, time_grid):
    """The per-delta loop of the curves command, one `representative` call per delta."""
    d = distribution_from_dict(config)
    rep = dataclasses.replace(d.types[0], **config.get("representative", {}))
    times = np.linspace(0.0, d.horizon, time_grid)
    lines = ["# merton-arena curves",
             "# config: " + json.dumps(d.to_dict(), sort_keys=True)]
    if detect_single_stock(d) is not None:
        lines.append(f"# theta_crit = {format(theta_crit_mf(d), '.17g')}")
    curves = []
    for dv in deltas:
        t = dataclasses.replace(rep, delta=float(dv))
        m = representative(d, columns((t,)))
        beta, lam = float(m.beta[0]), float(m.lam[0])
        lines.append(f"# delta = {format(dv, '.17g')} : beta = {format(beta, '.17g')}, "
                     f"lambda = {format(lam, '.17g')}")
        curves.append(ConsumptionPolicy(beta, lam, d.horizon).rate(times))
    lines.append(",".join(["t"] + [f"c(delta={format(dv, '.17g')})" for dv in deltas]))
    for j, tj in enumerate(times):
        lines.append(",".join(format(float(x), ".17g") for x in [tj] + [c[j] for c in curves]))
    return "\n".join(lines) + "\n"


class TestCurvesBytes:
    """curves evaluates all deltas as one column grid; bytes equal the per-delta loop."""

    @pytest.mark.parametrize("config", [CURVES_CONFIG, NU_CONFIG])
    @pytest.mark.parametrize("flags, deltas, time_grid", [
        ([], [0.5, 1.0, 2.0, 3.0, 5.0], 101),
        (["--deltas", "1,0.25,4.5,1.000001", "--time-grid", "7"],
         [1.0, 0.25, 4.5, 1.000001], 7),
        (["--delta-range", "0.5:1.5:5", "--time-grid", "33"], np.linspace(0.5, 1.5, 5), 33),
    ])
    def test_bytes_equal_per_delta_loop(self, tmp_path, config, flags, deltas, time_grid):
        cfg = write_json(tmp_path, "curves.json", config)
        out = tmp_path / "curves.csv"
        assert main(["curves", "--config", cfg, "--out", str(out)] + flags) == 0
        expected = reference_curves_csv(config, deltas, time_grid)
        assert out.read_text() == expected
        # delta = 1 is the beta = 0 branch of the curve
        assert "# delta = 1 : beta = 0, " in expected


class TestRegime:
    def test_theta_crit_header(self, tmp_path):
        cfg = write_json(tmp_path, "regime.json", REGIME_CONFIG)
        out = tmp_path / "regime.csv"
        code = main(["regime", "--config", cfg, "--out", str(out),
                     "--delta-range", "0.02:1.2:60", "--theta-range", "0:1:6"])
        assert code == 0
        comments, _, _ = read_table(str(out))
        tc = [c for c in comments if c.startswith("theta_crit")][0]
        assert abs(float(tc.split("=")[1]) - 0.52) <= 1e-12

    def test_merton_row_band(self, tmp_path):
        cfg = write_json(tmp_path, "regime.json", REGIME_CONFIG)
        out = tmp_path / "regime.csv"
        main(["regime", "--config", cfg, "--out", str(out),
              "--delta-range", "0.02:1.2:60", "--theta-range", "0:1:6"])
        _, header, rows = read_table(str(out))
        lo, hi = 0.08768943743823394, 0.9123105625617661
        for row in rows:
            delta, theta, regime = float(row[0]), float(row[1]), row[2]
            if theta == 0.0:
                inside = lo < delta < hi
                assert (regime == "decreasing") == inside

    def test_wedge_near_origin(self, tmp_path):
        # tiny delta below the lower band edge stays increasing even at
        # small positive theta, while moderate delta at the same theta
        # already decreases
        cfg = write_json(tmp_path, "regime.json", REGIME_CONFIG)
        out = tmp_path / "regime.csv"
        main(["regime", "--config", cfg, "--out", str(out),
              "--delta-range", "0.03:0.2:2", "--theta-range", "0:0.02:2"])
        _, _, rows = read_table(str(out))
        cells = {(float(r[0]), float(r[1])): r[2] for r in rows}
        assert cells[(0.03, 0.0)] == "increasing"
        assert cells[(0.03, 0.02)] == "increasing"
        assert cells[(0.2, 0.02)] == "decreasing"

    def test_requires_single_stock(self, tmp_path):
        bad = dict(REGIME_CONFIG)
        bad["atoms"] = [dict(REGIME_CONFIG["atoms"][0], nu=0.5)]
        cfg = write_json(tmp_path, "bad.json", bad)
        assert main(["regime", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


class TestSweep:
    def test_merton_column(self, tmp_path):
        cfg = write_json(tmp_path, "sweep.json", REGIME_CONFIG)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", cfg, "--out", str(out),
                     "--delta-range", "0.25:2:8", "--theta-range", "0:1:5"])
        assert code == 0
        _, _, rows = read_table(str(out))
        seen = 0
        for row in rows:
            delta, theta, beta, lam, c_mid = (float(v) for v in row)
            assert lam == 1.0
            if theta == 0.0:
                seen += 1
                assert beta == pytest.approx(12.5 * delta * (1.0 - delta), rel=1e-12)
                pol = ConsumptionPolicy(12.5 * delta * (1.0 - delta), 1.0, 1.0)
                assert c_mid == pytest.approx(pol.rate(0.5), rel=1e-12)
        assert seen == 8


# Three atoms on one stock with eps != 1, and a representative override, so
# lambda varies over the grid; theta_crit = 2.2 / 3.25 is not a round number.
GRID_CONFIG = {
    "horizon": 1.5,
    "atoms": [
        {"weight": 0.5, "x0": 1.0, "delta": 2.0, "theta": 0.6, "eps": 1.3,
         "mu": 2.0, "nu": 0.0, "sigma": 0.7},
        {"weight": 0.25, "x0": 1.0, "delta": 0.5, "theta": 0.2, "eps": 0.6,
         "mu": 2.0, "nu": 0.0, "sigma": 0.7},
        {"weight": 0.25, "x0": 1.0, "delta": 6.0, "theta": 0.3, "eps": 2.0,
         "mu": 2.0, "nu": 0.0, "sigma": 0.7},
    ],
    "representative": {"eps": 1.7},
}


def reference_grid_csv(command, config, deltas, thetas):
    """The per-cell loop of the regime/sweep commands, with scalar formulas."""
    d = distribution_from_dict(config)
    rep = dataclasses.replace(d.types[0], **config.get("representative", {}))
    tc, agg = theta_crit_mf(d), solve_mf(d).aggregates
    mu, sigma = d.types[0].mu, d.types[0].sigma
    lines = [f"# merton-arena {command}",
             "# config: " + json.dumps(d.to_dict(), sort_keys=True),
             f"# theta_crit = {format(tc, '.17g')}"]
    lines.append("delta,theta,regime,beta,delta_eff" if command == "regime"
                 else "delta,theta,beta,lambda,c_mid")
    for th in thetas:
        for dv in deltas:
            t = dataclasses.replace(rep, delta=float(dv), theta=float(th))
            x = t.theta / tc
            deff = (1.0 - x) * t.delta + x
            beta = mu**2 / (2.0 * sigma**2) * deff * (1.0 - deff)
            lam = float(np.exp(-t.delta * np.log(t.eps) + agg.log_eps_delta * t.theta
                               * (t.delta - 1.0) / (1.0 + agg.avg_theta_dm1)))
            if command == "regime":
                tol = 1e-12 * max(1.0, abs(lam))
                regime = ("increasing" if beta < lam - tol else
                          "decreasing" if beta > lam + tol else "constant")
                row = [dv, th, regime, beta, deff]
            else:
                tau = np.float64(d.horizon) - np.float64(0.5 * d.horizon)
                if abs(beta * tau) < 1e-12:
                    c_mid = 1.0 / (tau + 1.0 / lam)
                else:
                    c_mid = 1.0 / (-np.expm1(-beta * tau) / beta + np.exp(-beta * tau) / lam)
                row = [dv, th, beta, lam, c_mid]
            lines.append(",".join(x if isinstance(x, str) else format(float(x), ".17g")
                                  for x in row))
    return "\n".join(lines) + "\n"


class TestGridColumns:
    """regime/sweep evaluate the grid as columns; bytes equal the per-cell loop."""

    @pytest.mark.parametrize("command", ["regime", "sweep"])
    @pytest.mark.parametrize("config", [REGIME_CONFIG, GRID_CONFIG])
    def test_bytes_equal_per_cell_loop(self, tmp_path, command, config):
        tc = theta_crit_mf(distribution_from_dict(config))
        # theta = theta_crit (beta = 0, the small |beta tau| branch) and delta = 1
        deltas = np.linspace(0.5, 1.5, 5)
        thetas = np.linspace(0.0, tc, 5)
        assert thetas[-1] == tc and deltas[2] == 1.0
        cfg = write_json(tmp_path, "grid.json", config)
        out = tmp_path / "out.csv"
        assert main([command, "--config", cfg, "--out", str(out),
                     "--delta-range", "0.5:1.5:5", "--theta-range", f"0:{tc!r}:5"]) == 0
        expected = reference_grid_csv(command, config, deltas, thetas)
        assert out.read_text() == expected
        beta_col = 3 if command == "regime" else 2
        assert float(expected.splitlines()[-1].split(",")[beta_col]) == 0.0

    @pytest.mark.parametrize("command", ["regime", "sweep"])
    def test_default_grid_bytes(self, tmp_path, command):
        cfg = write_json(tmp_path, "grid.json", GRID_CONFIG)
        out = tmp_path / "out.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text() == reference_grid_csv(
            command, GRID_CONFIG, np.linspace(0.05, 6.0, 120), np.linspace(0.0, 1.0, 21))

    def test_sweep_beyond_exp_range(self, tmp_path):
        # -beta T/2 passes log(DBL_MAX) ~ 709.8 in 7 cells, where the general
        # form of c overflows exp and expm1 (RuntimeWarnings are errors here).
        d = random_distribution(np.random.default_rng(70), 1, single_stock=True)
        config = d.to_dict()
        cfg = write_json(tmp_path, "grid.json", config)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        tau = 0.5 * d.horizon
        _, _, rows = read_table(str(out))
        cells = np.array([[float(v) for v in row] for row in rows])
        beyond = -cells[:, 2] * tau > 709.8
        assert np.count_nonzero(beyond) == 7

        def exact(beta, lam):
            with localcontext() as ctx:
                ctx.prec = 60
                b, big = Decimal(beta), (-Decimal(beta) * Decimal(tau)).exp()
                return float(1 / (-(big - 1) / b + big / Decimal(lam)))

        c_mid = cells[beyond, 4]
        ref = np.array([exact(beta, lam) for beta, lam in cells[beyond, 2:4]])
        assert np.count_nonzero(ref) == 3 and ref.max() < 1e-305
        np.testing.assert_allclose(c_mid, ref, rtol=1e-12,
                                   atol=2 * np.finfo(float).smallest_subnormal)
        # Only those cells differ from the per-cell general form, and only
        # where the general form underflowed to 0.
        with np.errstate(over="ignore"):
            expected = reference_grid_csv("sweep", config, np.linspace(0.05, 6.0, 120),
                                          np.linspace(0.0, 1.0, 21)).splitlines()
        got = out.read_text().splitlines()
        assert len(got) == len(expected)
        changed = [j for j, (a, b) in enumerate(zip(got, expected)) if a != b]
        assert len(changed) == 3
        assert all(expected[j].endswith(",0") for j in changed)


# Values a writer must keep apart or spell out exactly: signed zeros, the
# non-finite values, the smallest subnormal and the largest float.
EDGE_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308)
_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


def _csv_column(kind: str, rows: int):
    sized = dict(min_size=rows, max_size=rows)
    return {
        "floats": st.lists(_FLOATS, **sized),
        "repeated": _FLOATS.map(lambda v: [v] * rows),
        "distinct": st.lists(st.floats(allow_nan=False), unique=True, **sized),
        "ints": st.lists(st.integers(-2**70, 2**70), **sized),
        "float64": st.lists(_FLOATS, **sized).map(np.array),
        "strings": st.lists(st.text("abcxyz-_.0123456789", min_size=1), **sized),
    }[kind]


def per_value_rows(columns) -> list[str]:
    """The reference rows: each value formatted and joined one at a time."""
    return [",".join(x if isinstance(x, str) else format(float(x), ".17g") for x in row)
            for row in zip(*columns)]


def written_csv(comments, header, columns) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        cli._write_csv(path, comments, header, columns)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


class TestCsvWriter:
    """The column-wise writer gives the bytes of the per-value row join."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 40),
           kinds=st.lists(st.sampled_from(["floats", "repeated", "distinct", "ints",
                                           "float64", "strings"]), min_size=1, max_size=6))
    def test_bytes_equal_per_value_rows(self, data, rows, kinds):
        columns = [data.draw(_csv_column(kind, rows), label=kind) for kind in kinds]
        header = [f"c{j}" for j in range(len(columns))]
        expected = "\n".join(["# note", ",".join(header), *per_value_rows(columns)]) + "\n"
        assert written_csv(["note"], header, columns) == expected

    def test_signed_zeros_and_extremes(self):
        column = [0.0, -0.0, -0.0, 0.0, *EDGE_FLOATS, np.float64(-0.0), 3, -7]
        text = written_csv([], ["x"], [column])
        assert text.splitlines()[1:] == per_value_rows([column])
        assert text.splitlines()[1:6] == ["0", "-0", "-0", "0", "0"]


class TestSimulate:
    def test_deterministic_override_strategy(self, tmp_path):
        cfg = write_json(tmp_path, "sim.json", {
            "horizon": 1.0,
            "agents": [dict(REF_AGENT, x0=2.0), REF_AGENT],
            "strategy": {"pi": [0.0, 0.0], "c": [1.0, 1.0]},
        })
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--config", cfg, "--out", str(out),
                     "--grid", "200", "--paths", "50", "--seed", "1",
                     "--time-grid", "11"])
        assert code == 0
        _, header, rows = read_table(str(out))
        assert header[1] == "agent0_mean"
        for row in rows:
            t = float(row[0])
            assert float(row[1]) == pytest.approx(math.log(2.0) - t, abs=1e-12)
            # deterministic paths: all quantiles collapse onto the mean
            assert float(row[2]) == pytest.approx(float(row[1]), abs=1e-12)

    def test_equilibrium_simulation_runs(self, ref_config, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--config", ref_config, "--out", str(out),
                     "--grid", "100", "--paths", "200", "--seed", "4",
                     "--time-grid", "5"])
        assert code == 0
        _, _, rows = read_table(str(out))
        assert len(rows) == 5

    def test_seed_determinism(self, ref_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--config", ref_config, "--grid", "64",
                "--paths", "100", "--seed", "9", "--time-grid", "5"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_csv_bytes_pinned(self, ref_n3, tmp_path):
        # sha256 of the output when each column's quantiles were separate
        # np.percentile calls; 5000 paths span two path blocks
        cfg = write_json(tmp_path, "trio.json", {
            "horizon": ref_n3.horizon, "agents": [a.to_dict() for a in ref_n3.agents]})
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--grid", "100",
                     "--paths", "5000", "--seed", "7", "--time-grid", "21"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "025a2ee2d23f1dea7e401f19f8c0d35676f7468b27483c12dc3bd048493bd876")

    def test_threaded_command_bytes_equal(self, ref_n3, tmp_path):
        # the command as a user runs it, in its own interpreter, on one worker and on two
        cfg = write_json(tmp_path, "trio.json", {
            "horizon": ref_n3.horizon, "agents": [a.to_dict() for a in ref_n3.agents]})
        src = os.path.dirname(os.path.dirname(os.path.abspath(merton_arena.__file__)))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"sim{threads}.csv"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                       MERTON_ARENA_THREADS=threads)
            subprocess.run([sys.executable, "-m", "merton_arena.cli", "simulate", "--config", cfg,
                            "--out", str(out), "--grid", "100", "--paths", "5000",
                            "--seed", "7", "--time-grid", "21"],
                           env=env, check=True, timeout=120)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestVerify:
    def test_reference_verify_passes(self, ref_config, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--config", ref_config, "--out", str(out),
                     "--paths", "4000", "--grid", "200", "--seed", "12"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["fixed_point"]["passed"] is True
        assert payload["best_response"]["passed"] is True
        assert len(payload["best_response"]["reports"]) == 2
        assert payload["mfg_convergence"]["passed"] is True

    def test_failed_section_on_stderr(self, ref_config, tmp_path, monkeypatch,
                                      capsys):
        monkeypatch.setattr(FixedPointReport, "passes", lambda self: False)
        out = tmp_path / "verify.json"
        code = main(["verify", "--config", ref_config, "--out", str(out),
                     "--paths", "500", "--grid", "50", "--seed", "12"])
        assert code == 3
        assert json.loads(out.read_text())["fixed_point"]["passed"] is False
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        line = lines[0]
        assert line.startswith("merton-arena: verify: fixed point failed: ")
        for name in ("systeq1_max", "systeq2_max", "max_f_gap"):
            assert f"{name} " in line
            assert " <= 1e-08" in line
        assert "identity_residual" in line and "1e-10" in line
        # The gates are the relative fields; each shows its absolute twin beside it.
        for rel, absolute in (("systeq1_rel_max", "systeq1_max"),
                              ("systeq2_rel_max", "systeq2_max"),
                              ("max_f_rel_gap", "max_f_gap")):
            assert re.search(rf"{rel} \S+ <= 1e-08 \({absolute} \S+\)", line), rel
        assert re.search(r"identity_residual \S+ <= 1e-10(,|$)", line)

    def test_non_integer_thread_count_is_invalid_input(self, ref_config, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.setenv("MERTON_ARENA_THREADS", "abc")
        out = tmp_path / "verify.json"
        code = main(["verify", "--config", ref_config, "--out", str(out),
                     "--paths", "500", "--grid", "50", "--seed", "12"])
        assert code == 2
        assert capsys.readouterr().err == (
            "merton-arena: invalid input: MERTON_ARENA_THREADS must be an integer, "
            "got 'abc'\n")
        assert not out.exists()

    def test_best_response_failure_on_stderr(self, ref_config, tmp_path,
                                             monkeypatch, capsys):
        monkeypatch.setattr(BestResponseReport, "violations",
                            lambda self: [self.cells[-1]])
        code = main(["verify", "--config", ref_config,
                     "--out", str(tmp_path / "verify.json"),
                     "--paths", "500", "--grid", "50", "--seed", "12"])
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("merton-arena: verify: best response failed: "
                                   "agent 0 cell (dpi=0.5, a=0.2, b=0.2) mean_diff ")
        assert "; agent 1 cell" in lines[0] and "> 3*stderr" in lines[0]

    def test_timings_and_environment(self, ref_config, tmp_path, monkeypatch):
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        blas = {name: os.environ.get(name) for name in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        assert blas["MKL_NUM_THREADS"] is None
        reports = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("MERTON_ARENA_THREADS", threads)
            out = tmp_path / f"verify{threads}.json"
            assert main(["verify", "--config", ref_config, "--out", str(out),
                         "--paths", "500", "--grid", "50", "--seed", "12"]) == 0
            payload = json.loads(out.read_text())
            timings = payload.pop("timings")
            assert set(timings) == {"solve", "fixed_point", "best_response", "mfg_convergence"}
            assert all(t >= 0.0 for t in timings.values())
            env = payload.pop("environment")
            assert set(env) == {"package", "python", "numpy", "scipy", "threads", *blas}
            assert env["threads"] == int(threads)
            assert {name: env[name] for name in blas} == blas
            reports[threads] = payload
        # the rest of the report does not depend on the thread count
        assert reports["1"] == reports["2"]

    def test_invalid_grid_flag(self, ref_config, tmp_path):
        assert main(["verify", "--config", ref_config,
                     "--out", str(tmp_path / "x.json"), "--grid", "1"]) == 2


class TestFlags:
    def test_unread_flag_is_rejected(self, ref_config, tmp_path):
        # solve-n reads no optional flag, so argparse rejects one
        with pytest.raises(SystemExit) as exc:
            main(["solve-n", "--config", ref_config, "--out", str(tmp_path / "x.csv"),
                  "--paths", "5"])
        assert exc.value.code == 2


class TestRangeParsing:
    def test_bad_range_exits_2(self, ref_config, tmp_path):
        assert main(["regime", "--config", ref_config,
                     "--out", str(tmp_path / "x.csv"),
                     "--delta-range", "oops"]) == 2


# A single-stock pair whose representative trades another stock.
OFF_STOCK_CONFIG = {
    "horizon": 1.0,
    "atoms": [
        {"weight": 0.5, "x0": 1.0, "delta": 2.0, "theta": 0.5, "eps": 1.0,
         "mu": 1.0, "nu": 0.0, "sigma": 1.0},
        {"weight": 0.5, "x0": 1.0, "delta": 4.0, "theta": 0.9, "eps": 1.0,
         "mu": 1.0, "nu": 0.0, "sigma": 1.0},
    ],
    "representative": {"mu": 2.0, "nu": 0.7},
}


def test_curves_takes_an_off_stock_representative(tmp_path):
    # only regime/sweep, which print the single-stock corollary, refuse it
    cfg = write_json(tmp_path, "config.json", OFF_STOCK_CONFIG)
    assert main(["curves", "--config", cfg, "--out", str(tmp_path / "c.csv"), "--deltas", "2"]) == 0


class TestInvalidInput:
    """Malformed or out-of-domain values exit 2 with one stderr line and no output."""

    @pytest.mark.parametrize("command, config, flags, names", [
        ("curves", CURVES_CONFIG, ["--deltas", "a,b"], "--deltas"),
        ("curves", CURVES_CONFIG, ["--deltas", ""], "--deltas"),
        ("regime", REGIME_CONFIG, ["--delta-range", "0:1:x"], "range"),
        ("regime", REGIME_CONFIG, ["--theta-range", ""], "range"),
        ("sweep", REGIME_CONFIG, ["--delta-range", "0:inf:3"], "range"),
        ("solve-n", dict(POP_CONFIG, agents=[dict(REF_AGENT, delta="x"), REF_AGENT]), [],
         "field 'delta'"),
        ("solve-n", dict(POP_CONFIG, agents=[REF_AGENT, dict(REF_AGENT, theta=None)]), [],
         "field 'theta'"),
        ("solve-n", dict(POP_CONFIG, horizon="soon"), [], "horizon"),
        ("curves", dict(CURVES_CONFIG, atoms=[dict(CURVES_CONFIG["atoms"][0], weight="all")]),
         [], "weight"),
        ("curves", dict(CURVES_CONFIG, atoms=[]), [], "no atoms"),
        ("curves", dict(CURVES_CONFIG, representative={"theta": "high"}), [],
         "representative field 'theta'"),
        ("simulate", dict(POP_CONFIG, strategy={"pi": [0.1, "x"], "c": [1.0, 1.0]}), [],
         "strategy 'pi'"),
        ("simulate", dict(POP_CONFIG, strategy={"pi": [0.1, "INF"], "c": [1.0, 1.0]}), [],
         "finite"),
        ("simulate", dict(POP_CONFIG, strategy={"pi": [0.1, 0.1], "c": [None, 1.0]}), [],
         "strategy 'c'"),
        # out-of-domain grid cells and representative overrides
        ("curves", CURVES_CONFIG, ["--deltas", "0,-1"], "'delta'"),
        ("regime", REGIME_CONFIG, ["--delta-range=-1:0:3", "--theta-range=0:2:3"], "'delta'"),
        ("sweep", REGIME_CONFIG, ["--delta-range=0.5:1:3", "--theta-range=0:2:3"], "theta"),
        ("curves", dict(CURVES_CONFIG, representative={"eps": -1}), [], "'eps'"),
        ("regime", dict(REGIME_CONFIG, representative={"sigma": -1}), [], "'sigma'"),
        # overrides that are not JSON objects
        ("curves", dict(CURVES_CONFIG, representative=5), [], "representative must be"),
        ("sweep", dict(REGIME_CONFIG, representative=[]), [], "representative must be"),
        ("simulate", dict(POP_CONFIG, strategy=[1]), [], "strategy must be"),
        # a closed form outside the float range: lambda = exp(-delta log eps + ...) is 0
        ("curves", dict(CURVES_CONFIG, representative={"eps": 1e300}), ["--deltas", "6"],
         "lambda = 0.0 is outside the float range at delta = 6.0, theta = 0.4"),
        # NaN in any agent field, atom field or weight
        *[("solve-n", dict(POP_CONFIG, agents=[REF_AGENT, dict(REF_AGENT, **{f: math.nan})]),
           [], "(agent 1)") for f in sorted(REF_AGENT)],
        *[("curves", dict(CURVES_CONFIG, atoms=[dict(CURVES_CONFIG["atoms"][0], **{f: math.nan})]),
           [], "nan" if f == "weight" else "(agent 0)") for f in ["weight", *sorted(REF_AGENT)]],
        # regime/sweep print the single-stock corollary, so the representative must trade the stock
        *[(command, OFF_STOCK_CONFIG, ["--deltas", "2", "--theta-range", "0.5:0.5:1"],
           "representative on the distribution's stock") for command in ("regime", "sweep")],
        # config shapes: not an object, lists that are not lists of objects, missing keys
        ("solve-n", 5, [], "config must be an object, got int"),
        ("solve-n", [POP_CONFIG], [], "config must be an object, got list"),
        ("solve-n", dict(POP_CONFIG, agents=5), [], "'agents' must be a list, got int"),
        ("solve-n", dict(POP_CONFIG, agents=[5, 6]), [], "agent entry 0 must be an object"),
        ("solve-n", {"agents": [REF_AGENT, REF_AGENT]}, [], "horizon is missing"),
        ("curves", dict(CURVES_CONFIG, atoms={"weight": 1.0}), [], "'atoms' must be a list"),
        ("curves", dict(CURVES_CONFIG, atoms=[[1.0]]), [], "atom 0 must be an object"),
        ("curves", dict(CURVES_CONFIG, atoms=[dict(REF_AGENT)]), [], "atom 0 weight is missing"),
    ])
    def test_exits_2_with_one_line(self, tmp_path, capsys, command, config, flags, names):
        cfg = tmp_path / "config.json"
        # JSON 1e400 parses to an infinite float
        cfg.write_text(json.dumps(config).replace('"INF"', "1e400"))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)] + flags) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("merton-arena: invalid input: ")
        assert names in lines[0]
        assert not out.exists()

    def test_verify_objective_out_of_range(self, tmp_path, capsys):
        # a valid pair whose second agent's CRRA objective (delta = 0.01,
        # x0 = 1e-6) overflows: one line, no warning and no report
        market = dict(theta=0.5, eps=1.0, mu=0.5, nu=0.3, sigma=0.4)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(POP_CONFIG, agents=[
            dict(market, x0=1.0, delta=2.0), dict(market, x0=1e-6, delta=0.01)])))
        out = tmp_path / "v.json"
        argv = ["verify", "--config", str(cfg), "--out", str(out),
                "--paths", "2000", "--grid", "50", "--seed", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "merton-arena: invalid input: the objective of agent 1 leaves the float range\n")
        assert not out.exists()

    def test_verify_huge_but_finite_objective(self, tmp_path, capsys):
        # at x0 = 1 the same agent's per-path values reach about -5e177, so
        # their squares overflow, but every mean and standard error is finite
        market = dict(theta=0.5, eps=1.0, mu=0.5, nu=0.3, sigma=0.4)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(POP_CONFIG, agents=[
            dict(market, x0=1.0, delta=2.0), dict(market, x0=1.0, delta=0.01)])))
        out = tmp_path / "v.json"
        argv = ["verify", "--config", str(cfg), "--out", str(out),
                "--paths", "2000", "--grid", "50", "--seed", "1"]
        assert main(argv) != 2
        assert "invalid input" not in capsys.readouterr().err
        big = json.loads(out.read_text())["best_response"]["reports"][1]
        assert -1e175 < big["equilibrium_mean"] < -1e174
        assert 0.0 < big["equilibrium_stderr"] < math.inf

    def test_negative_nu_says_nonnegative(self, tmp_path, capsys):
        # nu = 0 is valid, so the line must not ask for a strictly positive nu
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(POP_CONFIG, agents=[REF_AGENT, dict(REF_AGENT, nu=-0.1)])))
        assert main(["solve-n", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "merton-arena: invalid input: parameter 'nu' must be nonnegative (agent 1)\n")

    @pytest.mark.parametrize("command, config, names", [
        ("solve-n", dict(POP_CONFIG, agents=[REF_AGENT, dict(REF_AGENT, x0="HUGE")]),
         "agent entry 1 field 'x0' is outside the float range"),
        ("solve-n", dict(POP_CONFIG, horizon="HUGE"), "horizon is outside the float range"),
        ("curves", dict(CURVES_CONFIG, atoms=[dict(CURVES_CONFIG["atoms"][0], weight="HUGE")]),
         "atom 0 weight is outside the float range"),
    ])
    def test_integer_beyond_the_float_range(self, tmp_path, capsys, command, config, names):
        # float() of a 401-digit JSON integer raises OverflowError, not ValueError
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config).replace('"HUGE"', "1" + "0" * 400))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"merton-arena: invalid input: {names}\n"
        assert not out.exists()


class TestPublicSeam:
    """cli reaches nplayer and mfg through their public names only."""

    def test_no_private_name_of_nplayer_or_mfg(self):
        with open(cli.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        modules = {"nplayer", "mfg"}
        private = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in modules:
                private += [alias.name for alias in node.names if alias.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")):
                private.append(f"{node.value.id}.{node.attr}")
        assert private == []
        # the walk does see the public uses
        names = {f"{n.value.id}.{n.attr}" for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
        assert {"mfg.representative", "nplayer.solve_n"} <= names


class TestNoAssertInPackage:
    """Invariants hold under ``python -O``: no package module checks one with assert."""

    def test_no_assert_statement(self):
        package = os.path.dirname(os.path.abspath(merton_arena.__file__))
        modules = sorted(glob.glob(os.path.join(package, "*.py")))
        found = []
        for path in modules:
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            found += [f"{os.path.basename(path)}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
        assert found == []
        assert os.path.join(package, "verification.py") in modules  # the walk sees the package


class TestOnePartition:
    """Only ``simulation`` knows how paths are cut into tiles and threads."""

    # simulation's tiling internals, and the unit-era names they replaced
    TILING = {"TILE_BYTES", "_row_chunks", "worker_count", "_map_tiles", "_TILE_BYTES",
              "_CHUNK_BYTES", "WORK_UNIT", "_units", "_map_units", "ThreadPoolExecutor",
              "contextvars", "threading", "local"}

    @staticmethod
    def names(module) -> set[str]:
        """Every name, attribute and imported name in a package module."""
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update(alias.name for alias in node.names)
        return found

    def test_verification_names_no_tiling_internal(self):
        from merton_arena import simulation, verification
        assert self.names(verification) & self.TILING == set()
        # the set names what simulation really defines and uses
        assert self.TILING & self.names(simulation) == {
            "TILE_BYTES", "_row_chunks", "worker_count", "_map_tiles", "ThreadPoolExecutor",
            "contextvars", "threading", "local"}


class TestImports:
    """A run imports scipy.special only once it draws normals, and never scipy.integrate."""

    SCRIPT = """
import json, sys
import merton_arena, merton_arena.cli
codes = [merton_arena.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "loaded": [m for m in ("scipy.special", "scipy.integrate") if m in sys.modules]}))
"""

    def _run(self, runs):
        src = os.path.dirname(os.path.dirname(os.path.abspath(merton_arena.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(runs)],
                              env=env, capture_output=True, text=True, check=True)
        return json.loads(proc.stdout.splitlines()[-1])

    def test_closed_forms_load_no_scipy_submodule(self, tmp_path):
        pop = write_json(tmp_path, "pop.json", POP_CONFIG)
        curves = write_json(tmp_path, "curves.json", CURVES_CONFIG)
        regime = write_json(tmp_path, "regime.json", REGIME_CONFIG)
        runs = [["solve-n", "--config", pop, "--out", str(tmp_path / "solve.csv")],
                ["curves", "--config", curves, "--out", str(tmp_path / "curves.csv")],
                ["regime", "--config", regime, "--out", str(tmp_path / "regime.csv")],
                ["sweep", "--config", regime, "--out", str(tmp_path / "sweep.csv")]]
        assert self._run(runs) == {"codes": [0, 0, 0, 0], "loaded": []}

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_monte_carlo_loads_scipy_special_only(self, tmp_path, command):
        pop = write_json(tmp_path, "pop.json", POP_CONFIG)
        runs = [[command, "--config", pop, "--out", str(tmp_path / "out"),
                 "--paths", "500", "--grid", "50", "--seed", "12"]]
        assert self._run(runs) == {"codes": [0], "loaded": ["scipy.special"]}


class TestOverflow:
    """Valid input whose closed form overflows is a numerical failure, never NaN output."""

    def test_huge_sigma_exits_3_with_no_output(self, tmp_path):
        # A subprocess, since pytest makes the overflow's RuntimeWarning an error.
        agents = [dict(REF_AGENT, sigma=1e200), REF_AGENT]
        cfg = write_json(tmp_path, "pop.json", dict(POP_CONFIG, agents=agents))
        out = tmp_path / "solve.csv"
        src = os.path.dirname(os.path.dirname(os.path.abspath(merton_arena.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "merton_arena.cli", "solve-n", "--config", cfg,
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        assert proc.stderr == ("merton-arena: numerical failure: 1 + psi = nan is not positive "
                               "(RuntimeWarning: overflow encountered in square)\n")
        assert not out.exists()


class TestWarnings:
    """main holds a command's warnings back: one line on a failure, else issued again."""

    @staticmethod
    def run_warning(monkeypatch, tmp_path, outcome, repeats=1):
        def command(args):
            for _ in range(repeats):
                warnings.warn("overflow in a test", RuntimeWarning)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setitem(cli._COMMANDS, "solve-n", (command, ()))
        return main(["solve-n", "--config", "unused", "--out", str(tmp_path / "out")])

    def test_reissued_on_success(self, monkeypatch, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert self.run_warning(monkeypatch, tmp_path, 0) == 0
        assert [(w.category, str(w.message)) for w in seen] == [
            (RuntimeWarning, "overflow in a test")]
        # under the suite's own filter the reissued warning is an error
        with pytest.raises(RuntimeWarning, match="overflow in a test"):
            self.run_warning(monkeypatch, tmp_path, 0)
        assert capsys.readouterr().err == ""

    def test_repeats_shown_once_under_default_filter(self, monkeypatch, tmp_path):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("default")
            assert self.run_warning(monkeypatch, tmp_path, 0, repeats=3) == 0
        assert len(seen) == 1

    def test_reissued_before_unhandled_exception(self, monkeypatch, tmp_path):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match="not a handled failure"):
                self.run_warning(monkeypatch, tmp_path, RuntimeError("not a handled failure"))
        assert [(w.category, str(w.message)) for w in seen] == [
            (RuntimeWarning, "overflow in a test")]

    def test_named_in_the_failure_line(self, monkeypatch, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = self.run_warning(monkeypatch, tmp_path, merton_arena.ValidationError("bad"))
        assert code == 2
        assert seen == []
        assert capsys.readouterr().err == (
            "merton-arena: invalid input: bad (RuntimeWarning: overflow in a test)\n")

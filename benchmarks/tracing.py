"""Spans around calls into merton_arena, recorded from outside the package.

`Tracer.install()` replaces public functions at the module attributes their
callers resolve (for example ``verification.block_normals``, which the
best-response scan looks up in its own module) with wrappers that record a
span: name, start, end, parent span and thread id, plus a small info dict
(sizes of the work done).  `Tracer.uninstall()` puts the originals back, so
one process can alternate untraced and traced iterations.  Spans stay in
memory; `layer_metrics` derives counts, busy times and self times from them.
"""
from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

from merton_arena import cli, mfg, nplayer, policy, simulation, types, verification


def _population_size(args, kwargs) -> dict:
    return {"n": args[0].n}


def _atom_count(args, kwargs) -> dict:
    return {"atoms": len(args[0].atoms)}


def _normals_info(args, kwargs) -> dict:
    seed, stream, start, count, draws = args
    return {"key": (seed, stream, draws), "start": start, "count": count,
            "normals": count * draws}


def _scan_info(args, kwargs) -> dict:
    dpi, ab, paths = args[3], args[4], args[5]
    grid = kwargs.get("grid", args[7] if len(args) > 7 else 1000)
    return {"cell_path_steps": len(dpi) * len(ab) ** 2 * paths * grid}


def _simulate_info(args, kwargs) -> dict:
    grid = kwargs.get("grid", args[2] if len(args) > 2 else simulation.DEFAULT_GRID)
    paths = kwargs.get("paths", args[3] if len(args) > 3 else simulation.DEFAULT_PATHS)
    return {"path_steps": paths * grid}


def _batch_bytes(result) -> dict:
    arrays = (result.log_wealth, result.dW, result.dB)
    return {"bytes": sum(a.nbytes for a in arrays if a is not None)}


# (span name, owner object, attribute, info from arguments, info from result).
# A function imported by name into several modules is wrapped at each of them.
_TARGETS = (
    ("simulation.block_normals", simulation, "block_normals", _normals_info, None),
    ("simulation.block_normals", verification, "block_normals", _normals_info, None),
    ("simulation.simulate", simulation, "simulate", _simulate_info, _batch_bytes),
    ("simulation.estimate_objective", simulation, "estimate_objective", None, None),
    ("verification.best_response_test", verification, "best_response_test",
     _scan_info, None),
    ("verification.fixed_point_check", verification, "fixed_point_check", None, None),
    ("verification.bernoulli_oracle", verification, "bernoulli_oracle", None, None),
    ("verification.mfg_convergence", verification, "mfg_convergence", None, None),
    ("nplayer.solve_n", nplayer, "solve_n", _population_size, None),
    ("nplayer.solve_n", verification, "solve_n", _population_size, None),
    ("mfg.solve_mf", mfg, "solve_mf", _atom_count, None),
    ("mfg.solve_mf", verification, "solve_mf", _atom_count, None),
    ("policy.consumption_rate", policy, "consumption_rate", None, None),
    ("types.arrays", types.Population, "arrays", None, None),
    ("types.arrays", types.TypeDistribution, "arrays", None, None),
    ("types.validate", types, "validate_population", None, None),
    ("types.validate", types, "validate_distribution", None, None),
    ("types.validate", nplayer, "validate_population", None, None),
    ("types.validate", simulation, "validate_population", None, None),
    ("types.validate", verification, "validate_population", None, None),
    ("types.validate", verification, "validate_distribution", None, None),
    ("types.validate", mfg, "validate_distribution", None, None),
    ("cli.main", cli, "main", None, None),
)


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, thread, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, info_args, info_result):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # Pool threads of the scan have no open span of their own: their
            # parent is the span the main thread has open.
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            info = info_args(args, kwargs) if info_args else {}
            span = [name, 0.0, 0.0, parent, threading.get_ident(), info]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info_result:
                info.update(info_result(result))
            return result

        return traced

    def install(self) -> None:
        for name, owner, attr, info_args, info_result in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, info_args, info_result))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def as_records(self) -> list[dict]:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "thread": s[4], **{k: v for k, v in s[5].items() if k != "key"}}
                for s in self.spans]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[3] is not None:
            children[s[3]].append((s[1], s[2]))
    return [s[2] - s[1] - _covered(children.get(i, []), s[1], s[2])
            for i, s in enumerate(spans)]


def _unique_normals(infos: list[dict]) -> int:
    """Normals in the union of (seed, stream, draws) path windows drawn."""
    windows = defaultdict(list)
    for info in infos:
        windows[info["key"]].append((info["start"], info["start"] + info["count"]))
    total = 0
    for (_, _, draws), ranges in windows.items():
        total += int(_covered(ranges, float("-inf"), float("inf"))) * draws
    return total


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one traced iteration (0 where a layer is idle)."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    infos = defaultdict(list)
    for s, self_s in zip(spans, selfs):
        calls[s[0]] += 1
        busy[s[0]] += s[2] - s[1]
        own[s[0]] += self_s
        infos[s[0]].append(s[5])

    def total(name, key):
        return sum(i[key] for i in infos[name])

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    normals = total("simulation.block_normals", "normals")
    unique = _unique_normals(infos["simulation.block_normals"])
    return {
        "simulation.block_normals.calls": calls["simulation.block_normals"],
        "simulation.block_normals.normals": normals,
        "simulation.block_normals.s": busy["simulation.block_normals"],
        "simulation.block_normals.ns_per_normal":
            1e9 * busy["simulation.block_normals"] / normals if normals else 0.0,
        "verification.scan.normal_reuse_ratio": unique / normals if normals else 0.0,
        "verification.best_response_test.self_s": own["verification.best_response_test"],
        "verification.best_response_test.cell_path_steps_per_s": rate(
            total("verification.best_response_test", "cell_path_steps"),
            busy["verification.best_response_test"]),
        "simulation.simulate.self_s": own["simulation.simulate"],
        "simulation.simulate.path_steps_per_s": rate(
            total("simulation.simulate", "path_steps"), busy["simulation.simulate"]),
        "simulation.simulate.bytes_computed": total("simulation.simulate", "bytes"),
        "simulation.estimate_objective.s": busy["simulation.estimate_objective"],
        "types.arrays.calls": calls["types.arrays"],
        "types.arrays.s": busy["types.arrays"],
        "types.validate.s": busy["types.validate"],
        "nplayer.solve_n.calls": calls["nplayer.solve_n"],
        "nplayer.solve_n.self_s": own["nplayer.solve_n"],
        "nplayer.solve_n.agents_per_s": rate(total("nplayer.solve_n", "n"),
                                             busy["nplayer.solve_n"]),
        "mfg.solve_mf.calls": calls["mfg.solve_mf"],
        "mfg.solve_mf.self_s": own["mfg.solve_mf"],
        "mfg.solve_mf.atoms_per_s": rate(total("mfg.solve_mf", "atoms"),
                                         busy["mfg.solve_mf"]),
        "verification.fixed_point_check.self_s": own["verification.fixed_point_check"],
        "verification.bernoulli_oracle.calls": calls["verification.bernoulli_oracle"],
        "verification.bernoulli_oracle.s": busy["verification.bernoulli_oracle"],
        "policy.consumption_rate.calls": calls["policy.consumption_rate"],
        "policy.consumption_rate.s": busy["policy.consumption_rate"],
        "verification.mfg_convergence.self_s": own["verification.mfg_convergence"],
        "cli.main.self_s": own["cli.main"],
    }

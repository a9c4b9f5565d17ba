"""Span tracing of the package from outside, by wrapping its public names.

Nothing here is imported by the package.  ``install`` replaces each traced
name with a wrapper that records a span (name, start, end, parent, pass id
and a few attributes) and returns a function that puts the originals back.
A package function is replaced in every package module that binds it, so
callers that imported it by name are traced too; foreign names
(``solve_ivp``, ``ThreadPoolExecutor``, ``numpy.linalg.eigh``) are replaced
only in the module whose calls they should capture.  A name that no longer
exists is recorded as missing instead of failing the run.

``layer_metrics`` turns the spans of one pass into per-layer numbers: self
times (a span's duration minus the union of its children's intervals), the
propagation and noise-solver totals, and counts.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

# span name -> self-time metric; the self times of one pass sum to its wall
# time when the pass runs on one thread
SELF_METRICS = {
    "bench.pass": "trace.other_s",
    "cli.main": "cli.main_s",
    "config.parse": "config.parse_s",
    "experiments.format": "experiments.format_s",
    "experiments.sweep": "experiments.sweep_s",
    "experiments.point": "experiments.point_self_s",
    "hilbert.enumerate": "hilbert.enumerate_s",
    "hilbert.assemble": "hilbert.assemble_s",
    "hilbert.matrix_check": "hilbert.matrix_check_s",
    "effective.assemble": "effective.assemble_s",
    "collective.assemble": "collective.assemble_s",
    "dynamics.evolve": "dynamics.observables_s",
    "dynamics.eigh": "dynamics.eigh_s",
    "dynamics.rk": "dynamics.rk_s",
    "dynamics.metrics": "dynamics.metrics_s",
    "dynamics.battery_energy": "dynamics.battery_energy_s",
    "qsd.solve": "qsd.amplitudes_s",
    "qsd.rk": "qsd.rk_s",
}

# span name -> inclusive-time metric
TOTAL_METRICS = {
    "dynamics.evolve": "dynamics.evolve_s",
    "qsd.solve": "qsd.solve_s",
}

COUNT_METRICS = (
    "hilbert.dim",
    "hilbert.nnz",
    "dynamics.dense_calls",
    "dynamics.eigh_dim3",
    "dynamics.rk_calls",
    "dynamics.rk_nfev",
    "dynamics.sample_bytes",
    "qsd.rk_nfev",
    "experiments.csv_bytes",
    "experiments.points",
)


class Tracer:
    """In-memory span recorder; spans are written out once, at the end."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.pass_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, attrs=None):
        """Run fn inside a span; attrs(args, result) adds span attributes."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        extra = {}
        if attrs is not None:
            try:
                extra = attrs(args, result)
            except (AttributeError, IndexError, TypeError):  # the signature changed
                self.missing.append(f"{name} attributes")
        with self._lock:
            self.spans.append((span_id, name, start, end, parent, self.pass_id, extra))
        return result

    def call_under(self, parent, name, fn, args, kwargs):
        """Run fn in a span whose parent was opened on another thread."""
        stack = self._stack()
        saved = list(stack)
        stack[:] = [] if parent is None else [parent]
        try:
            return self.call(name, fn, args, kwargs)
        finally:
            stack[:] = saved

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, pass_id, extra in self.spans:
                record = {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "run": pass_id,
                }
                record.update(extra)
                handle.write(json.dumps(record) + "\n")


def _matrix_attrs(args, _result):
    matrix = args[0]
    return {"dim": int(matrix.dimension), "nnz": int(matrix.nnz)}


def _eigh_attrs(args, _result):
    return {"dim": int(args[0].shape[0])}


def _nfev_attrs(_args, result):
    return {"nfev": int(result.nfev)}


def _evolve_attrs(args, _result):
    return {"dim": int(args[0].dimension), "samples": len(args[2])}


def _csv_attrs(_args, result):
    return {"csv_bytes": len(result)}


# (module, attribute, span name, attribute hook); "Class.method" patches a method
TARGETS = (
    ("magnon_battery.cli", "main", "cli.main", None),
    ("magnon_battery.experiments", "parse_config", "config.parse", None),
    ("magnon_battery.experiments", "run_experiment", "experiments.format", _csv_attrs),
    ("magnon_battery.experiments", "sweep_metrics", "experiments.sweep", None),
    ("magnon_battery.hilbert", "enumerate_sector_basis", "hilbert.enumerate", None),
    ("magnon_battery.hilbert", "build_full_hamiltonian", "hilbert.assemble", None),
    ("magnon_battery.hilbert", "HamiltonianMatrix.__init__", "hilbert.matrix_check", _matrix_attrs),
    ("magnon_battery.effective", "build_effective_hamiltonian", "effective.assemble", None),
    ("magnon_battery.collective", "build_collective_hamiltonian", "collective.assemble", None),
    ("magnon_battery.dynamics", "evolve", "dynamics.evolve", _evolve_attrs),
    ("magnon_battery.dynamics", "charging_metrics", "dynamics.metrics", None),
    ("magnon_battery.dynamics", "battery_energy_full", "dynamics.battery_energy", None),
    ("magnon_battery.dynamics", "solve_ivp", "dynamics.rk", _nfev_attrs),
    ("magnon_battery.qsd", "solve_calF", "qsd.solve", None),
    ("magnon_battery.qsd", "solve_f12", "qsd.solve", None),
    ("magnon_battery.qsd", "solve_ivp", "qsd.rk", _nfev_attrs),
    ("numpy.linalg", "eigh", "dynamics.eigh", _eigh_attrs),
    ("magnon_battery.experiments", "ThreadPoolExecutor", "experiments.point", None),
)


def _wrap(tracer, name, fn, attrs):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs)

    return wrapper


def _traced_pool(tracer, name, base):
    """Executor whose tasks run in spans parented to the submitting span."""

    class TracedPool(base):
        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()
            return super().submit(tracer.call_under, parent, name, fn, args, kwargs)

    return TracedPool


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    patches = []  # (owner, attribute, original)
    for module_name, attr, span, attrs in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        if isinstance(original, type):
            patches.append((owner, leaf, original))
            setattr(owner, leaf, _traced_pool(tracer, span, original))
            continue
        if path or not getattr(original, "__module__", "").startswith("magnon_battery"):
            bindings = [(owner, leaf)]
        else:
            bindings = [
                (module, key)
                for mod_name, module in list(sys.modules.items())
                if mod_name.split(".")[0] == "magnon_battery" and module is not None
                for key, value in list(vars(module).items())
                if value is original
            ]
        wrapper = _wrap(tracer, span, original, attrs)
        for module, key in bindings:
            patches.append((module, key, original))
            setattr(module, key, wrapper)

    def restore():
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)

    return restore


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, threads: int) -> dict:
    """Per-layer numbers for the spans of one traced pass."""
    children = defaultdict(list)
    for span_id, name, start, end, parent, _, extra in spans:
        children[parent].append((start, end, name))
    out = {metric: 0.0 for metric in SELF_METRICS.values()}
    out.update({metric: 0.0 for metric in TOTAL_METRICS.values()})
    out.update({metric: 0 for metric in COUNT_METRICS})
    points = []
    wall = 0.0
    for span_id, name, start, end, parent, _, extra in spans:
        kids = children.get(span_id, [])
        covered = _union_length(
            (max(s, start), min(e, end)) for s, e, _ in kids if min(e, end) > max(s, start)
        )
        out[SELF_METRICS[name]] += (end - start) - covered
        if name in TOTAL_METRICS:
            out[TOTAL_METRICS[name]] += end - start
        if name == "bench.pass":
            wall += end - start
        elif name == "hilbert.matrix_check":
            out["hilbert.dim"] += extra.get("dim", 0)
            out["hilbert.nnz"] += extra.get("nnz", 0)
        elif name == "dynamics.eigh":
            out["dynamics.dense_calls"] += 1
            out["dynamics.eigh_dim3"] += extra.get("dim", 0) ** 3
        elif name == "dynamics.rk":
            out["dynamics.rk_calls"] += 1
            out["dynamics.rk_nfev"] += extra.get("nfev", 0)
        elif name == "qsd.rk":
            out["qsd.rk_nfev"] += extra.get("nfev", 0)
        elif name == "experiments.format":
            out["experiments.csv_bytes"] += extra.get("csv_bytes", 0)
        elif name == "experiments.point":
            points.append(end - start)
        elif name == "dynamics.evolve":
            # the dense path materialises phases and states, the integrator
            # path its solution array: samples x dim complex128 each
            arrays = 2 if any(k == "dynamics.eigh" for _, _, k in kids) else 1
            size = arrays * extra.get("samples", 0) * extra.get("dim", 0) * 16
            out["dynamics.sample_bytes"] = max(out["dynamics.sample_bytes"], size)
    out["experiments.points"] = len(points)
    out["experiments.point_p50_s"] = statistics.median(points) if points else 0.0
    out["experiments.point_max_s"] = max(points, default=0.0)
    out["experiments.parallel_eff"] = sum(points) / (threads * wall) if wall > 0 else 0.0
    out["trace.wall_s"] = wall
    out["trace.accounted_s"] = sum(out[m] for m in SELF_METRICS.values())
    return out

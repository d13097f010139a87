"""Layer spans for traced benchmark runs, recorded from outside ``src/``.

:func:`install` wraps the public functions of each pipeline layer (the
table in ``LAYERS``) so every call records a span: name, start, end,
parent span, process and thread, plus a few counts read off the call's
arguments or result. Spans are kept in memory. The driving process
writes its spans when the workload ends (:func:`flush`); a forked worker
writes its batch whenever its outermost span closes, because the engine
may terminate an idle worker at any moment.

Wrappers replace a function wherever a caller looks it up: every loaded
``repro`` module whose global is bound to the original (``from x import
f`` copies the binding at import time), plus the defining attribute, so
modules imported later pick up the wrapper too. Install before any
worker process is forked so the workers inherit the wrappers.

:func:`layer_metrics` turns the spans of one traced iteration into the
per-layer metrics, and checks liveness (every wrapped name exists and
every layer the workload should exercise was reached) and conservation
(self times plus the untraced remainder equal the traced wall).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Conservation tolerance: |sum of self times + remainder - wall| must be
#: within this share of the traced wall (the terms are computed from
#: the same clock, so only a broken span tree can exceed it).
CONSERVATION_TOLERANCE = 0.005


class TraceError(RuntimeError):
    """A liveness or conservation check failed; the traced run is void."""


def _record_attrs(args, kwargs, record) -> Dict[str, Any]:
    traffic = sum(record.traffic_bytes.values())
    dispatch = record.dispatch or {}
    return {"tasks": record.num_tasks, "cycles": record.cycles,
            "dram_bytes": traffic,
            "scalar": dispatch.get("scalar", 0),
            "epoch": dispatch.get("epoch", 0)}


def _generate_attrs(args, kwargs, matrix) -> Dict[str, Any]:
    return {"nnz": int(matrix.nnz)}


def _load_attrs(args, kwargs, payload) -> Dict[str, Any]:
    return {"hit": payload is not None}


def _store_attrs(args, kwargs, _result) -> Dict[str, Any]:
    from repro.engine import diskcache
    path = diskcache.entry_path(args[0] if args else kwargs["key"])
    try:
        return {"bytes": path.stat().st_size}
    except OSError:  # cache disabled or entry raced away
        return {"bytes": 0}


def _program_attrs(args, kwargs, program) -> Dict[str, Any]:
    return {"program": program is not None}


def _sweep_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {key: int(value) for key, value in result.stats.items()}


# (layer, span name, module, attribute path, attrs function).  The span
# name is what liveness and the metrics refer to.
LAYERS: List[Tuple[str, str, str, str, Optional[Callable]]] = [
    ("matrices", "suite.load", "repro.matrices.suite", "load", None),
    ("matrices", "matrix.generate", "repro.matrices.suite",
     "MatrixSpec.generate", _generate_attrs),
    ("preprocessing", "preprocess", "repro.preprocessing.pipeline",
     "preprocess", None),
    ("preprocessing", "affinity_reorder", "repro.preprocessing.reorder",
     "affinity_reorder", None),
    ("preprocessing", "tile_matrix", "repro.preprocessing.tiling",
     "tile_matrix", None),
    ("engine", "cached_program", "repro.engine.sweep", "cached_program",
     _program_attrs),
    ("engine", "execute_point", "repro.engine.sweep", "execute_point",
     None),
    ("engine", "run_sweep", "repro.engine.sweep", "run_sweep",
     _sweep_attrs),
    ("cache", "cache.load", "repro.engine.diskcache", "load", _load_attrs),
    ("cache", "cache.store", "repro.engine.diskcache", "store",
     _store_attrs),
    ("core", "gamma.run", "repro.engine.registry", "GammaModel.run",
     _record_attrs),
    ("core", "gamma-spmv.run", "repro.engine.registry",
     "GammaSpmvModel.run", _record_attrs),
    ("baselines", "baseline.run", "repro.engine.registry",
     "_BaselineModel.run", None),
    ("baselines", "compare_dataflows", "repro.baselines.dataflows",
     "compare_dataflows", None),
    ("figures", "generate_figures", "repro.figures.pipeline",
     "generate_figures", None),
    ("serve", "serve.submit", "repro.serve.server", "JobServer.submit",
     None),
]

#: Span names of the figure generators are ``figure.<id>`` (layer
#: ``figures``); they are wrapped per catalog entry, not by name.
FIGURE_SPAN_PREFIX = "figure."

#: Span names each workload must reach at least once (liveness). A
#: wrapped function that is never called here means the benchmark no
#: longer measures that layer, which fails the traced run.
MUST_REACH: Dict[str, List[str]] = {
    "figures-cold": [
        "suite.load", "matrix.generate", "preprocess", "affinity_reorder",
        "tile_matrix", "cached_program", "execute_point", "cache.load",
        "cache.store", "gamma.run", "baseline.run", "compare_dataflows",
        "generate_figures"],
    "sweep-paper": [
        "suite.load", "matrix.generate", "preprocess", "affinity_reorder",
        "tile_matrix", "cached_program", "execute_point", "run_sweep",
        "cache.load", "cache.store", "gamma.run", "baseline.run"],
    "serve-zipf": [
        "suite.load", "matrix.generate", "preprocess", "affinity_reorder",
        "cached_program", "execute_point", "cache.load", "cache.store",
        "gamma.run", "baseline.run", "serve.submit"],
}


class _Recorder:
    """Per-process span buffer; reset in forked children."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.local = threading.local()
        self.pid = os.getpid()
        self.is_worker = False
        self.batches = 0
        self.out_dir: Optional[Path] = None

    def after_fork(self) -> None:
        self.spans = []
        self.batches = 0
        self.local = threading.local()
        self.pid = os.getpid()
        self.is_worker = True

    def stack(self) -> List[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def write(self) -> None:
        if self.out_dir is None or not self.spans:
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for name, start, end, parent, tid, attrs in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "batch": self.batches,
                    "pid": self.pid, "tid": tid, "attrs": attrs}) + "\n")
        self.spans = []
        self.batches += 1


_REC = _Recorder()


def _wrap(name: str, fn: Callable, attrs_fn: Optional[Callable]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _REC
        stack = rec.stack()
        span = [name, time.perf_counter(), None,
                stack[-1] if stack else None, threading.get_ident(), None]
        index = len(rec.spans)
        rec.spans.append(span)
        stack.append(index)
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            span[2] = time.perf_counter()
            stack.pop()
            if ok and attrs_fn is not None:
                span[5] = attrs_fn(args, kwargs, result)
            if rec.is_worker and not stack:
                rec.write()
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a dotted attribute path; raises
    :class:`TraceError` when the public name no longer exists."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise TraceError(f"liveness: cannot import {module_name}: {exc}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    original = getattr(owner, parts[-1], None) if owner is not None \
        else None
    if not callable(original):
        raise TraceError(
            f"liveness: {module_name}.{path} no longer exists; update "
            "perfbench/tracer.py LAYERS")
    return owner, parts[-1], original


def install(out_dir: Path) -> None:
    """Wrap every layer function and arm per-process span files."""
    _REC.out_dir = Path(out_dir)
    _REC.out_dir.mkdir(parents=True, exist_ok=True)
    os.register_at_fork(after_in_child=_REC.after_fork)
    for module_name in ("repro.figures", "repro.serve",
                        "repro.experiments.runner", "repro.engine"):
        importlib.import_module(module_name)
    for _, name, module_name, path, attrs_fn in LAYERS:
        owner, attr, original = _resolve(module_name, path)
        wrapper = _wrap(name, original, attrs_fn)
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            continue
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    from repro.figures.generators import FIGURE_GENERATORS
    for generator in FIGURE_GENERATORS:
        # Frozen dataclass: the catalog and its by-id index share these
        # instances, so replacing the field in place covers both.
        object.__setattr__(generator, "build", _wrap(
            FIGURE_SPAN_PREFIX + generator.figure_id, generator.build,
            None))


def flush() -> None:
    """Write the driving process's spans (call once, after the workload)."""
    _REC.write()


def load_spans(out_dir: Path) -> List[Dict[str, Any]]:
    """All spans of a traced iteration, each with a global ``id`` and a
    global ``parent`` id (parents never cross processes)."""
    spans: List[Dict[str, Any]] = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        batch_start: Dict[int, int] = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                span = json.loads(line)
                span["id"] = len(spans)
                base = batch_start.setdefault(span["batch"], span["id"])
                span["parent_id"] = (None if span["parent"] is None
                                     else base + span["parent"])
                spans.append(span)
    return spans


def layer_of(name: str) -> str:
    if name.startswith(FIGURE_SPAN_PREFIX):
        return "figures"
    for layer, span_name, *_ in LAYERS:
        if span_name == name:
            return layer
    raise KeyError(name)


def _covered(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _sum(spans, key: str) -> float:
    return sum((span["attrs"] or {}).get(key, 0) for span in spans)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: List[Dict[str, Any]], workload: str,
                  window: Tuple[float, float], main_pid: int,
                  main_tid: int, figure_ids: List[str],
                  slots: int) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``window`` is the traced workload's (start, end) on the
    ``perf_counter`` clock in the driving process (``main_pid`` /
    ``main_tid``); ``slots`` is its worker-process count. Raises
    :class:`TraceError` when liveness or conservation fails.
    """
    lo, hi = window
    # Checks after the timed work (the sweep's scipy oracle loads every
    # matrix again) are not part of the traced iteration.
    spans = [s for s in spans
             if s["end"] is not None and lo <= s["start"] and s["end"] <= hi]
    children: Dict[int, List[Dict[str, Any]]] = {}
    for span in spans:
        if span["parent_id"] is not None:
            children.setdefault(span["parent_id"], []).append(span)
    for span in spans:
        span["dur"] = span["end"] - span["start"]
        span["self"] = span["dur"] - _covered(
            [(c["start"], c["end"]) for c in children.get(span["id"], [])],
            span["start"], span["end"])

    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(name: str) -> float:
        return sum(span["dur"] for span in by_name.get(name, ()))

    missing = [name for name in MUST_REACH[workload] if not calls(name)]
    if workload.startswith("figures"):
        missing += [FIGURE_SPAN_PREFIX + figure_id for figure_id in figure_ids
                    if not calls(FIGURE_SPAN_PREFIX + figure_id)]
    if missing:
        raise TraceError(
            f"liveness: {workload} never reached {', '.join(missing)}")

    # Conservation, in the driving thread: self times of its spans plus
    # the time no span covers must add up to the traced wall.
    wall = hi - lo
    main = [span for span in spans
            if span["pid"] == main_pid and span["tid"] == main_tid]
    roots = [(s["start"], s["end"]) for s in main if s["parent_id"] is None]
    remainder = wall - _covered(roots, lo, hi)
    self_main = sum(span["self"] for span in main)
    error = abs(self_main + remainder - wall) / wall
    if error > CONSERVATION_TOLERANCE or remainder < -1e-6:
        raise TraceError(
            f"conservation: self {self_main:.4f}s + remainder "
            f"{remainder:.4f}s vs wall {wall:.4f}s (error {error:.2%})")

    programs = [s for s in by_name.get("cached_program", ())
                if s["attrs"]["program"]]
    built = [s for s in programs
             if any(c["name"] == "preprocess"
                    for c in children.get(s["id"], ()))]
    models = by_name.get("gamma.run", []) + by_name.get("gamma-spmv.run", [])
    simulate_s = sum(span["dur"] for span in models)
    dispatched = _sum(models, "scalar") + _sum(models, "epoch")
    loads = by_name.get("cache.load", [])
    stores = by_name.get("cache.store", [])
    sweeps = by_name.get("run_sweep", [])
    worker_roots = [s for s in spans
                    if s["pid"] != main_pid and s["parent_id"] is None]
    slot_busy = sum(span["dur"] for span in worker_roots)
    figure_spans = [s for s in spans
                    if s["name"].startswith(FIGURE_SPAN_PREFIX)]

    metrics: Dict[str, float] = {
        "matrices.generate_s": total("matrix.generate"),
        "matrices.generate_calls": calls("matrix.generate"),
        "matrices.generated_nnz": _sum(by_name.get("matrix.generate", []),
                                       "nnz"),
        "preprocessing.preprocess_s": total("preprocess"),
        "preprocessing.reorder_s": total("affinity_reorder"),
        "preprocessing.tile_s": total("tile_matrix"),
        "preprocessing.calls": calls("preprocess"),
        "engine.program_build_s": sum(span["dur"] for span in built),
        "engine.program_hit_ratio": _ratio(len(programs) - len(built),
                                           len(programs)),
        "core.simulate_s": simulate_s,
        "core.simulate_calls": len(models),
        "core.tasks": _sum(models, "tasks"),
        "core.tasks_per_s": _ratio(_sum(models, "tasks"), simulate_s),
        "core.scalar_dispatch_fraction": _ratio(_sum(models, "scalar"),
                                                dispatched),
        "core.sim_cycles_total": _sum(models, "cycles"),
        "core.dram_bytes_total": _sum(models, "dram_bytes"),
        "baselines.models_s": total("baseline.run"),
        "baselines.models_calls": calls("baseline.run"),
        "baselines.dataflows_s": total("compare_dataflows"),
        "baselines.dataflows_calls": calls("compare_dataflows"),
        "engine.cache_load_s": total("cache.load"),
        "engine.cache_load_calls": len(loads),
        "engine.cache_hit_ratio": _ratio(
            sum(1 for span in loads if span["attrs"]["hit"]), len(loads)),
        "engine.cache_store_s": total("cache.store"),
        "engine.cache_store_calls": len(stores),
        "engine.cache_store_bytes": _sum(stores, "bytes"),
        "engine.points_computed": _sum(sweeps, "executed"),
        "engine.points_cached": _sum(sweeps, "cached"),
        "engine.retries": _sum(sweeps, "retries"),
        "engine.quarantined": _sum(sweeps, "quarantined"),
        "engine.slot_busy_s": slot_busy,
        "engine.slot_idle_fraction": (
            max(0.0, 1.0 - slot_busy / (slots * wall)) if slots else 0.0),
        "figures.build_s": sum(span["self"] for span in figure_spans),
        "figures.emit_s": total("generate_figures") - sum(
            span["dur"] for span in figure_spans),
        "trace.wall_s": wall,
        "trace.untraced_remainder_s": remainder,
        "trace.conservation_error_fraction": error,
    }
    for figure_id in figure_ids:
        metrics[f"figures.build.{figure_id}_s"] = total(
            FIGURE_SPAN_PREFIX + figure_id)
    self_by_layer: Dict[str, float] = {}
    for span in spans:
        layer = layer_of(span["name"])
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + span["self"]
    for layer in sorted({layer for layer, *_ in LAYERS}):
        metrics[f"trace.self.{layer}_s"] = self_by_layer.get(layer, 0.0)
    return metrics

"""Fleet roll-up: aggregate a sweep's records into one summary object.

A sweep produces one :class:`~repro.engine.record.RunRecord` per point
plus (optionally) a per-point :class:`~repro.obs.metrics.MetricsRegistry`
blob. This module folds them into the paper's headline aggregates —
geometric-mean speedup over the MKL baseline, geometric-mean normalized
traffic, per-bank FiberCache hit-rate distributions — plus merged cache
counters, in a **deterministic** form: every row and table is a pure
function of the records, sorted by stable keys, with no wall-clock or
process-layout input. That property is what lets the run report promise
byte-identical output across serial and parallel executions of the same
plan (execution-order data — stats, attempts, slot timing — is rolled up
separately by :func:`execution_rollup` and kept out of the default
report).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.analysis.metrics import gmean
from repro.obs.metrics import MetricsRegistry
from repro.obs.numfmt import canonical

#: Bump when the roll-up layout changes (stored in every summary).
ROLLUP_SCHEMA_VERSION = 1

#: The CPU reference every speedup is measured against (paper Sec. 6).
REFERENCE_MODEL = "mkl"


def model_label(record) -> str:
    """Display key for aggregation: Gamma rows are split by variant."""
    if record.model == "gamma":
        return f"gamma[{record.variant}]"
    return record.model


def summary_rows(records: Dict[Any, Any]) -> List[Dict[str, Any]]:
    """Every record's :meth:`~repro.engine.record.RunRecord.summary_row`,
    sorted by ``(model, matrix, variant)`` for a stable table order."""
    rows = [record.summary_row() for record in records.values()]
    rows.sort(key=lambda r: (r["model"], r["matrix"], r["variant"]))
    return rows


def speedup_table(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Geometric-mean speedup vs :data:`REFERENCE_MODEL` per model label.

    Speedup on one matrix is ``reference_runtime / model_runtime``; the
    aggregate is the gmean over the matrices both the model and the
    reference covered (the paper's cross-suite summary statistic).
    """
    reference = {
        row["matrix"]: row["runtime_seconds"]
        for row in rows if row["model"] == REFERENCE_MODEL
    }
    by_label: Dict[str, List[float]] = {}
    for row in rows:
        if row["model"] == REFERENCE_MODEL:
            continue
        base = reference.get(row["matrix"])
        if not base or row["runtime_seconds"] <= 0:
            continue
        label = (f"gamma[{row['variant']}]"
                 if row["model"] == "gamma" else row["model"])
        by_label.setdefault(label, []).append(
            base / row["runtime_seconds"])
    return [
        {
            "model": label,
            "matrices": len(values),
            "gmean_speedup": gmean(values),
            "min_speedup": min(values),
            "max_speedup": max(values),
        }
        for label, values in sorted(by_label.items())
    ]


def traffic_table(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Geometric-mean normalized DRAM traffic per model label.

    Normalized traffic is total/compulsory bytes (1.0 = perfect reuse —
    the paper's Fig. 15 y-axis); MKL rows are excluded because the CPU
    model has no compulsory-traffic baseline.
    """
    by_label: Dict[str, List[float]] = {}
    for row in rows:
        if row["model"] == REFERENCE_MODEL:
            continue
        value = row["normalized_traffic"]
        if value <= 0:
            continue
        label = (f"gamma[{row['variant']}]"
                 if row["model"] == "gamma" else row["model"])
        by_label.setdefault(label, []).append(value)
    return [
        {
            "model": label,
            "matrices": len(values),
            "gmean_normalized_traffic": gmean(values),
            "worst_normalized_traffic": max(values),
        }
        for label, values in sorted(by_label.items())
    ]


def metrics_rollup(records: Dict[Any, Any]) -> Optional[Dict[str, Any]]:
    """Merge the per-point metrics blobs of instrumented records.

    Counters with the same name are summed across points (total DRAM
    bytes by stream, total FiberCache hits/misses for the whole sweep);
    per-bank hit rates are summarized per point as min/mean/max so bank
    imbalance outliers stay visible after aggregation. Returns None when
    no record carries a blob (metrics collection is opt-in).
    """
    instrumented = sorted(
        ((point, record) for point, record in records.items()
         if record.metrics is not None),
        key=lambda item: (item[1].model, item[1].matrix,
                          item[1].variant),
    )
    if not instrumented:
        return None
    counters: Dict[str, float] = {}
    bank_rows: List[Dict[str, Any]] = []
    for _, record in instrumented:
        registry = MetricsRegistry.from_blob(record.metrics)
        for name, value in registry.to_blob()["counters"].items():
            counters[name] = counters.get(name, 0) + value
        rates = registry.info("cache/bank_hit_rates")
        if rates:
            bank_rows.append({
                "matrix": record.matrix,
                "variant": record.variant,
                "banks": len(rates),
                "min_hit_rate": min(rates),
                "mean_hit_rate": sum(rates) / len(rates),
                "max_hit_rate": max(rates),
                "load_imbalance":
                    registry.gauge("cache/bank_load_imbalance").value,
            })
    hits = sum(value for name, value in counters.items()
               if name.endswith("_hits"))
    misses = sum(value for name, value in counters.items()
                 if name.endswith("_misses"))
    return {
        "instrumented_points": len(instrumented),
        "counters": {name: counters[name] for name in sorted(counters)},
        "fibercache_hit_rate":
            hits / (hits + misses) if (hits + misses) else None,
        "bank_hit_rates": bank_rows,
    }


def rollup(result) -> Dict[str, Any]:
    """The deterministic summary of a sweep result.

    ``result`` is a :class:`~repro.engine.sweep.SweepResult` (or any
    point→record mapping with optional ``quarantined``). Everything in
    the returned object is independent of execution order, worker
    count, caching, and wall clock, and every number is routed through
    :func:`repro.obs.numfmt.canonical` so the serialized summary (and
    the figure artifacts built from it) is byte-identical across
    platforms and numpy versions.
    """
    rows = summary_rows(result)
    quarantined = [
        {
            "point": point.label(),
            "reason": failure.reason,
            "attempts": failure.attempts,
            "error": getattr(failure, "error", ""),
        }
        for point, failure in sorted(
            getattr(result, "quarantined", {}).items(),
            key=lambda item: item[0].label())
    ]
    return canonical({
        "schema": ROLLUP_SCHEMA_VERSION,
        "num_records": len(rows),
        "models": sorted({row["model"] for row in rows}),
        "matrices": sorted({row["matrix"] for row in rows}),
        "records": rows,
        "speedup": speedup_table(rows),
        "traffic": traffic_table(rows),
        "metrics": metrics_rollup(result),
        "quarantined": quarantined,
    })


# ----------------------------------------------------------------------
# Execution-order roll-up (NOT deterministic across serial/parallel)
# ----------------------------------------------------------------------
def slot_utilization(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Busy-time accounting per worker slot from merged run-log events.

    Sums the ``sweep/point`` span durations per slot lane and reports
    each slot's busy seconds and share of the observed sweep window.
    Parent-lane (serial) execution appears as slot ``None``.
    """
    busy: Dict[Optional[int], float] = {}
    points: Dict[Optional[int], int] = {}
    window_start = None
    window_end = None
    for event in events:
        if event.get("name") != "sweep/point":
            continue
        if event.get("type") != "span":
            continue
        slot = event.get("attrs", {}).get("slot")
        busy[slot] = busy.get(slot, 0.0) + event.get("dur", 0.0)
        points[slot] = points.get(slot, 0) + 1
        start = event.get("ts", 0.0)
        end = start + event.get("dur", 0.0)
        window_start = start if window_start is None \
            else min(window_start, start)
        window_end = end if window_end is None else max(window_end, end)
    window = ((window_end - window_start)
              if window_start is not None else 0.0)
    return [
        {
            "slot": slot,
            "points": points[slot],
            "busy_seconds": busy[slot],
            "utilization": busy[slot] / window if window > 0 else 0.0,
        }
        for slot in sorted(busy, key=lambda s: (s is None, s))
    ]


def serve_rollup(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Service-side roll-up from merged span events.

    Folds the job server's span stream (``serve/*`` job/execution spans
    and admission instants, ``store/*`` tier outcomes, plus the engine's
    ``point/execute`` compute spans) into the serving scorecard: jobs by
    outcome, hit rates per tier, and the coalescing proof — ``jobs
    accepted - coalesced == executions``, and every real simulation
    shows up as exactly one ``point/execute`` span, so K duplicate
    submissions costing one execution is visible as a count equality,
    not an inference.
    """
    counts: Dict[str, int] = {}
    for event in events:
        name = event.get("name", "")
        if name.startswith(("serve/", "store/", "point/", "fault/")):
            counts[name] = counts.get(name, 0) + 1
    l1_hits = counts.get("store/l1_hit", 0)
    l1_misses = counts.get("store/l1_miss", 0)
    l2_hits = counts.get("store/l2_hit", 0)
    l2_misses = counts.get("store/l2_miss", 0)
    lookups = l1_hits + l1_misses
    return {
        "event_counts": {name: counts[name] for name in sorted(counts)},
        "jobs": counts.get("serve/job", 0),
        "executions": counts.get("serve/execute", 0),
        "points_computed": counts.get("point/execute", 0),
        "coalesced_joins": counts.get("serve/coalesced", 0),
        "store_hits": counts.get("serve/hit", 0),
        "rejects_429": counts.get("serve/reject_429", 0),
        "rejects_503": counts.get("serve/reject_503", 0),
        "timeout_kills": counts.get("serve/timeout_kill", 0),
        "faults_injected": counts.get("fault/injected", 0),
        "l1_hit_rate": l1_hits / lookups if lookups else None,
        "l2_hit_rate": (l2_hits / (l2_hits + l2_misses)
                        if (l2_hits + l2_misses) else None),
        "overall_hit_rate": ((l1_hits + l2_hits) / lookups
                             if lookups else None),
    }


def execution_rollup(result,
                     events: Optional[List[Dict[str, Any]]] = None,
                     ) -> Dict[str, Any]:
    """Execution-order facts: stats, attempts, wall time, slot usage.

    These legitimately differ between serial and parallel runs of the
    same plan (dispatch order, retries, slot assignment), so they live
    under a separate key and are excluded from the default report.
    """
    provenance = getattr(result, "provenance", {})
    wall = [meta.get("wall_seconds", 0.0)
            for meta in provenance.values()
            if meta.get("source") == "computed"]
    out: Dict[str, Any] = {
        "stats": dict(getattr(result, "stats", {})),
        "points_computed": sum(
            1 for meta in provenance.values()
            if meta.get("source") == "computed"),
        "points_cached": sum(
            1 for meta in provenance.values()
            if meta.get("source") == "cached"),
        "total_attempts": sum(
            meta.get("attempts", 0) for meta in provenance.values()),
        "compute_wall_seconds": sum(wall),
        "provenance": {
            point.label(): dict(meta)
            for point, meta in sorted(
                provenance.items(), key=lambda item: item[0].label())
        },
    }
    if events is not None:
        from repro.obs import spans as span_mod
        out["event_counts"] = span_mod.count_by_name(events)
        out["slot_utilization"] = slot_utilization(events)
    return canonical(out)

"""Tests of the benchmark itself. Run from the checkout root::

    python3 -m pytest perfbench/test_perfbench.py

The span-arithmetic tests take well under a second. The traced tests
run ``perfbench/run.py --trace 1`` once per workload named in
``predictions.json`` (about three minutes in all on a 2-core host) and
assert every predicted zero there, so a layer that starts doing work
where the prediction table says it does none fails here.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402

PREDICTIONS = json.loads((HERE / "predictions.json").read_text())


def _span(index, name, start, end, parent=None, pid=1, tid=1, attrs=None):
    return {"id": index, "name": name, "start": start, "end": end,
            "parent_id": parent, "pid": pid, "tid": tid, "attrs": attrs}


def _serve_spans():
    """One driving-thread span per name serve-zipf must reach, nested
    two deep, plus one worker span that conservation must ignore."""
    names = tracer.MUST_REACH["serve-zipf"]
    attrs = {"cache.load": {"hit": True}, "cache.store": {"bytes": 10},
             "cached_program": {"program": True}}
    spans = [_span(0, "serve.submit", 1.0, 9.0)]
    t = 1.5
    for name in names:
        if name == "serve.submit":
            continue
        spans.append(_span(len(spans), name, t, t + 0.5, parent=0,
                           attrs=attrs.get(name)))
        t += 0.6
    spans.append(_span(len(spans), "execute_point", 2.0, 4.0, pid=2))
    return spans


def test_missing_public_name_fails_liveness():
    with pytest.raises(tracer.TraceError, match="no longer exists"):
        tracer._resolve("repro.engine.sweep", "no_such_function")
    with pytest.raises(tracer.TraceError, match="no longer exists"):
        tracer._resolve("repro.engine.registry", "GammaModel.no_such")


def test_unreached_layer_fails_liveness():
    with pytest.raises(tracer.TraceError, match="never reached"):
        tracer.layer_metrics([], "sweep-paper", (0.0, 10.0), 1, 1, [], 2)


def test_self_times_and_remainder_sum_to_wall():
    metrics = tracer.layer_metrics(_serve_spans(), "serve-zipf",
                                   (0.0, 10.0), 1, 1, [], 2)
    self_main = sum(value for name, value in metrics.items()
                    if name.startswith("trace.self."))
    # The worker span (pid 2) is self time too, but on another process.
    assert self_main - 2.0 + metrics["trace.untraced_remainder_s"] == \
        pytest.approx(10.0)
    assert metrics["trace.untraced_remainder_s"] == pytest.approx(2.0)
    assert metrics["trace.self.serve_s"] == pytest.approx(
        8.0 - 0.5 * (len(tracer.MUST_REACH["serve-zipf"]) - 1))
    assert metrics["trace.conservation_error_fraction"] < 1e-9
    assert metrics["engine.slot_busy_s"] == pytest.approx(2.0)
    assert metrics["engine.slot_idle_fraction"] == pytest.approx(0.9)


def test_broken_span_tree_fails_conservation():
    spans = _serve_spans()
    # A second root overlapping the first in the same thread cannot
    # happen in a sound trace; its self time is counted twice.
    spans.append(_span(len(spans), "suite.load", 2.0, 8.0))
    with pytest.raises(tracer.TraceError, match="conservation"):
        tracer.layer_metrics(spans, "serve-zipf", (0.0, 10.0), 1, 1, [], 2)


def _predicted_zeros():
    zeros = {}
    for layer in PREDICTIONS["layers"]:
        for metric, workloads in layer.get("zero", {}).items():
            for workload in workloads:
                zeros.setdefault(workload, []).append(metric)
    return sorted(zeros.items())


def test_prediction_table_names_real_metrics():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in config["per_layer"]}
    end_to_end = {m["name"] for m in config["end_to_end"]}
    workloads = {w["name"] for w in config["workloads"]}
    for layer in PREDICTIONS["layers"]:
        for metric in layer["metrics"]:
            if "<id>" not in metric:
                assert metric in per_layer, metric
        assert set(layer["moves"]) <= end_to_end, layer["layer"]
        for table in ("moves", "zero", "near_zero", "no_change"):
            for named in layer.get(table, {}).values():
                assert set(named) <= workloads, (layer["layer"], named)
    assert set(tracer.MUST_REACH) == workloads


@pytest.mark.parametrize("workload,metrics", _predicted_zeros())
def test_traced_run_reads_predicted_zeros(workload, metrics):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert {name: values[name] for name in metrics} == \
        dict.fromkeys(metrics, 0)
    # Conservation held (the run would have failed otherwise) and the
    # layers the workload exercises were reached.
    assert values["trace.conservation_error_fraction"] <= \
        tracer.CONSERVATION_TOLERANCE

"""One workload iteration in a fresh interpreter (spawned by ``run.py``).

A fresh process per iteration is what makes "cold" cold: the suite
matrix memo and the engine's work-program memo live in-process. Roles:

* ``iteration`` -- set up, run the workload once (timed), check outputs;
* ``setup`` -- set up and stop (extra samples for ``setup_s``);
* ``prepare`` -- per-run preparation outside any timing: compute the
  serve reference fingerprints serially in a separate cache directory.

The result is one JSON object written to ``--out``. Set-up time runs
from the instant ``run.py`` spawned this process (``--spawned``,
``time.monotonic``,
which is one clock for every process on the host) to the start of the
timed work. Run from the checkout root.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import random
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

GOLDEN_FIGURES = ROOT / "tests" / "golden" / "figures"
PINNED_SWEEP = Path(__file__).resolve().parent / "pinned" / \
    "sweep_fingerprints.json"

#: Worker processes (sweep) or slots (serve); the host has 2 cores and
#: the driving process mostly waits.
WORKERS = 2

#: Requests in one serve iteration, from 2 closed-loop HTTP clients.
SERVE_REQUESTS = 800
SERVE_CLIENTS = 2

#: sweep-paper: the seed reorders matrices only among this many
#: neighbours in the size ranking (see :func:`sweep_plan`).
SWEEP_ORDER_GROUP = 4


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped worker (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


# ----------------------------------------------------------------------
# figures-cold
# ----------------------------------------------------------------------
def run_figures(out_dir: Path, ready) -> Dict[str, Any]:
    from repro.figures import generate_figures
    from repro.figures.generators import FIGURE_GENERATORS

    starts: List[Tuple[str, float]] = []
    for generator in FIGURE_GENERATORS:
        def build(scope, runner, _fn=generator.build,
                  _id=generator.figure_id):
            starts.append((_id, time.perf_counter()))
            return _fn(scope, runner)
        object.__setattr__(generator, "build", build)

    t0 = ready()
    manifest = generate_figures(out_dir, scope="quick")
    t1 = time.perf_counter()
    rss = _peak_rss_mb()
    # All figures are requested at t0; a figure is delivered once its
    # files are written, which is when the next build starts.
    latencies = [end - t0 for _, end in starts[1:]] + [t1 - t0]

    drifted = []
    golden = {e["id"]: e for e in json.loads(
        (GOLDEN_FIGURES / "figures_manifest.json").read_text())["figures"]}
    for entry in manifest["figures"]:
        gold = golden.get(entry["id"])
        if gold is None or any(
                (out_dir / entry[kind]).read_bytes()
                != (GOLDEN_FIGURES / gold[kind]).read_bytes()
                for kind in ("spec", "data")):
            drifted.append(entry["id"])
    missing = sorted(set(golden) - {e["id"] for e in manifest["figures"]})
    manifest_same = (out_dir / "figures_manifest.json").read_bytes() == \
        (GOLDEN_FIGURES / "figures_manifest.json").read_bytes()
    failed = len(drifted) + len(missing) + (
        0 if manifest_same or drifted or missing else 1)
    return {"t0": t0, "t1": t1, "attempted": len(golden),
            "failed": min(failed, len(golden)), "latencies": latencies,
            "peak_rss_mb": rss,
            "notes": {"drifted": drifted + missing,
                      "manifest_drift": not manifest_same}}


# ----------------------------------------------------------------------
# sweep-paper
# ----------------------------------------------------------------------
def sweep_plan(seed: int):
    """The 222 points, in the seeded order they are submitted.

    Points are dealt in rounds, one point of every matrix per round, so
    each worker process meets (and generates) nearly every matrix
    whatever the draw; within a round larger matrices go first (by the
    spec's nnz, known without generating), so the sweep's tail is small
    points. The seed shuffles the matrices within each group of
    :data:`SWEEP_ORDER_GROUP` neighbours in the size ranking. Each
    matrix's points keep their plan order, so the points that pay for
    generating a matrix in a worker are the same whatever the seed.
    """
    from repro.engine import plan_sweep
    from repro.matrices import suite

    names = suite.common_set_names() + suite.extended_set_names()
    rng = random.Random(seed)
    ranked = sorted(names, key=lambda name: (
        -suite.spec_by_name(name).rows * suite.spec_by_name(name).npr,
        name))
    order: List[str] = []
    for start in range(0, len(ranked), SWEEP_ORDER_GROUP):
        group = ranked[start:start + SWEEP_ORDER_GROUP]
        rng.shuffle(group)
        order += group
    per_matrix = [plan_sweep([name]) for name in order]
    rounds = max(len(group) for group in per_matrix)
    points = [group[i] for i in range(rounds) for group in per_matrix
              if i < len(group)]
    return names, points


def oracle_nnz(names: List[str]) -> Dict[str, int]:
    """nnz of each matrix's product, computed by scipy.sparse."""
    from repro.matrices import suite

    result = {}
    for name in names:
        a = suite.load(name).to_scipy().tocsr()
        b = a if suite.spec_by_name(name).square else a.T.tocsr()
        result[name] = int((a @ b).nnz)
    return result


def fingerprint_digest(fingerprints: Dict[str, str]) -> str:
    import hashlib
    text = json.dumps(fingerprints, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_sweep_paper(seed: int, ready, write_pins: bool) -> Dict[str, Any]:
    from repro.engine import run_sweep

    names, points = sweep_plan(seed)
    walls: Dict[Any, float] = {}

    def on_executed(point, _record, wall_seconds):
        walls.setdefault(point, wall_seconds)

    t0 = ready()
    result = run_sweep(points, workers=WORKERS, on_executed=on_executed)
    t1 = time.perf_counter()
    rss = _peak_rss_mb()

    oracle = oracle_nnz(names)
    fingerprints = {p.label(): result[p].fingerprint()
                    for p in points if p in result}
    if write_pins:
        PINNED_SWEEP.parent.mkdir(exist_ok=True)
        PINNED_SWEEP.write_text(json.dumps({
            "digest": fingerprint_digest(fingerprints),
            "points": fingerprints}, indent=1, sort_keys=True) + "\n")
    pinned = json.loads(PINNED_SWEEP.read_text())
    bad: List[str] = []
    for point in points:
        label = point.label()
        if point not in result:
            bad.append(f"{label}: quarantined")
        elif result[point].c_nnz != oracle[point.matrix]:
            bad.append(f"{label}: c_nnz {result[point].c_nnz} != scipy "
                       f"{oracle[point.matrix]}")
        elif pinned["points"].get(label) != fingerprints[label]:
            bad.append(f"{label}: fingerprint moved")
    digest = fingerprint_digest(fingerprints)
    return {"t0": t0, "t1": t1, "attempted": len(points),
            "failed": len(bad),
            "latencies": [walls[p] for p in points if p in walls],
            "peak_rss_mb": rss,
            "notes": {"bad": bad[:20], "digest": digest,
                      "digest_pinned": digest == pinned["digest"]}}


# ----------------------------------------------------------------------
# serve-zipf
# ----------------------------------------------------------------------
async def _serve_client(host: str, port: int, client: str, entries,
                        results: List[Dict[str, Any]]) -> None:
    from repro.serve import http_request

    for entry in entries:
        started = time.perf_counter()
        status, payload = 0, None
        for _ in range(8):
            status, headers, payload = await http_request(
                host, port, "POST", "/jobs", payload=entry["spec"],
                headers={"X-Client-Id": client})
            if status not in (429, 503):
                break
            await asyncio.sleep(float(headers.get("retry-after", 0.5)))
        while status == 202 and payload.get("state") not in (
                "done", "error"):
            status, _, payload = await http_request(
                host, port, "GET", f"/jobs/{payload['id']}?wait=30")
            status = 202 if status == 200 else status
        results.append({
            "latency": time.perf_counter() - started,
            "state": (payload or {}).get("state"),
            "source": (payload or {}).get("source"),
            "key": (payload or {}).get("key"),
            "fingerprint": (payload or {}).get("fingerprint"),
        })


async def _serve(seed: int, ready, setup_only: bool) -> Dict[str, Any]:
    from repro.serve import (JobServer, ServerConfig, build_schedule,
                             http_request)

    server = JobServer(ServerConfig(workers=WORKERS))
    await server.start(restore=False)
    try:
        host, port = await server.start_http()
        if setup_only:
            ready()
            return {}
        schedule = build_schedule(seed=seed, requests=SERVE_REQUESTS,
                                  clients=SERVE_CLIENTS)
        entries = iter(schedule["requests"])  # shared: a closed loop
        results: List[Dict[str, Any]] = []
        t0 = ready()
        await asyncio.gather(*(
            _serve_client(host, port, f"c{i}", entries, results)
            for i in range(SERVE_CLIENTS)))
        t1 = time.perf_counter()
        _, _, metrics = await http_request(host, port, "GET", "/metrics")
        _, _, stats = await http_request(host, port, "GET", "/stats")
    finally:
        await server.shutdown()
    return {"t0": t0, "t1": t1, "results": results, "metrics": metrics,
            "stats": stats, "peak_rss_mb": _peak_rss_mb()}


SERVE_LAYER_METRICS = (
    "serve.l1_hit_ratio", "serve.l2_hit_ratio", "serve.coalesce_riders",
    "serve.computed_jobs", "serve.rejected_total",
    "serve.hit_latency_p50_ms", "serve.miss_latency_p50_ms")


def serve_layer_metrics(out: Dict[str, Any]) -> Dict[str, float]:
    store = out["metrics"]["store"]
    admission = out["metrics"]["admission"]
    hits = [r["latency"] * 1000 for r in out["results"]
            if r["source"] in ("l1", "l2")]
    misses = [r["latency"] * 1000 for r in out["results"]
              if r["source"] not in ("l1", "l2")]
    return {
        "serve.l1_hit_ratio": store["l1_hit_rate"] or 0.0,
        "serve.l2_hit_ratio": store["l2_hit_rate"] or 0.0,
        "serve.coalesce_riders": out["metrics"]["coalesce"]["riders"],
        "serve.computed_jobs": out["metrics"]["jobs"]["computed"],
        "serve.rejected_total": sum(admission.values()),
        "serve.hit_latency_p50_ms": _percentile(hits, 0.5) if hits else 0.0,
        "serve.miss_latency_p50_ms": (_percentile(misses, 0.5)
                                      if misses else 0.0),
    }


def run_serve(seed: int, work: Path, ready) -> Dict[str, Any]:
    out = asyncio.run(_serve(seed, ready, setup_only=False))
    reference = json.loads((work / "reference.json").read_text())
    failed = sum(1 for r in out["results"]
                 if r["state"] != "done"
                 or r["fingerprint"] != reference.get(r["key"]))
    return {"t0": out["t0"], "t1": out["t1"],
            "attempted": SERVE_REQUESTS,
            "failed": failed + SERVE_REQUESTS - len(out["results"]),
            "latencies": [r["latency"] for r in out["results"]],
            "peak_rss_mb": out["peak_rss_mb"],
            "layers": serve_layer_metrics(out)}


def prepare_serve(work: Path) -> Dict[str, Any]:
    """Serial reference fingerprints of every spec the schedule draws."""
    from repro.engine import execute_point
    from repro.serve import JobSpec, build_population

    reference = {}
    for spec in build_population():
        job_spec = JobSpec.from_payload(spec)
        reference[job_spec.key()] = execute_point(
            job_spec.to_point()).fingerprint()
    (work / "reference.json").write_text(json.dumps(reference))
    return {"specs": len(reference)}


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--role", required=True,
                        choices=("iteration", "setup", "prepare"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)

    workload, work, index = args.workload, args.work, args.index
    if args.role == "prepare":
        os.environ["REPRO_CACHE_DIR"] = str(work / "cache-reference")
        started = time.perf_counter()
        result = prepare_serve(work)
        result["prepare_s"] = time.perf_counter() - started
        args.out.write_text(json.dumps(result))
        return 0

    cache = work / f"cache-{index}"
    cache.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    trace_dir = work / f"trace-{index}"
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer
        tracer.install(trace_dir)
    marks: Dict[str, float] = {}

    def ready() -> float:
        marks["setup_s"] = time.monotonic() - args.spawned
        return time.perf_counter()

    out_dir = work / f"out-{index}"
    if args.role == "setup":
        # Mirror each workload's set-up up to its timed start.
        if workload == "serve-zipf":
            asyncio.run(_serve(args.seed, ready, setup_only=True))
        elif workload == "sweep-paper":
            sweep_plan(args.seed)
            ready()
        else:
            from repro.figures import generate_figures  # noqa: F401
            ready()
        args.out.write_text(json.dumps(marks))
        return 0

    if workload == "figures-cold":
        out = run_figures(out_dir, ready)
    elif workload == "sweep-paper":
        out = run_sweep_paper(args.seed, ready, args.write_pins)
    else:
        out = run_serve(args.seed, work, ready)
    latencies = out.pop("latencies")
    result = {
        "wall_s": out["t1"] - out["t0"],
        "setup_s": marks["setup_s"],
        "peak_rss_mb": out["peak_rss_mb"],
        "attempted": out["attempted"], "failed": out["failed"],
        "ops": len(latencies),
        "op_p50_ms": _percentile(latencies, 0.50) * 1000,
        "op_p95_ms": _percentile(latencies, 0.95) * 1000,
        "notes": out.get("notes", {}),
        # Workloads that never reach the server report its metrics as 0.
        "layers": out.get("layers", dict.fromkeys(SERVE_LAYER_METRICS, 0)),
    }
    if args.trace:
        import threading
        from repro.figures import figure_ids
        tracer.flush()
        result["layers"].update(tracer.layer_metrics(
            tracer.load_spans(trace_dir), workload, (out["t0"], out["t1"]),
            os.getpid(), threading.get_ident(), figure_ids(),
            WORKERS if workload in ("sweep-paper", "serve-zipf") else 0))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

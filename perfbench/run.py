"""Host wall-clock benchmark of the Gamma reproduction.

Run from the checkout root::

    python3 perfbench/run.py --workload figures-cold --seed 1 \\
        --seconds 15 --trace 0

``--workload all`` runs every workload in turn and prints a result line
for each.

Workloads (the reason for each is in ``BENCHMARK.json``):

* ``figures-cold`` -- ``generate_figures(scope="quick")``, empty cache;
* ``sweep-paper`` -- cold ``run_sweep`` of the common + extended sets x
  ``DEFAULT_MODELS`` x variants none,full (222 points), 2 workers, in
  seeded submission order;
* ``serve-zipf`` -- 2 closed-loop HTTP clients against an in-process
  ``JobServer`` (2 worker slots, empty cache) replaying the seeded zipf
  schedule of ``loadgen.build_schedule``.

Every iteration runs in a fresh interpreter (``iteration.py``). A run
repeats iterations until ``--seconds`` of timed work have passed (an
iteration longer than that runs once), takes at least seven set-up
samples, and reports medians. With ``--trace 1`` it then runs one more
iteration with every layer wrapped (``tracer.py``) and reports the
per-layer metrics instead. Outputs are checked in every iteration: a
failed check is a failed operation.

The last line of stdout is the result object; the line before it is a
``# meta`` line describing the run (commit, host, versions, seed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"

#: Set-up samples per run (iterations plus set-up-only spawns).
SETUP_SAMPLES = 7

#: Hard ceiling on one child interpreter.
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _child(role: str, args, index: int = 0, trace: int = 0,
           extra: List[str] = ()) -> Dict[str, Any]:
    """Run one ``iteration.py`` role in a fresh interpreter."""
    out = WORK / args.workload / f"result-{role}-{index}.json"
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    command = [sys.executable, str(HERE / "iteration.py"),
               "--workload", args.workload, "--role", role,
               "--seed", str(args.seed), "--index", str(index),
               "--trace", str(trace), "--work", str(WORK / args.workload),
               "--out", str(out), *extra]
    spawned = time.monotonic()
    # A session of its own, so a timeout can stop the child's workers too.
    proc = subprocess.Popen(command + ["--spawned", repr(spawned)],
                            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{role} {index} of {args.workload} exceeded "
                         f"{CHILD_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise BenchError(f"{role} {index} of {args.workload} exited "
                         f"{proc.returncode}:\n{stderr[-4000:]}")
    return json.loads(out.read_text())


def _describe(args, workload_why: str) -> Dict[str, Any]:
    """Commit, host and versions recorded with every result."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    versions = {"python": platform.python_version()}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    return {"workload": args.workload, "why": workload_why,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "workers": 2, "versions": versions,
            "platform": platform.platform()}


def run(args, config: Dict[str, Any]) -> Dict[str, Any]:
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.workload == "serve-zipf":
        _child("prepare", args)  # serial reference fingerprints

    iterations: List[Dict[str, Any]] = []
    measured = 0.0
    while measured < args.seconds or not iterations:
        result = _child("iteration", args, index=len(iterations),
                        extra=["--write-pins"] if args.write_pins else [])
        iterations.append(result)
        measured += result["wall_s"]
    setups = [r["setup_s"] for r in iterations]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_child("setup", args,
                             index=100 + len(setups))["setup_s"])
    traced = (_child("iteration", args, index=len(iterations), trace=1)
              if args.trace else None)

    checked = iterations + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    for r in checked:
        if r["failed"]:
            print(f"# failed checks: {json.dumps(r['notes'])}",
                  file=sys.stderr)

    def median(key: str) -> float:
        return statistics.median(r[key] for r in iterations)

    if traced is None:
        values = {
            "wall_s": median("wall_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": median("peak_rss_mb"),
            "ok_fraction": 1.0 - failed / attempted,
            "ops_per_s": statistics.median(
                r["ops"] / r["wall_s"] for r in iterations),
            "op_p50_ms": median("op_p50_ms"),
            "op_p95_ms": median("op_p95_ms"),
        }
        specs = config["end_to_end"]
    else:
        values = dict(traced["layers"])
        values["trace.overhead_fraction"] = (
            traced["wall_s"] / median("wall_s") - 1.0)
        specs = config["per_layer"]
    names = {spec["name"] for spec in specs}
    if set(values) - names or names - set(values):
        raise BenchError(
            "metrics out of step with BENCHMARK.json: "
            f"unlisted {sorted(set(values) - names)}, "
            f"missing {sorted(names - set(values))}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {spec["name"]: {"value": values[spec["name"]],
                                       "unit": spec["unit"]}
                        for spec in specs}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--workload", required=True,
        help="a workload named in BENCHMARK.json, or 'all' to run each "
             "in turn (one result line per workload)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-pins", action="store_true",
        help="sweep-paper: re-pin the record fingerprints from this run "
             "(after a declared fidelity change)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/repro",
              file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in config["workloads"]}
    names = list(whys) if args.workload == "all" else [args.workload]
    if not set(names) <= set(whys):
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(whys)} or 'all'", file=sys.stderr)
        return 2
    status = 0
    for name in names:
        run_args = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            result = run(run_args, config)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            status = 1
            continue
        finally:
            shutil.rmtree(WORK / name, ignore_errors=True)
        print("# meta " + json.dumps(_describe(run_args, whys[name]),
                                     sort_keys=True))
        print(json.dumps(result))
    return status

if __name__ == "__main__":
    sys.exit(main())

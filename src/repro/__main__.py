"""Command-line interface: list and run the reproduced experiments.

Usage::

    python -m repro list                 # every table/figure + its claim
    python -m repro run fig12            # regenerate one artifact
    python -m repro run fig12 table2 ... # several
    python -m repro suite                # the scaled matrix suites
    python -m repro export out/ fig12    # write .txt/.csv/.json artifacts
    python -m repro sweep                # pre-warm the disk cache in parallel
    python -m repro sweep --set common --models gamma,mkl --workers 8
    python -m repro sweep --metrics --trace-dir out/   # telemetry-enabled
    python -m repro report out/                        # render run report
    python -m repro figures --out figs/                # versioned figure set
    python -m repro figures --check                    # drift-check vs goldens
    python -m repro profile gamma wiki-Vote            # cycle-level report
    python -m repro profile gamma gupta2 --variant full --trace out.jsonl
    python -m repro profile gamma gupta2 --perfetto out.trace.json
    python -m repro serve --port 8077 --workers 4      # SpGEMM job API
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional


def _cmd_list() -> int:
    from repro.figures.generators import artifact_ids, get_artifact

    ids = artifact_ids()
    width = max(len(i) for i in ids)
    for artifact_id in ids:
        artifact = get_artifact(artifact_id)
        print(f"{artifact_id:<{width}}  {artifact.title}")
        print(f"{'':<{width}}  paper: {artifact.paper_claim}")
    return 0


def _cmd_run(ids: List[str]) -> int:
    from repro.figures.generators import artifact_ids, get_artifact

    if not ids:
        print("no experiment ids given; try: "
              f"{', '.join(artifact_ids())}", file=sys.stderr)
        return 2
    for artifact_id in ids:
        result = get_artifact(artifact_id).run()
        print(result["table"])
        print()
    return 0


def _cmd_export(directory: str, ids: List[str]) -> int:
    from repro.experiments.export import export_experiment
    from repro.figures.generators import artifact_ids

    targets = ids or artifact_ids()
    for artifact_id in targets:
        written = export_experiment(artifact_id, directory)
        for path in written:
            print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    from repro.engine import (
        DEFAULT_MODELS,
        DEFAULT_VARIANTS,
        SweepPolicy,
        pending_points,
        plan_sweep,
        run_sweep,
    )
    from repro.matrices import suite
    from repro.obs import MetricsRegistry

    if args.matrices:
        matrices = [name for token in args.matrices
                    for name in token.split(",") if name]
        for name in matrices:
            try:
                suite.spec_by_name(name)
            except KeyError as exc:
                print(f"error: {exc.args[0]}", file=sys.stderr)
                return 2
    elif args.set == "common":
        matrices = suite.common_set_names()
    elif args.set == "extended":
        matrices = suite.extended_set_names()
    else:
        matrices = suite.common_set_names() + suite.extended_set_names()
    models = (args.models.split(",") if args.models
              else list(DEFAULT_MODELS))
    models = [_apply_engine(model, args.engine) for model in models]
    variants = (args.variants.split(",") if args.variants
                else list(DEFAULT_VARIANTS))
    masks = args.masks.split(",") if args.masks else ["none"]
    try:
        points = plan_sweep(matrices, models=models, variants=variants,
                            masks=masks, operand=args.operand)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    misses = pending_points(points)
    print(f"sweep: {len(points)} points planned, "
          f"{len(points) - len(misses)} cached, {len(misses)} to run")
    if args.dry_run:
        for point in misses:
            print(f"  {point.label()}")
        return 0
    done = {"count": 0}

    def label_of(point):
        return point.label()

    def progress(point, record):
        done["count"] += 1
        print(f"[{done['count']}/{len(points)}] {label_of(point)}  "
              f"cycles={record.cycles:.0f}")

    computed_wall = {"total": 0.0}

    def executed(point, record, wall_seconds):
        computed_wall["total"] += wall_seconds
        print(f"  computed {label_of(point)}  "
              f"wall={wall_seconds:.2f}s  events={record.num_tasks}")

    policy = SweepPolicy(timeout_seconds=args.timeout,
                         max_retries=args.max_retries)
    metrics = MetricsRegistry()
    if args.trace_dir:
        from repro.obs import report, spans
        spans.enable(report.span_directory(args.trace_dir))
    sweep_start = time.perf_counter()
    try:
        result = run_sweep(points, workers=args.workers,
                           serial=args.serial,
                           on_result=progress, on_executed=executed,
                           policy=policy, metrics=metrics,
                           resume=args.resume,
                           collect_metrics=args.metrics)
    finally:
        if args.trace_dir:
            spans.disable()
    sweep_wall = time.perf_counter() - sweep_start
    if args.trace_dir:
        paths = report.finalize_sweep_telemetry(args.trace_dir, result)
        for kind, path in sorted(paths.items()):
            print(f"telemetry: wrote {kind} to {path}")
    from repro.engine import diskcache
    store = ("the disk cache" if diskcache.cache_enabled()
             else "memory only (disk cache disabled)")
    summary = (f"sweep complete: {len(result)}/{len(points)} records in "
               f"{store}; wall {sweep_wall:.2f}s "
               f"({computed_wall['total']:.2f}s in computed points)")
    fault_counts = {
        name: int(value)
        for name, value in sorted(
            metrics.counters_with_prefix("sweep/").items())
        if name in ("retries", "timeouts", "crashes", "errors",
                    "quarantined") and value
    }
    if fault_counts:
        summary += "; faults: " + ", ".join(
            f"{name}={value}" for name, value in fault_counts.items())
    trajectory = _hotpath_trajectory()
    if trajectory:
        summary += f"; hot-path wall before/after: {trajectory}"
    print(summary)
    if result.quarantined:
        print(f"QUARANTINED {len(result.quarantined)} point(s) — "
              "partial results; re-run with --resume to skip them, or "
              "without it to retry:", file=sys.stderr)
        for failure in result.quarantined.values():
            print(f"  {failure.point.label()}  {failure.reason} "
                  f"after {failure.attempts} attempts  {failure.error}",
                  file=sys.stderr)
        return 3
    return 0


def _hotpath_trajectory() -> str:
    """The recorded before/after aggregate from BENCH_hotpath.json, if any.

    ``scripts/bench_hotpath.py --combine`` pins the hot-path wall-clock
    trajectory of the simulator kernels; surfacing it next to the live
    sweep wall keeps perf regressions visible from the CLI.
    """
    import json
    from pathlib import Path

    candidates = [
        Path("BENCH_hotpath.json"),
        Path(__file__).resolve().parents[2] / "BENCH_hotpath.json",
    ]
    for path in candidates:
        try:
            report = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        comparison = report.get("comparison") or {}
        before = comparison.get("before_wall_s_total")
        after = comparison.get("after_wall_s_total")
        speedup = comparison.get("aggregate_speedup")
        if before is None or after is None:
            continue
        text = f"{before:.2f}s -> {after:.2f}s"
        if speedup:
            text += f" ({speedup:.2f}x)"
        return text
    return ""


def _apply_engine(model: str, engine: str) -> str:
    """Resolve ``--engine`` to a registry model name.

    Only the Gamma simulator has selectable engines; other models pass
    through untouched. ``batched`` is the production default (``gamma``),
    ``ref`` the event-ordered reference core (``gamma-ref``).
    """
    from repro.engine.registry import GAMMA_ENGINES, GAMMA_MODELS

    if model in GAMMA_MODELS:
        return GAMMA_ENGINES[engine]
    return model


def _cmd_profile(args) -> int:
    from repro.matrices import suite
    from repro.obs import profile_point, render_report

    try:
        suite.spec_by_name(args.matrix)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    model = _apply_engine(args.model, args.engine)
    try:
        run = profile_point(args.matrix, model=model,
                            variant=args.variant, mask=args.mask,
                            operand=args.operand)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_report(run.record, run.trace, run.wall_seconds))
    if args.trace:
        lines = run.trace.to_jsonl(
            args.trace, model=model, matrix=args.matrix,
            variant=args.variant)
        print(f"wrote {lines} trace lines to {args.trace}")
    if args.perfetto:
        from repro.obs import (
            chrome_trace_from_execution_trace,
            write_chrome_trace,
        )
        trace = chrome_trace_from_execution_trace(
            run.trace, label=f"{model}:{args.matrix}")
        write_chrome_trace(args.perfetto, trace)
        print(f"wrote Perfetto trace ({len(trace['traceEvents'])} "
              f"events) to {args.perfetto}")
    return 0


def _cmd_report(args) -> int:
    from repro.obs import generate_report

    try:
        paths = generate_report(args.directory,
                                include_timing=args.include_timing,
                                output_dir=args.output,
                                include_figures=not args.no_figures)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for kind, path in sorted(paths.items()):
        print(f"wrote {kind} report to {path}")
    return 0


def _cmd_figures(args) -> int:
    from repro.figures import (
        FIGURE_GENERATORS,
        GOLDEN_FIGURES_DIR,
        SCOPES,
        check_figures,
        generate_figures,
    )

    if args.list:
        width = max(len(g.figure_id) for g in FIGURE_GENERATORS)
        for generator in FIGURE_GENERATORS:
            print(f"{generator.figure_id:<{width}}  {generator.title} "
                  f"({generator.paper_ref})")
        return 0
    only = args.only or None
    if only:
        known = {g.figure_id for g in FIGURE_GENERATORS}
        unknown = [figure_id for figure_id in only
                   if figure_id not in known]
        if unknown:
            print(f"error: unknown figure id(s): {', '.join(unknown)}; "
                  f"see 'repro figures --list'", file=sys.stderr)
            return 2
    if args.scope not in SCOPES:
        print(f"error: unknown scope {args.scope!r}; "
              f"choose from {', '.join(sorted(SCOPES))}", file=sys.stderr)
        return 2
    if args.check:
        golden = args.golden or GOLDEN_FIGURES_DIR
        drifts = check_figures(golden_dir=golden, only=only,
                               workdir=args.out)
        if drifts:
            print(f"figure drift against goldens in {golden}:",
                  file=sys.stderr)
            for drift in drifts:
                print(f"  {drift}", file=sys.stderr)
            return 1
        print(f"figures match goldens in {golden}")
        return 0
    out_dir = args.out or "figures"
    manifest = generate_figures(out_dir, scope=args.scope, only=only)
    for entry in manifest["figures"]:
        print(f"wrote {entry['id']}: {entry['spec']} + {entry['data']} "
              f"({entry['rows']} rows)")
    print(f"wrote manifest for {manifest['num_figures']} figure(s) "
          f"[scope {manifest['scope']}, inputs "
          f"{manifest['inputs_fingerprint'][:12]}] to {out_dir}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import ServerConfig, run_service

    config = ServerConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_depth=args.queue_depth,
        per_client_limit=args.per_client_limit,
        timeout_seconds=args.timeout,
        l1_capacity=args.l1_capacity,
        drain_seconds=args.drain_seconds,
        checkpoint_tag=args.checkpoint_tag)
    if args.trace_dir:
        from repro.obs import report, spans
        spans.enable(report.span_directory(args.trace_dir))
    try:
        asyncio.run(run_service(config))
    except KeyboardInterrupt:
        pass  # run_service's finally already drained and checkpointed
    finally:
        if args.trace_dir:
            from repro.obs import spans
            spans.disable()
    return 0


def _cmd_suite() -> int:
    from repro.figures.generators import get_artifact

    for table in ("table3", "table4"):
        print(get_artifact(table).run()["table"])
        print()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Gamma (ASPLOS'21) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list every reproduced table/figure")
    run_parser = sub.add_parser("run", help="regenerate artifacts")
    run_parser.add_argument("ids", nargs="*", help="experiment ids")
    export_parser = sub.add_parser(
        "export", help="write artifacts as .txt/.csv/.json")
    export_parser.add_argument("directory")
    export_parser.add_argument("ids", nargs="*",
                               help="experiment ids (default: all)")
    sub.add_parser("suite", help="print the scaled matrix suites")
    sweep_parser = sub.add_parser(
        "sweep",
        help="pre-warm the result cache with a parallel model sweep")
    sweep_parser.add_argument(
        "--set", choices=("common", "extended", "all"), default="all",
        help="matrix suite to sweep (default: all)")
    sweep_parser.add_argument(
        "--matrices", nargs="*", metavar="NAME",
        help="explicit suite matrix names, space- or comma-separated "
             "(overrides --set)")
    sweep_parser.add_argument(
        "--models", metavar="M1,M2",
        help="comma-separated registry models "
             "(default: gamma,ip,outerspace,sparch,mkl)")
    sweep_parser.add_argument(
        "--variants", metavar="V1,V2",
        help="comma-separated Gamma preprocessing variants "
             "(default: none,full)")
    sweep_parser.add_argument(
        "--masks", metavar="M1,M2",
        help="comma-separated mask modes for the Gamma SpGEMM points: "
             "none, structural, complement (default: none); masked "
             "points run C<M> = A*B with the deterministic default "
             "mask and the plain row dataflow")
    sweep_parser.add_argument(
        "--operand", default="matrix",
        choices=("matrix", "sparse-vector", "dense-vector"),
        help="vector operand shape for gamma-spmv points "
             "(default: matrix, which resolves to sparse-vector)")
    sweep_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: cpu count)")
    sweep_parser.add_argument(
        "--serial", action="store_true",
        help="run misses in-process (debugging/determinism checks)")
    sweep_parser.add_argument(
        "--dry-run", action="store_true",
        help="plan and report, but run nothing")
    sweep_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="kill and retry any point exceeding this wall clock "
             "(parallel mode; default: no timeout)")
    sweep_parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries (with exponential backoff) before a failing "
             "point is quarantined (default: 2)")
    sweep_parser.add_argument(
        "--resume", action="store_true",
        help="pick up an interrupted sweep: skip cached results and "
             "previously quarantined points instead of retrying them")
    sweep_parser.add_argument(
        "--metrics", action="store_true",
        help="collect cycle-level MetricsRegistry blobs on gamma "
             "points (recomputes cached records lacking one)")
    sweep_parser.add_argument(
        "--trace-dir", metavar="DIR", default=None,
        help="record cross-process telemetry and write run_log.jsonl, "
             "trace.json (Perfetto), and sweep.json into DIR")
    sweep_parser.add_argument(
        "--engine", choices=("batched", "ref"), default="batched",
        help="Gamma simulator core: the data-oriented epoch engine "
             "(default) or the event-ordered reference (bit-identical, "
             "slower; cached as the separate gamma-ref model)")
    report_parser = sub.add_parser(
        "report",
        help="render report.md + report.html from a sweep --trace-dir")
    report_parser.add_argument(
        "directory", help="sweep telemetry directory (has sweep.json)")
    report_parser.add_argument(
        "--include-timing", action="store_true",
        help="append the execution/timing appendix (not deterministic "
             "across serial vs parallel runs)")
    report_parser.add_argument(
        "--output", metavar="DIR", default=None,
        help="write reports here instead of into the sweep directory")
    report_parser.add_argument(
        "--no-figures", action="store_true",
        help="skip the embedded figure set (figures/ subdirectory with "
             "Vega-Lite specs + CSVs derived from the sweep summary)")
    figures_parser = sub.add_parser(
        "figures",
        help="emit the paper's figures as versioned Vega-Lite + CSV "
             "artifacts, or drift-check them against committed goldens")
    figures_parser.add_argument(
        "--out", metavar="DIR", default=None,
        help="output directory (default: figures/; with --check, a "
             "scratch directory for the regenerated set)")
    figures_parser.add_argument(
        "--scope", default="quick",
        help="matrix scope: quick, common, extended, or paper "
             "(default: quick — the committed golden scope)")
    figures_parser.add_argument(
        "--only", action="append", metavar="ID",
        help="restrict to one figure id (repeatable); see --list")
    figures_parser.add_argument(
        "--check", action="store_true",
        help="regenerate and byte-compare against the committed goldens; "
             "exit 1 naming each drifted figure")
    figures_parser.add_argument(
        "--golden", metavar="DIR", default=None,
        help="golden directory for --check "
             "(default: tests/golden/figures)")
    figures_parser.add_argument(
        "--list", action="store_true",
        help="list the figure catalog and exit")
    profile_parser = sub.add_parser(
        "profile",
        help="run one point instrumented and print the cycle-level report")
    profile_parser.add_argument(
        "model", help="registry model (metrics: gamma only)")
    profile_parser.add_argument("matrix", help="suite matrix name")
    profile_parser.add_argument(
        "--variant", default="none",
        help="Gamma preprocessing variant (default: none)")
    profile_parser.add_argument(
        "--mask", default="none",
        choices=("none", "structural", "complement"),
        help="masked product C<M> = A*B with the deterministic default "
             "mask (Gamma SpGEMM engines only; default: none)")
    profile_parser.add_argument(
        "--operand", default="matrix",
        choices=("matrix", "sparse-vector", "dense-vector"),
        help="vector operand shape for gamma-spmv (default: matrix)")
    profile_parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="also export the task event stream as JSONL")
    profile_parser.add_argument(
        "--perfetto", metavar="PATH", default=None,
        help="also export a Chrome trace-event JSON (PE lanes + phase "
             "windows) loadable at ui.perfetto.dev")
    profile_parser.add_argument(
        "--engine", choices=("batched", "ref"), default="batched",
        help="Gamma simulator core: data-oriented epoch engine "
             "(default) or the event-ordered reference")

    serve_parser = sub.add_parser(
        "serve",
        help="run the SpGEMM job API (POST /jobs, GET /jobs/<id>)")
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8077,
        help="listen port (0 = ephemeral; default: 8077)")
    serve_parser.add_argument(
        "--workers", type=int, default=2,
        help="worker processes; 0 runs jobs inline without kill-based "
             "timeouts (default: 2)")
    serve_parser.add_argument(
        "--queue-depth", type=int, default=64,
        help="max distinct in-flight executions before 503 (default: 64)")
    serve_parser.add_argument(
        "--per-client-limit", type=int, default=16,
        help="max unfinished jobs per client before 429 (default: 16)")
    serve_parser.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="kill and retry any job exceeding this wall clock "
             "(default: 60)")
    serve_parser.add_argument(
        "--l1-capacity", type=int, default=256,
        help="in-process LRU result entries (default: 256)")
    serve_parser.add_argument(
        "--drain-seconds", type=float, default=30.0,
        help="graceful-shutdown budget for in-flight jobs (default: 30)")
    serve_parser.add_argument(
        "--checkpoint-tag", default="default",
        help="queue-checkpoint name; a restart with the same tag "
             "resumes interrupted jobs (default: 'default')")
    serve_parser.add_argument(
        "--trace-dir", metavar="DIR", default=None,
        help="record serve/store span telemetry into DIR")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.ids)
    if args.command == "export":
        return _cmd_export(args.directory, args.ids)
    if args.command == "suite":
        return _cmd_suite()
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "serve":
        return _cmd_serve(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())

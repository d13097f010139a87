"""Sweep planner and fault-tolerant process-parallel executor.

The paper's figures are a cross-product — models x matrices x
preprocessing variants x hardware configs (Figs. 10-25) — and each point
is independent, so the sweep engine enumerates them as
:class:`SweepPoint` values, skips the ones already in the disk cache, and
executes the misses across worker processes. Workers send each record
back over their pipe and store it in the disk cache, atomically and
checksum-validated (see :mod:`repro.engine.diskcache`), so a crashed or
raced sweep never leaves torn entries and a re-run only pays for what is
missing.

Campaign-scale sweeps (thousands of points) cannot afford one bad point
taking the run down, so execution is governed by a :class:`SweepPolicy`:

* **timeouts** — a point that exceeds ``timeout_seconds`` has its worker
  process killed (the only reliable cancellation for a hung or wedged
  native call) and the slot respawned;
* **bounded retries** — failed attempts (crash, hard worker death,
  timeout, exception) are retried up to ``max_retries`` times with
  exponential backoff and deterministic jitter;
* **quarantine** — a point that exhausts its retries is quarantined with
  its failure history and the sweep *completes*, returning partial
  results (:class:`SweepResult`) instead of aborting;
* **checkpoint/resume** — progress and quarantine state persist through
  the disk cache, so an interrupted sweep resumed with ``resume=True``
  (CLI ``--resume``) recomputes nothing already cached and does not
  re-burn retries on points already known bad.

All of it runs on one executor, :class:`SlotPool` — killable worker
slots, the only code that classifies an attempt, and the only retry
loop — which the job server (:mod:`repro.serve.server`) shares.

``execute_point`` is the single entry point for evaluating one point; the
serial facade (:class:`repro.experiments.ExperimentRunner`) and the
parallel workers both go through it, which is what makes parallel,
retried, or resumed execution produce byte-identical records to a cold
serial run — the guarantee the chaos suite (``tests/test_chaos.py``)
enforces under injected faults.

When telemetry is active (:mod:`repro.obs.spans`, CLI ``--trace-dir``)
the engine publishes its whole lifecycle into the span stream: a
``sweep/point`` span per attempt (parent side, carrying slot/outcome), a
``point/execute`` span per computed point (worker side), ``sweep/<stat>``
instants mirroring every ``SweepResult.stats`` increment (emitted at the
single place the stat increments, so counts agree exactly),
``sweep/backoff`` delays, ``sweep/timeout_kill``, and ``sweep/checkpoint``
writes. ``collect_metrics=True`` (CLI ``--metrics``) additionally attaches
a :class:`~repro.obs.MetricsRegistry` to every computed point and stores
the blob on its record for the fleet roll-up. Both are strictly opt-in.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import queue
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.config import CpuConfig, GammaConfig
from repro.engine import diskcache, faults
from repro.engine.defaults import (
    PREPROCESS_VARIANTS,
    preprocess_config_key,
    preprocess_options,
)
from repro.engine.record import (
    RunRecord,
    _config_from_payload,
    _config_payload,
)
from repro.engine.registry import (GAMMA_MODELS, SIMULATOR_MODELS,
                                   available_models, default_config_for,
                                   get_model)
from repro.obs import spans

#: Environment flag that tells workers to attach a MetricsRegistry to
#: every point they compute (set by ``run_sweep(collect_metrics=True)``
#: so the instruction crosses process boundaries with zero protocol
#: changes; unset means the default no-instrumentation fast path).
METRICS_ENV = "REPRO_SWEEP_METRICS"

#: Models evaluated by the paper's headline figures (MatRaptor is an
#: extension and is opted into explicitly).
DEFAULT_MODELS = ("gamma", "ip", "outerspace", "sparch", "mkl")

#: Variants the headline figures need ('G' and 'GP' bars).
DEFAULT_VARIANTS = ("none", "full")


#: The semiring every sweep/figure point runs under; non-default
#: semirings are a serving-tier feature and key their cache entries
#: separately (see :func:`record_key`).
DEFAULT_SEMIRING = "arithmetic"

#: The mask mode every sweep/figure point runs under; masked products
#: (:mod:`repro.apps.masked`) key their cache entries separately.
DEFAULT_MASK = "none"

#: The operand shape axis default: SpGEMM models take B as-is, and
#: ``gamma-spmv`` resolves it to its natural ``sparse-vector`` shape
#: (see :mod:`repro.baselines.spmv`).
DEFAULT_OPERAND = "matrix"


@dataclass(frozen=True)
class SweepPoint:
    """One (model, matrix, variant, config) evaluation to perform.

    ``config=None`` means the model's scaled experiment default; carrying
    the resolved config explicitly would bloat keys without changing
    results. ``variant``, ``multi_pe``, ``semiring``, and ``mask`` only
    affect the simulator models; ``semiring`` names a
    :data:`repro.semiring.STANDARD_SEMIRINGS` entry (the job server
    exposes it — sweeps always run the default), ``mask`` a
    :data:`repro.apps.masked.MASK_MODES` mode (the Gamma SpGEMM engines
    only), and ``operand`` a
    :data:`repro.baselines.spmv.OPERAND_SHAPES` vector shape
    (``gamma-spmv`` only).
    """

    model: str
    matrix: str
    variant: str = "none"
    config: Union[GammaConfig, CpuConfig, None] = None
    multi_pe: bool = True
    semiring: str = DEFAULT_SEMIRING
    mask: str = DEFAULT_MASK
    operand: str = DEFAULT_OPERAND

    def resolved_config(self) -> Union[GammaConfig, CpuConfig]:
        return self.config or default_config_for(self.model)

    def label(self) -> str:
        """Human-readable point name used in logs and failure reports."""
        text = f"{self.model}:{self.matrix}"
        if self.model in GAMMA_MODELS:
            text += f":{self.variant}"
        if self.model in SIMULATOR_MODELS:
            if self.semiring != DEFAULT_SEMIRING:
                text += f":{self.semiring}"
        if self.model in GAMMA_MODELS and self.mask != DEFAULT_MASK:
            text += f":mask-{self.mask}"
        if self.model == "gamma-spmv" and self.operand != DEFAULT_OPERAND:
            text += f":{self.operand}"
        return text


def record_key(point: SweepPoint) -> str:
    """The disk-cache key of a point's :class:`RunRecord`.

    The semiring, mask, and operand axes participate only when they are
    not the default, so every pre-existing cache entry (all keyed before
    the fields existed) stays addressable.
    """
    config = point.resolved_config()
    params = dict(
        model=point.model,
        matrix=point.matrix,
        variant=point.variant if point.model in GAMMA_MODELS else "",
        config=dataclasses.asdict(config),
        config_kind=type(config).__name__,
        multi_pe=(point.multi_pe if point.model in SIMULATOR_MODELS
                  else True),
    )
    if (point.model in SIMULATOR_MODELS
            and point.semiring != DEFAULT_SEMIRING):
        params["semiring"] = point.semiring
    if point.model in GAMMA_MODELS and point.mask != DEFAULT_MASK:
        params["mask"] = point.mask
    if point.model == "gamma-spmv" and point.operand != DEFAULT_OPERAND:
        params["operand"] = point.operand
    return diskcache.cache_key("record", **params)


def point_to_payload(point: SweepPoint) -> Dict:
    """JSON-compatible form of a point (checkpoint serialization)."""
    return {
        "model": point.model,
        "matrix": point.matrix,
        "variant": point.variant,
        "config": _config_payload(point.config),
        "multi_pe": point.multi_pe,
        "semiring": point.semiring,
        "mask": point.mask,
        "operand": point.operand,
    }


def point_from_payload(payload: Dict) -> SweepPoint:
    return SweepPoint(
        model=payload["model"],
        matrix=payload["matrix"],
        variant=payload.get("variant", "none"),
        config=_config_from_payload(payload.get("config")),
        multi_pe=payload.get("multi_pe", True),
        semiring=payload.get("semiring", DEFAULT_SEMIRING),
        mask=payload.get("mask", DEFAULT_MASK),
        operand=payload.get("operand", DEFAULT_OPERAND),
    )


# ----------------------------------------------------------------------
# Failure policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPolicy:
    """How a sweep responds to failing points.

    Attributes:
        timeout_seconds: Kill a worker whose point exceeds this wall
            clock (None disables; serial mode cannot cancel and ignores
            it). The killed attempt counts as a failure and retries.
        max_retries: Additional attempts after the first failure before a
            point is quarantined.
        backoff_base_seconds: First retry delay; attempt ``n`` waits
            ``base * 2**n``, capped at ``backoff_max_seconds``.
        backoff_max_seconds: Ceiling on any single retry delay.
        jitter_fraction: Each delay is stretched by up to this fraction,
            *deterministically* seeded from (point key, attempt) so runs
            remain reproducible while concurrent retries still spread out.
        fail_fast: Raise :class:`SweepPointError` on the first quarantine
            instead of completing with partial results (the pre-PR-4
            behavior, useful in tests that want hard failures).
    """

    timeout_seconds: Optional[float] = None
    max_retries: int = 2
    backoff_base_seconds: float = 0.5
    backoff_max_seconds: float = 30.0
    jitter_fraction: float = 0.25
    fail_fast: bool = False

    def backoff_delay(self, key: str, attempt: int) -> float:
        """The wait before retry ``attempt`` (0-based) of point ``key``."""
        base = min(self.backoff_base_seconds * (2 ** attempt),
                   self.backoff_max_seconds)
        seed = int.from_bytes(
            hashlib.sha256(f"{key}:{attempt}".encode()).digest()[:8], "big")
        jitter = random.Random(seed).random() * self.jitter_fraction
        return base * (1.0 + jitter)


@dataclass
class PointFailure:
    """Why a point was quarantined (or is being retried)."""

    point: SweepPoint
    attempts: int
    reason: str  # 'crash' | 'timeout' | 'error' | 'previous-run'
    error: str = ""

    def to_payload(self) -> Dict:
        return {
            "point": point_to_payload(self.point),
            "attempts": self.attempts,
            "reason": self.reason,
            "error": self.error,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "PointFailure":
        return cls(
            point=point_from_payload(payload["point"]),
            attempts=payload["attempts"],
            reason=payload["reason"],
            error=payload.get("error", ""),
        )


class SweepPointError(RuntimeError):
    """Raised under ``fail_fast`` when a point exhausts its retries."""

    def __init__(self, failure: PointFailure) -> None:
        super().__init__(
            f"sweep point {failure.point.label()} failed "
            f"({failure.reason}) after {failure.attempts} attempts: "
            f"{failure.error}")
        self.failure = failure


class SweepResult(Dict[SweepPoint, RunRecord]):
    """Sweep output: records for completed points plus failure state.

    A plain mapping (point -> record) for every point that succeeded —
    drop-in compatible with the pre-fault-tolerance dict return — with
    the partial-result bookkeeping on top:

    Attributes:
        quarantined: Points that exhausted their retries, with failure
            reasons; empty on a clean sweep.
        stats: Counter totals (``executed``, ``cached``, ``retries``,
            ``timeouts``, ``crashes``, ``errors``, ``quarantined``).
        provenance: Per completed point: where its record came from
            (``source``: 'cached' or 'computed'), how many attempts it
            took, and — for computed points — the wall-clock seconds.
    """

    def __init__(self) -> None:
        super().__init__()
        self.quarantined: Dict[SweepPoint, PointFailure] = {}
        self.stats: Dict[str, int] = {
            "executed": 0, "cached": 0, "retries": 0,
            "timeouts": 0, "crashes": 0, "errors": 0, "quarantined": 0,
        }
        self.provenance: Dict[SweepPoint, Dict] = {}

    @property
    def complete(self) -> bool:
        return not self.quarantined


# ----------------------------------------------------------------------
# Work programs (preprocessing output), cached like records
# ----------------------------------------------------------------------
_PROGRAM_MEMO: Dict[tuple, object] = {}


def cached_program(matrix: str, variant: str, config: GammaConfig):
    """Build (or recall) the preprocessed work program for a Gamma point.

    Keys on :func:`preprocess_config_key` — exactly the config fields the
    preprocessing pipeline reads — so PE-count/bandwidth sweeps share one
    program per (matrix, variant, cache size, radix).
    """
    options = preprocess_options(variant)
    if options is None:
        return None
    config_fields = preprocess_config_key(config)
    memo_key = (matrix, variant, tuple(sorted(config_fields.items())))
    if memo_key in _PROGRAM_MEMO:
        return _PROGRAM_MEMO[memo_key]

    import numpy as np

    from repro.core import WorkProgram
    from repro.core.scheduler import WorkItem
    from repro.matrices import suite
    from repro.preprocessing import preprocess

    disk_key = diskcache.cache_key(
        "program", matrix=matrix, variant=variant, **config_fields)
    cached = diskcache.load(disk_key)
    if cached is not None:
        items = [
            WorkItem(
                row=row, part=part, num_parts=num_parts,
                coords=np.asarray(coords, dtype=np.int64),
                values=np.asarray(values, dtype=np.float64),
            )
            for row, part, num_parts, coords, values in cached["items"]
        ]
        program = WorkProgram(items, cached["num_rows"], cached["num_cols"])
    else:
        a, b = suite.operands(matrix)
        program = preprocess(a, b, config, options)
        diskcache.store(disk_key, {
            "items": [
                [item.row, item.part, item.num_parts,
                 item.coords.tolist(), item.values.tolist()]
                for item in program.items
            ],
            "num_rows": program.num_rows,
            "num_cols": program.num_cols,
        })
    _PROGRAM_MEMO[memo_key] = program
    return program


# ----------------------------------------------------------------------
# Point execution (shared by the serial facade and parallel workers)
# ----------------------------------------------------------------------
def metrics_requested() -> bool:
    """Whether this process should instrument the points it computes.

    ``run_sweep(collect_metrics=True)`` sets :data:`METRICS_ENV`, which
    worker processes inherit — the flag crosses process boundaries the
    same way the fault plan and span directory do.
    """
    return os.environ.get(METRICS_ENV, "") == "1"


def cached_record(point: SweepPoint,
                  collect_metrics: Optional[bool] = None
                  ) -> Optional[RunRecord]:
    """The point's record from the disk cache, or None to compute it.

    ``collect_metrics=None`` defers to :func:`metrics_requested`. When
    metrics are requested and a cached simulator record predates them
    (no blob), it reads as a miss: recomputing it instrumented is
    behaviorally identical (the fingerprint excludes metrics), just
    richer. A stale or foreign entry is a miss too, and is overwritten.
    """
    if collect_metrics is None:
        collect_metrics = metrics_requested()
    payload = diskcache.load(record_key(point))
    if payload is None or (collect_metrics
                           and point.model in SIMULATOR_MODELS
                           and payload.get("metrics") is None):
        return None
    try:
        return RunRecord.from_payload(payload)
    except (KeyError, TypeError, ValueError):
        return None


def execute_point(point: SweepPoint,
                  collect_metrics: Optional[bool] = None) -> RunRecord:
    """Evaluate one sweep point, reading/populating the disk cache.

    Every point stands alone: a baseline prices its output with the
    operands' exact product size
    (:func:`repro.matrices.suite.product_nnz`), not with another point's
    record. See :func:`cached_record` for ``collect_metrics``.

    The fault hooks (:mod:`repro.engine.faults`) are no-ops unless a
    fault plan is active — the chaos suite uses them to make this exact
    code path crash, hang, or poison its cache write on demand.
    """
    if collect_metrics is None:
        collect_metrics = metrics_requested()
    record = cached_record(point, collect_metrics)
    if record is not None:
        return record
    want_metrics = collect_metrics and point.model in SIMULATOR_MODELS

    faults.on_point_start(point.model, point.matrix, point.variant)

    from repro.matrices import suite

    compute_start = time.time()
    a, b = suite.operands(point.matrix)
    config = point.resolved_config()
    model = get_model(point.model)
    if point.model in GAMMA_MODELS:
        program = None
        if point.mask == DEFAULT_MASK:
            program = cached_program(point.matrix, point.variant, config)
        record = model.run(
            a, b, config, matrix=point.matrix, variant=point.variant,
            multi_pe=point.multi_pe, program=program,
            semiring=point.semiring, mask=point.mask,
            collect_metrics=want_metrics)
    elif point.model in SIMULATOR_MODELS:  # gamma-spmv
        record = model.run(
            a, b, config, matrix=point.matrix, variant=point.variant,
            multi_pe=point.multi_pe, semiring=point.semiring,
            operand=point.operand, collect_metrics=want_metrics)
    else:
        record = model.run(a, b, config, matrix=point.matrix,
                           c_nnz=suite.product_nnz(point.matrix))
    key = record_key(point)
    diskcache.store(key, record.to_payload())
    spans.emit_span("point/execute", compute_start,
                    point=point.label(), model=point.model,
                    metrics=bool(want_metrics))
    faults.corrupt_cache_path(
        point.model, point.matrix, point.variant,
        diskcache.entry_path(key))
    return record


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def plan_sweep(
    matrices: Sequence[str],
    models: Sequence[str] = DEFAULT_MODELS,
    variants: Sequence[str] = DEFAULT_VARIANTS,
    configs: Optional[Sequence[GammaConfig]] = None,
    multi_pe: bool = True,
    masks: Sequence[str] = (DEFAULT_MASK,),
    operand: str = DEFAULT_OPERAND,
) -> List[SweepPoint]:
    """Enumerate the (model, matrix, variant, config) cross-product.

    Gamma points expand over ``variants``, ``configs`` (``None`` =
    scaled default only), and ``masks``; masked points always run the
    plain row dataflow (preprocessing programs are built for the full B
    operand, which the mask narrows), so they do not expand over
    ``variants``. ``gamma-spmv`` points expand over ``configs`` and take
    the ``operand`` vector shape; the remaining baseline points get one
    evaluation per matrix under their default config, matching what the
    figures consume.
    """
    from repro.apps.masked import MASK_MODES
    from repro.baselines.spmv import OPERAND_SHAPES

    for model in models:
        if model not in available_models():
            raise ValueError(
                f"unknown model {model!r}; known: {available_models()}")
    for variant in variants:
        if variant not in PREPROCESS_VARIANTS:
            raise ValueError(
                f"unknown preprocessing variant {variant!r}; "
                f"known: {PREPROCESS_VARIANTS}")
    for mask in masks:
        if mask not in MASK_MODES:
            raise ValueError(
                f"unknown mask mode {mask!r}; known: {MASK_MODES}")
    if operand not in OPERAND_SHAPES:
        raise ValueError(
            f"unknown operand shape {operand!r}; known: {OPERAND_SHAPES}")
    points: List[SweepPoint] = []
    gamma_configs: Sequence[Optional[GammaConfig]] = configs or [None]
    for matrix in matrices:
        for model in models:
            if model in GAMMA_MODELS:
                for config in gamma_configs:
                    for mask in masks:
                        if mask == DEFAULT_MASK:
                            for variant in variants:
                                points.append(SweepPoint(
                                    model, matrix, variant, config,
                                    multi_pe))
                        else:
                            points.append(SweepPoint(
                                model, matrix, "none", config, multi_pe,
                                mask=mask))
            elif model in SIMULATOR_MODELS:  # gamma-spmv
                for config in gamma_configs:
                    points.append(SweepPoint(
                        model, matrix, "none", config, multi_pe,
                        operand=operand))
            else:
                points.append(SweepPoint(model, matrix, ""))
    return points


def pending_points(points: Iterable[SweepPoint]) -> List[SweepPoint]:
    """Deduplicate a plan and drop points already in the disk cache."""
    return [point for point in dict.fromkeys(points)
            if cached_record(point) is None]


# ----------------------------------------------------------------------
# Checkpoint (interrupted-sweep state, persisted through the disk cache)
# ----------------------------------------------------------------------
CHECKPOINT_VERSION = 1


def checkpoint_key(points: Sequence[SweepPoint]) -> str:
    """The checkpoint's cache key — a function of the plan, nothing else,
    so re-issuing the same ``python -m repro sweep`` finds it."""
    return diskcache.cache_key(
        "sweep-checkpoint",
        plan=sorted(record_key(p) for p in dict.fromkeys(points)))


def save_checkpoint(key: str, total: int, result: SweepResult) -> None:
    """Persist sweep progress (records themselves live in the cache)
    under ``key``, the :func:`checkpoint_key` of a ``total``-point plan.

    Only resume-relevant state goes in: execution stats vary with
    scheduling (retries, crash timing), and the cache must stay
    byte-identical between serial and parallel runs of the same plan.
    """
    diskcache.store(key, {
        "version": CHECKPOINT_VERSION,
        "total": total,
        "completed": len(result),
        "quarantined": [
            f.to_payload() for f in result.quarantined.values()
        ],
    })
    spans.emit_instant("sweep/checkpoint", completed=len(result),
                       quarantined=len(result.quarantined))


def load_checkpoint(
        points: Sequence[SweepPoint]) -> Optional[Dict]:
    payload = diskcache.load(checkpoint_key(points))
    if not payload or payload.get("version") != CHECKPOINT_VERSION:
        return None
    return payload


def clear_checkpoint(points: Sequence[SweepPoint]) -> None:
    diskcache.invalidate(checkpoint_key(points))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_sweep(
    points: Sequence[SweepPoint],
    workers: Optional[int] = None,
    serial: bool = False,
    on_result: Optional[Callable[[SweepPoint, RunRecord], None]] = None,
    on_executed: Optional[
        Callable[[SweepPoint, RunRecord, float], None]] = None,
    policy: Optional[SweepPolicy] = None,
    metrics=None,
    resume: bool = False,
    collect_metrics: bool = False,
) -> SweepResult:
    """Execute a sweep, parallelizing cache misses across processes.

    Each cached point is loaded once; the misses run on one
    :class:`SlotPool` for the whole plan, whose workers send each record
    back over their pipe. Points are independent, so misses need no
    ordering between them.

    Failing points are retried and eventually quarantined per ``policy``
    — the sweep always completes (unless ``policy.fail_fast``) and the
    returned :class:`SweepResult` maps every *successful* point to its
    record, with quarantined points reported separately.

    Args:
        points: The plan (duplicates are collapsed).
        workers: Process count (default: ``os.cpu_count()``; 1 or fewer
            runs misses in this process).
        serial: Run misses in this process, in plan order — same
            results, useful for determinism checks and debugging.
            Serial mode retries and quarantines but cannot cancel a hung
            point (``timeout_seconds`` needs a killable worker process).
        on_result: Called in the parent for every completed point, in
            plan order, once the misses have run.
        on_executed: Called in the parent for each point actually
            *computed* (a cache miss) with its wall-clock seconds, as it
            completes — cached loads do not fire it.
        policy: Failure-handling policy (default :class:`SweepPolicy`).
        metrics: Optional :class:`~repro.obs.MetricsRegistry`; retries,
            timeouts, crashes, and quarantines are published as
            ``sweep/*`` counters for the CLI summary.
        resume: Honor a previous interrupted run's checkpoint for this
            exact plan: its quarantined points are skipped (reported as
            ``previous-run`` failures) instead of re-burning retries,
            and — via the disk cache — nothing already computed reruns.
        collect_metrics: Attach a
            :class:`~repro.obs.MetricsRegistry` to every *computed*
            point (CLI ``--metrics``), serializing the blob onto its
            record; propagated to worker processes via
            :data:`METRICS_ENV`. Off by default — sweeps pay nothing
            unless asked.

    Returns:
        Every completed point mapped to its record, in plan order,
        serial or parallel alike — the result of a sweep does not depend
        on how it ran.
    """
    policy = policy or SweepPolicy()
    ordered = list(dict.fromkeys(points))
    result = SweepResult()
    failed_attempts: Dict[SweepPoint, int] = {}
    # Pool threads publish retries and failures while this thread counts
    # completions, so every counter update happens under this lock.
    counters = threading.Lock()

    def count(name: str, amount: int = 1,
              point: Optional[SweepPoint] = None) -> None:
        """Update stats and mirror the event into the active telemetry.

        Every ``sweep/<name>`` span instant is emitted *here*, right
        where the stat increments, which is what makes span counts and
        ``SweepResult.stats`` agree exactly (the chaos-integration test
        pins this).
        """
        with counters:
            result.stats[name] = result.stats.get(name, 0) + amount
            if metrics is not None:
                metrics.inc(f"sweep/{name}", amount)
            if point is not None and name in FAILURE_STATS.values():
                failed_attempts[point] = failed_attempts.get(point, 0) + 1
            if spans.active():
                attrs = {"point": point.label()} if point is not None else {}
                spans.emit_instant(f"sweep/{name}", **attrs)

    def publish(event: str, point: SweepPoint, info: Dict[str, Any]) -> None:
        """Executor events from :meth:`SlotPool.run_with_retries`."""
        if event == "retry":
            count("retries", point=point)
            spans.emit_instant("sweep/backoff", point=point.label(),
                               attempt=info["attempt"],
                               delay_seconds=info["delay_seconds"])
            return
        reason = info.get("reason", "ok")
        spans.emit_span("sweep/point", info["start_ts"], point=point.label(),
                        attempt=info["attempt"], slot=info["slot"],
                        outcome=reason)
        if reason == "timeout":
            spans.emit_instant("sweep/timeout_kill", point=point.label(),
                               slot=info["slot"],
                               timeout_seconds=policy.timeout_seconds)
        if not info["ok"]:
            count(FAILURE_STATS[reason], point=point)

    if resume:
        checkpoint = load_checkpoint(ordered) or {}
        for payload in checkpoint.get("quarantined", ()):
            failure = PointFailure.from_payload(payload)
            failure.reason = "previous-run"
            if failure.point in ordered:
                result.quarantined[failure.point] = failure
                count("quarantined", point=failure.point)

    # Hashing the whole plan takes milliseconds; it is done once, not
    # per settled point while the pool threads keep the workers busy.
    progress_key = checkpoint_key(ordered)

    def save_progress() -> None:
        if diskcache.cache_enabled():
            save_checkpoint(progress_key, len(ordered), result)

    records: Dict[SweepPoint, RunRecord] = {}

    def settle(point: SweepPoint, outcome: Dict[str, Any]) -> None:
        """Record a point's final outcome (calling thread only)."""
        if outcome["ok"]:
            records[point] = outcome["record"]
            count("executed", point=point)
            result.provenance[point] = {
                "source": "computed",
                "attempts": failed_attempts.get(point, 0) + 1,
                "wall_seconds": outcome["wall_seconds"],
            }
            if on_executed is not None:
                on_executed(point, records[point], outcome["wall_seconds"])
            save_progress()
            return
        failure = PointFailure(point, outcome["attempts"], outcome["reason"],
                               outcome["error"])
        result.quarantined[point] = failure
        count("quarantined", point=point)
        save_progress()
        if policy.fail_fast:
            raise SweepPointError(failure)

    if collect_metrics:
        os.environ[METRICS_ENV] = "1"
    try:
        pending = []
        for point in ordered:
            if point in result.quarantined:
                continue
            record = cached_record(point)
            if record is None:
                pending.append(point)
                continue
            records[point] = record
            count("cached", point=point)
            result.provenance[point] = {"source": "cached", "attempts": 0}
        parallel = not serial and (workers is None or workers > 1)
        size = (min(workers or os.cpu_count() or 1, len(pending))
                if parallel else 0)
        _run_pending(pending, size, policy, publish, settle)
    finally:
        if collect_metrics:
            os.environ.pop(METRICS_ENV, None)
    for point in ordered:
        if point in records:
            result[point] = records[point]
            if on_result is not None:
                on_result(point, records[point])
    save_progress()
    return result


def _run_pending(
    pending: Sequence[SweepPoint],
    size: int,
    policy: SweepPolicy,
    publish: Callable[[str, SweepPoint, Dict[str, Any]], None],
    settle: Callable[[SweepPoint, Dict[str, Any]], None],
) -> None:
    """Run every point on one ``SlotPool(size)``, then close it.

    ``SlotPool(0)`` runs the points here, in plan order. Otherwise one
    thread per slot drives the retry loop; points are submitted in plan
    order, and the executor's FIFO queue starts them in that order.
    Outcomes are settled in the calling thread either way, so only it
    touches the result and the checkpoint.
    """
    pool = SlotPool(size)
    if not size:
        for point in pending:
            settle(point, pool.run_with_retries(point, policy, publish))
        return
    threads = ThreadPoolExecutor(size, thread_name_prefix="sweep-slot")
    try:
        futures = {
            threads.submit(pool.run_with_retries, point, policy, publish):
                point
            for point in pending
        }
        for future in as_completed(futures):
            settle(futures[future], future.result())
    finally:
        # On an early exit (fail_fast, Ctrl-C) queued points never start
        # and closing the pool ends running attempts and backoffs.
        threads.shutdown(wait=False, cancel_futures=True)
        pool.close()
        threads.shutdown()


# ----------------------------------------------------------------------
# Point executor: worker slots with kill-based cancellation
# ----------------------------------------------------------------------
#: Attempt failure reason -> the counter each executor caller keeps for
#: it (the sweep's ``SweepResult.stats`` and the job server's ``stats``).
FAILURE_STATS = {"timeout": "timeouts", "crash": "crashes",
                 "error": "errors", "shutdown": "shutdowns"}


def _failed(reason: str, error: str) -> Dict[str, Any]:
    return {"ok": False, "reason": reason, "error": error}


_SHUTDOWN = _failed("shutdown", "executor pool closed")


def worker_loop(conn) -> None:
    """Worker process body: evaluate points until the parent hangs up.

    Every outcome — success payload or exception detail — travels back
    over the pipe; the parent treats a vanished pipe (hard crash,
    ``os._exit``, OOM-kill) as a failed attempt of whatever point the
    slot was running.
    """
    while True:
        try:
            point = conn.recv()
        except (EOFError, OSError):
            return
        if point is None:
            return
        start = time.perf_counter()
        try:
            payload = execute_point(point).to_payload()
            conn.send({"ok": True, "payload": payload,
                       "wall_seconds": time.perf_counter() - start})
        except BaseException as exc:  # report, don't die: slot is reused
            try:
                conn.send({"ok": False, "error": repr(exc),
                           "wall_seconds": time.perf_counter() - start})
            except (BrokenPipeError, OSError):
                return


class WorkerSlot:
    """One worker process + pipe, respawned after kills and crashes.

    A slot belongs to one :class:`SlotPool`, which drives it: a point
    that hangs or wedges a native call is stopped by killing the
    process (the only reliable way) and the slot is respawned for the
    next attempt.
    """

    def __init__(self, ctx, index: int = 0) -> None:
        self._ctx = ctx
        self.index = index
        self.busy_point: Optional[SweepPoint] = None
        self.deadline: Optional[float] = None
        self._spawn()

    def _spawn(self) -> None:
        self.conn, child_conn = multiprocessing.Pipe()
        self.process = self._ctx.Process(
            target=worker_loop, args=(child_conn,), daemon=True)
        # The slot index rides to the child through the environment
        # (fork and spawn contexts both inherit it at start()); the
        # worker's span recorder labels its lane with it. Harmless when
        # telemetry is off.
        os.environ[spans.SPAN_SLOT_ENV] = str(self.index)
        try:
            self.process.start()
        finally:
            os.environ.pop(spans.SPAN_SLOT_ENV, None)
        child_conn.close()

    def assign(self, point: SweepPoint, timeout: Optional[float]) -> None:
        self.busy_point = point
        self.deadline = (time.monotonic() + timeout
                         if timeout is not None else None)
        self.conn.send(point)

    def release(self) -> None:
        self.busy_point = None
        self.deadline = None

    def respawn(self) -> None:
        """Kill the current process (hung or dead) and start a fresh one."""
        self.process.terminate()
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5)
        self.conn.close()
        self.release()
        self._spawn()

    def shutdown(self) -> None:
        if self.busy_point is None and self.process.is_alive():
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        self.process.terminate()
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.kill()
        self.conn.close()


class SlotPool:
    """The engine's point executor: worker slots, one attempt classifier
    and one retry loop, shared by :func:`run_sweep` and the job server.

    ``SlotPool(n)`` owns ``n`` killable worker processes
    (:class:`WorkerSlot`) behind a free queue. Unlike a
    ``ProcessPoolExecutor``, where a hung task holds its worker forever
    and a dead worker breaks the whole pool, each slot is killed and
    respawned on its own. ``SlotPool(0)`` owns no processes and runs each
    attempt inline in the calling thread (serial sweeps,
    ``ServerConfig(workers=0)``); nothing can cancel an inline attempt,
    so timeouts are not enforced there.

    :meth:`run_point` and :meth:`run_with_retries` block and are
    thread-safe: the parallel sweep calls the loop from one thread per
    slot, the job server through ``asyncio.to_thread``. :meth:`close`
    sets :attr:`closed`, which ends running attempts and backoffs as
    ``shutdown`` outcomes.
    """

    def __init__(self, workers: int) -> None:
        ctx = multiprocessing.get_context()
        self._slots = [WorkerSlot(ctx, index) for index in range(workers)]
        self._free: "queue.SimpleQueue[WorkerSlot]" = queue.SimpleQueue()
        for slot in self._slots:
            self._free.put(slot)
        self.closed = threading.Event()

    def run_point(self, point: SweepPoint, attempt: int,
                  timeout: Optional[float]) -> Dict[str, Any]:
        """Run one attempt of ``point`` and classify how it ended.

        This is the only place an attempt becomes an outcome. Every
        outcome carries ``ok``, ``attempt``, ``slot`` (None inline) and
        ``start_ts``. A success adds ``record`` and ``wall_seconds``; a
        failure adds ``error`` and a ``reason``: ``error`` (the point
        raised), ``crash`` (the worker died), ``timeout`` (killed past
        ``timeout`` seconds) or ``shutdown`` (the pool closed).
        """
        info = {"attempt": attempt, "slot": None, "start_ts": time.time()}
        if not self._slots:
            return {**info, **self._run_inline(point)}
        slot = self._checkout()
        if slot is None:
            return {**info, **_SHUTDOWN}
        info["slot"] = slot.index
        try:
            return {**info, **self._drive(slot, point, timeout)}
        finally:
            self._free.put(slot)

    def _run_inline(self, point: SweepPoint) -> Dict[str, Any]:
        if self.closed.is_set():
            return dict(_SHUTDOWN)
        start = time.perf_counter()
        try:
            record = execute_point(point)
        except Exception as exc:
            return _failed("error", repr(exc))
        return {"ok": True, "record": record,
                "wall_seconds": time.perf_counter() - start}

    def _checkout(self) -> Optional[WorkerSlot]:
        """A free slot, or None once the pool is closed."""
        while not self.closed.is_set():
            try:
                return self._free.get(timeout=0.05)
            except queue.Empty:
                pass
        return None

    def _drive(self, slot: WorkerSlot, point: SweepPoint,
               timeout: Optional[float]) -> Dict[str, Any]:
        try:
            slot.assign(point, timeout)
        except (BrokenPipeError, OSError):
            slot.respawn()
            return _failed("crash", "worker pipe lost on assign")
        while not slot.conn.poll(0.05):
            if self.closed.is_set():
                return dict(_SHUTDOWN)  # close() stops the worker
            if slot.deadline is not None \
                    and time.monotonic() >= slot.deadline:
                slot.respawn()
                return _failed("timeout", f"exceeded {timeout}s timeout")
        try:
            reply = slot.conn.recv()
        except (EOFError, OSError):
            # Hard worker death (os._exit, segfault, OOM-kill).
            slot.respawn()
            return _failed("crash", "worker process died mid-point")
        slot.release()
        if not reply["ok"]:
            return _failed("error", reply["error"])
        return {"ok": True, "record": RunRecord.from_payload(reply["payload"]),
                "wall_seconds": reply["wall_seconds"]}

    def run_with_retries(
        self,
        point: SweepPoint,
        policy: SweepPolicy,
        publish: Callable[[str, SweepPoint, Dict[str, Any]], None],
    ) -> Dict[str, Any]:
        """Attempt ``point`` until it succeeds or ``policy`` gives up.

        The one retry loop. A failed attempt is retried after
        ``policy.backoff_delay`` up to ``policy.max_retries`` times; a
        ``shutdown`` outcome is never retried, and closing the pool
        during a backoff ends the loop at once. ``publish(event, point,
        info)`` runs on this thread: ``"attempt"`` with each outcome,
        ``"retry"`` with ``key``, ``attempt`` and ``delay_seconds``
        before each backoff. Returns the last outcome, with
        ``attempts`` (how many were started).
        """
        attempt = 0
        while True:
            outcome = self.run_point(point, attempt, policy.timeout_seconds)
            outcome["attempts"] = attempt + 1
            publish("attempt", point, outcome)
            if (outcome["ok"] or outcome["reason"] == "shutdown"
                    or attempt >= policy.max_retries):
                return outcome
            key = record_key(point)
            delay = policy.backoff_delay(key, attempt)
            attempt += 1
            publish("retry", point, {"key": key, "attempt": attempt,
                                     "delay_seconds": delay})
            if self.closed.wait(delay):
                return {**_SHUTDOWN, "attempts": attempt}

    def close(self) -> None:
        """End running attempts and backoffs, then stop every worker."""
        if self.closed.is_set():
            return
        self.closed.set()
        # Running attempts notice within one poll interval and hand
        # their slot back; stopping a slot under them would race.
        for _ in self._slots:
            try:
                self._free.get(timeout=5)
            except queue.Empty:
                break
        for slot in self._slots:
            slot.shutdown()

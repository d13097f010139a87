"""SpGEMM-as-a-service: the asyncio HTTP job server.

One-shot CLI runs don't serve concurrent clients; this module layers a
job API over the machinery the repo already trusts:

* **Execution** is the engine's one point executor,
  :class:`~repro.engine.sweep.SlotPool`, the same one sweeps use: a
  pool of killable worker processes (per-job timeout → kill + respawn,
  crash isolation), or ``workers=0`` to run jobs inline in a thread of
  this process (fully deterministic). Each computed job makes one
  ``asyncio.to_thread`` hop into the pool's retry loop, which retries
  failed attempts with the sweep's deterministic backoff.
* **Results** flow through the tiered store
  (:class:`~repro.serve.store.TieredStore`): L1 in-process LRU, L2 the
  checksum-validated disk cache shared with sweeps.
* **Identical concurrent jobs coalesce**: the first requester leads one
  execution, later requesters attach to its future — N duplicate
  submissions cost one simulation (asserted via ``point/execute`` span
  counts in the load tests), the serving analogue of Gamma merging
  partial fibers instead of refetching them.
* **Admission control** bounds what the server accepts: per-client
  in-flight caps (HTTP 429) and a bounded count of distinct in-flight
  executions (HTTP 503), both with ``Retry-After``.
* **Graceful shutdown** stops accepting, drains in-flight executions
  (bounded by ``drain_seconds``), resolves anything still unfinished
  with a structured error — never a torn response — and checkpoints the
  interrupted queue through the disk cache so a restarted server
  resumes it.

The protocol is deliberately tiny HTTP/1.1 (stdlib-only; the container
has no aiohttp): ``POST /jobs`` (JSON spec → job id), ``GET
/jobs/<id>`` (``?wait=SECONDS`` long-polls), ``GET /stats``, ``GET
/metrics`` (a single-snapshot counters document for scrapers), ``GET
/healthz``. Every response is a complete JSON document with an exact
``Content-Length`` — a client can observe an old job state or a new
one, never a torn mixture.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import diskcache
from repro.engine.sweep import (
    FAILURE_STATS,
    SlotPool,
    SweepPoint,
    SweepPolicy,
)
from repro.obs import spans
from repro.serve.jobs import Job, JobSpec, JobValidationError
from repro.serve.store import CoalescingMap, TieredStore

#: Queue-checkpoint envelope version (independent of record schema).
QUEUE_CHECKPOINT_VERSION = 1

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


@dataclass
class ServerConfig:
    """Service tuning knobs (all have serving-scale defaults).

    Attributes:
        workers: Worker *processes* in the executor's
            :class:`~repro.engine.sweep.SlotPool`. ``0`` runs jobs
            inline in a thread of this process — deterministic and
            fault-transparent, but without kill-based cancellation, so
            ``timeout_seconds`` is ignored there.
        queue_depth: Maximum distinct in-flight executions (coalesced
            duplicates ride free); beyond it submissions get 503.
        per_client_limit: Maximum unfinished jobs per client id
            (``X-Client-Id`` header, else the peer address); beyond it
            submissions get 429.
        timeout_seconds / max_retries / backoff_*: Per-job failure
            policy, a :class:`~repro.engine.sweep.SweepPolicy` run by
            the same retry loop as sweeps
            (:meth:`~repro.engine.sweep.SlotPool.run_with_retries`).
        l1_capacity: L1 LRU entries (complete RunRecord payloads).
        retry_after_seconds: Value clients see in ``Retry-After``.
        drain_seconds: Graceful-shutdown budget for in-flight jobs.
        checkpoint_tag: Names the queue checkpoint (one logical service
            per tag; restarts restore their own tag only).
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (the OS picks; see JobServer.port)
    workers: int = 2
    queue_depth: int = 64
    per_client_limit: int = 16
    timeout_seconds: Optional[float] = 60.0
    max_retries: int = 2
    backoff_base_seconds: float = 0.05
    backoff_max_seconds: float = 2.0
    l1_capacity: int = 256
    retry_after_seconds: float = 1.0
    drain_seconds: float = 30.0
    checkpoint_tag: str = "default"

    def policy(self) -> SweepPolicy:
        return SweepPolicy(
            timeout_seconds=self.timeout_seconds,
            max_retries=self.max_retries,
            backoff_base_seconds=self.backoff_base_seconds,
            backoff_max_seconds=self.backoff_max_seconds)


class JobServer:
    """The job service: submission, coalescing, execution, serving.

    Lifecycle::

        server = JobServer(ServerConfig(workers=2))
        await server.start()          # pool + queue-checkpoint restore
        await server.start_http()     # bind; server.port is now real
        ...
        await server.shutdown()       # drain, checkpoint, stop pool

    ``submit``/``submit_and_wait`` are also directly callable
    (in-process mode) — the load generator and the deterministic tests
    use them to bypass socket nondeterminism.
    """

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        self.store = TieredStore(self.config.l1_capacity)
        self.coalesce = CoalescingMap()
        self.jobs: Dict[str, Job] = {}
        self.stats: Dict[str, int] = {name: 0 for name in (
            "submitted", "accepted", "coalesced", "computed", "failed",
            "retries", "timeouts", "crashes", "errors", "shutdowns",
            "hits_l1", "hits_l2", "rejected_invalid",
            "rejected_client_limit", "rejected_queue_full",
            "rejected_unavailable", "restored", "checkpointed",
        )}
        self._job_seq = itertools.count(1)
        self._per_client: Dict[str, int] = {}
        self._events: Dict[str, asyncio.Event] = {}
        self._inflight_specs: Dict[str, JobSpec] = {}
        self._queued_keys: Dict[str, JobSpec] = {}
        self._exec_tasks: set = set()
        # The pool's threads publish retries and failures into stats.
        self._stats_lock = threading.Lock()
        self._accepting = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[SlotPool] = None
        self._exec_sem: Optional[asyncio.Semaphore] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, restore: bool = True) -> int:
        """Start the execution backend; returns restored-job count."""
        self._loop = asyncio.get_running_loop()
        self._exec_sem = asyncio.Semaphore(max(1, self.config.workers))
        self._pool = SlotPool(self.config.workers)
        self._accepting = True
        restored = self._restore_queue() if restore else 0
        spans.emit_instant("serve/start", workers=self.config.workers,
                           restored=restored)
        return restored

    async def start_http(self) -> Tuple[str, int]:
        """Bind the HTTP listener; returns the (host, port) bound."""
        assert self._loop is not None, "call start() first"
        self._http_server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        sockname = self._http_server.sockets[0].getsockname()
        self.port = sockname[1]
        return sockname[0], self.port

    async def shutdown(self, drain: bool = True) -> Dict[str, int]:
        """Stop accepting, drain in-flight jobs, checkpoint the rest.

        Every accepted job still terminates: jobs the drain budget
        covers finish normally; anything beyond it resolves with a
        structured ``shutdown`` error (and its spec is checkpointed so
        a restarted server re-runs it). Returns
        ``{"drained": N, "checkpointed": M}``.
        """
        self._accepting = False
        spans.emit_instant("serve/shutdown", drain=drain,
                           inflight=len(self.coalesce))
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()
            self._http_server = None
        tasks = list(self._exec_tasks)
        pending: List[asyncio.Task] = tasks
        if drain and tasks:
            _, pending_set = await asyncio.wait(
                tasks, timeout=self.config.drain_seconds)
            pending = list(pending_set)
        # Checkpoint the specs of every execution that did not finish,
        # then cancel it and resolve its future as a structured error.
        interrupted = [
            self._inflight_specs[key] for key in self.coalesce.keys()
            if key in self._inflight_specs
        ]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for key in self.coalesce.keys():
            future = self.coalesce.finish(key)
            if future is not None and not future.done():
                future.set_result({
                    "ok": False, "reason": "shutdown",
                    "error": "server shut down before completion",
                    "attempts": 0,
                })
        # future done-callbacks run via call_soon; let them finalize
        # the jobs before we report the drain as complete
        await asyncio.sleep(0)
        checkpointed = self._save_checkpoint(interrupted)
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        drained = len(tasks) - len(pending)
        spans.emit_instant("serve/drained", drained=drained,
                           checkpointed=checkpointed)
        return {"drained": drained, "checkpointed": checkpointed}

    # ------------------------------------------------------------------
    # Queue checkpoint (persisted through the disk cache)
    # ------------------------------------------------------------------
    def _checkpoint_key(self) -> str:
        return diskcache.cache_key(
            "serve-queue", tag=self.config.checkpoint_tag)

    def _save_checkpoint(self, specs: List[JobSpec]) -> int:
        if not specs or not diskcache.cache_enabled():
            return 0
        seen = set()
        payloads = []
        for spec in specs:
            key = spec.key()
            if key in seen:
                continue
            seen.add(key)
            payloads.append(spec.to_payload())
        diskcache.store(self._checkpoint_key(), {
            "version": QUEUE_CHECKPOINT_VERSION,
            "specs": payloads,
        })
        self.stats["checkpointed"] += len(payloads)
        spans.emit_instant("serve/checkpoint", jobs=len(payloads))
        return len(payloads)

    def _restore_queue(self) -> int:
        payload = diskcache.load(self._checkpoint_key())
        if (not payload
                or payload.get("version") != QUEUE_CHECKPOINT_VERSION):
            return 0
        diskcache.invalidate(self._checkpoint_key())
        restored = 0
        for spec_payload in payload.get("specs", ()):
            try:
                spec = JobSpec.from_checkpoint(spec_payload)
            except (KeyError, TypeError, ValueError):
                continue  # stale/foreign checkpoint entry
            self._admit(spec, client="restore")
            restored += 1
        self.stats["restored"] += restored
        return restored

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _retry_after(self) -> Dict[str, str]:
        return {"Retry-After": f"{self.config.retry_after_seconds:g}"}

    def submit(self, payload: Any, client: str = "anon",
               ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Handle one ``POST /jobs``.

        Returns ``(http_status, body, extra_headers)`` — 400 for
        invalid specs, 429/503 with ``Retry-After`` for admission
        rejections, 200 for jobs served entirely from the store, 202
        for accepted (queued/coalesced) jobs.
        """
        self.stats["submitted"] += 1
        if not self._accepting:
            self.stats["rejected_unavailable"] += 1
            return 503, _error_body(
                "unavailable", "server is shutting down"
            ), self._retry_after()
        try:
            spec = JobSpec.from_payload(payload)
        except JobValidationError as exc:
            self.stats["rejected_invalid"] += 1
            return 400, _error_body("invalid_spec", str(exc)), {}
        inflight = self._per_client.get(client, 0)
        if inflight >= self.config.per_client_limit:
            self.stats["rejected_client_limit"] += 1
            spans.emit_instant("serve/reject_429", client=client)
            return 429, _error_body(
                "client_limit",
                f"client {client!r} has {inflight} unfinished jobs "
                f"(cap {self.config.per_client_limit})"
            ), self._retry_after()
        key = spec.key()
        if (key not in self.coalesce
                and len(self.coalesce) >= self.config.queue_depth):
            self.stats["rejected_queue_full"] += 1
            spans.emit_instant("serve/reject_503", key=key)
            return 503, _error_body(
                "queue_full",
                f"{len(self.coalesce)} executions in flight "
                f"(cap {self.config.queue_depth})"
            ), self._retry_after()
        return self._admit(spec, client)

    def _admit(self, spec: JobSpec, client: str,
               ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Create a job for a validated, admitted spec."""
        assert self._loop is not None, "server not started"
        key = spec.key()
        job = Job(id=f"j{next(self._job_seq):06d}", spec=spec,
                  client=client)
        self.jobs[job.id] = job
        cached, tier = self.store.get(key)
        if cached is not None:
            job.finish_ok(cached, tier)
            self.stats[f"hits_{tier}"] += 1
            spans.emit_instant("serve/hit", tier=tier, key=key)
            spans.emit_span("serve/job", job.created_ts,
                            job=job.id, state=job.state, source=tier)
            return 200, job.to_payload(), {}
        future, leader = self.coalesce.join(key, self._loop.create_future)
        self.stats["accepted"] += 1
        self._per_client[client] = self._per_client.get(client, 0) + 1
        self._events[job.id] = asyncio.Event()
        if leader:
            self._inflight_specs[key] = spec
            task = self._loop.create_task(self._execute(key, spec))
            self._exec_tasks.add(task)
            task.add_done_callback(self._exec_tasks.discard)
        else:
            self.stats["coalesced"] += 1
            job.source = "coalesced"
            spans.emit_instant("serve/coalesced", key=key, job=job.id)
        future.add_done_callback(
            lambda fut, job=job: self._finalize_job(job, fut))
        return 202, job.to_payload(), {}

    async def submit_and_wait(self, payload: Any, client: str = "anon",
                              timeout: Optional[float] = None,
                              ) -> Tuple[int, Dict[str, Any]]:
        """Submit and await the terminal job payload (in-process API)."""
        status, body, _ = self.submit(payload, client)
        if status not in (200, 202):
            return status, body
        job_id = body["id"]
        if not self.jobs[job_id].finished:
            await asyncio.wait_for(
                self._events[job_id].wait(), timeout)
        return status, self.jobs[job_id].to_payload()

    def _finalize_job(self, job: Job, future: asyncio.Future) -> None:
        """Resolve one job from its (possibly shared) execution outcome."""
        outcome = future.result()  # executions always resolve with a dict
        if outcome["ok"]:
            job.finish_ok(outcome["payload"],
                          job.source or "computed",
                          attempts=outcome["attempts"])
        else:
            job.finish_error(outcome["reason"], outcome["error"],
                             attempts=outcome["attempts"])
        count = self._per_client.get(job.client, 0) - 1
        if count > 0:
            self._per_client[job.client] = count
        else:
            self._per_client.pop(job.client, None)
        spans.emit_span("serve/job", job.created_ts, job=job.id,
                        state=job.state, source=job.source)
        event = self._events.get(job.id)
        if event is not None:
            event.set()

    # ------------------------------------------------------------------
    # Execution (one task per distinct in-flight key)
    # ------------------------------------------------------------------
    async def _execute(self, key: str, spec: JobSpec) -> None:
        point = spec.to_point()
        self._queued_keys[key] = spec
        start_ts = time.time()
        try:
            assert self._exec_sem is not None and self._pool is not None
            async with self._exec_sem:
                self._queued_keys.pop(key, None)
                outcome = await asyncio.to_thread(
                    self._pool.run_with_retries, point,
                    self.config.policy(), self._publish)
        finally:
            self._queued_keys.pop(key, None)
            self._inflight_specs.pop(key, None)
        if outcome["ok"]:
            payload = outcome["record"].to_payload()
            self.store.admit(key, payload)
            self.stats["computed"] += 1
            outcome = {"ok": True, "payload": payload,
                       "attempts": outcome["attempts"]}
        else:
            self.stats["failed"] += 1
        spans.emit_span("serve/execute", start_ts, key=key,
                        point=point.label(), ok=outcome["ok"],
                        attempts=outcome["attempts"])
        future = self.coalesce.finish(key)
        if future is not None and not future.done():
            future.set_result(outcome)

    def _publish(self, event: str, point: SweepPoint,
                 info: Dict[str, Any]) -> None:
        """Executor events; runs on the pool's thread."""
        if event == "retry":
            with self._stats_lock:
                self.stats["retries"] += 1
            spans.emit_instant("serve/backoff", key=info["key"],
                               attempt=info["attempt"],
                               delay_seconds=info["delay_seconds"])
        elif not info["ok"]:
            with self._stats_lock:
                self.stats[FAILURE_STATS[info["reason"]]] += 1
            if info["reason"] == "timeout":
                spans.emit_instant(
                    "serve/timeout_kill", point=point.label(),
                    slot=info["slot"],
                    timeout_seconds=self.config.timeout_seconds)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats_payload(self) -> Dict[str, Any]:
        by_state: Dict[str, int] = {}
        for job in self.jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        return {
            "accepting": self._accepting,
            "workers": self.config.workers,
            "stats": {name: self.stats[name]
                      for name in sorted(self.stats)},
            "store": {**self.store.stats, **self.store.hit_rates(),
                      "l1_size": len(self.store.l1),
                      "l1_capacity": self.store.l1.capacity,
                      "l1_evictions": self.store.l1.evictions},
            "coalesce": {"inflight": len(self.coalesce),
                         "created": self.coalesce.created,
                         "joined": self.coalesce.joined},
            "jobs": {"total": len(self.jobs), "by_state": by_state},
        }

    def metrics_payload(self) -> Dict[str, Any]:
        """The ``GET /metrics`` document: one consistent snapshot.

        Built synchronously on the event loop with no awaits, so every
        counter in the response was read under the same "instant" — a
        scraper can difference two snapshots without seeing a torn
        mixture of old and new values (the same guarantee the response
        framing gives at the byte level).
        """
        store_stats = dict(self.store.stats)
        unfinished = sum(1 for job in self.jobs.values()
                         if not job.finished)
        return {
            "schema": 1,
            "accepting": self._accepting,
            "store": {
                **store_stats,
                **self.store.hit_rates(),
                "l1_size": len(self.store.l1),
                "l1_capacity": self.store.l1.capacity,
                "l1_evictions": self.store.l1.evictions,
            },
            "coalesce": {
                "inflight": len(self.coalesce),
                "leaders": self.coalesce.created,
                "riders": self.coalesce.joined,
            },
            "admission": {
                "rejected_client_limit":
                    self.stats["rejected_client_limit"],
                "rejected_queue_full":
                    self.stats["rejected_queue_full"],
                "rejected_invalid": self.stats["rejected_invalid"],
                "rejected_unavailable":
                    self.stats["rejected_unavailable"],
            },
            "queue": {
                "inflight_executions": len(self.coalesce),
                "queued_executions": len(self._queued_keys),
                "depth_limit": self.config.queue_depth,
                "workers": self.config.workers,
            },
            "jobs": {
                "total": len(self.jobs),
                "unfinished": unfinished,
                "submitted": self.stats["submitted"],
                "computed": self.stats["computed"],
                "failed": self.stats["failed"],
            },
        }

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await _read_request(reader)
            except _BadRequest as exc:
                await _respond(writer, exc.status,
                               _error_body("bad_request", str(exc)))
                return
            status, body, headers = await self._route(request, writer)
            await _respond(writer, status, body, headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to salvage
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _route(self, request: Dict[str, Any],
                     writer: asyncio.StreamWriter,
                     ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        method = request["method"]
        path = request["path"]
        query = request["query"]
        client = request["headers"].get("x-client-id")
        if not client:
            peer = writer.get_extra_info("peername")
            client = peer[0] if peer else "anon"
        if path == "/jobs" and method == "POST":
            try:
                payload = json.loads(request["body"] or b"null")
            except ValueError:
                self.stats["submitted"] += 1
                self.stats["rejected_invalid"] += 1
                return 400, _error_body(
                    "invalid_json", "request body is not valid JSON"), {}
            return self.submit(payload, client)
        if path.startswith("/jobs/") and method == "GET":
            job = self.jobs.get(path[len("/jobs/"):])
            if job is None:
                return 404, _error_body("unknown_job",
                                        "no such job id"), {}
            wait = _parse_wait(query)
            if wait and not job.finished:
                event = self._events.get(job.id)
                if event is not None:
                    try:
                        await asyncio.wait_for(event.wait(), wait)
                    except asyncio.TimeoutError:
                        pass  # report current (unfinished) state
            return 200, job.to_payload(), {}
        if path == "/stats" and method == "GET":
            return 200, self.stats_payload(), {}
        if path == "/metrics" and method == "GET":
            return 200, self.metrics_payload(), {}
        if path == "/healthz" and method == "GET":
            return 200, {"status": "ok",
                         "accepting": self._accepting}, {}
        if path in ("/jobs", "/stats", "/metrics", "/healthz") \
                or path.startswith("/jobs/"):
            return 405, _error_body("method_not_allowed",
                                    f"{method} not supported here"), {}
        return 404, _error_body("not_found",
                                f"unknown path {path!r}"), {}


def _error_body(reason: str, message: str) -> Dict[str, Any]:
    return {"error": {"reason": reason, "message": message}}


def _parse_wait(query: Dict[str, str]) -> Optional[float]:
    raw = query.get("wait")
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return min(max(value, 0.0), 300.0) or None


class _BadRequest(Exception):
    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = 1024 * 1024


async def _read_request(reader: asyncio.StreamReader) -> Dict[str, Any]:
    """Parse one HTTP/1.1 request (line + headers + sized body)."""
    try:
        line = await reader.readline()
    except ValueError:
        raise _BadRequest("request line too long") from None
    if not line:
        raise _BadRequest("empty request")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _BadRequest("malformed request line")
    method, target = parts[0].upper(), parts[1]
    parsed = urllib.parse.urlsplit(target)
    query = dict(urllib.parse.parse_qsl(parsed.query))
    headers: Dict[str, str] = {}
    total = 0
    while True:
        line = await reader.readline()
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            raise _BadRequest("headers too large", status=413)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise _BadRequest("bad Content-Length") from None
        if length > _MAX_BODY_BYTES:
            raise _BadRequest("body too large", status=413)
        body = await reader.readexactly(length)
    return {"method": method, "path": parsed.path, "query": query,
            "headers": headers, "body": body}


async def _respond(writer: asyncio.StreamWriter, status: int,
                   payload: Dict[str, Any],
                   extra_headers: Optional[Dict[str, str]] = None,
                   ) -> None:
    """Write one complete JSON response and flush it."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    writer.write(head + body)
    await writer.drain()


# ----------------------------------------------------------------------
# Minimal HTTP client (stdlib-only; loadgen, tests, CLI smoke)
# ----------------------------------------------------------------------
async def http_request(host: str, port: int, method: str, path: str,
                       payload: Any = None,
                       headers: Optional[Dict[str, str]] = None,
                       ) -> Tuple[int, Dict[str, str], Any]:
    """One request against a running server; returns
    ``(status, headers, parsed-JSON body)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        lines = [f"{method} {path} HTTP/1.1", f"Host: {host}:{port}",
                 "Connection: close"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        if body:
            lines.append("Content-Type: application/json")
            lines.append(f"Content-Length: {len(body)}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()
        status_line = await reader.readline()
        parts = status_line.decode("latin-1").split(None, 2)
        status = int(parts[1])
        response_headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            response_headers[name.strip().lower()] = value.strip()
        raw = await reader.read()
        if "content-length" in response_headers:
            raw = raw[:int(response_headers["content-length"])]
        parsed = json.loads(raw) if raw else None
        return status, response_headers, parsed
    finally:
        writer.close()


async def run_service(config: ServerConfig,
                      ready: Optional[asyncio.Event] = None) -> None:
    """Start a server and run until cancelled (the CLI entry point).

    Cancellation (SIGINT via ``asyncio.run`` KeyboardInterrupt, or an
    explicit task cancel) triggers the graceful path: drain, resolve,
    checkpoint.
    """
    server = JobServer(config)
    restored = await server.start()
    host, port = await server.start_http()
    print(f"repro serve: listening on http://{host}:{port} "
          f"(workers={config.workers}, queue_depth={config.queue_depth}"
          + (f", restored {restored} queued jobs" if restored else "")
          + ")")
    if ready is not None:
        ready.set()
    try:
        await asyncio.Event().wait()  # until cancelled
    except asyncio.CancelledError:
        pass
    finally:
        summary = await server.shutdown(drain=True)
        print(f"repro serve: drained {summary['drained']} in-flight "
              f"job(s), checkpointed {summary['checkpointed']}")

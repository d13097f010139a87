"""Cross-process span/event recorder for sweep-scale telemetry.

A sweep is many processes — the parent driving worker slots, each slot a
killable worker — and questions like "where did the wall-clock go",
"which slots starved", and "how often did the cache save a recompute"
need one event stream spanning all of them. This module provides it in
three parts:

* :class:`SpanRecorder` — appends schema-versioned JSON-lines records
  (``span`` and ``instant`` events) to one file per process. Every line
  is flushed as written, so a worker killed mid-point (the sweep
  engine's cancellation mechanism) leaves a valid prefix plus at most
  one torn final line.
* **Activation by environment** — the parent enables telemetry with
  :func:`enable`, which points ``REPRO_SPAN_DIR`` at a directory;
  worker processes inherit the variable and lazily open their own
  ``spans-<pid>.jsonl`` on first emit. When the variable is unset,
  every :func:`emit_instant`/:func:`emit_span` call is a dictionary
  lookup returning immediately — uninstrumented sweeps pay nothing.
* **Parent merge** — :func:`merge_directory` reads every per-process
  file (tolerating torn lines from killed workers), orders events by
  ``(ts, pid, seq)``, and :func:`write_run_log` persists them as one
  schema-versioned run log the trace-event exporter and the run report
  consume.

Publishers are the sweep engine (point lifecycle, retries, backoff,
timeout kills, quarantine, checkpoint writes) and the disk cache
(hit / miss / corrupt-unlink / store); see
:mod:`repro.engine.sweep` and :mod:`repro.engine.diskcache`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, IO, List, Optional, Tuple, Union

#: Bump when the per-line record layout changes (checked on read).
SPAN_SCHEMA_VERSION = 1

#: Directory that activates recording for this process and its children.
SPAN_DIR_ENV = "REPRO_SPAN_DIR"

#: Slot index a sweep worker inherits (its lane in the trace view).
SPAN_SLOT_ENV = "REPRO_SPAN_SLOT"

#: Run-log header ``kind`` (distinguishes merged logs from raw files).
RUN_LOG_KIND = "run-log"


class SpanRecorder:
    """Appends span/instant records to one JSONL file, flushing per line.

    Records carry a per-recorder ``seq`` so a stable merge order exists
    even when two events share a timestamp. ``slot`` is the sweep slot
    lane (None for the parent / serial execution). Emitting is
    thread-safe: the executor's pool threads publish into the parent's
    recorder alongside the thread that owns it.
    """

    def __init__(self, path: Union[str, Path], role: str = "worker",
                 slot: Optional[int] = None) -> None:
        self.path = Path(path)
        self.pid = os.getpid()
        self.role = role
        self.slot = slot
        self._seq = 0
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._fh: Optional[IO[str]] = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._write({
                "type": "header",
                "schema": SPAN_SCHEMA_VERSION,
                "pid": self.pid,
                "role": role,
                "slot": slot,
            })

    def _write(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def _emit(self, kind: str, name: str, ts: float, dur: float,
              attrs: Dict[str, Any]) -> None:
        with self._lock:
            self._seq += 1
            self._write({
                "type": kind,
                "name": name,
                "ts": ts,
                "dur": dur,
                "pid": self.pid,
                "slot": self.slot,
                "seq": self._seq,
                "attrs": attrs,
            })

    def instant(self, name: str, **attrs: Any) -> None:
        """A point-in-time event (retry, cache hit, quarantine, ...)."""
        self._emit("instant", name, time.time(), 0.0, attrs)

    def span(self, name: str, start_ts: float,
             end_ts: Optional[float] = None, **attrs: Any) -> None:
        """A completed interval ``[start_ts, end_ts]`` (unix seconds)."""
        if end_ts is None:
            end_ts = time.time()
        self._emit("span", name, start_ts,
                   max(0.0, end_ts - start_ts), attrs)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ----------------------------------------------------------------------
# Process-wide current recorder (parent sets it, workers inherit by env)
# ----------------------------------------------------------------------
_recorder: Optional[SpanRecorder] = None
_recorder_pid: Optional[int] = None


def enable(directory: Union[str, Path], role: str = "parent",
           slot: Optional[int] = None) -> SpanRecorder:
    """Activate recording for this process *and its future children*.

    Creates ``directory``, opens this process's recorder there, and sets
    :data:`SPAN_DIR_ENV` so worker processes spawned afterwards record
    themselves into sibling files.
    """
    global _recorder, _recorder_pid
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    os.environ[SPAN_DIR_ENV] = str(directory)
    disable_current()
    _recorder = SpanRecorder(
        directory / f"spans-{os.getpid()}.jsonl", role=role, slot=slot)
    _recorder_pid = os.getpid()
    return _recorder


def disable() -> None:
    """Stop recording here and stop propagating to future children."""
    os.environ.pop(SPAN_DIR_ENV, None)
    disable_current()


def disable_current() -> None:
    global _recorder, _recorder_pid
    if _recorder is not None and _recorder_pid == os.getpid():
        _recorder.close()
    _recorder = None
    _recorder_pid = None


def current_recorder() -> Optional[SpanRecorder]:
    """This process's recorder, or None when telemetry is off.

    The first call in a freshly spawned worker (which inherited
    :data:`SPAN_DIR_ENV` and possibly :data:`SPAN_SLOT_ENV`) lazily
    opens that worker's own span file; a recorder inherited through
    ``fork`` is never reused because the pid no longer matches.
    """
    global _recorder, _recorder_pid
    pid = os.getpid()
    if _recorder is not None and _recorder_pid == pid:
        return _recorder
    directory = os.environ.get(SPAN_DIR_ENV, "")
    if not directory:
        return None
    slot_text = os.environ.get(SPAN_SLOT_ENV, "")
    slot = int(slot_text) if slot_text.isdigit() else None
    _recorder = SpanRecorder(
        Path(directory) / f"spans-{pid}.jsonl", role="worker", slot=slot)
    _recorder_pid = pid
    return _recorder


def active() -> bool:
    return bool(os.environ.get(SPAN_DIR_ENV, ""))


def emit_instant(name: str, **attrs: Any) -> None:
    """Record an instant event if telemetry is active (else free)."""
    recorder = current_recorder()
    if recorder is not None:
        recorder.instant(name, **attrs)


def emit_span(name: str, start_ts: float,
              end_ts: Optional[float] = None, **attrs: Any) -> None:
    """Record a completed span if telemetry is active (else free)."""
    recorder = current_recorder()
    if recorder is not None:
        recorder.span(name, start_ts, end_ts, **attrs)


# ----------------------------------------------------------------------
# Parent-side merge
# ----------------------------------------------------------------------
def read_span_file(path: Union[str, Path]) -> Tuple[List[Dict], int]:
    """Read one per-process file; returns (records, torn_line_count).

    A worker killed mid-write (timeout cancellation, injected
    ``os._exit``) leaves at most one torn final line; any undecodable
    or schema-mismatched line is counted and skipped rather than
    failing the merge — partial telemetry from a dead worker is still
    telemetry.
    """
    records: List[Dict] = []
    torn = 0
    try:
        text = Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return records, torn
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            torn += 1
            continue
        if not isinstance(record, dict):
            torn += 1
            continue
        if record.get("type") == "header":
            if record.get("schema") != SPAN_SCHEMA_VERSION:
                torn += 1
            continue
        if record.get("type") not in ("span", "instant"):
            torn += 1
            continue
        records.append(record)
    return records, torn


def merge_directory(directory: Union[str, Path]) -> Dict[str, Any]:
    """Merge every ``spans-*.jsonl`` under ``directory`` into one stream.

    Returns ``{"spans": [...], "source_files": N, "torn_lines": M}``
    with events ordered by ``(ts, pid, seq)`` — a total order that is
    stable across re-merges of the same files.
    """
    directory = Path(directory)
    spans: List[Dict] = []
    torn_total = 0
    files = sorted(directory.glob("spans-*.jsonl"))
    for path in files:
        records, torn = read_span_file(path)
        spans.extend(records)
        torn_total += torn
    spans.sort(key=lambda r: (r.get("ts", 0.0), r.get("pid", 0),
                              r.get("seq", 0)))
    return {
        "spans": spans,
        "source_files": len(files),
        "torn_lines": torn_total,
    }


def write_run_log(path: Union[str, Path], merged: Dict[str, Any],
                  **header_extras: Any) -> int:
    """Write a merged stream as the schema-versioned run log.

    One header line (``kind: run-log``) followed by one event per line;
    returns the number of lines written.
    """
    spans = merged["spans"]
    header = {
        "type": "header",
        "schema": SPAN_SCHEMA_VERSION,
        "kind": RUN_LOG_KIND,
        "num_spans": len(spans),
        "source_files": merged.get("source_files", 0),
        "torn_lines": merged.get("torn_lines", 0),
        **header_extras,
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(record, sort_keys=True) for record in spans)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)


def read_run_log(
        path: Union[str, Path]) -> Tuple[Dict[str, Any], List[Dict]]:
    """Load a run log; returns ``(header, events)``.

    Raises:
        ValueError: If the header is missing, has the wrong kind, an
            unsupported schema, or the event count disagrees.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header: Optional[Dict[str, Any]] = None
    events: List[Dict] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if header is None:
            if (record.get("type") != "header"
                    or record.get("kind") != RUN_LOG_KIND):
                raise ValueError("run log must start with its header")
            if record.get("schema") != SPAN_SCHEMA_VERSION:
                raise ValueError(
                    f"unsupported run-log schema {record.get('schema')!r}")
            header = record
            continue
        events.append(record)
    if header is None:
        raise ValueError("empty run log")
    if header.get("num_spans") != len(events):
        raise ValueError(
            f"run log header says {header.get('num_spans')} events, "
            f"found {len(events)}")
    return header, events


def count_by_name(events: List[Dict], prefix: str = "") -> Dict[str, int]:
    """Event counts keyed by name (optionally filtered by prefix).

    The chaos-integration test uses this to assert that the engine's
    ``sweep/*`` span counts agree exactly with ``SweepResult.stats``.
    """
    counts: Dict[str, int] = {}
    for event in events:
        name = event.get("name", "")
        if prefix and not name.startswith(prefix):
            continue
        counts[name] = counts.get(name, 0) + 1
    return counts

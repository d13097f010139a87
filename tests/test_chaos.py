"""Chaos suite: the sweep engine under deterministic fault injection.

Every scenario arms a :mod:`repro.engine.faults` plan, runs a sweep, and
asserts two things: (1) the sweep *completes* — quarantining only points
that genuinely cannot succeed — and (2) every successful record is
bit-identical (``to_payload()`` equality) to a clean serial run in a
pristine cache, i.e. fault handling never changes results, only
availability.

``TestRetryLoop`` drives the executor's one retry loop
(``SlotPool.run_with_retries``, shared by sweeps and the job server)
with a fake attempt function. Worker-death scenarios (hard kill,
hang+timeout) need the parallel executor; exception-style faults are
also exercised through the serial path. The kill-mid-sweep scenario
runs a real child Python process that ``os._exit``\\ s partway through
and asserts ``--resume`` semantics: nothing already cached is
recomputed.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.engine import diskcache, faults
from repro.engine.sweep import (
    SlotPool,
    SweepPoint,
    SweepPointError,
    SweepPolicy,
    load_checkpoint,
    plan_sweep,
    record_key,
    run_sweep,
)

MATRICES = ("wiki-Vote", "poisson3Da")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fast-failure policy: retries are near-instant so scenarios stay quick.
FAST = dict(backoff_base_seconds=0.01, backoff_max_seconds=0.05)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    yield
    faults.clear_plan()


@pytest.fixture()
def clean_records(tmp_path, monkeypatch):
    """Records from a clean serial sweep in a separate pristine cache."""
    plan = small_plan()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clean"))
    clean = run_sweep(plan, serial=True)
    assert clean.complete
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return {point: record.to_payload() for point, record in clean.items()}


def small_plan():
    return plan_sweep(MATRICES, models=("gamma", "sparch"),
                      variants=("none",))


def arm(tmp_path, *specs):
    return faults.FaultPlan.load(
        faults.install_plan(list(specs), tmp_path / "faults"))


def assert_identical(result, clean_records):
    assert set(result) == set(clean_records)
    for point, payload in clean_records.items():
        assert result[point].to_payload() == payload, point.label()


class TestWorkerCrash:
    def test_hard_worker_death_is_retried(self, tmp_path, clean_records):
        """os._exit in a worker kills the process; the point survives."""
        plan = arm(tmp_path, faults.FaultSpec(
            kind="kill", model="gamma", matrix="wiki-Vote"))
        result = run_sweep(
            small_plan(), workers=2,
            policy=SweepPolicy(max_retries=2, **FAST))
        assert result.complete
        assert result.stats["crashes"] == 1
        assert result.stats["retries"] == 1
        assert plan.triggered(0) == 1
        assert_identical(result, clean_records)

    def test_crash_exception_is_retried(self, tmp_path, clean_records):
        plan = arm(tmp_path, faults.FaultSpec(
            kind="crash", model="sparch", matrix="poisson3Da"))
        result = run_sweep(
            small_plan(), workers=2,
            policy=SweepPolicy(max_retries=2, **FAST))
        assert result.complete
        assert result.stats["errors"] == 1
        assert plan.triggered(0) == 1
        assert_identical(result, clean_records)


class TestHang:
    def test_hung_point_times_out_and_retries(self, tmp_path,
                                              clean_records):
        """A hang past the per-point timeout gets its worker killed."""
        arm(tmp_path, faults.FaultSpec(
            kind="hang", model="gamma", matrix="poisson3Da",
            hang_seconds=60.0))
        result = run_sweep(
            small_plan(), workers=2,
            policy=SweepPolicy(timeout_seconds=2.0, max_retries=1,
                               **FAST))
        assert result.complete
        assert result.stats["timeouts"] == 1
        assert result.stats["retries"] == 1
        assert_identical(result, clean_records)


class TestFlaky:
    def test_flaky_then_succeed_parallel(self, tmp_path, clean_records):
        plan = arm(tmp_path, faults.FaultSpec(
            kind="flaky", model="gamma", matrix="wiki-Vote", times=2))
        result = run_sweep(
            small_plan(), workers=2,
            policy=SweepPolicy(max_retries=3, **FAST))
        assert result.complete
        assert plan.triggered(0) == 2
        assert result.stats["retries"] == 2
        assert_identical(result, clean_records)

    def test_flaky_then_succeed_serial(self, tmp_path, clean_records):
        """The retry loop also protects serial (in-process) sweeps."""
        plan = arm(tmp_path, faults.FaultSpec(
            kind="flaky", model="gamma", matrix="wiki-Vote", times=1))
        result = run_sweep(
            small_plan(), serial=True,
            policy=SweepPolicy(max_retries=1, **FAST))
        assert result.complete
        assert plan.triggered(0) == 1
        assert result.stats["retries"] == 1
        assert_identical(result, clean_records)


class TestQuarantine:
    def test_only_genuinely_failing_point_quarantined(
            self, tmp_path, clean_records):
        """A persistent failure is isolated; the rest of the sweep lands."""
        arm(tmp_path, faults.FaultSpec(
            kind="crash", model="gamma", matrix="wiki-Vote",
            times=10_000))
        result = run_sweep(
            small_plan(), workers=2,
            policy=SweepPolicy(max_retries=1, **FAST))
        bad = SweepPoint("gamma", "wiki-Vote", "none")
        # Points stand alone: sparch:wiki-Vote prices C with the exact
        # product size, not the failing Gamma run, so it lands too.
        assert set(result.quarantined) == {bad}
        assert result.quarantined[bad].attempts == 2
        assert SweepPoint("sparch", "wiki-Vote", "") in result
        for point, payload in clean_records.items():
            if point != bad:
                assert result[point].to_payload() == payload, point

    def test_fail_fast_raises(self, tmp_path):
        arm(tmp_path, faults.FaultSpec(
            kind="crash", model="gamma", matrix="wiki-Vote",
            times=10_000))
        with pytest.raises(SweepPointError, match="gamma:wiki-Vote"):
            run_sweep(
                small_plan(), serial=True,
                policy=SweepPolicy(max_retries=0, fail_fast=True,
                                   **FAST))

    def test_resume_skips_known_bad_points(self, tmp_path):
        """--resume does not re-burn retries on quarantined points."""
        plan = arm(tmp_path, faults.FaultSpec(
            kind="crash", model="gamma", matrix="wiki-Vote",
            times=10_000))
        sweep = small_plan()
        first = run_sweep(sweep, serial=True,
                          policy=SweepPolicy(max_retries=1, **FAST))
        assert not first.complete
        burned = plan.triggered(0)
        # The 2 attempts on gamma:wiki-Vote itself; no other point runs
        # Gamma on its behalf.
        assert burned == 2
        resumed = run_sweep(sweep, serial=True, resume=True,
                            policy=SweepPolicy(max_retries=1, **FAST))
        assert set(resumed.quarantined) == set(first.quarantined)
        assert all(f.reason == "previous-run"
                   for f in resumed.quarantined.values())
        # No new attempts were made against the known-bad point.
        assert plan.triggered(0) == burned
        # Everything that could succeed is served from cache, unchanged.
        for point, record in first.items():
            assert resumed[point].to_payload() == record.to_payload()


class TestCorruptCache:
    def test_corrupt_entry_invalidated_and_recomputed(
            self, tmp_path, clean_records):
        """A truncated cache entry is detected, dropped, and recomputed."""
        point = SweepPoint("gamma", "wiki-Vote", "none")
        arm(tmp_path, faults.FaultSpec(
            kind="corrupt_cache", model="gamma", matrix="wiki-Vote"))
        from repro.engine import execute_point, pending_points

        execute_point(point)  # computes, stores, then poisons the entry
        entry = diskcache.entry_path(record_key(point))
        assert entry.exists()
        with pytest.raises(json.JSONDecodeError):
            json.loads(entry.read_text())
        faults.clear_plan()
        # The poisoned entry reads as a miss (and is unlinked), so the
        # next sweep recomputes exactly this point...
        assert pending_points([point]) == [point]
        assert not entry.exists()
        executed = []
        result = run_sweep(small_plan(), serial=True,
                           policy=SweepPolicy(**FAST),
                           on_executed=lambda p, r, w: executed.append(p))
        assert point in executed
        # ...and the recomputed record is bit-identical to a clean run.
        assert_identical(result, clean_records)

    def test_worker_corrupt_write_self_heals(self, tmp_path,
                                             clean_records):
        """A worker's poisoned write cannot reach the result (the record
        comes back over the pipe); the next sweep reads the entry as a
        miss, recomputes exactly that point and rewrites it valid."""
        point = SweepPoint("gamma", "wiki-Vote", "none")
        arm(tmp_path, faults.FaultSpec(
            kind="corrupt_cache", model="gamma", matrix="wiki-Vote"))
        result = run_sweep(small_plan(), workers=2,
                           policy=SweepPolicy(**FAST))
        assert result.complete
        assert_identical(result, clean_records)
        executed = []
        again = run_sweep(small_plan(), workers=2,
                          policy=SweepPolicy(**FAST),
                          on_executed=lambda p, r, w: executed.append(p))
        assert executed == [point]
        assert_identical(again, clean_records)
        # The entry the worker truncated ends up valid on disk.
        assert diskcache.load(record_key(point)) is not None

    def test_checksum_mismatch_invalidated(self):
        """Bit-rot (valid JSON, wrong digest) is also caught."""
        diskcache.store("somekey", {"x": 1})
        entry = diskcache.entry_path("somekey")
        envelope = json.loads(entry.read_text())
        envelope["payload"]["x"] = 2  # flip a bit, keep old checksum
        entry.write_text(json.dumps(envelope))
        assert diskcache.load("somekey") is None
        assert not entry.exists()  # invalidated in place


class TestKillMidSweep:
    @pytest.mark.timeout(420)  # drives a whole child sweep process
    def test_resume_recomputes_nothing_cached(self, tmp_path,
                                              clean_records):
        """SIGKILL-equivalent death mid-sweep, then resume from cache."""
        driver = tmp_path / "driver.py"
        driver.write_text(textwrap.dedent("""
            import os, sys
            from repro.engine import plan_sweep, run_sweep

            done = []
            def executed(point, record, wall):
                print("computed", point.label(), flush=True)
                done.append(point)
                if len(done) == 2:
                    os._exit(137)  # no cleanup, like SIGKILL

            run_sweep(plan_sweep(%r, models=("gamma", "sparch"),
                                 variants=("none",)),
                      serial=True, on_executed=executed)
        """ % (list(MATRICES),)))
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            "src" + os.pathsep + env.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, str(driver)], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 137, proc.stderr
        already = {line.split()[1] for line in proc.stdout.splitlines()
                   if line.startswith("computed")}
        assert len(already) == 2
        # Resume: only the not-yet-cached points are computed.
        executed = []
        result = run_sweep(small_plan(), serial=True, resume=True,
                           on_executed=lambda p, r, w: executed.append(p))
        assert result.complete
        assert {p.label() for p in executed}.isdisjoint(already)
        assert len(executed) == len(small_plan()) - 2
        assert_identical(result, clean_records)


class TestTelemetryAgreement:
    """Merged run-log span counts must agree *exactly* with
    ``SweepResult.stats`` — the engine emits each ``sweep/<stat>``
    instant from the same closure that increments the stat, so any
    drift is a bug, not sampling noise."""

    def _run_instrumented(self, tele_dir, plan_points, **kwargs):
        from repro.obs import spans

        spans.enable(tele_dir)
        try:
            result = run_sweep(plan_points, **kwargs)
        finally:
            spans.disable()
        merged = spans.merge_directory(tele_dir)
        counts = spans.count_by_name(merged["spans"])
        return result, counts

    def assert_counts_match(self, result, counts):
        for name, value in result.stats.items():
            assert counts.get(f"sweep/{name}", 0) == value, name

    def test_retry_spans_match_stats(self, tmp_path):
        arm(tmp_path, faults.FaultSpec(
            kind="flaky", model="gamma", matrix="wiki-Vote", times=2))
        result, counts = self._run_instrumented(
            tmp_path / "tele", small_plan(), workers=2,
            policy=SweepPolicy(max_retries=3, **FAST))
        assert result.complete
        assert result.stats["retries"] == 2
        self.assert_counts_match(result, counts)
        # faults.py publishes the injected cause alongside the engine's
        # observed effect: one fault/injected instant per trigger.
        assert counts.get("fault/injected", 0) == 2

    def test_quarantine_spans_match_stats(self, tmp_path):
        arm(tmp_path, faults.FaultSpec(
            kind="crash", model="gamma", matrix="wiki-Vote",
            times=10_000))
        result, counts = self._run_instrumented(
            tmp_path / "tele", small_plan(), serial=True,
            policy=SweepPolicy(max_retries=1, **FAST))
        assert not result.complete
        assert result.stats["quarantined"] == len(result.quarantined)
        self.assert_counts_match(result, counts)
        assert counts.get("fault/injected", 0) >= 1

    def test_timeout_kill_leaves_consistent_telemetry(self, tmp_path):
        """A killed worker's span file may end mid-line; the merge must
        still deliver counts that agree with the parent's stats."""
        arm(tmp_path, faults.FaultSpec(
            kind="hang", model="gamma", matrix="poisson3Da",
            hang_seconds=60.0))
        result, counts = self._run_instrumented(
            tmp_path / "tele", small_plan(), workers=2,
            policy=SweepPolicy(timeout_seconds=2.0, max_retries=1,
                               **FAST))
        assert result.complete
        assert result.stats["timeouts"] == 1
        self.assert_counts_match(result, counts)
        assert counts.get("sweep/timeout_kill", 0) == 1

    def test_clean_run_spans_match_stats(self, tmp_path):
        result, counts = self._run_instrumented(
            tmp_path / "tele", small_plan(), serial=True,
            policy=SweepPolicy(**FAST))
        assert result.complete
        self.assert_counts_match(result, counts)
        # Cache events from the one diskcache code path also land.
        from repro.obs import spans

        merged = spans.merge_directory(tmp_path / "tele")
        cache_counts = spans.count_by_name(merged["spans"],
                                           prefix="cache/")
        assert cache_counts.get("cache/store", 0) >= len(result)


class TestCheckpoint:
    def test_checkpoint_tracks_progress(self):
        sweep = small_plan()
        result = run_sweep(sweep, serial=True)
        checkpoint = load_checkpoint(sweep)
        assert checkpoint is not None
        assert checkpoint["completed"] == len(sweep)
        assert checkpoint["total"] == len(sweep)
        assert checkpoint["quarantined"] == []
        assert result.complete

    def test_checkpoint_is_plan_keyed(self):
        sweep = small_plan()
        run_sweep(sweep, serial=True)
        other = plan_sweep(["wiki-Vote"], models=("gamma",),
                           variants=("none",))
        # A different plan has its own checkpoint (initially absent...
        # though its points are already cached by the bigger sweep).
        assert load_checkpoint(other) is None


class TestRetryLoop:
    """``SlotPool.run_with_retries`` with a fake attempt function: every
    decision of the one retry loop sweeps and the job server share."""

    POINT = SweepPoint("gamma", "wiki-Vote", "none")
    OK = {"ok": True, "record": None, "wall_seconds": 0.0}
    ERROR = {"ok": False, "reason": "error", "error": "boom"}
    SHUTDOWN = {"ok": False, "reason": "shutdown", "error": "closed"}

    def scripted(self, outcomes):
        """An inline pool whose attempts return ``outcomes`` in turn and
        whose backoff waits are recorded instead of slept."""
        pool = SlotPool(0)
        calls, waits = [], []

        def attempt(point, attempt, timeout):
            calls.append(attempt)
            return {"attempt": attempt, "slot": None, "start_ts": 0.0,
                    **outcomes[len(calls) - 1]}

        class RecordedWait(threading.Event):
            def wait(self, timeout=None):
                waits.append(timeout)
                return self.is_set()

        pool.run_point = attempt
        pool.closed = RecordedWait()
        return pool, calls, waits

    def test_delays_follow_the_policy(self):
        policy = SweepPolicy(max_retries=3, **FAST)
        pool, calls, waits = self.scripted(
            [self.ERROR, self.ERROR, self.OK])
        events = []
        outcome = pool.run_with_retries(
            self.POINT, policy, lambda event, point, info: events.append(
                (event, info["attempt"])))
        assert outcome["ok"] and outcome["attempts"] == 3
        assert calls == [0, 1, 2]
        key = record_key(self.POINT)
        assert waits == [policy.backoff_delay(key, 0),
                         policy.backoff_delay(key, 1)]
        assert events == [("attempt", 0), ("retry", 1), ("attempt", 1),
                          ("retry", 2), ("attempt", 2)]

    def test_exhausted_retries_return_the_last_failure(self):
        policy = SweepPolicy(max_retries=2, **FAST)
        pool, calls, waits = self.scripted([self.ERROR] * 5)
        outcome = pool.run_with_retries(
            self.POINT, policy, lambda *args: None)
        assert (outcome["ok"], outcome["reason"]) == (False, "error")
        assert outcome["attempts"] == policy.max_retries + 1
        assert calls == [0, 1, 2]
        assert len(waits) == policy.max_retries

    def test_shutdown_is_not_retried(self):
        pool, calls, waits = self.scripted([self.SHUTDOWN, self.OK])
        outcome = pool.run_with_retries(
            self.POINT, SweepPolicy(max_retries=3, **FAST),
            lambda *args: None)
        assert (outcome["reason"], outcome["attempts"]) == ("shutdown", 1)
        assert calls == [0] and waits == []

    def test_close_during_backoff_ends_the_loop(self):
        """Closing the pool cuts a backoff short; no attempt follows."""
        pool = SlotPool(0)
        calls = []
        in_backoff = threading.Event()

        def attempt(point, attempt, timeout):
            calls.append(attempt)
            return {"attempt": attempt, "slot": None, "start_ts": 0.0,
                    **self.ERROR}

        def publish(event, point, info):
            if event == "retry":
                in_backoff.set()

        pool.run_point = attempt
        slow = SweepPolicy(max_retries=3, backoff_base_seconds=60.0,
                           backoff_max_seconds=60.0)
        outcomes = []
        loop = threading.Thread(target=lambda: outcomes.append(
            pool.run_with_retries(self.POINT, slow, publish)), daemon=True)
        loop.start()
        assert in_backoff.wait(10)
        started = time.monotonic()
        pool.close()
        loop.join(10)
        assert not loop.is_alive()
        assert time.monotonic() - started < 5  # the backoff was >= 60 s
        assert (outcomes[0]["reason"], outcomes[0]["attempts"]) == \
            ("shutdown", 1)
        assert calls == [0]

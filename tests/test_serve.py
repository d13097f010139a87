"""Job-server suite: spec validation, lifecycle, tiers, admission,
coalescing, graceful shutdown, and the raw HTTP layer.

All async scenarios run through ``asyncio.run`` inside synchronous test
functions (the environment has no pytest-asyncio) and carry explicit
``pytest.mark.timeout`` ceilings so a deadlocked server fails loudly.

The coalescing proof is span-based, not stats-based: ``point/execute``
is emitted inside :func:`~repro.engine.sweep.execute_point` only when a
point is actually computed, so K duplicate submissions producing
exactly one such span *is* the guarantee, independent of any server
bookkeeping.
"""

import asyncio

import pytest

from repro.engine import diskcache
from repro.engine.record import RunRecord
from repro.engine.sweep import SweepPoint, execute_point, record_key
from repro.obs import spans
from repro.serve import (
    JobServer,
    JobSpec,
    JobValidationError,
    LruCache,
    ServerConfig,
    TieredStore,
    http_request,
)

#: Fast-failure knobs shared by every server the suite boots.
FAST = dict(backoff_base_seconds=0.01, backoff_max_seconds=0.05,
            retry_after_seconds=0.05, drain_seconds=5.0)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)


def serve(coro):
    """Run one async scenario to completion on a fresh loop."""
    return asyncio.run(coro)


async def booted(**overrides):
    config = ServerConfig(workers=0, **{**FAST, **overrides})
    server = JobServer(config)
    await server.start()
    return server


SPEC = {"matrix": "wiki-Vote", "model": "gamma"}


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_minimal_spec_roundtrips(self):
        spec = JobSpec.from_payload(SPEC)
        assert spec.key() == record_key(spec.to_point())
        assert JobSpec.from_checkpoint(spec.to_payload()) == spec

    def test_key_matches_engine_record_key(self):
        spec = JobSpec.from_payload(
            {"matrix": "poisson3Da", "model": "gamma",
             "variant": "reorder", "semiring": "boolean"})
        point = SweepPoint(model="gamma", matrix="poisson3Da",
                           variant="reorder", semiring="boolean")
        assert spec.key() == record_key(point)

    def test_masked_key_matches_engine_record_key(self):
        spec = JobSpec.from_payload(
            {"matrix": "wiki-Vote", "mask": "structural"})
        point = SweepPoint(model="gamma", matrix="wiki-Vote",
                           mask="structural")
        assert spec.key() == record_key(point)
        assert JobSpec.from_checkpoint(spec.to_payload()) == spec

    def test_spmv_key_matches_engine_record_key(self):
        spec = JobSpec.from_payload(
            {"matrix": "wiki-Vote", "model": "gamma-spmv",
             "operand": "dense-vector", "semiring": "boolean"})
        point = SweepPoint(model="gamma-spmv", matrix="wiki-Vote",
                           variant="none", semiring="boolean",
                           operand="dense-vector")
        assert spec.key() == record_key(point)
        assert JobSpec.from_checkpoint(spec.to_payload()) == spec

    @pytest.mark.parametrize("payload,fragment", [
        ("not-a-dict", "JSON object"),
        ({}, "required"),
        ({"matrix": "wiki-Vote", "zzz": 1}, "unknown field"),
        ({"matrix": "no-such-matrix"}, "no-such-matrix"),
        ({"matrix": "wiki-Vote", "model": "no-model"}, "unknown model"),
        ({"matrix": "wiki-Vote", "variant": "bogus"}, "variant"),
        ({"matrix": "wiki-Vote", "semiring": "bogus"}, "semiring"),
        ({"matrix": "wiki-Vote", "model": "mkl",
          "semiring": "boolean"}, "arithmetic"),
        ({"matrix": "wiki-Vote", "model": "mkl",
          "variant": "reorder"}, "no preprocessing"),
        ({"matrix": "wiki-Vote", "mask": "bogus"}, "mask"),
        ({"matrix": "wiki-Vote", "mask": "structural",
          "variant": "full"}, "do not compose"),
        ({"matrix": "wiki-Vote", "model": "mkl",
          "mask": "structural"}, "mask"),
        ({"matrix": "wiki-Vote", "operand": "dense-vector"}, "operand"),
        ({"matrix": "wiki-Vote", "model": "gamma-spmv",
          "operand": "bogus"}, "operand"),
        ({"matrix": "wiki-Vote", "multi_pe": "yes"}, "boolean"),
        ({"matrix": "wiki-Vote", "config": {"nope": 1}},
         "unknown config"),
        ({"matrix": "wiki-Vote", "config": {"num_pes": "many"}},
         "numeric"),
    ])
    def test_rejects_bad_payloads(self, payload, fragment):
        with pytest.raises(JobValidationError, match=fragment):
            JobSpec.from_payload(payload)

    def test_config_override_changes_key(self):
        base = JobSpec.from_payload(SPEC)
        tuned = JobSpec.from_payload(
            {**SPEC, "config": {"num_pes": 4}})
        assert tuned.config.num_pes == 4
        assert tuned.key() != base.key()
        assert JobSpec.from_checkpoint(tuned.to_payload()) == tuned


# ----------------------------------------------------------------------
# Lifecycle + tiers (in-process API)
# ----------------------------------------------------------------------
class TestLifecycle:
    @pytest.mark.timeout(120)
    def test_job_computes_and_matches_serial_run(self, tmp_path,
                                                 monkeypatch):
        async def scenario():
            server = await booted()
            status, body = await server.submit_and_wait(SPEC, client="t")
            await server.shutdown()
            return status, body

        status, body = serve(scenario())
        assert status == 202
        assert body["state"] == "done"
        assert body["source"] == "computed"
        # bit-identity against a clean serial run in a pristine cache
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clean"))
        clean = execute_point(SweepPoint(model="gamma",
                                         matrix="wiki-Vote"))
        assert body["fingerprint"] == clean.fingerprint()
        assert RunRecord.from_payload(body["result"]).fingerprint() \
            == clean.fingerprint()

    @pytest.mark.timeout(120)
    def test_masked_job_matches_direct_engine_run(self, tmp_path,
                                                  monkeypatch):
        """A masked job round-trips identical to the engine run."""
        payload = {"matrix": "wiki-Vote", "model": "gamma",
                   "mask": "structural"}

        async def scenario():
            server = await booted()
            status, body = await server.submit_and_wait(payload,
                                                        client="t")
            await server.shutdown()
            return status, body

        status, body = serve(scenario())
        assert status == 202
        assert body["state"] == "done"
        assert body["spec"]["mask"] == "structural"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clean"))
        clean = execute_point(SweepPoint(model="gamma",
                                         matrix="wiki-Vote",
                                         mask="structural"))
        assert body["fingerprint"] == clean.fingerprint()
        assert RunRecord.from_payload(body["result"]).fingerprint() \
            == clean.fingerprint()

    @pytest.mark.timeout(120)
    def test_spmv_job_matches_direct_engine_run(self, tmp_path,
                                                monkeypatch):
        payload = {"matrix": "wiki-Vote", "model": "gamma-spmv",
                   "operand": "dense-vector"}

        async def scenario():
            server = await booted()
            status, body = await server.submit_and_wait(payload,
                                                        client="t")
            await server.shutdown()
            return status, body

        status, body = serve(scenario())
        assert status == 202
        assert body["state"] == "done"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clean"))
        clean = execute_point(SweepPoint(model="gamma-spmv",
                                         matrix="wiki-Vote",
                                         variant="none",
                                         operand="dense-vector"))
        assert body["fingerprint"] == clean.fingerprint()

    @pytest.mark.timeout(120)
    def test_tiers_serve_repeat_submissions(self):
        async def scenario():
            server = await booted()
            await server.submit_and_wait(SPEC, client="a")
            s1, b1 = await server.submit_and_wait(SPEC, client="b")
            server.store.l1.clear()  # force the L2 path
            s2, b2 = await server.submit_and_wait(SPEC, client="c")
            s3, b3 = await server.submit_and_wait(SPEC, client="d")
            stats = server.stats_payload()
            await server.shutdown()
            return (s1, b1), (s2, b2), (s3, b3), stats

        (s1, b1), (s2, b2), (s3, b3), stats = serve(scenario())
        assert (s1, b1["source"]) == (200, "l1")
        assert (s2, b2["source"]) == (200, "l2")  # ...and promoted
        assert (s3, b3["source"]) == (200, "l1")
        assert b1["fingerprint"] == b2["fingerprint"] == b3["fingerprint"]
        assert stats["stats"]["computed"] == 1
        assert stats["stats"]["hits_l1"] == 2
        assert stats["stats"]["hits_l2"] == 1

    @pytest.mark.timeout(60)
    def test_invalid_spec_is_400(self):
        async def scenario():
            server = await booted()
            status, body, _ = server.submit({"matrix": "zzz"}, "t")
            await server.shutdown()
            return status, body

        status, body = serve(scenario())
        assert status == 400
        assert body["error"]["reason"] == "invalid_spec"


# ----------------------------------------------------------------------
# Coalescing (span-count proof)
# ----------------------------------------------------------------------
class TestCoalescing:
    @pytest.mark.timeout(120)
    def test_k_duplicates_cost_one_execution(self, tmp_path):
        span_dir = tmp_path / "spans"
        spans.enable(span_dir)
        try:
            async def scenario():
                server = await booted()
                results = await asyncio.gather(*[
                    server.submit_and_wait(SPEC, client=f"c{i}")
                    for i in range(8)
                ])
                stats = server.stats_payload()
                await server.shutdown()
                return results, stats

            results, stats = serve(scenario())
        finally:
            spans.disable()
        fingerprints = {body["fingerprint"] for _, body in results}
        assert all(status == 202 for status, _ in results)
        assert all(body["state"] == "done" for _, body in results)
        assert len(fingerprints) == 1
        # the proof: 8 submissions, exactly 1 computed point
        merged = spans.merge_directory(span_dir)
        counts = spans.count_by_name(merged["spans"])
        assert counts["point/execute"] == 1
        assert counts["serve/coalesced"] == 7
        assert stats["stats"]["coalesced"] == 7
        assert stats["stats"]["computed"] == 1
        sources = sorted(body["source"] for _, body in results)
        assert sources == ["coalesced"] * 7 + ["computed"]


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    @pytest.mark.timeout(60)
    def test_per_client_cap_is_429_with_retry_after(self):
        async def scenario():
            server = await booted(per_client_limit=2)
            # submit without yielding: all three in flight at once
            r1 = server.submit(SPEC, "greedy")
            r2 = server.submit({**SPEC, "semiring": "boolean"}, "greedy")
            r3 = server.submit({**SPEC, "model": "mkl",
                                "semiring": "arithmetic",
                                "variant": "none"}, "greedy")
            other = server.submit({**SPEC, "matrix": "poisson3Da"},
                                  "patient")
            await server.shutdown()
            return r1, r2, r3, other

        r1, r2, r3, other = serve(scenario())
        assert r1[0] == 202 and r2[0] == 202
        assert r3[0] == 429
        assert r3[1]["error"]["reason"] == "client_limit"
        assert "Retry-After" in r3[2]
        assert other[0] == 202  # the cap is per client, not global

    @pytest.mark.timeout(60)
    def test_queue_depth_is_503_with_retry_after(self):
        async def scenario():
            server = await booted(queue_depth=1)
            r1 = server.submit(SPEC, "a")
            dup = server.submit(SPEC, "b")  # coalesces: rides free
            r2 = server.submit({**SPEC, "matrix": "poisson3Da"}, "c")
            await server.shutdown()
            return r1, dup, r2

        r1, dup, r2 = serve(scenario())
        assert r1[0] == 202
        assert dup[0] == 202  # duplicates never count against depth
        assert r2[0] == 503
        assert r2[1]["error"]["reason"] == "queue_full"
        assert "Retry-After" in r2[2]

    @pytest.mark.timeout(60)
    def test_draining_server_rejects_503(self):
        async def scenario():
            server = await booted()
            await server.shutdown()
            return server.submit(SPEC, "late")

        status, body, headers = serve(scenario())
        assert status == 503
        assert body["error"]["reason"] == "unavailable"
        assert "Retry-After" in headers


# ----------------------------------------------------------------------
# Graceful shutdown: drain + queue checkpoint + restore
# ----------------------------------------------------------------------
def stall_until_closed(server):
    """Make every attempt hang until the server closes its pool, then
    end as ``shutdown`` — what ``SlotPool.run_point`` does to an attempt
    still running when the pool closes."""
    pool = server._pool

    def stalled(point, attempt, timeout):
        pool.closed.wait()
        return {"ok": False, "reason": "shutdown", "error": "pool closed",
                "attempt": attempt, "slot": None, "start_ts": 0.0}

    pool.run_point = stalled


class TestShutdown:
    @pytest.mark.timeout(120)
    def test_undrained_jobs_error_cleanly_and_checkpoint(self):
        async def scenario():
            server = await booted(drain_seconds=0.1,
                                  checkpoint_tag="drain-test")
            stall_until_closed(server)
            status, body, _ = server.submit(SPEC, "t")
            assert status == 202
            await asyncio.sleep(0.05)
            summary = await server.shutdown(drain=True)
            job = server.jobs[body["id"]].to_payload()
            return summary, job

        summary, job = serve(scenario())
        assert summary == {"drained": 0, "checkpointed": 1}
        assert job["state"] == "error"
        assert job["error"]["reason"] == "shutdown"

    @pytest.mark.timeout(180)
    def test_restart_restores_checkpointed_queue(self):
        async def interrupted():
            server = await booted(drain_seconds=0.1, checkpoint_tag="rr")
            stall_until_closed(server)
            server.submit(SPEC, "t")
            await asyncio.sleep(0.05)
            await server.shutdown(drain=True)

        async def restarted():
            server = await booted(checkpoint_tag="rr")
            restored = server.stats["restored"]
            # restored jobs run like any other; wait for them to land
            for job in server.jobs.values():
                if not job.finished:
                    await asyncio.wait_for(
                        server._events[job.id].wait(), 120)
            payloads = [job.to_payload()
                        for job in server.jobs.values()]
            await server.shutdown()
            return restored, payloads

        serve(interrupted())
        restored, payloads = serve(restarted())
        assert restored == 1
        assert len(payloads) == 1
        assert payloads[0]["client"] == "restore"
        assert payloads[0]["state"] == "done"
        # checkpoint is consumed: a second restart restores nothing
        assert serve(restarted())[0] == 0


# ----------------------------------------------------------------------
# Tiered store basics (no server)
# ----------------------------------------------------------------------
class TestTieredStore:
    def test_put_is_write_through_and_get_promotes(self):
        store = TieredStore(l1_capacity=4)
        key = diskcache.cache_key("serve-test", k=1)
        store.put(key, {"v": 1})
        assert diskcache.load(key) == {"v": 1}  # L2 written first
        assert store.get(key) == ({"v": 1}, "l1")
        store.l1.clear()
        assert store.get(key) == ({"v": 1}, "l2")
        assert store.get(key) == ({"v": 1}, "l1")  # promoted

    def test_admit_fills_l1_only(self):
        store = TieredStore(l1_capacity=4)
        key = diskcache.cache_key("serve-test", k=2)
        store.admit(key, {"v": 2})
        assert store.get(key) == ({"v": 2}, "l1")
        assert diskcache.load(key) is None

    def test_zero_capacity_disables_l1(self):
        store = TieredStore(l1_capacity=0)
        key = diskcache.cache_key("serve-test", k=3)
        store.put(key, {"v": 3})
        assert store.get(key) == ({"v": 3}, "l2")
        assert len(store.l1) == 0

    def test_lru_eviction_order(self):
        cache = LruCache(2)
        assert cache.put("a", 1) == []
        assert cache.put("b", 2) == []
        cache.get("a")  # refresh: b is now least recent
        assert cache.put("c", 3) == ["b"]
        assert cache.keys() == ["a", "c"]
        assert cache.evictions == 1

    def test_hit_rates(self):
        store = TieredStore(l1_capacity=4)
        key = diskcache.cache_key("serve-test", k=4)
        assert store.hit_rates()["overall_hit_rate"] is None
        store.get(key)           # full miss
        store.admit(key, {})
        store.get(key)           # l1 hit
        rates = store.hit_rates()
        assert rates["l1_hit_rate"] == 0.5
        assert rates["overall_hit_rate"] == 0.5


# ----------------------------------------------------------------------
# Metrics snapshot (GET /metrics)
# ----------------------------------------------------------------------
class TestMetrics:
    @pytest.mark.timeout(120)
    def test_snapshot_covers_store_coalesce_and_admission(self):
        async def scenario():
            server = await booted(per_client_limit=1, queue_depth=1)
            # one computed execution with a coalesced rider
            lead, ride = await asyncio.gather(
                server.submit_and_wait(SPEC, client="a"),
                server.submit_and_wait(SPEC, client="b"))
            # L2 hit -> promotion back into L1, then an L1 hit
            server.store.l1.clear()
            await server.submit_and_wait(SPEC, client="c")
            await server.submit_and_wait(SPEC, client="c2")
            # admission rejections: 429 (client cap) and 503 (depth)
            server._per_client["greedy"] = 1
            r429 = server.submit(SPEC, "greedy")
            server.coalesce.join("held", dict)  # occupy the queue slot
            r503 = server.submit({**SPEC, "matrix": "poisson3Da"}, "d")
            server.coalesce.finish("held")
            metrics = server.metrics_payload()
            await server.shutdown()
            return lead, ride, r429[0], r503[0], metrics

        lead, ride, s429, s503, metrics = serve(scenario())
        assert lead[1]["state"] == ride[1]["state"] == "done"
        assert (s429, s503) == (429, 503)
        assert metrics["schema"] == 1
        store = metrics["store"]
        assert store["promotions"] == store["l2_hits"] == 1
        assert store["l1_hits"] >= 1
        assert store["l1_size"] >= 1
        coalesce = metrics["coalesce"]
        assert coalesce["leaders"] >= 1
        assert coalesce["riders"] == 1
        admission = metrics["admission"]
        assert admission["rejected_client_limit"] == 1
        assert admission["rejected_queue_full"] == 1
        queue = metrics["queue"]
        assert queue["depth_limit"] == 1
        assert queue["inflight_executions"] == 0
        assert metrics["jobs"]["unfinished"] == 0
        assert metrics["jobs"]["computed"] == 1

    def test_snapshot_is_single_and_consistent(self):
        """The payload is a plain dict built with no awaits: mutating
        the server after the call must not change the snapshot."""
        async def scenario():
            server = await booted()
            before = server.metrics_payload()
            await server.submit_and_wait(SPEC, client="a")
            after = server.metrics_payload()
            await server.shutdown()
            return before, after

        before, after = serve(scenario())
        assert before["jobs"]["submitted"] == 0
        assert before["store"]["l2_misses"] == 0
        assert after["jobs"]["submitted"] == 1
        assert after["store"]["l2_misses"] == 1


# ----------------------------------------------------------------------
# HTTP layer (real sockets)
# ----------------------------------------------------------------------
class TestHttp:
    @pytest.mark.timeout(120)
    def test_full_http_surface(self):
        async def scenario():
            server = await booted(per_client_limit=1)
            host, port = await server.start_http()
            out = {}
            out["health"] = await http_request(host, port, "GET",
                                               "/healthz")
            out["post"] = await http_request(
                host, port, "POST", "/jobs", payload=SPEC,
                headers={"X-Client-Id": "h"})
            job_id = out["post"][2]["id"]
            out["get"] = await http_request(
                host, port, "GET", f"/jobs/{job_id}?wait=60")
            out["missing"] = await http_request(host, port, "GET",
                                                "/jobs/zzz")
            out["method"] = await http_request(host, port, "DELETE",
                                               "/jobs")
            out["path"] = await http_request(host, port, "GET", "/nope")
            out["stats"] = await http_request(host, port, "GET",
                                              "/stats")
            # raw bad-JSON body -> 400
            reader, writer = await asyncio.open_connection(host, port)
            raw = (b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                   b"Content-Length: 4\r\nConnection: close\r\n\r\n{{{{")
            writer.write(raw)
            await writer.drain()
            line = await reader.readline()
            out["badjson_status"] = int(line.split()[1])
            writer.close()
            await server.shutdown()
            return out

        out = serve(scenario())
        assert out["health"][0] == 200
        assert out["health"][2]["status"] == "ok"
        assert out["post"][0] == 202
        status, headers, body = out["get"]
        assert (status, body["state"]) == (200, "done")
        assert headers["content-type"] == "application/json"
        assert out["missing"][0] == 404
        assert out["method"][0] == 405
        assert out["path"][0] == 404
        assert out["stats"][0] == 200
        assert out["stats"][2]["stats"]["computed"] == 1
        assert out["badjson_status"] == 400

    @pytest.mark.timeout(120)
    def test_http_metrics_endpoint(self):
        async def scenario():
            server = await booted()
            host, port = await server.start_http()
            out = {}
            await server.submit_and_wait(SPEC, client="m")
            out["metrics"] = await http_request(host, port, "GET",
                                               "/metrics")
            out["method"] = await http_request(host, port, "DELETE",
                                               "/metrics")
            await server.shutdown()
            return out

        out = serve(scenario())
        status, headers, body = out["metrics"]
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert body["schema"] == 1
        assert body["store"]["l2_misses"] >= 1
        assert body["coalesce"]["leaders"] == 1
        assert body["queue"]["depth_limit"] == 64
        assert out["method"][0] == 405

    @pytest.mark.timeout(120)
    def test_http_429_carries_retry_after_header(self):
        async def scenario():
            server = await booted(per_client_limit=0)
            host, port = await server.start_http()
            result = await http_request(
                host, port, "POST", "/jobs", payload=SPEC,
                headers={"X-Client-Id": "h"})
            await server.shutdown()
            return result

        status, headers, body = serve(scenario())
        assert status == 429
        assert "retry-after" in headers
        assert body["error"]["reason"] == "client_limit"

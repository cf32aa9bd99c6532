"""repro.obs wired through serving, pipeline, codegen and simulator."""

import json
import threading

import numpy as np
import pytest

import repro
import repro.obs as obs
from repro.machine.replay import clear_flush_stats, flush_stats
from repro.serve import SpmmService
from tests.conftest import random_csr


@pytest.fixture
def traced():
    """Enable the process-wide tracer for one test, clean slate."""
    tracer = obs.enable_tracing()
    tracer.clear()
    yield tracer
    obs.disable_tracing()
    tracer.clear()


def _storm(service, handle, xs):
    """Issue one multiply per operand from concurrent threads."""
    barrier = threading.Barrier(len(xs))
    errors = []

    def run(index):
        barrier.wait()
        try:
            service.multiply(handle, xs[index])
        except BaseException as error:  # noqa: BLE001 - inspected below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(index,))
               for index in range(len(xs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


# ----------------------------------------------------------------------
# Span taxonomy across the stack
# ----------------------------------------------------------------------
class TestLifecycleSpans:
    def test_cold_multiply_emits_the_full_chain(self, rng, traced):
        service = SpmmService(threads=2, split="auto")
        matrix = random_csr(rng, 30, 30)
        handle = service.register(matrix, "traced")
        x = rng.random((30, 4)).astype(np.float32)
        service.multiply(handle, x)
        names = [r.name for r in traced.spans()]
        for expected in ("serve.register", "serve.multiply", "serve.bind",
                         "pipeline.bind", "autotune.choose_split",
                         "serve.codegen", "codegen.jit"):
            assert expected in names, expected
        # nested spans share the multiply root's trace id
        by_name = {r.name: r for r in traced.spans()}
        root = by_name["serve.multiply"]
        for nested in ("serve.bind", "serve.codegen", "codegen.jit"):
            assert by_name[nested].trace_id == root.trace_id

    def test_warm_multiply_emits_no_codegen_span(self, rng, traced):
        service = SpmmService(threads=2, split="row")
        matrix = random_csr(rng, 30, 30)
        handle = service.register(matrix)
        x = rng.random((30, 4)).astype(np.float32)
        service.multiply(handle, x)
        traced.clear()
        service.multiply(handle, x)
        names = [r.name for r in traced.spans()]
        assert "serve.multiply" in names
        assert "codegen.jit" not in names
        assert "serve.bind" not in names

    def test_profile_span_records_backend(self, rng, traced):
        service = SpmmService(threads=2, split="row")
        matrix = random_csr(rng, 25, 25)
        handle = service.register(matrix)
        x = rng.random((25, 4)).astype(np.float32)
        service.profile(handle, x, backend="counts")
        by_name = {r.name: r for r in traced.spans()}
        assert by_name["serve.profile"].attrs["backend"] == "counts"
        assert by_name["pipeline.execute"].attrs["backend"] == "counts"

    def test_unregister_span(self, rng, traced):
        service = SpmmService(threads=2, split="row")
        matrix = random_csr(rng, 20, 20)
        handle = service.register(matrix)
        service.unregister(handle)
        names = [r.name for r in traced.spans()]
        assert "serve.unregister" in names

    def test_api_run_emits_pipeline_spans(self, rng, traced):
        matrix = random_csr(rng, 20, 20)
        x = rng.random((20, 4)).astype(np.float32)
        repro.run(matrix, x, backend="counts", threads=2, split="row")
        names = [r.name for r in traced.spans()]
        assert "pipeline.bind" in names
        assert "pipeline.execute" in names


# ----------------------------------------------------------------------
# The coalescing protocol's trace: one batch id across leader+followers
# ----------------------------------------------------------------------
class TestBatchTrace:
    def test_burst_shares_one_batch_id(self, rng, traced):
        service = SpmmService(threads=2, split="row", max_batch=8,
                              flush_us=20000)
        matrix = random_csr(rng, 25, 25)
        handle = service.register(matrix)
        xs = [rng.random((25, 4)).astype(np.float32) for _ in range(6)]
        service.multiply(handle, xs[0])     # codegen off the trace
        traced.clear()
        assert not _storm(service, handle, xs)
        spans = traced.spans()
        executes = [r for r in spans if r.name == "serve.batch.execute"]
        waits = [r for r in spans if r.name == "serve.batch.wait"]
        assert executes
        # every request is accounted for: leaders execute, followers
        # wait (promoted waiters lead the next batch)
        served = sum(r.attrs["size"] for r in executes)
        assert served == len(xs)
        assert all(r.attrs["flush"] in ("full", "linger", "immediate")
                   for r in executes)
        batch_ids = {r.attrs["batch_id"] for r in executes}
        assert len(batch_ids) == len(executes)
        # each non-promoted wait span names the batch that served it
        # and the leader's trace id — the Perfetto join key
        for record in waits:
            if record.attrs.get("promoted"):
                continue
            assert record.attrs["batch_id"] in batch_ids
            leader = next(e for e in executes
                          if e.attrs["batch_id"] == record.attrs["batch_id"])
            assert record.attrs["leader_trace"] == leader.trace_id
        # at least one batch actually coalesced under the long linger
        assert max(r.attrs["size"] for r in executes) > 1

    def test_batch_ids_assigned_even_with_tracing_off(self, rng,
                                                      monkeypatch):
        assert not obs.tracing_enabled()
        service = SpmmService(threads=2, split="row", max_batch=8,
                              flush_us=300)
        matrix = random_csr(rng, 25, 25)
        handle = service.register(matrix)
        xs = [rng.random((25, 4)).astype(np.float32) for _ in range(5)]
        service.multiply(handle, xs[0])

        def boom(*args, **kwargs):
            raise RuntimeError("injected batch failure")

        import repro.serve.service as service_module
        monkeypatch.setattr(service_module, "multiply_partitioned", boom)
        errors = _storm(service, handle, xs)
        assert len(errors) == len(xs)
        for error in errors:
            assert isinstance(error.batch_id, int)
            assert error.batch_id >= 1
            assert error.trace_id == ""     # tracing was off

    def test_error_clones_carry_batch_id_and_leader_trace(self, rng,
                                                          traced,
                                                          monkeypatch):
        service = SpmmService(threads=2, split="row", max_batch=8,
                              flush_us=300)
        matrix = random_csr(rng, 25, 25)
        handle = service.register(matrix)
        xs = [rng.random((25, 4)).astype(np.float32) for _ in range(5)]
        service.multiply(handle, xs[0])

        def boom(*args, **kwargs):
            raise RuntimeError("injected batch failure")

        import repro.serve.service as service_module
        monkeypatch.setattr(service_module, "multiply_partitioned", boom)
        errors = _storm(service, handle, xs)
        assert len(errors) == len(xs)
        for error in errors:
            assert isinstance(error.batch_id, int)
            assert error.trace_id != ""
            if error.__cause__ is not None:     # a clone
                assert error.batch_id == error.__cause__.batch_id
        # members of one batch agree on the id
        by_batch = {}
        for error in errors:
            by_batch.setdefault(error.batch_id, []).append(error)
        for batch_errors in by_batch.values():
            assert len({e.trace_id for e in batch_errors}) == 1


# ----------------------------------------------------------------------
# Metrics: serving, autotune, simulator through one registry
# ----------------------------------------------------------------------
class TestUnifiedMetrics:
    def test_service_stats_flow_into_the_registry(self, rng):
        service = SpmmService(threads=2, split="row",
                              obs_label="metrics-test")
        matrix = random_csr(rng, 30, 30)
        handle = service.register(matrix)
        x = rng.random((30, 4)).astype(np.float32)
        for _ in range(3):
            service.multiply(handle, x)
        snap = obs.get_registry().snapshot()
        assert snap.value("serve_requests_total",
                          service="metrics-test") == 3
        assert snap.value("serve_backend_requests_total",
                          service="metrics-test", backend="native") == 3
        assert snap.value("serve_codegen_runs_total",
                          service="metrics-test") == 1
        assert snap.value("serve_handles", service="metrics-test") == 1
        assert snap.value("serve_cache_hits_total",
                          service="metrics-test") == 2

    def test_registry_matches_report_numbers(self, rng):
        service = SpmmService(threads=2, split="row",
                              obs_label="consistency")
        matrix = random_csr(rng, 30, 30)
        handle = service.register(matrix)
        x = rng.random((30, 4)).astype(np.float32)
        for _ in range(4):
            service.multiply(handle, x)
        snapshot = service.snapshot()
        assert "4 requests" in snapshot.render()
        samples = {s.name: s.value
                   for s in snapshot.metric_samples(service="consistency")
                   if not s.labels or len(s.labels) == 1}
        assert samples["serve_requests_total"] == 4

    def test_dropped_service_is_pruned_from_registry(self, rng):
        import gc

        service = SpmmService(threads=2, split="row",
                              obs_label="ephemeral-svc")
        matrix = random_csr(rng, 20, 20)
        handle = service.register(matrix)
        service.multiply(handle,
                         rng.random((20, 4)).astype(np.float32))
        snap = obs.get_registry().snapshot()
        assert snap.value("serve_requests_total",
                          service="ephemeral-svc") == 1
        del service, handle
        gc.collect()
        snap = obs.get_registry().snapshot()   # prunes the dead collector
        snap = obs.get_registry().snapshot()
        with pytest.raises(KeyError):
            snap.value("serve_requests_total", service="ephemeral-svc")

    def test_autotune_memo_stats_exported(self, rng):
        from repro.core.autotune import autotune_memo_stats, choose_split

        matrix = random_csr(rng, 40, 40)
        choose_split(matrix, 8, 4)
        choose_split(matrix, 8, 4)      # memo hit
        memo = autotune_memo_stats()
        snap = obs.get_registry().snapshot()
        assert snap.value("autotune_memo_hits_total") == memo["hits"]
        assert snap.value("autotune_memo_misses_total") == memo["misses"]
        assert snap.value("autotune_memo_entries") == memo["entries"]

    def test_simulated_run_counters_exported(self, rng):
        matrix = random_csr(rng, 20, 20)
        x = rng.random((20, 4)).astype(np.float32)
        result = repro.run(matrix, x, backend="counts", threads=2,
                           split="row")
        snap = obs.get_registry().snapshot()
        assert snap.value("sim_instructions_total",
                          backend="counts") >= result.counters.instructions

    def test_replay_flush_stats_exported(self, rng):
        clear_flush_stats()
        matrix = random_csr(rng, 20, 20)
        x = rng.random((20, 4)).astype(np.float32)
        repro.run(matrix, x, backend="sim", threads=2, split="row")
        stats = flush_stats()
        assert stats["flushes"] >= 1
        assert stats["replayed_units"] >= 1
        snap = obs.get_registry().snapshot()
        assert snap.value("sim_replay_flushes_total") == stats["flushes"]
        assert snap.value("sim_replay_replayed_events_total") == (
            stats["replayed_events"])

    def test_prometheus_text_covers_the_stack(self, rng):
        service = SpmmService(threads=2, split="row", obs_label="prom")
        matrix = random_csr(rng, 20, 20)
        handle = service.register(matrix)
        service.multiply(handle,
                         rng.random((20, 4)).astype(np.float32))
        text = obs.prometheus_text()
        assert 'serve_requests_total{service="prom"} 1' in text
        assert "# TYPE serve_requests_total counter" in text
        assert "autotune_memo_entries" in text

    def test_prometheus_text_covers_tiered_serving(self, rng, traced):
        service = SpmmService(threads=2, split="auto", obs_label="tierprom",
                              tier_mode="lazy", promote_after=2)
        matrix = random_csr(rng, 25, 25)
        handle = service.register(matrix)
        x = rng.random((25, 4)).astype(np.float32)
        service.multiply(handle, x)
        service.multiply(handle, x)
        assert service.drain_promotions(10.0)
        service.multiply(handle, x)
        text = obs.prometheus_text()
        assert ('serve_tier_traffic_total{service="tierprom",'
                'tier="template"} 2') in text
        assert ('serve_tier_traffic_total{service="tierprom",'
                'tier="promoted"} 1') in text
        assert ('serve_tier_promotions_total{outcome="promoted",'
                'service="tierprom"} 1') in text
        # zero-valued outcome buckets are exported too (rate() needs
        # the series to exist before the first failure)
        assert ('serve_tier_promotions_total{outcome="failed",'
                'service="tierprom"} 0') in text
        assert 'serve_tier_promotions_pending{service="tierprom"} 0' in text
        assert "serve_tier_codegen_seconds_total" in text
        # the background promotion leaves a first-class span
        promotes = [r for r in traced.spans() if r.name == "serve.promote"]
        assert len(promotes) == 1
        assert promotes[0].attrs["outcome"] == "promoted"
        assert promotes[0].attrs["codegen_seconds"] >= 0.0


# ----------------------------------------------------------------------
# End to end: traced burst -> Perfetto artifact
# ----------------------------------------------------------------------
class TestTraceArtifact:
    def test_burst_trace_exports_loadable_json(self, rng, traced,
                                               tmp_path):
        service = SpmmService(threads=2, split="row", max_batch=4,
                              flush_us=5000)
        matrix = random_csr(rng, 25, 25)
        handle = service.register(matrix)
        xs = [rng.random((25, 4)).astype(np.float32) for _ in range(6)]
        assert not _storm(service, handle, xs)
        path = obs.write_chrome_trace(str(tmp_path / "burst.json"))
        document = json.loads(open(path).read())
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        assert "serve.batch.execute" in names
        assert "serve.multiply" in names
        # per-thread monotonic timestamps (Perfetto's requirement)
        by_tid = {}
        for event in events:
            by_tid.setdefault(event["tid"], []).append(event["ts"])
        for stamps in by_tid.values():
            assert stamps == sorted(stamps)

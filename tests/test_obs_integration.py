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
                         "pipeline.host_kernel", "codegen.jit"):
            assert expected in names, expected
        # nested spans share the multiply root's trace id
        by_name = {r.name: r for r in traced.spans()}
        root = by_name["serve.multiply"]
        for nested in ("serve.bind", "pipeline.host_kernel", "codegen.jit"):
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
        assert "pipeline.host_kernel" not in names
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
# A concurrent burst's trace: one root span and one trace id per request
# ----------------------------------------------------------------------
class TestBurstTrace:
    def test_burst_is_one_root_span_per_request(self, rng, traced):
        service = SpmmService(threads=2, split="row")
        matrix = random_csr(rng, 25, 25)
        handle = service.register(matrix)
        xs = [rng.random((25, 4)).astype(np.float32) for _ in range(6)]
        service.multiply(handle, xs[0])     # codegen off the trace
        traced.clear()
        assert not _storm(service, handle, xs)
        spans = traced.spans()
        multiplies = [r for r in spans if r.name == "serve.multiply"]
        assert len(multiplies) == len(xs)
        # no request rides another's execution: every multiply is its
        # own trace, recorded on its caller's thread, warm
        assert len({r.trace_id for r in multiplies}) == len(xs)
        assert len({r.tid for r in multiplies}) == len(xs)
        assert all(r.attrs["cold"] is False for r in multiplies)
        assert not [r for r in spans if r.name.startswith("serve.batch")]


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
        # multiply never probes the kernel cache; profile does
        assert snap.value("serve_cache_hits_total",
                          service="metrics-test") == 0
        for _ in range(3):
            service.profile(handle, x)
        snap = obs.get_registry().snapshot()
        assert snap.value("serve_cache_misses_total",
                          service="metrics-test") == 1
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


# ----------------------------------------------------------------------
# End to end: traced burst -> Perfetto artifact
# ----------------------------------------------------------------------
class TestTraceArtifact:
    def test_burst_trace_exports_loadable_json(self, rng, traced,
                                               tmp_path):
        service = SpmmService(threads=2, split="row")
        matrix = random_csr(rng, 25, 25)
        handle = service.register(matrix)
        xs = [rng.random((25, 4)).astype(np.float32) for _ in range(6)]
        assert not _storm(service, handle, xs)
        path = obs.write_chrome_trace(str(tmp_path / "burst.json"))
        document = json.loads(open(path).read())
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        assert "serve.multiply" in names
        assert "pipeline.host_kernel" in names
        # per-thread monotonic timestamps (Perfetto's requirement)
        by_tid = {}
        for event in events:
            by_tid.setdefault(event["tid"], []).append(event["ts"])
        for stamps in by_tid.values():
            assert stamps == sorted(stamps)

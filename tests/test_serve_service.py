"""Tests for SpmmService and the serving statistics."""

import threading

import numpy as np
import pytest

from repro.core.runner import run_jit
from repro.errors import ShapeError
from repro.serve import KernelCache, SpmmService
from repro.serve.stats import HandleStats, LatencyStat, ServiceStats
from repro.sparse import spmm_reference
from tests.conftest import random_csr


@pytest.fixture
def service():
    return SpmmService(threads=3, split="auto", timing=False)


class TestRegistration:
    def test_register_returns_distinct_handles(self, rng, service):
        h1 = service.register(random_csr(rng, 20, 20))
        h2 = service.register(random_csr(rng, 20, 20))
        assert h1.handle_id != h2.handle_id

    def test_unknown_handle_rejected(self, rng, service):
        foreign = SpmmService(threads=2).register(random_csr(rng, 10, 10))
        with pytest.raises(ShapeError):
            service.multiply(foreign, rng.random((10, 4)).astype(np.float32))

    def test_operand_validation(self, rng, service):
        handle = service.register(random_csr(rng, 10, 10))
        with pytest.raises(ShapeError):
            service.multiply(handle, rng.random((11, 4)).astype(np.float32))

    def test_unregister_releases_resources(self, rng, service):
        matrix = random_csr(rng, 30, 30)
        x = rng.random((30, 8)).astype(np.float32)
        handle = service.register(matrix, name="temp")
        service.multiply(handle, x)
        assert len(service.cache) == 0     # multiply caches nothing
        service.kernel(handle, 8)
        assert len(service.cache) == 1
        service.unregister(handle)
        assert len(service.cache) == 0
        assert not service._workspaces
        with pytest.raises(ShapeError):
            service.multiply(handle, x)
        with pytest.raises(ShapeError):
            service.unregister(handle)
        # the stream history survives for reporting
        assert "temp" in service.report()

    def test_unregister_keeps_kernel_shared_by_twin_handle(self, rng):
        # two same-shaped matrices bake identical addresses and share
        # one cached kernel; dropping one handle must not evict it
        service = SpmmService(threads=2, split="row", timing=False)
        matrix = random_csr(rng, 20, 20, density=0.3, name="a")
        twin = type(matrix)(matrix.nrows, matrix.ncols,
                            matrix.row_ptr.copy(),
                            matrix.col_indices.copy(),
                            matrix.vals.copy(), name="b")
        a = service.register(matrix)
        b = service.register(twin)
        x = rng.random((20, 8)).astype(np.float32)
        service.profile(a, x)
        service.profile(b, x)
        assert len(service.cache) == 1          # shared kernel identity
        service.unregister(a)
        assert len(service.cache) == 1          # b still serves from it
        service.profile(b, x)
        assert service.handle_stats(b).codegen_runs == 0

    def test_unregister_never_mutates_shared_cache(self, rng):
        from repro.serve import KernelCache
        shared = KernelCache()
        service = SpmmService(threads=2, split="row", cache=shared)
        handle = service.register(random_csr(rng, 30, 30))
        service.profile(handle, rng.random((30, 8)).astype(np.float32))
        assert len(shared) == 1
        service.unregister(handle)
        assert len(shared) == 1                 # external cache untouched

    def test_shared_kernel_first_request_is_cold_without_codegen(self, rng):
        service = SpmmService(threads=2, split="row", timing=False)
        matrix = random_csr(rng, 25, 25)
        a = service.register(matrix, "a")
        twin = type(matrix)(matrix.nrows, matrix.ncols,
                            matrix.row_ptr.copy(),
                            matrix.col_indices.copy(), matrix.vals.copy())
        b = service.register(twin, "b")
        x = rng.random((25, 8)).astype(np.float32)
        service.profile(a, x)
        service.profile(b, x)
        stats = service.handle_stats(b)
        # b's first request paid autotune+mapping (cold) but no codegen
        assert stats.cold.count == 1
        assert stats.codegen_runs == 0


class TestMultiply:
    @pytest.mark.parametrize("split", ["row", "nnz", "merge", "auto"])
    def test_matches_reference(self, rng, split):
        service = SpmmService(threads=3, split=split, timing=False)
        matrix = random_csr(rng, 50, 40)
        x = rng.random((40, 9)).astype(np.float32)
        handle = service.register(matrix)
        assert np.allclose(service.multiply(handle, x),
                           spmm_reference(matrix, x), atol=1e-4)

    def test_codegen_runs_exactly_once(self, rng, service):
        matrix = random_csr(rng, 40, 30)
        x = rng.random((30, 8)).astype(np.float32)
        handle = service.register(matrix)
        for _ in range(10):
            service.multiply(handle, x)
        stats = service.handle_stats(handle)
        assert stats.requests == 10
        assert stats.codegen_runs == 1
        assert stats.cold.count == 1 and stats.warm.count == 9
        # the one program is the host kernel the requests executed: the
        # kernel cache is never probed and nothing is ever mapped
        cache = service.cache.stats()
        assert cache.misses == 0 and cache.hits == 0
        (ws,) = service._workspaces.values()
        assert not ws.plan.mapped and ws.identity is None

    def test_profile_probes_the_cache_once_per_request(self, rng, service):
        matrix = random_csr(rng, 40, 30)
        x = rng.random((30, 8)).astype(np.float32)
        handle = service.register(matrix)
        for _ in range(10):
            service.profile(handle, x)
        stats = service.handle_stats(handle)
        assert stats.codegen_runs == 1
        assert stats.cold.count == 1 and stats.warm.count == 9
        # one counted probe per request: the cold one is a single miss
        cache = service.cache.stats()
        assert cache.misses == 1 and cache.hits == 9

    def test_kernel_prefetch_charges_codegen_stats(self, rng, service):
        matrix = random_csr(rng, 40, 30)
        handle = service.register(matrix)
        service.kernel(handle, 8)          # prefetch, no request served
        stats = service.handle_stats(handle)
        assert stats.codegen_runs == 1
        assert stats.codegen_seconds > 0
        assert stats.requests == 0
        service.profile(handle, rng.random((30, 8)).astype(np.float32))
        stats = service.handle_stats(handle)
        assert stats.codegen_runs == 1     # still just the prefetch
        assert stats.warm.count == 1       # request after prefetch is warm
        assert stats.codegen_overhead() > 0

    def test_cache_hit_returns_identical_program(self, rng, service):
        matrix = random_csr(rng, 40, 30)
        x = rng.random((30, 8)).astype(np.float32)
        handle = service.register(matrix)
        service.multiply(handle, x)
        first = service.kernel(handle, 8)
        service.multiply(handle, x)
        assert service.kernel(handle, 8) is first
        assert service.kernel(handle, 8).program is first.program

    def test_new_width_is_a_new_kernel(self, rng, service):
        matrix = random_csr(rng, 40, 30)
        handle = service.register(matrix)
        service.multiply(handle, rng.random((30, 8)).astype(np.float32))
        service.multiply(handle, rng.random((30, 16)).astype(np.float32))
        assert service.handle_stats(handle).codegen_runs == 2
        kernels = {ws.plan.host_kernel()
                   for ws in service._workspaces.values()}
        assert len(kernels) == 2 and None not in kernels
        service.kernel(handle, 8)
        service.kernel(handle, 16)
        assert len(service.cache) == 2

    def test_eviction_triggers_regeneration(self, rng):
        # a budget too small for two kernels: the second insert evicts
        # the first, so alternating widths regenerates every time
        service = SpmmService(threads=2, split="row", timing=False,
                              cache=KernelCache(max_entries=1))
        matrix = random_csr(rng, 30, 30)
        handle = service.register(matrix)
        x8 = rng.random((30, 8)).astype(np.float32)
        x16 = rng.random((30, 16)).astype(np.float32)
        service.profile(handle, x8)
        service.profile(handle, x16)
        service.profile(handle, x8)
        assert service.handle_stats(handle).codegen_runs == 3
        assert service.cache.stats().evictions == 2

    def test_amortized_overhead_decreases(self, rng, service):
        matrix = random_csr(rng, 40, 30)
        x = rng.random((30, 8)).astype(np.float32)
        handle = service.register(matrix)
        service.multiply(handle, x)
        overheads = []
        for _ in range(5):
            service.multiply(handle, x)
            overheads.append(service.handle_stats(handle).codegen_overhead())
        assert overheads[0] > 0
        assert all(b < a for a, b in zip(overheads, overheads[1:]))

    def test_auto_split_choice_exposed(self, rng, service):
        matrix = random_csr(rng, 40, 30)
        handle = service.register(matrix)
        service.multiply(handle, rng.random((30, 8)).astype(np.float32))
        choice = service.choice(handle, 8)
        assert choice is not None
        assert choice.split in ("row", "nnz", "merge")

    def test_choice_inspection_costs_no_codegen(self, rng, service):
        matrix = random_csr(rng, 40, 30)
        handle = service.register(matrix)
        assert service.choice(handle, 8) is not None
        stats = service.handle_stats(handle)
        assert stats.codegen_runs == 0 and len(service.cache) == 0

    def test_fixed_split_has_no_choice(self, rng):
        service = SpmmService(threads=2, split="merge")
        handle = service.register(random_csr(rng, 20, 20))
        service.multiply(handle, rng.random((20, 4)).astype(np.float32))
        assert service.choice(handle, 4) is None


class TestProfile:
    @pytest.mark.parametrize("split", ["row", "nnz", "merge"])
    def test_simulated_bit_equal_to_fresh_kernel(self, rng, split):
        service = SpmmService(threads=3, split=split, timing=False)
        matrix = random_csr(rng, 40, 30, density=0.15)
        x = rng.random((30, 16)).astype(np.float32)
        handle = service.register(matrix)
        warmed = None
        for _ in range(2):          # second run must reuse the program
            warmed = service.profile(handle, x)
        fresh = run_jit(matrix, x, split=split, threads=3, timing=False)
        assert warmed.cache_hit
        assert np.array_equal(warmed.y, fresh.y)

    def test_profile_reuses_cached_program(self, rng, service):
        matrix = random_csr(rng, 30, 30, density=0.2)
        x = rng.random((30, 8)).astype(np.float32)
        handle = service.register(matrix)
        cold = service.profile(handle, x)
        warm = service.profile(handle, x)
        assert not cold.cache_hit and warm.cache_hit
        assert warm.program is cold.program
        assert cold.codegen_seconds > 0 and warm.codegen_seconds == 0.0
        assert warm.counters.instructions == cold.counters.instructions

    def test_profile_sees_fresh_x_per_request(self, rng, service):
        matrix = random_csr(rng, 25, 25, density=0.2)
        handle = service.register(matrix)
        x1 = rng.random((25, 8)).astype(np.float32)
        x2 = rng.random((25, 8)).astype(np.float32)
        y1 = service.profile(handle, x1).y
        y2 = service.profile(handle, x2).y
        assert np.allclose(y1, spmm_reference(matrix, x1), atol=1e-3)
        assert np.allclose(y2, spmm_reference(matrix, x2), atol=1e-3)
        assert not np.array_equal(y1, y2)

    def test_multiply_and_profile_each_generate_what_they_run(
            self, rng, service):
        matrix = random_csr(rng, 30, 30)
        x = rng.random((30, 8)).astype(np.float32)
        handle = service.register(matrix)
        y_fast = service.multiply(handle, x)
        (ws,) = service._workspaces.values()
        assert not ws.plan.mapped      # multiply mapped nothing ...
        result = service.profile(handle, x)
        assert ws.plan.mapped          # ... profile did, lazily
        assert not result.cache_hit    # and generated its own program
        assert np.array_equal(y_fast, result.y)
        assert service.profile(handle, x).cache_hit
        stats = service.handle_stats(handle)
        assert stats.codegen_runs == 2  # host kernel + simulated kernel
        assert stats.profiled_requests == 2

    def test_concurrent_profiles_stay_isolated(self, rng, service):
        # the per-workspace lock must keep simultaneous profiles of the
        # same (handle, d) from trampling the shared mapped X/Y
        matrix = random_csr(rng, 25, 25, density=0.2)
        handle = service.register(matrix)
        xs = [rng.random((25, 8)).astype(np.float32) for _ in range(4)]
        results = [None] * len(xs)

        def run(i):
            results[i] = service.profile(handle, xs[i]).y

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(xs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for x, y in zip(xs, results):
            assert np.allclose(y, spmm_reference(matrix, x), atol=1e-3)

    def test_concurrent_cold_twins_generate_once(self, rng):
        # same-shaped handles share a kernel identity; simultaneous
        # first requests must produce exactly one codegen run total
        service = SpmmService(threads=2, split="row", timing=False)
        matrix = random_csr(rng, 30, 30)
        twins = [matrix] + [
            type(matrix)(matrix.nrows, matrix.ncols, matrix.row_ptr.copy(),
                         matrix.col_indices.copy(), matrix.vals.copy())
            for _ in range(3)
        ]
        handles = [service.register(m) for m in twins]
        x = rng.random((30, 8)).astype(np.float32)
        barrier = threading.Barrier(len(handles))

        def cold_request(handle):
            barrier.wait()
            service.profile(handle, x)

        threads = [threading.Thread(target=cold_request, args=(h,))
                   for h in handles]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert service.stats.codegen_runs == 1
        assert len(service.cache) == 1

    def test_concurrent_multiplies_codegen_once(self, rng, service):
        matrix = random_csr(rng, 30, 30)
        x = rng.random((30, 8)).astype(np.float32)
        expected = spmm_reference(matrix, x)
        handle = service.register(matrix)
        errors = []

        def run():
            for _ in range(10):
                if not np.allclose(service.multiply(handle, x),
                                   expected, atol=1e-4):
                    errors.append("mismatch")  # pragma: no cover

        threads = [threading.Thread(target=run) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = service.handle_stats(handle)
        assert stats.requests == 40
        assert stats.codegen_runs == 1

    def test_report_renders(self, rng, service):
        matrix = random_csr(rng, 30, 30)
        handle = service.register(matrix, name="demo")
        service.multiply(handle, rng.random((30, 8)).astype(np.float32))
        report = service.report()
        assert "demo" in report
        assert "kernel cache" in report
        assert "amortized" in report


class TestStats:
    def test_latency_stat_streaming(self):
        stat = LatencyStat()
        for value in (0.2, 0.1, 0.4):
            stat.observe(value)
        assert stat.count == 3
        assert stat.min_seconds == pytest.approx(0.1)
        assert stat.max_seconds == pytest.approx(0.4)
        assert stat.mean_seconds == pytest.approx(0.7 / 3)

    def test_handle_stats_accounting(self):
        stats = HandleStats(name="h")
        stats.record_codegen(0.3)
        stats.observe(0.5, cold=True, exec_seconds=0.2)
        stats.observe(0.1, cold=False)
        stats.observe(0.1, cold=False, profiled=True)
        assert stats.requests == 3
        assert stats.codegen_runs == 1
        assert stats.profiled_requests == 1
        assert stats.codegen_seconds == pytest.approx(0.3)
        assert stats.exec_seconds == pytest.approx(0.4)
        assert stats.codegen_overhead() == pytest.approx(0.3 / 0.7)

    def test_empty_overhead_is_zero(self):
        assert HandleStats().codegen_overhead() == 0.0
        assert ServiceStats().codegen_overhead() == 0.0

    def test_service_stats_aggregate(self):
        stats = ServiceStats()
        stats.handle(0, "a").record_codegen(0.1)
        stats.handle(0, "a").observe(0.2, cold=True, exec_seconds=0.1)
        stats.handle(1, "b").observe(0.3, cold=False)
        assert stats.requests == 2
        assert stats.codegen_runs == 1
        assert stats.codegen_overhead() == pytest.approx(0.1 / 0.5)
        assert "a" in stats.render() and "b" in stats.render()


class TestThroughputStats:
    def test_timed_lock_counts_contention(self):
        import time
        from repro.serve import TimedLock
        lock = TimedLock()
        with lock:
            pass
        assert lock.stats().acquisitions == 1
        assert lock.stats().waits == 0

        def holder():
            with lock:
                time.sleep(0.05)

        thread = threading.Thread(target=holder)
        thread.start()
        time.sleep(0.01)
        with lock:                       # contends with the holder
            pass
        thread.join()
        stats = lock.stats()
        assert stats.acquisitions == 3
        assert stats.waits == 1
        assert stats.wait_seconds > 0
        assert stats.contention_rate == pytest.approx(1 / 3)

    def test_lock_stats_addition_and_render(self):
        from repro.serve import LockStats
        total = (LockStats(acquisitions=4, waits=1, wait_seconds=0.5)
                 + LockStats(acquisitions=6, waits=1, wait_seconds=0.25))
        assert total.acquisitions == 10 and total.waits == 2
        assert total.wait_seconds == pytest.approx(0.75)
        assert "lock contention" in total.render()

    def test_service_report_includes_new_sections(self, rng, service):
        handle = service.register(random_csr(rng, 30, 30), name="demo")
        service.multiply(handle, rng.random((30, 8)).astype(np.float32))
        report = service.report()
        assert "lock contention" in report
        assert "autotune memo" in report

    def test_service_lock_stats_aggregate(self, rng, service):
        handle = service.register(random_csr(rng, 30, 30))
        service.multiply(handle, rng.random((30, 8)).astype(np.float32))
        stats = service.lock_stats()
        assert stats.acquisitions > 0
        assert stats.waits >= 0

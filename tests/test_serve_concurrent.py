"""Tests for concurrent serving: every multiply runs alone, on its
caller's thread, and overlaps freely with its neighbours."""

import threading
import time

import numpy as np
import pytest

from repro.api import available_systems
from repro.errors import DeadlineExceeded, ShapeError
from repro.serve import SpmmService
from repro.sparse import spmm_reference
from tests.conftest import random_csr

CALLERS = 8


def _concurrent(service, handle, xs):
    """Issue one multiply per operand from barrier-started threads."""
    results = [None] * len(xs)
    errors = []
    barrier = threading.Barrier(len(xs))

    def run(index):
        barrier.wait()
        try:
            results[index] = service.multiply(handle, xs[index])
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(index,))
               for index in range(len(xs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def _service(system: str, **kwargs) -> SpmmService:
    split = "auto" if system == "jit" else "row"
    return SpmmService(threads=3, split=split, system=system, **kwargs)


class TestConcurrentConformance:
    @pytest.mark.parametrize("system", available_systems())
    def test_same_cell_bit_identical_to_reference(self, rng, system):
        # the acceptance criterion: for every system in the registry,
        # 8 simultaneous requests on one (handle, d) each return
        # bit-for-bit what spmm_reference computes
        matrix = random_csr(rng, 40, 36, density=0.25)
        xs = [rng.random((36, 8)).astype(np.float32)
              for _ in range(CALLERS)]
        with _service(system) as service:
            handle = service.register(matrix)
            for x, y in zip(xs, _concurrent(service, handle, xs)):
                assert np.array_equal(y, spmm_reference(matrix, x))
            assert service.handle_stats(handle).requests == CALLERS

    @pytest.mark.parametrize("system", available_systems())
    def test_mixed_widths_bit_identical_to_reference(self, rng, system):
        matrix = random_csr(rng, 30, 30)
        xs = [rng.random((30, d)).astype(np.float32)
              for d in (1, 4, 8, 16) * (CALLERS // 4)]
        with _service(system) as service:
            handle = service.register(matrix)
            for x, y in zip(xs, _concurrent(service, handle, xs)):
                assert y.shape == (30, x.shape[1])
                assert np.array_equal(y, spmm_reference(matrix, x))
            assert service.handle_stats(handle).requests == len(xs)

    @pytest.mark.parametrize("system", available_systems())
    def test_every_reply_owns_c_contiguous_memory(self, rng, system):
        # the gateway worker copies a reply's bytes flat into its shm
        # slot, and callers may keep replies indefinitely: each one is
        # a C-contiguous array sharing memory with no other reply (and
        # not with its operand)
        matrix = random_csr(rng, 25, 25)
        xs = [rng.random((25, 4)).astype(np.float32)
              for _ in range(CALLERS)]
        with _service(system) as service:
            handle = service.register(matrix)
            results = _concurrent(service, handle, xs)
        for index, y in enumerate(results):
            assert y.flags.c_contiguous and y.dtype == np.float32
            assert not np.shares_memory(y, xs[index])
            for other in results[index + 1:]:
                assert not np.shares_memory(y, other)


class TestRequestAccounting:
    def test_handle_stats_count_every_request(self, rng):
        service = SpmmService(threads=2, split="row")
        matrix = random_csr(rng, 25, 25)
        handle = service.register(matrix)
        xs = [rng.random((25, 4)).astype(np.float32)
              for _ in range(CALLERS)]
        for _ in range(3):
            _concurrent(service, handle, xs)
        stats = service.handle_stats(handle)
        assert stats.requests == 3 * CALLERS
        assert stats.cold.count + stats.warm.count == stats.requests
        assert stats.backends == {"native": stats.requests}
        assert stats.exec_seconds > 0.0
        # one codegen run however many callers raced the cold request
        assert stats.codegen_runs == 1

    def test_profile_and_multiply_interleave(self, rng):
        service = SpmmService(threads=2, split="row")
        matrix = random_csr(rng, 25, 25, density=0.2)
        handle = service.register(matrix)
        x = rng.random((25, 4)).astype(np.float32)
        result = service.profile(handle, x)
        assert np.allclose(result.y, spmm_reference(matrix, x), atol=1e-3)
        assert np.array_equal(service.multiply(handle, x),
                              spmm_reference(matrix, x))
        stats = service.handle_stats(handle)
        assert stats.requests == 2 and stats.profiled_requests == 1

    def test_invalid_operand_rejected(self, rng):
        service = SpmmService(threads=2, split="row")
        handle = service.register(random_csr(rng, 20, 20))
        with pytest.raises(ShapeError):
            service.multiply(handle, rng.random((21, 4)).astype(np.float32))
        with pytest.raises(ShapeError):
            service.multiply(handle, np.zeros((20, 0), dtype=np.float32))
        assert service.handle_stats(handle).requests == 0

    def test_execution_failure_stays_with_its_request(self, rng,
                                                      monkeypatch):
        service = SpmmService(threads=2, split="row")
        matrix = random_csr(rng, 25, 25)
        handle = service.register(matrix)
        xs = [rng.random((25, 4)).astype(np.float32) for _ in range(6)]
        service.multiply(handle, xs[0])     # codegen before the fault
        # fail whichever kernel this host executes: the plan's generated
        # one, or the scipy template where generated code cannot run
        (ws,) = service._workspaces.values()
        host = ws.plan.host_kernel()
        if host is not None:
            def boom(x):
                if x is xs[2]:
                    raise RuntimeError("injected kernel failure")
                return host(x)

            monkeypatch.setattr(ws.plan, "_host", boom)
        else:
            import repro.serve.service as service_module
            real = service_module.multiply_partitioned

            def boom(matrix, x, ranges):
                if x is xs[2]:
                    raise RuntimeError("injected kernel failure")
                return real(matrix, x, ranges)

            monkeypatch.setattr(service_module, "multiply_partitioned",
                                boom)
        results = [None] * len(xs)
        errors = {}
        barrier = threading.Barrier(len(xs))

        def run(index):
            barrier.wait()
            try:
                results[index] = service.multiply(handle, xs[index])
            except RuntimeError as error:
                errors[index] = error

        threads = [threading.Thread(target=run, args=(index,))
                   for index in range(len(xs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # only the failing request raises, and it raises the original
        # exception; its neighbours are served and counted
        assert list(errors) == [2]
        assert errors[2].__cause__ is None
        for index, x in enumerate(xs):
            if index != 2:
                assert np.array_equal(results[index],
                                      spmm_reference(matrix, x))
        # the warm-up plus the five that succeeded
        assert service.handle_stats(handle).requests == 1 + len(xs) - 1


class TestDeadlines:
    def test_expired_deadline_names_bind_stage(self, rng):
        service = SpmmService(threads=2, split="row")
        handle = service.register(random_csr(rng, 20, 20))
        x = rng.random((20, 4)).astype(np.float32)
        with pytest.raises(DeadlineExceeded, match="bind/codegen"):
            service.multiply(handle, x, deadline=time.monotonic() - 1.0)
        assert service.handle_stats(handle).requests == 0

    def test_deadline_spent_resolving_names_execution_stage(self, rng,
                                                            monkeypatch):
        service = SpmmService(threads=2, split="row")
        handle = service.register(random_csr(rng, 20, 20))
        x = rng.random((20, 4)).astype(np.float32)
        deadline = time.monotonic() + 0.05
        resolve = service._workspace

        def slow_resolve(*args):
            time.sleep(0.1)
            return resolve(*args)

        monkeypatch.setattr(service, "_workspace", slow_resolve)
        with pytest.raises(DeadlineExceeded, match="execution"):
            service.multiply(handle, x, deadline=deadline)

    def test_live_deadline_serves(self, rng):
        service = SpmmService(threads=2, split="row")
        matrix = random_csr(rng, 20, 20)
        handle = service.register(matrix)
        x = rng.random((20, 4)).astype(np.float32)
        y = service.multiply(handle, x, deadline=time.monotonic() + 60.0)
        assert np.array_equal(y, spmm_reference(matrix, x))


class TestInertBatchingKeywords:
    def test_out_of_range_values_still_raise(self):
        with pytest.raises(ShapeError):
            SpmmService(threads=2, split="row", max_batch=0)
        with pytest.raises(ShapeError):
            SpmmService(threads=2, split="row", flush_us=-1.0)
        with pytest.raises(ShapeError):
            SpmmService(threads=2, split="row", stripes=0)

    def test_valid_values_change_nothing_observable(self, rng):
        matrix = random_csr(rng, 25, 25)
        xs = [rng.random((25, 4)).astype(np.float32)
              for _ in range(CALLERS)]
        plain = SpmmService(threads=2, split="row")
        keyed = SpmmService(threads=2, split="row", max_batch=8,
                            flush_us=100.0)
        assert not hasattr(keyed, "max_batch")
        assert not hasattr(keyed, "flush_us")
        reports = []
        for service in (plain, keyed):
            handle = service.register(matrix, "m")
            for x, y in zip(xs, _concurrent(service, handle, xs)):
                assert np.array_equal(y, spmm_reference(matrix, x))
            stats = service.handle_stats(handle)
            assert stats.requests == CALLERS
            reports.append(sorted(
                (s.name, s.labels) for s in
                service.snapshot().metric_samples()))
        # the same series, label for label
        assert reports[0] == reports[1]

"""Tests for SpmmService lifecycle: close(), in-flight requests,
deregistration."""

import threading
import time

import numpy as np
import pytest

from repro.errors import ServiceClosed
from repro.obs.metrics import get_registry
from repro.serve import SpmmService
from repro.sparse import spmm_reference
from tests.conftest import random_csr


class TestClose:
    def test_close_is_idempotent_and_observable(self, rng):
        service = SpmmService(threads=2, split="row", backend="native")
        assert not service.closed
        service.close()
        assert service.closed
        service.close()                         # second close is a no-op

    def test_context_manager_closes(self, rng):
        with SpmmService(threads=2, split="row",
                         backend="native") as service:
            matrix = random_csr(rng, 20, 16, density=0.3)
            handle = service.register(matrix)
            y = service.multiply(handle,
                                 np.ones((16, 4), dtype=np.float32))
            assert y.shape == (20, 4)
        assert service.closed

    def test_requests_after_close_raise_typed(self, rng):
        service = SpmmService(threads=2, split="row", backend="native")
        matrix = random_csr(rng, 20, 16, density=0.3)
        handle = service.register(matrix)
        service.multiply(handle, np.ones((16, 2), dtype=np.float32))
        service.close()
        with pytest.raises(ServiceClosed):
            service.multiply(handle, np.ones((16, 2), dtype=np.float32))
        with pytest.raises(ServiceClosed):
            service.register(random_csr(rng, 10, 10, density=0.3))

    def test_close_retires_workspaces(self, rng):
        service = SpmmService(threads=2, split="row", backend="native")
        matrix = random_csr(rng, 24, 20, density=0.3)
        handle = service.register(matrix)
        for d in (2, 4, 8):
            service.multiply(handle,
                             np.ones((20, d), dtype=np.float32))
            # profile takes the kernel-identity references (and codegen
            # locks) that close() must release; multiply takes none
            service.profile(handle, np.ones((20, d), dtype=np.float32),
                            backend="counts")
        assert service._key_refs and service._keylocks
        assert service._live_workspaces() > 0
        service.close()
        assert service._live_workspaces() == 0
        assert service._key_refs == {}
        assert service._keylocks == {}

    def test_close_deregisters_metrics_collector(self, rng):
        service = SpmmService(threads=2, split="row", backend="native",
                              obs_label="closing-svc")
        matrix = random_csr(rng, 20, 16, density=0.3)
        handle = service.register(matrix)
        service.multiply(handle, np.ones((16, 2), dtype=np.float32))

        def service_samples():
            return [sample for sample in get_registry().snapshot().samples
                    if ("service", "closing-svc") in sample.labels]

        assert service_samples(), "live service must export samples"
        service.close()
        assert not service_samples(), (
            "closed service must not linger in the metrics registry")

    def test_close_races_multiplying_threads(self, rng):
        # a request already past admission completes against the
        # references it holds (bit-equal to the reference); a later one
        # raises the typed ServiceClosed; nothing hangs, nothing else
        # escapes
        service = SpmmService(threads=2, split="row", backend="native")
        matrix = random_csr(rng, 30, 24, density=0.3)
        handle = service.register(matrix)
        xs = [rng.random((24, 4)).astype(np.float32) for _ in range(8)]
        refs = [spmm_reference(matrix, x) for x in xs]
        service.multiply(handle, xs[0])         # warm
        barrier = threading.Barrier(len(xs) + 1)
        served = [0] * len(xs)
        closed = [False] * len(xs)
        errors = []

        def traffic(index):
            barrier.wait()
            while True:
                try:
                    y = service.multiply(handle, xs[index])
                except ServiceClosed:
                    closed[index] = True
                    return
                except BaseException as error:  # noqa: BLE001 - asserted
                    errors.append(error)
                    return
                if not np.array_equal(y, refs[index]):
                    errors.append(AssertionError(f"mismatch {index}"))
                    return
                served[index] += 1

        threads = [threading.Thread(target=traffic, args=(index,))
                   for index in range(len(xs))]
        for thread in threads:
            thread.start()
        barrier.wait()
        while sum(served) < 200 and not errors:  # close lands mid-storm
            time.sleep(0.001)
        service.close()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "traffic thread hung past close"
        assert not errors, errors
        assert all(closed)
        assert service._live_workspaces() == 0


class TestSnapshotWorkerLabels:
    def test_metric_samples_merge_extra_labels(self, rng):
        """Per-worker snapshots aggregated at a gateway must carry the
        worker label on every sample, merged with the service label
        (the old concatenation produced colliding label tuples)."""
        with SpmmService(threads=2, split="row", backend="native",
                         obs_label="lbl-svc") as service:
            matrix = random_csr(rng, 20, 16, density=0.3)
            handle = service.register(matrix)
            service.multiply(handle, np.ones((16, 2), dtype=np.float32))
            snapshot = service.snapshot()
        for worker in ("0", "1"):
            samples = snapshot.metric_samples(service="agg",
                                              worker=worker)
            assert samples
            for sample in samples:
                keys = [key for key, _value in sample.labels]
                assert keys == sorted(keys), (
                    f"{sample.name}: labels not merged/sorted: "
                    f"{sample.labels}")
                assert len(keys) == len(set(keys)), (
                    f"{sample.name}: duplicate label keys: "
                    f"{sample.labels}")
                assert ("worker", worker) in sample.labels
                assert ("service", "agg") in sample.labels

    def test_distinct_worker_labels_do_not_collide(self, rng):
        with SpmmService(threads=2, split="row",
                         backend="native") as service:
            matrix = random_csr(rng, 20, 16, density=0.3)
            handle = service.register(matrix)
            service.multiply(handle, np.ones((16, 2), dtype=np.float32))
            snapshot = service.snapshot()
        zero = {(s.name, s.labels)
                for s in snapshot.metric_samples(service="s", worker="0")}
        one = {(s.name, s.labels)
               for s in snapshot.metric_samples(service="s", worker="1")}
        assert not (zero & one), "same series key from two workers"

"""End-to-end gateway tests: conformance, backpressure, crash recovery.

Workers are fork-started throughout — spawn re-imports the interpreter
per worker (seconds each); fork keeps the whole file fast.  The
standalone spawn path is covered by the smoke run in CI's networked
bench step, which uses the default start method.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.api import available_systems
from repro.api.config import ExecutionConfig
from repro.errors import (FrameTooLarge, GatewayOverloaded, ShapeError,
                          WorkerCrashed)
from repro.serve import SpmmService
from repro.serve.gateway import Gateway
from repro.sparse import spmm_reference
from tests.conftest import random_csr


def _wait_for(predicate, timeout=20.0, message="condition"):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture(scope="module")
def gateway2():
    """One shared 2-worker gateway (autotuned splits)."""
    config = ExecutionConfig(split="auto", backend="native", workers=2)
    with Gateway(config, mp_start="fork", obs_label="gwtest") as gateway:
        yield gateway


class TestConformance:
    def test_networked_bit_identical_every_system(self, rng):
        """The acceptance sweep: for every registered system, the
        networked gateway serves bit-identical results to the
        in-process service."""
        matrix = random_csr(rng, 40, 30, density=0.2, name="conf")
        x = rng.random((30, 8)).astype(np.float32)
        for system in available_systems():
            config = ExecutionConfig(split="row", threads=3,
                                     backend="native")
            with SpmmService(threads=3, split="row", backend="native",
                             system=system) as service:
                expected = service.multiply(service.register(matrix), x)
            with Gateway(config, system=system, mp_start="fork") as gateway:
                with gateway.connect() as client:
                    handle = client.register(matrix, "conf")
                    got = client.multiply(handle, x)
            assert got.dtype == np.float32
            assert np.array_equal(got, expected), (
                f"system {system}: networked result differs from "
                f"in-process")

    def test_round_robin_replication_both_workers_serve(self, gateway2,
                                                        rng):
        matrix = random_csr(rng, 36, 28, density=0.25, name="rr")
        x = rng.random((28, 6)).astype(np.float32)
        reference = spmm_reference(matrix, x)
        with gateway2.connect() as client:
            handle = client.register(matrix, "rr")
            results = [client.multiply(handle, x) for _ in range(4)]
        for got in results:
            assert np.allclose(got, reference, atol=1e-4)
        assert results[0].tobytes() == results[1].tobytes()
        served = {index: sum(hs.requests
                             for hs in snap.stats.handles.values())
                  for index, _pid, snap in gateway2.worker_snapshots()}
        # serial requests alternate workers round-robin: both served
        assert all(count >= 1 for count in served.values()), served

    def test_profile_over_the_wire(self, gateway2, rng):
        matrix = random_csr(rng, 30, 24, density=0.3, name="prof")
        x = rng.random((24, 4)).astype(np.float32)
        with gateway2.connect() as client:
            handle = client.register(matrix, "prof")
            y, meta = client.profile(handle, x, backend="counts")
        assert np.allclose(y, spmm_reference(matrix, x), atol=1e-4)
        assert meta["backend"] == "counts"
        assert meta["counters"]["instructions"] > 0

    def test_autotune_memo_shared_across_workers(self, gateway2, rng):
        """A verdict tuned on one worker reaches its sibling through the
        gateway (reply delta -> merge -> seed broadcast)."""
        matrix = random_csr(rng, 44, 32, density=0.3, name="memo")
        x = rng.random((32, 8)).astype(np.float32)
        with gateway2.connect() as client:
            handle = client.register(matrix, "memo")
            client.multiply(handle, x)          # cold: one worker tunes
        assert gateway2.autotune_memo_size() >= 1
        # the seed broadcast precedes the stats op on each pipe (FIFO),
        # so one snapshot round observes the replicated memo
        for _index, _pid, snap in gateway2.worker_snapshots():
            assert snap.autotune_memo["entries"] >= 1

    def test_unregister_propagates(self, gateway2, rng):
        matrix = random_csr(rng, 20, 20, density=0.3, name="gone")
        x = rng.random((20, 4)).astype(np.float32)
        with gateway2.connect() as client:
            handle = client.register(matrix, "gone")
            client.multiply(handle, x)
            client.unregister(handle)
            for _ in range(2):                  # both workers forgot it
                with pytest.raises(ShapeError, match="unknown handle"):
                    client.multiply(handle, x)

    def test_typed_remote_errors(self, gateway2, rng):
        matrix = random_csr(rng, 24, 18, density=0.3, name="err")
        with gateway2.connect() as client:
            with pytest.raises(ShapeError, match="unknown handle"):
                client.multiply(999, np.ones((18, 2), dtype=np.float32))
            handle = client.register(matrix, "err")
            with pytest.raises(ShapeError):
                client.multiply(handle, np.ones((7, 2), dtype=np.float32))

    def test_ping_and_stats(self, gateway2, rng):
        matrix = random_csr(rng, 20, 16, density=0.3, name="stats")
        with gateway2.connect() as client:
            assert client.ping()["workers"] == 2
            handle = client.register(matrix, "stats")
            client.multiply(handle,
                            np.ones((16, 2), dtype=np.float32))
            text = client.stats()
        assert "gateway_requests_total" in text
        assert 'gateway="gwtest"' in text
        # per-worker snapshots carry distinct worker labels (no
        # collision when aggregated at the gateway)
        assert 'worker="0"' in text and 'worker="1"' in text
        assert "serve_requests_total" in text


class TestBackpressure:
    def _slow_profile(self, gateway, client, rng, threads=1):
        """Launch a slow sim-backend profile; returns its thread."""
        matrix = random_csr(rng, 256, 192, density=0.25, name="slow")
        x = rng.random((192, 8)).astype(np.float32)
        handle = client.register(matrix, "slow")
        client.multiply(handle, x)              # warm codegen first
        outcome = {}

        def run():
            try:
                outcome["y"] = client.profile(handle, x, backend="sim")
            except BaseException as error:      # noqa: BLE001 - asserted
                outcome["error"] = error

        thread = threading.Thread(target=run)
        thread.start()
        return thread, outcome

    def test_inflight_cap_rejects_typed(self, rng):
        config = ExecutionConfig(split="row", backend="native", workers=1,
                                 max_inflight=1)
        with Gateway(config, mp_start="fork", slots=8) as gateway:
            pin_client = gateway.connect()
            probe = gateway.connect()
            try:
                matrix = random_csr(rng, 20, 16, density=0.3, name="p")
                probe_handle = probe.register(matrix, "p")
                thread, outcome = self._slow_profile(gateway, pin_client,
                                                     rng)
                _wait_for(lambda: gateway.inflight >= 1,
                          message="slow request admitted")
                with pytest.raises(GatewayOverloaded,
                                   match="in flight") as excinfo:
                    probe.multiply(probe_handle,
                                   np.ones((16, 2), dtype=np.float32))
                assert excinfo.value.reason == "inflight"
                thread.join(timeout=60)
                assert "error" not in outcome, outcome.get("error")
            finally:
                pin_client.close()
                probe.close()

    def test_shm_slot_exhaustion_rejects_typed(self, rng):
        config = ExecutionConfig(split="row", backend="native", workers=1,
                                 max_inflight=8)
        with Gateway(config, mp_start="fork", slots=1) as gateway:
            pin_client = gateway.connect()
            probe = gateway.connect()
            try:
                matrix = random_csr(rng, 20, 16, density=0.3, name="p")
                probe_handle = probe.register(matrix, "p")
                thread, outcome = self._slow_profile(gateway, pin_client,
                                                     rng)
                _wait_for(lambda: gateway.inflight >= 1,
                          message="slow request admitted")
                with pytest.raises(GatewayOverloaded,
                                   match="shared-memory") as excinfo:
                    probe.multiply(probe_handle,
                                   np.ones((16, 2), dtype=np.float32))
                assert excinfo.value.reason == "shm"
                thread.join(timeout=60)
                assert "error" not in outcome, outcome.get("error")
            finally:
                pin_client.close()
                probe.close()

    def test_tenant_quota_rejects_only_that_tenant(self, rng):
        config = ExecutionConfig(split="row", backend="native", workers=1,
                                 max_inflight=8, tenant_quota=1)
        with Gateway(config, mp_start="fork", slots=8) as gateway:
            pin_client = gateway.connect(tenant="acme")
            same = gateway.connect(tenant="acme")
            other = gateway.connect(tenant="globex")
            try:
                matrix = random_csr(rng, 20, 16, density=0.3, name="p")
                handle = same.register(matrix, "p")
                x = np.ones((16, 2), dtype=np.float32)
                thread, outcome = self._slow_profile(gateway, pin_client,
                                                     rng)
                _wait_for(lambda: gateway.inflight >= 1,
                          message="slow request admitted")
                with pytest.raises(GatewayOverloaded,
                                   match="tenant") as excinfo:
                    same.multiply(handle, x)
                assert excinfo.value.reason == "tenant"
                # a different tenant is admitted while acme is at quota
                assert np.allclose(other.multiply(handle, x),
                                   spmm_reference(matrix, x), atol=1e-4)
                thread.join(timeout=60)
                assert "error" not in outcome, outcome.get("error")
            finally:
                pin_client.close()
                same.close()
                other.close()

    def test_request_beyond_slot_capacity_is_typed(self, rng):
        config = ExecutionConfig(split="row", backend="native", workers=1)
        with Gateway(config, mp_start="fork",
                     slot_bytes=1024) as gateway:
            with gateway.connect() as client:
                matrix = random_csr(rng, 20, 16, density=0.3, name="big")
                handle = client.register(matrix, "big")
                with pytest.raises(FrameTooLarge, match="slot"):
                    client.multiply(
                        handle, np.ones((16, 64), dtype=np.float32))
                # the connection survives a capacity rejection
                y = client.multiply(handle,
                                    np.ones((16, 2), dtype=np.float32))
                assert y.shape == (20, 2)

    def test_oversized_frame_rejected_before_buffering(self, rng):
        config = ExecutionConfig(split="row", backend="native", workers=1)
        with Gateway(config, mp_start="fork",
                     max_frame=4096) as gateway:
            with gateway.connect() as client:
                with pytest.raises(FrameTooLarge):
                    client.multiply(1, np.ones((16, 512),
                                               dtype=np.float32))


class TestCrashRecovery:
    def test_kill_worker_mid_multiply(self, rng):
        """SIGKILL during a request: the caller gets a clean typed
        WorkerCrashed (no hang), the worker respawns with its
        registrations replayed, and recycled shm slots serve correct
        bits afterwards."""
        config = ExecutionConfig(split="row", backend="native", workers=1)
        with Gateway(config, mp_start="fork", slots=2) as gateway:
            # retries would mask the crash (the pool respawns and a
            # replay succeeds — see test_gateway_resilience for that
            # contract); this test pins the *typed error* surface
            pin_client = gateway.connect(max_retries=0)
            client = gateway.connect()
            try:
                matrix = random_csr(rng, 256, 192, density=0.25,
                                    name="crash")
                x = rng.random((192, 8)).astype(np.float32)
                handle = client.register(matrix, "crash")
                client.multiply(handle, x)      # warm codegen
                reference = spmm_reference(matrix, x)
                (victim_pid,) = gateway.worker_pids()
                outcome = {}

                def run():
                    try:
                        outcome["y"] = pin_client.profile(handle, x,
                                                          backend="sim")
                    except BaseException as error:  # noqa: BLE001
                        outcome["error"] = error

                thread = threading.Thread(target=run)
                thread.start()
                _wait_for(lambda: gateway.inflight >= 1,
                          message="victim request admitted")
                os.kill(victim_pid, signal.SIGKILL)
                thread.join(timeout=30)
                assert not thread.is_alive(), "request hung after crash"
                assert isinstance(outcome.get("error"), WorkerCrashed)

                # the pool respawns and replays the registration; poll
                # until the replacement serves (correct bits prove the
                # crashed request's slot was not recycled corrupted)
                deadline = time.perf_counter() + 60
                while True:
                    try:
                        y = client.multiply(handle, x)
                        break
                    except WorkerCrashed:
                        if time.perf_counter() > deadline:
                            raise
                        time.sleep(0.05)
                assert np.allclose(y, reference, atol=1e-4)
                # exercise every slot of the ring post-crash
                for _ in range(4):
                    assert np.allclose(client.multiply(handle, x),
                                       reference, atol=1e-4)
                assert gateway.worker_pids() != [victim_pid]
            finally:
                pin_client.close()
                client.close()

    def test_crash_is_counted(self, rng):
        config = ExecutionConfig(split="row", backend="native", workers=1)
        with Gateway(config, mp_start="fork",
                     obs_label="gwcrash") as gateway:
            (victim_pid,) = gateway.worker_pids()
            os.kill(victim_pid, signal.SIGKILL)
            _wait_for(lambda: "gateway_worker_crashes_total" in
                      gateway.stats_text() and
                      'gwcrash"} 1' in gateway.stats_text(),
                      message="crash counter increment")


class TestShutdownOp:
    def test_wire_shutdown_sets_event(self, rng):
        config = ExecutionConfig(split="row", backend="native", workers=1)
        with Gateway(config, mp_start="fork") as gateway:
            with gateway.connect() as client:
                assert not gateway.shutdown_requested.is_set()
                client.shutdown_gateway()
            assert gateway.shutdown_requested.is_set()


class TestRespawnReplay:
    def test_respawned_worker_replays_registrations(self, rng):
        """A worker SIGKILLed after serving a handle respawns, replays
        its registrations, and serves the handle's first request again
        bit-identical end to end (autotune and codegen inline)."""
        config = ExecutionConfig(split="auto", backend="native",
                                 workers=1)
        with Gateway(config, mp_start="fork") as gateway:
            with gateway.connect() as client:
                matrix = random_csr(rng, 48, 36, density=0.25,
                                    name="replayed")
                x = rng.random((36, 8)).astype(np.float32)
                reference = spmm_reference(matrix, x)
                handle = client.register(matrix, "replayed")
                for _ in range(3):
                    assert np.array_equal(client.multiply(handle, x),
                                          reference)

                (victim_pid,) = gateway.worker_pids()
                os.kill(victim_pid, signal.SIGKILL)
                deadline = time.perf_counter() + 60
                while True:
                    try:
                        y = client.multiply(handle, x)
                        break
                    except WorkerCrashed:
                        if time.perf_counter() > deadline:
                            raise
                        time.sleep(0.05)
                assert np.array_equal(y, reference)
                assert gateway.worker_pids() != [victim_pid]
                assert np.array_equal(client.multiply(handle, x),
                                      reference)

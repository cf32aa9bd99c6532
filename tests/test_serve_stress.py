"""Race stress tests: concurrent register/unregister/multiply traffic
against the sharded cache under byte pressure.

The invariant under test: eviction (kernel-cache byte pressure or
workspace-LRU pressure) racing live multiply traffic must never hand a
request a discarded kernel's wrong result or corrupt the service's
bookkeeping — every response stays bit-correct, and the refcounted
kernel-identity state drains to empty once every handle is gone.
"""

import threading

import numpy as np

from repro.errors import ShapeError
from repro.serve import ShardedKernelCache, SpmmService
from repro.sparse import spmm_reference
from tests.conftest import random_csr


def test_concurrent_register_unregister_multiply(rng):
    # a sharded cache so small that every width insert evicts another
    # identity: multiplies race evictions constantly
    service = SpmmService(
        threads=2, split="row",
        cache=ShardedKernelCache(budget_bytes=512, shards=2),
    )
    matrices = [random_csr(rng, 20 + 4 * index, 24, density=0.3,
                           name=f"m{index}")
                for index in range(4)]
    expected = {}
    operands = {}
    for index, matrix in enumerate(matrices):
        x = rng.random((24, 4 + 4 * (index % 2))).astype(np.float32)
        operands[index] = x
        expected[index] = spmm_reference(matrix, x)
    errors = []
    workers = 8
    rounds = 12
    barrier = threading.Barrier(workers)

    def worker(seed):
        local = np.random.default_rng(seed)
        barrier.wait()
        for _ in range(rounds):
            index = int(local.integers(len(matrices)))
            matrix = matrices[index]
            if local.random() < 0.25:
                # churn: a private registration lifecycle mid-traffic
                handle = service.register(matrix, f"churn{seed}")
                try:
                    y = service.multiply(handle, operands[index])
                    if not np.array_equal(y, expected[index]):
                        errors.append(("churn mismatch", index))
                finally:
                    service.unregister(handle)
            else:
                handle = service.register(matrix)
                y = service.multiply(handle, operands[index])
                if not np.array_equal(y, expected[index]):
                    errors.append(("mismatch", index))
                # profile is what takes a kernel-identity reference
                # (multiply never does), so it is what the drain
                # checks below are about
                result = service.profile(handle, operands[index],
                                         backend="counts")
                if not np.allclose(result.y, expected[index], atol=1e-3):
                    errors.append(("profile mismatch", index))
                service.unregister(handle)

    threads = [threading.Thread(target=worker, args=(seed,))
               for seed in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    # every handle was unregistered: the refcounted identity state and
    # the workspace stripes must have drained completely (the cache was
    # supplied externally, so its entries are deliberately left alone)
    assert not service._workspaces
    assert service._key_refs == {}
    assert service._keylocks == {}


def test_eviction_under_byte_pressure_mid_multiply(rng):
    # alternate widths whose cached kernels cannot coexist in the budget
    # while concurrent threads profile and multiply them: a profile that
    # resolved a kernel just before its eviction must still serve the
    # bit-correct product (the evicted object stays valid for in-flight
    # holders), and multiply — which runs the plan's own host kernel —
    # is untouched by the cache pressure next to it
    service = SpmmService(
        threads=2, split="row",
        cache=ShardedKernelCache(budget_bytes=160, shards=2),
    )
    matrix = random_csr(rng, 30, 30, density=0.3)
    handle = service.register(matrix)
    widths = (4, 8, 16, 32)
    operands = {d: rng.random((30, d)).astype(np.float32) for d in widths}
    expected = {d: spmm_reference(matrix, operands[d]) for d in widths}
    errors = []
    barrier = threading.Barrier(len(widths))

    def hammer(d):
        barrier.wait()
        for _ in range(10):
            for y in (service.profile(handle, operands[d]).y,
                      service.multiply(handle, operands[d])):
                if not np.array_equal(y, expected[d]):
                    errors.append(d)

    threads = [threading.Thread(target=hammer, args=(d,)) for d in widths]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    stats = service.cache.stats()
    assert stats.evictions > 0          # the pressure was real
    # identity bookkeeping survived the churn: one ref per live width
    assert sorted(service._key_refs.values()) == [1] * len(widths)


def test_workspace_eviction_races_multiply(rng):
    # a workspace cap of 1 with several widths in flight: every request
    # re-creates the evicted workspace yet serves correctly
    service = SpmmService(threads=2, split="row", max_workspaces=1)
    matrix = random_csr(rng, 25, 25, density=0.3)
    handle = service.register(matrix)
    widths = (2, 4, 8)
    operands = {d: rng.random((25, d)).astype(np.float32) for d in widths}
    expected = {d: spmm_reference(matrix, operands[d]) for d in widths}
    errors = []
    barrier = threading.Barrier(len(widths))

    def hammer(d):
        barrier.wait()
        for _ in range(8):
            if not np.array_equal(service.multiply(handle, operands[d]),
                                  expected[d]):
                errors.append(d)

    threads = [threading.Thread(target=hammer, args=(d,)) for d in widths]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert service._workspace_evictions > 0
    # kernels survive workspace eviction: regeneration only ever
    # happened after *cache* evictions, of which there were none
    assert service.cache.stats().evictions == 0


def test_unregister_mid_flight_requests_complete(rng):
    service = SpmmService(threads=2, split="row")
    matrix = random_csr(rng, 30, 30, density=0.3)
    x = rng.random((30, 8)).astype(np.float32)
    expected = spmm_reference(matrix, x)
    stop = threading.Event()
    errors = []

    def traffic():
        while not stop.is_set():
            handle = service.register(matrix)
            try:
                y = service.multiply(handle, x)
                if not np.array_equal(y, expected):
                    errors.append("mismatch")
            except ShapeError:
                pass                    # raced another thread's sweep
            try:
                service.unregister(handle)
            except ShapeError:
                pass
    threads = [threading.Thread(target=traffic) for _ in range(6)]
    for thread in threads:
        thread.start()
    import time
    time.sleep(0.4)
    stop.set()
    for thread in threads:
        thread.join()
    assert not errors


def test_report_is_consistent_during_multiply_storm(rng):
    """Satellite regression: report()/snapshot() during live traffic.

    Every line of a report must describe one instant: per-handle stats
    are copied under their stripe locks, so a reader can never observe
    a request counted in ``requests`` whose latency or exec time has
    not landed yet.  The invariant checked here — cold+warm latency
    counts always equal the request count, and exec time is present as
    soon as requests are — held only probabilistically before the
    snapshot rework (field-by-field reads of live mutable stats).
    """
    service = SpmmService(threads=2, split="row")
    matrix = random_csr(rng, 30, 30, name="storm")
    handle = service.register(matrix)
    xs = [rng.random((30, 4)).astype(np.float32) for _ in range(4)]
    service.multiply(handle, xs[0])
    stop = threading.Event()
    problems = []

    def traffic(index):
        while not stop.is_set():
            service.multiply(handle, xs[index % len(xs)])

    def reader():
        while not stop.is_set():
            snapshot = service.snapshot()
            stats = snapshot.stats.handles[handle.handle_id]
            observed = stats.cold.count + stats.warm.count
            if observed != stats.requests:
                problems.append(
                    f"torn snapshot: {stats.requests} requests but "
                    f"{observed} latency observations")
            if stats.requests and stats.exec_seconds <= 0.0:
                problems.append("requests counted with no exec time")
            # the rendered report and the metric samples come from the
            # same snapshot, so they can never disagree
            rendered = snapshot.render()
            if f"{stats.requests} requests" not in rendered.splitlines()[0]:
                problems.append("render out of sync with snapshot")
            service.report()            # exercises the full live path

    workers = [threading.Thread(target=traffic, args=(index,))
               for index in range(4)]
    readers = [threading.Thread(target=reader) for _ in range(2)]
    for thread in workers + readers:
        thread.start()
    import time
    time.sleep(0.5)
    stop.set()
    for thread in workers + readers:
        thread.join()
    assert not problems, problems[:5]


def test_profiled_handles_drain_after_eviction_under_byte_pressure(rng):
    # a cache too small for every profiled kernel: the kernels profile()
    # caches for five handles evict one another under multiply traffic,
    # every request still serves bit-correct results, and unregistering
    # the handles drains every identity reference profile() took
    service = SpmmService(threads=2, split="row",
                          cache=ShardedKernelCache(budget_bytes=512,
                                                   shards=2))
    matrices = [random_csr(rng, 18 + 5 * index, 22, density=0.3,
                           name=f"e{index}")
                for index in range(5)]
    handles = [service.register(matrix) for matrix in matrices]
    operands = [rng.random((22, 8)).astype(np.float32)
                for _ in matrices]
    expected = [spmm_reference(matrix, x)
                for matrix, x in zip(matrices, operands)]
    errors = []
    barrier = threading.Barrier(len(handles))

    def hammer(index):
        barrier.wait()
        for _ in range(12):
            for y in (service.multiply(handles[index], operands[index]),
                      service.profile(handles[index], operands[index]).y):
                if not np.array_equal(y, expected[index]):
                    errors.append(index)

    threads = [threading.Thread(target=hammer, args=(index,))
               for index in range(len(handles))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert service.cache.stats().evictions > 0      # pressure was real
    for handle in handles:
        service.unregister(handle)
    assert service._key_refs == {}
    assert service._keylocks == {}
    service.close()

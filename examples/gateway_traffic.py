"""Gateway demo: the serving stack behind a real socket.

Spawns a local :class:`~repro.serve.gateway.Gateway` — an asyncio
front end speaking the length-prefixed binary protocol, two worker
processes each running a private :class:`~repro.serve.SpmmService`,
and a shared-memory ring carrying the operands — then drives it the
way an application would, through :class:`GatewayClient`:

1. register matrices once (replicated to every worker over shm),
2. verify the networked path is bit-identical to an in-process
   service on the same operands,
3. replay a closed-loop burst from several client threads and report
   requests/sec,
4. show typed remote errors (an unknown handle raises the same
   ``ShapeError`` it would in-process) and quota backpressure
   (``GatewayOverloaded`` with a ``reason``, never silent queueing),
5. dump a slice of the combined gateway + per-worker Prometheus text.

Run:  python examples/gateway_traffic.py
"""

import multiprocessing
import threading
import time

import numpy as np

from repro import CsrMatrix
from repro.api import ExecutionConfig
from repro.errors import GatewayOverloaded, ShapeError
from repro.serve import SpmmService
from repro.serve.gateway import Gateway


def random_sparse(rng, nrows, ncols, density, name):
    mask = rng.random((nrows, ncols)) < density
    dense = np.where(mask, rng.standard_normal((nrows, ncols)), 0.0)
    return CsrMatrix.from_dense(dense.astype(np.float32), name=name)


def main() -> None:
    rng = np.random.default_rng(11)
    start_method = ("fork" if "fork" in
                    multiprocessing.get_all_start_methods() else "spawn")
    config = ExecutionConfig(split="auto", backend="native", threads=4,
                             workers=2, max_inflight=64)
    gateway = Gateway(config, mp_start=start_method,
                      obs_label="demo-gateway").start()
    host, port = gateway.address
    print(f"gateway up at {host}:{port} "
          f"(workers: {gateway.worker_pids()}, start={start_method})\n")

    matrices = [random_sparse(rng, 400, 320, 0.03, "demo-400"),
                random_sparse(rng, 256, 256, 0.08, "demo-256")]
    client = gateway.connect()
    handles = [client.register(matrix) for matrix in matrices]

    # -- conformance: networked result is bit-identical to in-process --
    with SpmmService(threads=4, split="auto", backend="native") as local:
        local_handles = [local.register(matrix) for matrix in matrices]
        for matrix, handle, local_handle in zip(matrices, handles,
                                                local_handles):
            x = rng.random((matrix.ncols, 8), dtype=np.float32)
            over_the_wire = client.multiply(handle, x)
            in_process = local.multiply(local_handle, x)
            assert np.array_equal(over_the_wire, in_process)
    print("networked results are bit-identical to the in-process "
          "service on both matrices")

    # -- a closed-loop burst: one client (connection) per thread -------
    clients, requests = 4, 50
    operands = [rng.random((matrices[0].ncols, 8), dtype=np.float32)
                for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)

    def closed_loop(x):
        with gateway.connect() as mine:
            barrier.wait()
            for _ in range(requests):
                mine.multiply(handles[0], x)

    threads = [threading.Thread(target=closed_loop, args=(x,))
               for x in operands]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    print(f"burst: {clients} clients x {requests} requests -> "
          f"{clients * requests / wall:,.0f} req/s over the socket\n")

    # -- typed errors survive the wire ---------------------------------
    try:
        client.multiply(999, np.ones((4, 2), dtype=np.float32))
    except ShapeError as error:
        print(f"unknown handle raises ShapeError, networked too: {error}")

    # -- backpressure: rejection, not buffering ------------------------
    # A one-in-flight gateway: pin its only admission token with a slow
    # simulated profile, then watch the next request bounce with a
    # typed, reasoned rejection.
    tiny = Gateway(ExecutionConfig(split="row", backend="native",
                                   threads=2, workers=1, max_inflight=1),
                   mp_start=start_method).start()
    try:
        with tiny.connect() as one, tiny.connect() as two:
            matrix = matrices[1]
            slow = one.register(matrix)
            x = rng.random((matrix.ncols, 8), dtype=np.float32)
            one.profile(slow, x, backend="sim")      # warm the kernel
            pinner = threading.Thread(
                target=lambda: one.profile(slow, x, backend="sim"))
            pinner.start()
            while tiny.inflight < 1:                 # wait for admission
                time.sleep(0.001)
            try:
                two.multiply(slow, x)
            except GatewayOverloaded as error:
                print(f"over the cap raises GatewayOverloaded"
                      f"(reason={error.reason!r}): {error}")
            pinner.join()
    finally:
        tiny.close()

    # -- chaos: a seeded fault plan, typed failure, full recovery ------
    # Kill a worker mid-traffic and drop the client's own connection,
    # deterministically.  A retrying client rides through both: the
    # gateway respawns the dead worker, the client reconnects and
    # retries (idempotent ops only), and every answer is still
    # bit-identical.  Requests also carry a deadline — an expired one
    # fails fast with DeadlineExceeded instead of queueing forever.
    from repro.errors import DeadlineExceeded
    from repro.faults import FaultPlan, FaultRule

    pids_before = set(gateway.worker_pids())
    gateway.set_fault_plan(FaultPlan(seed=7, rules=(
        FaultRule("worker.crash", after=1, max_fires=1),
        FaultRule("conn.drop", after=2, max_fires=1),
    )))
    x = rng.random((matrices[0].ncols, 8), dtype=np.float32)
    expected = client.multiply(handles[0], x).tobytes()
    with gateway.connect(max_retries=3, deadline_ms=5_000.0) as tough:
        for index in range(8):
            assert tough.multiply(handles[0], x).tobytes() == expected
        print(f"chaos: survived a worker crash + a dropped connection "
              f"({tough.retries_used} retries); results still "
              f"bit-identical")
    gateway.set_fault_plan(None)
    deadline = time.perf_counter() + 30.0
    while (set(gateway.worker_pids()) == pids_before
           or len(gateway.worker_pids()) < 2):
        assert time.perf_counter() < deadline
        time.sleep(0.01)
    print(f"chaos: pool recovered "
          f"(workers {sorted(pids_before)} -> "
          f"{sorted(gateway.worker_pids())})")
    with gateway.connect() as hurried:
        try:
            # an already-expired budget: rejected at admission, typed
            hurried.profile(handles[1],
                            rng.random((matrices[1].ncols, 8),
                                       dtype=np.float32),
                            backend="sim", deadline_ms=1.0)
        except DeadlineExceeded as error:
            print(f"chaos: expired budget raises DeadlineExceeded: "
                  f"{error}")

    # -- one scrape: gateway counters + per-worker service series ------
    print("\nselected series from the stats op:")
    for line in client.stats().splitlines():
        if line.startswith(("gateway_requests_total",
                            "gateway_rejections_total",
                            "gateway_worker_crashes_total")):
            print(f"  {line}")

    client.close()
    gateway.close()
    print("\ngateway drained and closed cleanly")


if __name__ == "__main__":
    main()

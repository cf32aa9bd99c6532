"""Serve-throughput experiment: closed-loop traffic against the service.

The serving subsystem's amortization story (Table IV, live) removes
codegen from the steady state; this harness measures the steady state
itself.  Closed-loop client threads hammer one registered matrix
through ``SpmmService`` and the harness reports requests/sec plus
p50/p99 latency per backend cell:

* ``native`` — ``multiply``: one C call on the matrix's prepared scipy
  handle plus one pass of Python/lock overhead per request, each
  request on its caller's thread;
* ``counts`` — the simulated ``profile`` path as a reference point
  (profiled requests serialize on the workspace's mapped address
  space).

With ``--networked`` (CLI) or ``REPRO_BENCH_SERVE_NETWORKED=1``, the
harness additionally measures the *networked* path: closed-loop clients
speaking the real socket protocol against a local
:class:`~repro.serve.gateway.Gateway`, one cell per worker count in
``NETWORKED_WORKER_COUNTS``.  Those cells carry the full wire cost
(framing, shm copies, pipe round-trips): ``speedup_networked`` reports
them against the in-process ``native`` cell (far below 1 — a socket
round trip cannot beat one in-process C call), and
``scaling_networked`` is 2 workers over 1, which CI gates at >= 1 where
there are the three cores two workers and a gateway need.

The harness also measures **cold start**: register never-seen matrices
while closed-loop traffic hammers a warm handle, and time each fresh
handle's *first* ``multiply`` — the request that pays autotune and
host-kernel codegen inline.  Every result is checked bit-equal against
:func:`repro.core.engine.spmm_reference`; the JSON's ``coldstart``
section reports first-request min/p50/p99 with the sample count, and
CI gates on its ``bit_identical``.  Every wait for the GIL or the
scheduler only adds latency, so ``min_ms`` is the figure closest to the
request path's own work (p99 over a dozen samples is the maximum).

Emitted as a table and as ``BENCH_servethroughput.json`` (path
overridable via ``REPRO_BENCH_SERVETHROUGHPUT_JSON``), which CI
regenerates at tiny scale and gates on.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.bench.harness import BenchConfig, render_table
from repro.core.engine import spmm_reference
from repro.serve import SpmmService
from repro.sparse.csr import CsrMatrix

__all__ = ["ServeThroughputResult", "run_servethroughput"]

#: dense operand width: small enough that per-request Python overhead
#: dominates a twin-scale SpMM — the regime the fast path targets
_D = 8

#: in-process backend cells
BACKENDS = ("native", "counts")

#: gateway worker counts measured in networked mode; the scaling gate
#: reads the last over the first
NETWORKED_WORKER_COUNTS = (1, 2)

DEFAULT_JSON_PATH = "BENCH_servethroughput.json"

#: closed-loop client threads (env: REPRO_BENCH_SERVE_CLIENTS)
DEFAULT_CLIENTS = 8

#: multiply requests per client per cell (env: REPRO_BENCH_SERVE_REQUESTS)
#: — enough that a native cell's window is a quarter second (40 would
#: last 20 ms, and one scheduler hiccup would move req/s by a quarter).
#: The simulated counts cell runs an eightieth of this (it is orders of
#: magnitude slower per request and only provides a reference point)
DEFAULT_REQUESTS = 400

#: fresh handles registered per cold-start cell
#: (env: REPRO_BENCH_SERVE_COLDSTART)
DEFAULT_COLDSTART_HANDLES = 12

#: background closed-loop clients keeping the service busy while the
#: cold-start cells register fresh handles
COLDSTART_CLIENTS = 4


@dataclass
class ServeThroughputResult:
    config: BenchConfig
    dataset: str
    clients: int
    requests_per_client: int
    #: backend -> row dict (rps, p50_ms, p99_ms, ...); networked cells
    #: use backend "gateway:<N>w"
    rows: dict[str, dict]
    json_path: str
    networked: bool = field(default=False)
    #: cold-start section: first-request latencies of fresh handles
    coldstart: dict = field(default_factory=dict)

    def rps(self, backend: str) -> float:
        return self.rows[backend]["rps"]

    def speedup_networked(self) -> float | None:
        """Networked requests/sec (socket protocol, most-workers cell)
        over the in-process ``native`` cell: reported, not gated.  None
        when the networked cells were not measured."""
        if not self.networked:
            return None
        backend = f"gateway:{NETWORKED_WORKER_COUNTS[-1]}w"
        return self.rps(backend) / self.rps("native")

    def scaling_networked(self) -> float | None:
        """Most-workers over fewest-workers networked requests/sec —
        the networked CI acceptance ratio (>= 1 given a core per
        process).  None when the networked cells were not measured."""
        if not self.networked:
            return None
        few, many = NETWORKED_WORKER_COUNTS[0], NETWORKED_WORKER_COUNTS[-1]
        return self.rps(f"gateway:{many}w") / self.rps(f"gateway:{few}w")

    # ------------------------------------------------------------------
    def as_payload(self) -> dict:
        """The JSON document CI archives (one row per measured cell)."""
        payload = {
            "experiment": "servethroughput",
            "scale": self.config.scale,
            "threads": self.config.threads,
            "d": _D,
            "dataset": self.dataset,
            "clients": self.clients,
            "requests_per_client": self.requests_per_client,
            "rows": [
                {"backend": backend, **row}
                for backend, row in sorted(self.rows.items())
            ],
            "coldstart": self.coldstart,
        }
        if self.networked:
            payload["speedup_networked"] = self.speedup_networked()
            payload["scaling_networked"] = self.scaling_networked()
        return payload

    def render(self) -> str:
        headers = ["backend", "requests", "req/s", "p50 ms", "p99 ms",
                   "lock waits"]
        table_rows = []
        for backend, row in sorted(self.rows.items()):
            table_rows.append([
                backend, row["requests"], f"{row['rps']:.0f}",
                f"{row['p50_ms']:.3f}", f"{row['p99_ms']:.3f}",
                row["lock_waits"],
            ])
        title = (
            "Serve throughput — closed-loop traffic against "
            f"SpmmService ({self.dataset}, d={_D}, "
            f"{self.config.threads} threads, {self.clients} clients x "
            f"{self.requests_per_client} requests; every request runs "
            "on its caller's thread).\n"
            f"JSON written to {self.json_path}"
        )
        if self.networked:
            title += (
                "\ngateway:* rows are networked: real socket protocol "
                "against a local worker-pool gateway, "
                f"{self.speedup_networked():.2f}x the req/s of the in-process "
                "native cell; the networked gate requires "
                f"{NETWORKED_WORKER_COUNTS[-1]} workers >= "
                f"{NETWORKED_WORKER_COUNTS[0]} where nproc >= 3 "
                f"(measured {self.scaling_networked():.2f}x)."
            )
        lines = [render_table(headers, table_rows, title)]
        if self.coldstart:
            cold = self.coldstart
            lines.append(
                f"cold start ({cold['handles']} fresh handles under "
                f"{cold['clients']} clients of warm traffic): "
                f"first request min {cold['min_ms']:.3f}ms / "
                f"p50 {cold['p50_ms']:.3f}ms / "
                f"p99 {cold['p99_ms']:.3f}ms, bit_identical="
                f"{cold['bit_identical']}")
        return "\n".join(lines)


def _run_cell(config: BenchConfig, matrix, backend: str, clients: int,
              requests: int) -> dict:
    """Drive one in-process backend cell; returns its row dict."""
    service = SpmmService(threads=config.threads, split="auto",
                          timing=False)
    handle = service.register(matrix, matrix.name or "bench")
    # per-client operand sets: distinct contents, identical shape
    rng = np.random.default_rng(config.seed)
    operands = [
        [rng.random((matrix.ncols, _D), dtype=np.float32) for _ in range(4)]
        for _ in range(clients)
    ]
    if backend == "native":
        def serve(x):
            return service.multiply(handle, x)
    else:
        def serve(x):
            return service.profile(handle, x, backend=backend)
    serve(operands[0][0])       # codegen + autotune happen off the clock
    latencies: list[list[float]] = [[] for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        mine = operands[index]
        record = latencies[index].append
        barrier.wait()
        for count in range(requests):
            started = time.perf_counter()
            serve(mine[count % len(mine)])
            record(time.perf_counter() - started)

    workers = [threading.Thread(target=client, args=(index,))
               for index in range(clients)]
    for worker in workers:
        worker.start()
    barrier.wait()
    started = time.perf_counter()
    for worker in workers:
        worker.join()
    wall = time.perf_counter() - started
    flat = np.array([value for client_lat in latencies
                     for value in client_lat])
    return {
        "requests": int(flat.size),
        "seconds": wall,
        "rps": flat.size / wall,
        "p50_ms": 1e3 * float(np.percentile(flat, 50)),
        "p99_ms": 1e3 * float(np.percentile(flat, 99)),
        "lock_waits": service.lock_stats().waits,
    }


def _run_networked_cell(config: BenchConfig, matrix, workers: int,
                        clients: int, requests: int) -> dict:
    """Drive one gateway cell over the real socket protocol."""
    from repro.api.config import ExecutionConfig
    from repro.serve.gateway import Gateway

    start_method = ("fork"
                    if "fork" in multiprocessing.get_all_start_methods()
                    else "spawn")
    exec_config = ExecutionConfig(
        split="auto", backend="native", threads=config.threads,
        workers=workers, max_inflight=max(64, 4 * clients))
    rng = np.random.default_rng(config.seed)
    operands = [
        [rng.random((matrix.ncols, _D), dtype=np.float32) for _ in range(4)]
        for _ in range(clients)
    ]
    with Gateway(exec_config, mp_start=start_method,
                 slots=max(8, 2 * clients)) as gateway:
        conns = [gateway.connect() for _ in range(clients)]
        try:
            handle = conns[0].register(matrix, matrix.name or "bench")
            # round-robin dispatch: 2*workers sequential warmups hit
            # every worker's codegen + autotune off the clock
            for _ in range(2 * workers):
                conns[0].multiply(handle, operands[0][0])
            latencies: list[list[float]] = [[] for _ in range(clients)]
            barrier = threading.Barrier(clients + 1)

            def client(index: int) -> None:
                conn = conns[index]
                mine = operands[index]
                record = latencies[index].append
                barrier.wait()
                for count in range(requests):
                    started = time.perf_counter()
                    conn.multiply(handle, mine[count % len(mine)])
                    record(time.perf_counter() - started)

            threads = [threading.Thread(target=client, args=(index,))
                       for index in range(clients)]
            for thread in threads:
                thread.start()
            barrier.wait()
            started = time.perf_counter()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - started
        finally:
            for conn in conns:
                conn.close()
    flat = np.array([value for client_lat in latencies
                     for value in client_lat])
    return {
        "requests": int(flat.size),
        "seconds": wall,
        "rps": flat.size / wall,
        "p50_ms": 1e3 * float(np.percentile(flat, 50)),
        "p99_ms": 1e3 * float(np.percentile(flat, 99)),
        "lock_waits": 0,
        "workers": workers,
    }


def _fresh_matrices(config: BenchConfig, base,
                    count: int) -> list[CsrMatrix]:
    """``count`` never-seen matrices with pairwise-distinct shapes.

    Cold start is only cold if nothing is shared: the autotune memo is
    process-wide and JIT kernel identities are shape-addressed, so
    every matrix gets its own shape (and so its own memo entry and
    kernel identity).
    """
    rng = np.random.default_rng(config.seed + 7919)
    density = min(0.3, max(0.02, base.nnz / (base.nrows * base.ncols)))
    matrices = []
    for index in range(count):
        offset = 2 * index
        nrows = base.nrows + offset + 1
        ncols = base.ncols + offset + 2
        mask = rng.random((nrows, ncols)) < density
        dense = np.where(mask, rng.standard_normal((nrows, ncols)), 0.0)
        dense[0, 0] = 1.0           # never an all-zero matrix
        matrices.append(CsrMatrix.from_dense(
            dense.astype(np.float32), name=f"cold-{index}"))
    return matrices


def _run_coldstart(config: BenchConfig, base, handles: int,
                   clients: int) -> dict:
    """Time the first request of ``handles`` fresh registrations.

    Runs under closed-loop warm traffic; every first-request result is
    checked bit-equal against ``spmm_reference``.
    """
    service = SpmmService(threads=config.threads, split="auto",
                          timing=False)
    rng = np.random.default_rng(config.seed)
    matrices = _fresh_matrices(config, base, handles + 1)
    warm_matrix, fresh = matrices[0], matrices[1:]
    warm_handle = service.register(warm_matrix, warm_matrix.name)
    warm_x = rng.random((warm_matrix.ncols, _D), dtype=np.float32)
    service.multiply(warm_handle, warm_x)   # warm traffic starts warm
    stop = threading.Event()

    def background() -> None:
        while not stop.is_set():
            service.multiply(warm_handle, warm_x)

    traffic = [threading.Thread(target=background)
               for _ in range(clients)]
    latencies: list[float] = []
    bit_identical = True
    try:
        for thread in traffic:
            thread.start()
        for matrix in fresh:
            x = rng.random((matrix.ncols, _D), dtype=np.float32)
            handle = service.register(matrix, matrix.name)
            started = time.perf_counter()
            y = service.multiply(handle, x)
            latencies.append(time.perf_counter() - started)
            bit_identical &= np.array_equal(y, spmm_reference(matrix, x))
    finally:
        stop.set()
        for thread in traffic:
            thread.join()
    service.close()
    lat = np.asarray(latencies)
    return {
        "handles": int(lat.size),
        "clients": clients,
        "d": _D,
        "min_ms": 1e3 * float(lat.min()),
        "p50_ms": 1e3 * float(np.percentile(lat, 50)),
        "p99_ms": 1e3 * float(np.percentile(lat, 99)),
        "mean_ms": 1e3 * float(lat.mean()),
        "bit_identical": bool(bit_identical),
    }


def run_servethroughput(config: BenchConfig | None = None
                        ) -> ServeThroughputResult:
    """Measure every cell; write the JSON."""
    config = config or BenchConfig()
    clients = max(2, int(os.environ.get("REPRO_BENCH_SERVE_CLIENTS",
                                        DEFAULT_CLIENTS)))
    requests = max(1, int(os.environ.get("REPRO_BENCH_SERVE_REQUESTS",
                                         DEFAULT_REQUESTS)))
    networked = os.environ.get("REPRO_BENCH_SERVE_NETWORKED", "") not in (
        "", "0")
    dataset = config.datasets[0]
    matrix = config.matrix(dataset)
    rows = {}
    for backend in BACKENDS:
        cell_requests = requests if backend == "native" else max(
            1, requests // 80)
        rows[backend] = _run_cell(config, matrix, backend, clients,
                                  cell_requests)
    if networked:
        for workers in NETWORKED_WORKER_COUNTS:
            rows[f"gateway:{workers}w"] = _run_networked_cell(
                config, matrix, workers, clients, requests)
    coldstart_handles = max(
        2, int(os.environ.get("REPRO_BENCH_SERVE_COLDSTART",
                              DEFAULT_COLDSTART_HANDLES)))
    coldstart = _run_coldstart(config, matrix, coldstart_handles,
                               COLDSTART_CLIENTS)
    json_path = os.environ.get("REPRO_BENCH_SERVETHROUGHPUT_JSON",
                               DEFAULT_JSON_PATH)
    result = ServeThroughputResult(
        config=config, dataset=dataset, clients=clients,
        requests_per_client=requests, rows=rows, json_path=json_path,
        networked=networked, coldstart=coldstart,
    )
    with open(json_path, "w") as handle:
        json.dump(result.as_payload(), handle, indent=2)
        handle.write("\n")
    return result

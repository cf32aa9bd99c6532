"""The six workloads.

Each workload is a class with the same four steps, called by ``run.py``:

* ``build()``  — the program's set-up, timed for ``setup_s`` and repeated
  (dataset generation, service or gateway start, registration, the cold
  first requests);
* ``offclock()`` — the benchmark's own preparation, never timed:
  reference results from ``spmm_reference`` and bulk input generation;
* ``run(seconds, trace)`` — the measured window; returns its slices and
  the attempted / failed operation counts;
* ``counters()`` — the per-layer numbers read from the program's public
  counters afterwards; ``close()`` releases everything.

Every layer is driven from outside through its public functions.  All
serving workloads share one service configuration, so a workload is
identified by its traffic and never by a knob.
"""

from __future__ import annotations

import os
import re
import socket
import statistics
import subprocess
import sys
from itertools import chain

import numpy as np

from repro import datasets
from repro.api import ExecutionConfig, get_system
from repro.core.autotune import autotune_memo_stats, clear_autotune_memo
from repro.errors import ReproError
from repro.machine.cache import CacheConfig
from repro.serve import SpmmService
from repro.serve.gateway import GatewayClient
from repro.serve.gateway import protocol as proto
from repro.sparse import CsrMatrix, spmm_reference

from perfbench.harness import CLIENTS, Slice, Trace, Window, now, run_clients

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

SERVICE = dict(threads=8, split="auto", backend="native", max_batch=8,
               flush_us=100.0)
GATEWAY_ARGS = ["--workers", "2", "--threads", "8", "--mp-start", "fork"]
GATEWAY_INFLIGHT = 8

HOT_TWIN = ("mycielskian19", 1e-6)
HOT_D = 8
HOT_OPERANDS = 4

#: 5 twins x 3 widths = 15 equally weighted cells, so the 50th and 90th
#: percentile of the latency mix each fall inside one cell's latencies
#: (the 8th and the 14th) rather than on the gap between two cells,
#: where one sample more or less would flip the reading
WIDE_TWINS = ("uk-2005", "GAP-twitter", "GAP-urand", "GAP-kron",
              "AGATHA_2015")
WIDE_SCALE = 2.0 ** -15
WIDE_DS = (1, 16, 64)
#: laps of the 15 cells generated per client (a walk wraps after this)
WIDE_LAPS = 1000

CHURN_POPULATION = 300
CHURN_FOLLOW_UPS = 8

#: results above this size are compared in full on every 8th request only
#: (shape and dtype on all), to keep the oracle cheap next to the request
BIG_RESULT_BYTES = 256 << 10

GRID_TWINS = ("uk-2005", "GAP-twitter", "GAP-urand")
GRID_SYSTEMS = ("jit", "mkl", "aot:icc-avx512", "aot:gcc")
SEARCH_TWINS = ("uk-2005", "GAP-twitter")
SEARCH_SYSTEMS = ("aot:gcc", "aot:clang")
SIM_SCALE = 2.0 ** -21
SIM_D = 16
SIM_THREADS = 8
#: cache geometry scaled down with the twins (the paper's dense operand
#: dwarfs the last-level cache; a twin-sized one must too)
SIM_L1 = CacheConfig(size_bytes=8 * 1024, ways=8)
SIM_L2 = CacheConfig(size_bytes=32 * 1024, ways=8)


# ----------------------------------------------------------------------
# Inputs and the oracle
# ----------------------------------------------------------------------
def twin(name: str, scale: float) -> CsrMatrix:
    """The repo's canonical twin of a Table III matrix, built afresh
    (``datasets.load`` would hand back a cached one, and building it is
    part of set-up).  The named matrices are the same for every seed, as
    the paper's are: ``--seed`` picks operands, request order and the
    churn population."""
    return datasets.spec(name).build(scale)


def operand(rng, matrix: CsrMatrix, d: int) -> np.ndarray:
    return rng.random((matrix.ncols, d), dtype=np.float32)


def hot_inputs(seed: int):
    """``serve_hot``'s matrix and the rotating operands of each client."""
    matrix = twin(*HOT_TWIN)
    rng = np.random.default_rng(seed)
    return matrix, [[operand(rng, matrix, HOT_D) for _ in range(HOT_OPERANDS)]
                    for _ in range(CLIENTS)]


def reference(matrix: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """``spmm_reference`` over 16-column blocks: the oracle materialises
    an nnz x d product array, and columns are independent, so blocking
    changes no bit of the result while keeping the benchmark's own
    memory out of ``peak_rss_mb``."""
    return np.hstack([spmm_reference(matrix, x[:, j:j + 16])
                      for j in range(0, x.shape[1], 16)])


def verified(y, ref: np.ndarray, i: int) -> bool:
    """Bit-for-bit against the oracle."""
    if y is None or y.shape != ref.shape or y.dtype != ref.dtype:
        return False
    if ref.nbytes > BIG_RESULT_BYTES and i % 8:
        return True
    return np.array_equal(y, ref)


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# serve.* counters, from the series both the in-process snapshot and the
# gateway's STATS op export
# ----------------------------------------------------------------------
def parse_prometheus(text: str) -> list[tuple[str, dict, float]]:
    series = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, value = line.rsplit(" ", 1)
        name, _, labels = head.partition("{")
        series.append((name, dict(re.findall(r'(\w+)="([^"]*)"', labels)),
                       float(value)))
    return series


def serve_counters(series) -> dict:
    total: dict[str, float] = {}
    batches = served = 0.0
    for name, labels, value in series:
        total[name] = total.get(name, 0.0) + value
        if name == "serve_batches_total":
            batches += value
            served += value * int(labels["size"])

    def share(part: str, *rest: str) -> float:
        whole = sum(total.get(n, 0.0) for n in (part, *rest))
        return total.get(part, 0.0) / whole if whole else 0.0

    acquisitions = total.get("serve_lock_acquisitions_total", 0.0)
    return {
        "serve.mean_batch": served / batches if batches else 0.0,
        "serve.lock_wait_share": (
            total.get("serve_lock_waits_total", 0.0) / acquisitions
            if acquisitions else 0.0),
        "serve.pool_reuse_share": share("serve_pool_reuses_total",
                                        "serve_pool_allocations_total"),
        "serve.cache_hit_share": share("serve_cache_hits_total",
                                       "serve_cache_misses_total"),
        "serve.cache_evictions": total.get("serve_cache_evictions_total", 0.0),
        "serve.workspace_evictions": total.get(
            "serve_workspace_evictions_total", 0.0),
        "serve.codegen_runs": total.get("serve_codegen_runs_total", 0.0),
        "serve.codegen_s_total": total.get("serve_codegen_seconds_total", 0.0),
    }


# ----------------------------------------------------------------------
class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self) -> None:
        raise NotImplementedError

    def offclock(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, trace: Trace | None):
        raise NotImplementedError

    def counters(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class _Serving(Workload):
    """In-process serving: one service, closed-loop client threads."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.service: SpmmService | None = None
        self.register_s: list[float] = []
        self.first_request_s: list[float] = []
        self.unregister_s: list[float] = []

    def start_service(self) -> None:
        clear_autotune_memo()
        self.service = SpmmService(**SERVICE)

    def register_cold(self, matrix: CsrMatrix, x: np.ndarray):
        """Register ``matrix`` and serve its first (cold) request."""
        t0 = now()
        handle = self.service.register(matrix)
        t1 = now()
        self.service.multiply(handle, x)
        self.register_s.append(t1 - t0)
        self.first_request_s.append(now() - t0)
        return handle

    def multiply(self, handle, x, ref, i: int, request: int, window: Window,
                 out: list, report_latency: bool = True) -> None:
        """One verified request; its record goes to ``out``."""
        t0 = now()
        try:
            y = self.service.multiply(handle, x)
        except ReproError:
            y = None
        t1 = now()
        ok = verified(y, ref, i)
        t2 = now()
        out.append((t1, t1 - t0 if report_latency else None, ok))
        if window.tracing(t0):
            span = window.trace.add("bench.request", request, 0, t0, t2)
            window.trace.add("serve.multiply", request, span, t0, t1)
            window.trace.add("bench.verify", request, span, t1, t2)

    def run(self, seconds: float, trace: Trace | None):
        return run_clients(self.clients(), seconds, trace)

    def clients(self) -> list:
        """One ``body(window, out)`` per client thread."""
        raise NotImplementedError

    def counters(self) -> dict:
        samples = self.service.snapshot().metric_samples()
        memo = autotune_memo_stats()
        lookups = memo["hits"] + memo["misses"]
        return {
            **serve_counters((s.name, dict(s.labels), s.value)
                             for s in samples),
            "serve.first_request_p50_ms": 1e3 * median_or_zero(
                self.first_request_s),
            "serve.register_us": 1e6 * median_or_zero(self.register_s),
            "serve.unregister_us": 1e6 * median_or_zero(self.unregister_s),
            "core.autotune_memo_hit_share": (
                memo["hits"] / lookups if lookups else 0.0),
        }

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


class ServeHot(_Serving):
    name = "serve_hot"

    def build(self) -> None:
        self.matrix, self.operands = hot_inputs(self.seed)
        self.start_service()
        self.handle = self.register_cold(self.matrix, self.operands[0][0])
        for x in chain.from_iterable(self.operands):
            self.service.multiply(self.handle, x)

    def offclock(self) -> None:
        self.refs = [[spmm_reference(self.matrix, x) for x in xs]
                     for xs in self.operands]

    def reader(self, client: int):
        xs, refs = self.operands[client], self.refs[client]

        def body(window: Window, out: list) -> None:
            i = 0
            while now() < window.stop:
                k = i % HOT_OPERANDS
                self.multiply(self.handle, xs[k], refs[k], i,
                              client * 10 ** 9 + i, window, out)
                i += 1
        return body

    def clients(self) -> list:
        return [self.reader(c) for c in range(CLIENTS)]


class ServeWide(_Serving):
    name = "serve_wide"

    def build(self) -> None:
        self.matrices = [twin(name, WIDE_SCALE)
                         for name in WIDE_TWINS]
        rng = np.random.default_rng(self.seed)
        self.cells = [(m, d) for m in range(len(self.matrices))
                      for d in WIDE_DS]
        self.operands = {(m, d): operand(rng, self.matrices[m], d)
                         for m, d in self.cells}
        # every lap is a fresh permutation of the cells: each cell is
        # requested equally often, and which cells meet on the
        # interpreter lock is re-drawn every lap, not fixed by how two
        # equally long cycles happen to line up
        self.orders = [
            [self.cells[j] for _ in range(WIDE_LAPS)
             for j in rng.permutation(len(self.cells))]
            for _ in range(CLIENTS)]
        self.start_service()
        self.handles = [
            self.register_cold(matrix, self.operands[(m, WIDE_DS[0])])
            for m, matrix in enumerate(self.matrices)]
        for m, d in self.cells:
            self.service.multiply(self.handles[m], self.operands[(m, d)])

    def offclock(self) -> None:
        self.refs = {(m, d): reference(self.matrices[m], x)
                     for (m, d), x in self.operands.items()}

    def walker(self, client: int):
        order = self.orders[client]

        def body(window: Window, out: list) -> None:
            i = 0
            while now() < window.stop:
                cell = order[i % len(order)]
                self.multiply(self.handles[cell[0]], self.operands[cell],
                              self.refs[cell], i, client * 10 ** 9 + i,
                              window, out)
                i += 1
        return body

    def clients(self) -> list:
        return [self.walker(c) for c in range(CLIENTS)]


class ServeChurn(ServeHot):
    """Writes beside reads: churners cycle fresh matrices through
    register -> first multiply -> follow-ups -> unregister while readers
    hammer the warm handle exactly as in ``serve_hot``."""

    name = "serve_churn"

    def offclock(self) -> None:
        super().offclock()
        rng = np.random.default_rng(self.seed + 1)
        self.population = []
        for k in range(CHURN_POPULATION):
            rows = int(rng.integers(64, 513))
            d = int(rng.choice((8, 16, 32)))
            matrix = datasets.power_law_graph(
                rows, 12 * rows, seed=self.seed * 100_003 + k)
            xs = [operand(rng, matrix, d) for _ in range(2)]
            self.population.append(
                (matrix, xs, [spmm_reference(matrix, x) for x in xs]))

    def churner(self, index: int, stride: int):
        def body(window: Window, out: list) -> None:
            k = index
            request = (CLIENTS + index) * 10 ** 9
            while now() < window.stop:
                matrix, xs, refs = self.population[k % CHURN_POPULATION]
                lap = k // CHURN_POPULATION
                if lap:
                    # A matrix the process has seen would hit the
                    # autotune memo.  Scaling the values by a power of
                    # two changes its content identity, and scales every
                    # float32 product and sum exactly, so the scaled
                    # reference stays bit-exact.
                    scale = np.float32(2.0 ** -lap)
                    matrix = CsrMatrix.from_arrays(
                        matrix.nrows, matrix.ncols, matrix.row_ptr,
                        matrix.col_indices, matrix.vals * scale)
                    refs = [ref * scale for ref in refs]
                t0 = now()
                handle = self.service.register(matrix)
                self.register_s.append(now() - t0)
                for i in range(1 + CHURN_FOLLOW_UPS):
                    self.multiply(handle, xs[i & 1], refs[i & 1], i,
                                  request + i, window, out,
                                  report_latency=False)
                    if i == 0:
                        self.first_request_s.append(now() - t0)
                request += 1 + CHURN_FOLLOW_UPS
                t0 = now()
                self.service.unregister(handle)
                self.unregister_s.append(now() - t0)
                k += stride
        return body

    def clients(self) -> list:
        churners = max(1, CLIENTS // 2)
        readers = max(1, CLIENTS - churners)
        return ([self.reader(c) for c in range(readers)]
                + [self.churner(j, churners) for j in range(churners)])


# ----------------------------------------------------------------------
class GatewayHot(Workload):
    """``serve_hot``'s traffic through a gateway subprocess; this process
    is the load generator only."""

    name = "gateway_hot"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.process = None
        self.client = None
        self.spawn_s: list[float] = []
        self.register_s: list[float] = []
        self.slices: list[Slice] = []

    def build(self) -> None:
        self.matrix, self.operands = hot_inputs(self.seed)
        t0 = now()
        self.process, self.address = spawn_gateway()
        self.spawn_s.append(now() - t0)
        self.client = GatewayClient(*self.address)
        t0 = now()
        self.handle = self.client.register(self.matrix)
        self.register_s.append(now() - t0)
        for x in chain.from_iterable(self.operands):
            self.client.multiply(self.handle, x)

    def offclock(self) -> None:
        self.refs = [[spmm_reference(self.matrix, x) for x in xs]
                     for xs in self.operands]

    def connection(self, client: int):
        xs, refs = self.operands[client], self.refs[client]
        depth = max(1, GATEWAY_INFLIGHT // CLIENTS)

        def body(window: Window, out: list) -> None:
            sock = socket.create_connection(self.address, timeout=60.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sent: dict[int, tuple] = {}
            request = 0

            def send() -> None:
                nonlocal request
                request += 1
                t0 = now()
                payload = proto.encode_multiply(
                    self.handle, xs[request % HOT_OPERANDS])
                t1 = now()
                proto.send_frame(sock, proto.OP_MULTIPLY, payload, request)
                sent[request] = (t0, t1, now())

            try:
                for _ in range(depth):
                    send()
                while sent:
                    _op, reply_id, payload = proto.recv_frame(sock)
                    t3 = now()
                    try:
                        y = proto.decode_multiply_reply(
                            proto.decode_reply(payload))
                    except ReproError:
                        y = None
                    t4 = now()
                    t0, t1, t2 = sent.pop(reply_id)
                    ok = verified(y, refs[reply_id % HOT_OPERANDS], reply_id)
                    t5 = now()
                    out.append((t4, t4 - t0, ok))
                    if window.tracing(t0):
                        rid = client * 10 ** 9 + reply_id
                        add = window.trace.add
                        span = add("bench.request", rid, 0, t0, t5)
                        add("gateway.encode", rid, span, t0, t1)
                        add("gateway.send", rid, span, t1, t2)
                        add("gateway.wait", rid, span, t2, t3)
                        add("gateway.decode", rid, span, t3, t4)
                        add("bench.verify", rid, span, t4, t5)
                    if t5 < window.stop:
                        send()
            finally:
                sock.close()
        return body

    def run(self, seconds: float, trace: Trace | None):
        self.slices, attempted, failed = run_clients(
            [self.connection(c) for c in range(CLIENTS)], seconds, trace)
        return self.slices, attempted, failed

    def counters(self) -> dict:
        series = parse_prometheus(self.client.stats())
        multiply = {name: value for name, labels, value in series
                    if labels.get("op") == "multiply"}
        server_ms = 1e3 * (multiply["gateway_request_seconds_sum"]
                           / multiply["gateway_request_seconds_count"])
        latencies = list(chain.from_iterable(
            s.latencies for s in self.slices if not s.traced))
        per_worker = [value for name, _labels, value in series
                      if name == "serve_requests_total"]

        def total(name: str) -> float:
            return sum(value for n, _labels, value in series if n == name)

        return {
            **serve_counters(series),
            "gateway.spawn_s": median_or_zero(self.spawn_s),
            "gateway.register_ms": 1e3 * median_or_zero(self.register_s),
            "gateway.server_mean_ms": server_ms,
            "gateway.client_minus_server_ms": (
                1e3 * statistics.fmean(latencies) - server_ms),
            "gateway.worker_exec_mean_us": (
                1e6 * total("serve_exec_seconds_total")
                / total("serve_requests_total")),
            "gateway.worker_request_imbalance": (
                max(per_worker) / max(1.0, min(per_worker))),
            "gateway.rejections": total("gateway_rejections_total"),
            "gateway.deadline_exceeded": total(
                "gateway_deadline_exceeded_total"),
            "gateway.worker_crashes": total("gateway_worker_crashes_total"),
        }

    def close(self) -> None:
        if self.process is not None:
            stop_gateway(self.process, self.client)
            self.process = self.client = None


def spawn_gateway():
    """Start ``python -m repro.serve.gateway``; returns ``(process,
    (host, port))`` once it prints its bound address."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.gateway", *GATEWAY_ARGS],
        stdout=subprocess.PIPE, env=env, text=True)
    match = re.search(r"listening on (\S+):(\d+)", process.stdout.readline())
    if match is None:
        process.kill()
        process.wait()
        raise RuntimeError("gateway subprocess did not report an address")
    return process, (match.group(1), int(match.group(2)))


def stop_gateway(process, client) -> None:
    """Ask the gateway to shut down and wait until it has ended."""
    try:
        if client is not None:
            client.shutdown_gateway()
            client.close()
        process.wait(timeout=20.0)
    except (ReproError, OSError, subprocess.TimeoutExpired):
        process.kill()
        process.wait()
    finally:
        process.stdout.close()


# ----------------------------------------------------------------------
def geomean(values) -> float:
    """Geometric mean; 0 when a cell reads 0 (a share with no events)."""
    values = list(values)
    return statistics.geometric_mean(values) if min(values) > 0 else 0.0


class _Offline(Workload):
    """A fixed grid of prepare -> bind -> execute cells on the simulator,
    run in whole passes; one pass is one slice."""

    twins: tuple = ()
    systems: tuple = ()

    def config(self) -> ExecutionConfig:
        raise NotImplementedError

    def start_pass(self) -> None:
        pass

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.matrices = {name: twin(name, SIM_SCALE)
                         for name in self.twins}
        self.operands = {name: operand(rng, matrix, SIM_D)
                         for name, matrix in self.matrices.items()}
        self.cells = [(name, system) for name in self.twins
                      for system in self.systems]

    def offclock(self) -> None:
        self.refs = {name: spmm_reference(matrix, self.operands[name])
                     for name, matrix in self.matrices.items()}

    def cell(self, name: str, system: str):
        """One cell; returns its five timestamps and the run result."""
        t0 = now()
        artifact = get_system(system).prepare(self.config())
        t1 = now()
        plan = artifact.bind(self.matrices[name], self.operands[name])
        t2 = now()
        result = plan.execute()
        t3 = now()
        # vectorised AOT kernels reassociate float32 sums, so the
        # simulated results are held to a tolerance, not to the bit
        ok = bool(np.allclose(result.y, self.refs[name], atol=1e-4))
        return (t0, t1, t2, t3, now()), result, ok

    def run(self, seconds: float, trace: Trace | None):
        slices: list[Slice] = []
        attempted = failed = 0
        self.results = {}
        self.execute_s = 0.0
        # one discarded pass: the first run of a program pays for the
        # interpreter's compiled-closure caches, later runs do not
        self.start_pass()
        for name, system in self.cells:
            self.cell(name, system)
        begin = now()
        # a traced run needs a pass of each kind, however short the window
        while now() - begin < seconds or (trace is not None
                                          and len(slices) < 2):
            traced = trace is not None and len(slices) & 1 == 1
            self.start_pass()
            started = now()
            latencies = []
            for index, (name, system) in enumerate(self.cells):
                attempted += 1
                try:
                    (t0, t1, t2, t3, t4), result, ok = self.cell(name, system)
                except ReproError:
                    failed += 1
                    continue
                if not ok:
                    failed += 1
                    continue
                latencies.append(t3 - t0)
                self.results[(name, system)] = result.counters
                self.execute_s += t3 - t2
                if traced:
                    rid = len(slices) * len(self.cells) + index
                    span = trace.add("bench.request", rid, 0, t0, t4)
                    trace.add("api.prepare", rid, span, t0, t1)
                    trace.add("api.bind", rid, span, t1, t2)
                    trace.add("exec.execute", rid, span, t2, t3)
                    trace.add("bench.verify", rid, span, t3, t4)
            slices.append(Slice(now() - started, len(latencies), latencies,
                                traced))
        self.passes = len(slices)
        # the simulator is deterministic: repeating the first system's
        # cells, off the clock, must reproduce every counter
        for name in self.twins:
            _stamps, again, _ok = self.cell(name, self.systems[0])
            first = self.results.get((name, self.systems[0]))
            if first is None or again.counters.as_dict() != first.as_dict():
                failed += 1
        return slices, attempted, failed

    def counters(self) -> dict:
        by_system: dict[str, list] = {}
        for (_name, system), counters in self.results.items():
            by_system.setdefault(system.split(":")[0], []).append(counters)
        instructions = sum(c.instructions for c in self.results.values())
        out = {"machine.sim_minstr_per_s":
               self.passes * instructions / self.execute_s / 1e6}
        for system, cells in by_system.items():
            for what, value in (
                    ("sim_cycles", lambda c: c.cycles),
                    ("sim_instructions", lambda c: c.instructions),
                    ("sim_loads", lambda c: c.memory_loads),
                    ("sim_branches", lambda c: c.branches),
                    ("sim_branch_miss_share",
                     lambda c: c.branch_misses / c.branches),
                    ("sim_l1_miss_share",
                     lambda c: c.l1_misses / (c.l1_hits + c.l1_misses)),
                    ("sim_ipc", lambda c: c.instructions / c.cycles)):
                out[f"machine.{what}.{system}"] = geomean(
                    value(c) for c in cells)
        return out


class SimGrid(_Offline):
    name = "sim_grid"
    twins = GRID_TWINS
    systems = GRID_SYSTEMS

    def config(self) -> ExecutionConfig:
        return ExecutionConfig(split="row", threads=SIM_THREADS,
                               backend="sim", warmup=True,
                               l1=SIM_L1, l2=SIM_L2)


class AotSearch(_Offline):
    name = "aot_search"
    twins = SEARCH_TWINS
    systems = SEARCH_SYSTEMS

    def config(self) -> ExecutionConfig:
        return ExecutionConfig(split="row", threads=SIM_THREADS,
                               dynamic=False, backend="sim",
                               l1=SIM_L1, l2=SIM_L2,
                               opt_level=3, search_budget=8)

    def start_pass(self) -> None:
        # search verdicts live in the autotune memo; without this every
        # pass after the first would skip the search it is here to time
        clear_autotune_memo()


WORKLOADS = {cls.name: cls for cls in (ServeHot, ServeWide, ServeChurn,
                                       GatewayHot, SimGrid, AotSearch)}

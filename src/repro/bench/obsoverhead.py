"""Observability-overhead experiment: what does :mod:`repro.obs` cost?

An observability layer earns its place only if the instrumented hot
paths stay hot.  This harness drives one client's closed loop of
multiply requests through one ``SpmmService`` with instrumentation
disabled (the production default) and enabled with span recording,
``REPEATS`` times each, and reports requests/sec per mode plus a direct
microbenchmark of the disabled ``span()`` call.

Two CI gates, both read from ``BENCH_obsoverhead.json``:

* **tracing off is ~free** — the disabled path is one attribute check
  returning a shared no-op object; the microbenchmark must stay under
  ``DISABLED_SPAN_NS_LIMIT`` per call (the throughput delta of "off"
  vs a hypothetical uninstrumented build is unmeasurable, so the gate
  pins the mechanism instead of a noise-dominated ratio);
* **tracing on costs < 14 us per request** — recording the
  ``serve.multiply`` span into the client thread's ring must add less
  wall time to a request than ``OVERHEAD_US_LIMIT`` (the difference of
  1/throughput, best-of-``REPEATS`` on both sides).  Ten runs on the
  2-core box read 7.0-8.3 us.  The client is alone on purpose: with
  four clients on two cores the same span read 8-20 us, because the
  47 us kernel is shorter than a sleeping thread's wake-up and
  anything added to the GIL-held part of a request is paid several
  times over in futex traffic (ROADMAP item 2) — a measurement of the
  scheduler, not of tracing.  The share of req/s the span costs is
  reported, not gated: it grows whenever the request itself gets
  cheaper.

The enabled run's spans are also exported as a Chrome-trace/Perfetto
JSON artifact (``BENCH_obsoverhead_trace.json`` by default), so every
CI run archives a loadable trace of a real burst next to the numbers.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

import repro.obs as obs
from repro.bench.harness import BenchConfig, render_table
from repro.serve import SpmmService

__all__ = ["ObsOverheadResult", "run_obsoverhead"]

#: dense operand width — same overhead-dominated regime as the
#: serve-throughput bench, where per-request costs (and therefore any
#: tracing overhead) are most visible
_D = 8

DEFAULT_JSON_PATH = "BENCH_obsoverhead.json"
DEFAULT_TRACE_PATH = "BENCH_obsoverhead_trace.json"

#: closed-loop client threads.  One: the gate prices a span, and a span
#: is paid on the thread that records it.  With more clients than cores
#: the same microseconds are multiplied by GIL hand-offs (four clients
#: on two cores read 8-20 us for the span a lone client pays ~7 us for,
#: ROADMAP item 2) and the gate measures the scheduler instead
CLIENTS = 1

#: multiply requests per run (env: REPRO_BENCH_OBS_REQUESTS) — a
#: quarter-second window; a 25 ms one read anywhere from 5 to 26 us
#: from one run to the next
DEFAULT_REQUESTS = 4000

#: measurement repeats per mode; the gate compares best-of on both
#: sides, so one descheduled run cannot fail (or mask) the gate
REPEATS = 3

#: acceptance ceiling for tracing-on overhead, microseconds of wall time
#: per request — within 2x of the 7.0-8.3 us ten lone-client runs read
OVERHEAD_US_LIMIT = 14.0

#: acceptance ceiling for one disabled ``span()`` call — generous
#: headroom over the measured ~100-300ns so CI machines never flake,
#: strict enough that an accidental allocation/lock on the disabled
#: path fails loudly
DISABLED_SPAN_NS_LIMIT = 5000.0


@dataclass
class ObsOverheadResult:
    config: BenchConfig
    dataset: str
    clients: int
    requests_per_client: int
    #: mode name ("tracing off" / "tracing on") -> row dict
    rows: dict[str, dict]
    disabled_span_ns: float
    enabled_span_ns: float
    trace_spans: int
    json_path: str
    trace_path: str

    def overhead_pct(self) -> float:
        """Throughput lost to span recording, percent (>= 0)."""
        off = self.rows["tracing off"]["rps"]
        on = self.rows["tracing on"]["rps"]
        return max(0.0, (off - on) / off * 100.0)

    def overhead_us(self) -> float:
        """Wall time span recording adds to one request, microseconds
        (>= 0; the CI acceptance number — see ``OVERHEAD_US_LIMIT``)."""
        off = self.rows["tracing off"]["rps"]
        on = self.rows["tracing on"]["rps"]
        return max(0.0, 1e6 / on - 1e6 / off)

    # ------------------------------------------------------------------
    def as_payload(self) -> dict:
        return {
            "experiment": "obsoverhead",
            "scale": self.config.scale,
            "threads": self.config.threads,
            "d": _D,
            "dataset": self.dataset,
            "clients": self.clients,
            "requests_per_client": self.requests_per_client,
            "repeats": REPEATS,
            "rows": [{"mode": mode, **row}
                     for mode, row in self.rows.items()],
            "disabled_span_ns": self.disabled_span_ns,
            "enabled_span_ns": self.enabled_span_ns,
            "overhead_pct": self.overhead_pct(),
            "overhead_us": self.overhead_us(),
            "overhead_us_limit": OVERHEAD_US_LIMIT,
            "disabled_span_ns_limit": DISABLED_SPAN_NS_LIMIT,
            "trace_spans": self.trace_spans,
            "trace_path": self.trace_path,
        }

    def render(self) -> str:
        headers = ["mode", "requests", "req/s (best)", "p50 ms", "p99 ms",
                   "spans"]
        table_rows = [
            [mode, row["requests"], f"{row['rps']:.0f}",
             f"{row['p50_ms']:.3f}", f"{row['p99_ms']:.3f}", row["spans"]]
            for mode, row in self.rows.items()
        ]
        title = (
            "Observability overhead — closed-loop multiply traffic "
            f"({self.dataset}, d={_D}, {self.config.threads} threads, "
            f"{self.clients} client x {self.requests_per_client} "
            f"requests, best of {REPEATS}).\n"
            f"Disabled span() call: {self.disabled_span_ns:.0f}ns "
            f"(limit {DISABLED_SPAN_NS_LIMIT:.0f}ns); enabled: "
            f"{self.enabled_span_ns:.0f}ns.  Tracing-on overhead "
            f"{self.overhead_us():.1f}us per request (limit "
            f"{OVERHEAD_US_LIMIT:.0f}us), "
            f"{self.overhead_pct():.2f}% of req/s.\n"
            f"JSON written to {self.json_path}; Perfetto trace "
            f"({self.trace_spans} spans) to {self.trace_path}"
        )
        return render_table(headers, table_rows, title)


def _span_call_ns(samples: int = 20000) -> float:
    """Nanoseconds per ``obs.span(...)`` context entered+exited now
    (whichever mode the tracer is currently in)."""
    started = time.perf_counter()
    for index in range(samples):
        with obs.span("bench.probe", index=index):
            pass
    return (time.perf_counter() - started) / samples * 1e9


def _drive(service: SpmmService, handle, operands, clients: int,
           requests: int) -> dict:
    """One closed-loop storm; returns its row dict (rps, latencies)."""
    latencies: list[list[float]] = [[] for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        mine = operands[index]
        record = latencies[index].append
        barrier.wait()
        for count in range(requests):
            started = time.perf_counter()
            service.multiply(handle, mine[count % len(mine)])
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
    }


def _best_of(runs: list[dict]) -> dict:
    """The highest-throughput repeat (latencies ride along)."""
    return max(runs, key=lambda row: row["rps"])


def run_obsoverhead(config: BenchConfig | None = None) -> ObsOverheadResult:
    """Measure tracing-off vs tracing-on serving throughput."""
    config = config or BenchConfig()
    clients = CLIENTS
    requests = max(1, int(os.environ.get("REPRO_BENCH_OBS_REQUESTS",
                                         DEFAULT_REQUESTS)))
    dataset = config.datasets[0]
    matrix = config.matrix(dataset)
    service = SpmmService(threads=config.threads, split="auto")
    handle = service.register(matrix, matrix.name or "bench")
    rng = np.random.default_rng(config.seed)
    operands = [
        [rng.random((matrix.ncols, _D), dtype=np.float32) for _ in range(4)]
        for _ in range(clients)
    ]
    service.multiply(handle, operands[0][0])   # codegen off the clock

    was_enabled = obs.tracing_enabled()
    tracer = obs.get_tracer()
    obs.disable_tracing()
    disabled_span_ns = _span_call_ns()
    off_runs = [_drive(service, handle, operands, clients, requests)
                for _ in range(REPEATS)]

    obs.enable_tracing()
    tracer.clear()
    enabled_span_ns = _span_call_ns()
    on_runs = [_drive(service, handle, operands, clients, requests)
               for _ in range(REPEATS)]
    spans = tracer.spans()
    trace_path = os.environ.get("REPRO_BENCH_OBS_TRACE_JSON",
                                DEFAULT_TRACE_PATH)
    obs.write_chrome_trace(trace_path)
    if not was_enabled:
        obs.disable_tracing()

    off = _best_of(off_runs)
    on = _best_of(on_runs)
    off["spans"] = 0
    on["spans"] = len(spans)
    json_path = os.environ.get("REPRO_BENCH_OBSOVERHEAD_JSON",
                               DEFAULT_JSON_PATH)
    result = ObsOverheadResult(
        config=config, dataset=dataset, clients=clients,
        requests_per_client=requests,
        rows={"tracing off": off, "tracing on": on},
        disabled_span_ns=disabled_span_ns,
        enabled_span_ns=enabled_span_ns,
        trace_spans=len(spans), json_path=json_path,
        trace_path=trace_path,
    )
    with open(json_path, "w") as handle_:
        json.dump(result.as_payload(), handle_, indent=2)
        handle_.write("\n")
    return result

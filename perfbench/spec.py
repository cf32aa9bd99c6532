"""The benchmark's registry: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repo root is the projection of this module the
driver reads (``benchmark_json()``); ``test_perfbench_schema.py`` keeps
the two in agreement.  Everything a run needs to know about *what* is
measured lives here; *how* lives in ``workloads.py`` and ``ladder.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: seconds one run measures (the driver passes it back as ``--seconds``)
RUN_SECONDS = 10
DEFAULT_SEED = 20240
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


@dataclass(frozen=True)
class PerLayer:
    """One per-layer metric.

    ``source`` says where the number comes from: ``trace`` (benchmark-side
    spans of the traced workload), ``counter`` (the program's public
    counters after the workload; 0 when the layer is not on that
    workload's path) or ``ladder`` (the layer's entry point called in
    isolation, same inputs in every workload).  ``moves`` is the
    prediction written down before measuring: ``metric@workload`` pairs
    this number should move.  ``exact`` marks deterministic counts that
    compare with ``==``.
    """

    name: str
    unit: str
    better: str
    source: str
    moves: tuple[str, ...]
    exact: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


WORKLOADS = (
    Workload("serve_hot",
             "op = multiply on one tiny warm handle (d=8) from every client: "
             "all fixed per-call cost, so coalescing and call overhead show "
             "here and per-element kernel speed does not"),
    Workload("serve_wide",
             "op = multiply over 15 (handle, d) cells in seeded order: "
             "requests never share a cell, so coalescing does nothing and "
             "per-element kernel work dominates; batching changes must not "
             "move it"),
    Workload("serve_churn",
             "op = multiply; one client registers, multiplies 9x and "
             "unregisters fresh matrices while the rest read a warm handle: "
             "autotune, codegen and lifecycle sit on the request path"),
    Workload("gateway_hot",
             "op = serve_hot's multiply through a 2-worker gateway "
             "subprocess, 8 pipelined: framing, socket, admission, shm and "
             "pipe hops dominate; routing changes show here, not on "
             "serve_hot"),
    Workload("sim_grid",
             "op = one cell of the paper's offline grid (3 twins x "
             "jit/mkl/2 aot) prepared, bound and cycle-simulated: simulator "
             "host speed and codegen; serving changes must not move it"),
    Workload("aot_search",
             "op = one opt_level=3 pass-search cell (2 twins x gcc/clang, "
             "budget 8, memo cleared per pass): the compile layer does the "
             "work that sim_grid (opt_level 0) bypasses"),
)

END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "imports plus the median of three set-ups: dataset "
             "generation, service or gateway start, registration, cold "
             "first requests"),
    EndToEnd("throughput_ops_s", "1/s", "higher", 0.15,
             "verified-correct operations completed per second, median "
             "over the run's slices"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.18,
             "per-operation latency around the program call only, median "
             "over slices of the slice median (serve_churn: warm readers)"),
    EndToEnd("latency_p90_ms", "ms", "lower", 0.20,
             "the same, 90th percentile: the tail that still repeats on a "
             "shared box"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.25,
             "summed peak resident memory of the workload's process tree"),
)

_SYSTEMS = ("jit", "aot", "mkl")
_PERSONALITIES = ("gcc", "clang", "icc", "icc-avx512")
_SIM_BACKENDS = ("counts", "sim", "sim-fused", "sim-ref")

_HOT = ("throughput_ops_s@serve_hot", "latency_p50_ms@serve_hot")
_WIDE = ("throughput_ops_s@serve_wide", "latency_p50_ms@serve_wide")
_CHURN = ("throughput_ops_s@serve_churn",)
_GATEWAY = ("throughput_ops_s@gateway_hot", "latency_p50_ms@gateway_hot")
_GRID = ("throughput_ops_s@sim_grid", "latency_p50_ms@sim_grid")
_SEARCH = ("throughput_ops_s@aot_search", "latency_p50_ms@aot_search")
_SETUP_ALL = tuple(f"setup_s@{w.name}" for w in WORKLOADS)


def _trace(name, unit, moves):
    return PerLayer(name, unit, "lower", "trace", moves)


def _counter(name, unit, better, moves, exact=False):
    return PerLayer(name, unit, better, "counter", moves, exact)


def _ladder(name, unit, better, moves, exact=False):
    return PerLayer(name, unit, better, "ladder", moves, exact)


PER_LAYER = (
    # -- benchmark-side spans of the traced workload -------------------
    _trace("bench.trace_overhead_pct", "%", ()),
    _trace("bench.request_span_ms", "ms", ()),
    _trace("bench.verify_span_us", "us", ()),
    _trace("serve.multiply_span_ms", "ms", _HOT + _WIDE),
    _trace("gateway.encode_span_us", "us", _GATEWAY),
    _trace("gateway.send_span_us", "us", _GATEWAY),
    _trace("gateway.wait_span_ms", "ms", _GATEWAY),
    _trace("gateway.decode_span_us", "us", _GATEWAY),
    _trace("api.prepare_span_ms", "ms", _GRID),
    _trace("api.bind_span_ms", "ms", _SEARCH),
    _trace("exec.execute_span_ms", "ms", _GRID),
    # -- the program's public counters after the workload --------------
    _counter("bench.latency_p99_ms", "ms", "lower", ()),
    _counter("bench.latency_max_ms", "ms", "lower", ()),
    _counter("serve.mean_batch", "req/batch", "higher", _HOT + _GATEWAY),
    _counter("serve.lock_wait_share", "ratio", "lower", _HOT),
    _counter("serve.pool_reuse_share", "ratio", "higher", _HOT),
    _counter("serve.cache_hit_share", "ratio", "higher", _CHURN),
    _counter("serve.cache_evictions", "count", "lower", _CHURN),
    _counter("serve.workspace_evictions", "count", "lower", _CHURN),
    _counter("serve.codegen_runs", "count", "lower", _CHURN),
    _counter("serve.codegen_s_total", "s", "lower", _CHURN),
    _counter("serve.first_request_p50_ms", "ms", "lower", _CHURN),
    _counter("serve.register_us", "us", "lower", _CHURN),
    _counter("serve.unregister_us", "us", "lower", _CHURN),
    _counter("core.autotune_memo_hit_share", "ratio", "higher", _CHURN),
    _counter("gateway.spawn_s", "s", "lower", ("setup_s@gateway_hot",)),
    _counter("gateway.register_ms", "ms", "lower", ("setup_s@gateway_hot",)),
    _counter("gateway.server_mean_ms", "ms", "lower", _GATEWAY),
    _counter("gateway.client_minus_server_ms", "ms", "lower", _GATEWAY),
    _counter("gateway.worker_exec_mean_us", "us", "lower", _GATEWAY),
    _counter("gateway.worker_request_imbalance", "ratio", "lower",
             ("latency_p90_ms@gateway_hot",)),
    _counter("gateway.rejections", "count", "lower", _GATEWAY),
    _counter("gateway.deadline_exceeded", "count", "lower", _GATEWAY),
    _counter("gateway.worker_crashes", "count", "lower", _GATEWAY),
    _counter("machine.sim_minstr_per_s", "Minstr/s", "higher",
             _GRID + _SEARCH),
    *(_counter(f"machine.{what}.{system}", unit, better, _GRID, exact=True)
      for what, unit, better in (
          ("sim_cycles", "cycles", "lower"),
          ("sim_instructions", "count", "lower"),
          ("sim_loads", "count", "lower"),
          ("sim_branches", "count", "lower"),
          ("sim_branch_miss_share", "ratio", "lower"),
          ("sim_l1_miss_share", "ratio", "lower"),
          ("sim_ipc", "instr/cycle", "higher"))
      for system in _SYSTEMS),
    # -- the ladder: each layer's entry point in isolation -------------
    _ladder("datasets.load_s", "s", "lower", _SETUP_ALL),
    _ladder("sparse.spmm_reference_ms.hot", "ms", "lower", ()),
    _ladder("sparse.spmm_reference_ms.wide", "ms", "lower", ()),
    _ladder("exec.native_execute_ms.hot", "ms", "lower", _HOT + _GATEWAY),
    _ladder("exec.native_execute_ms.wide", "ms", "lower", _WIDE),
    _ladder("exec.native_gflops.wide", "GFLOP/s", "higher", _WIDE),
    *(_ladder(f"api.{stage}_ms.{system}", "ms", "lower", _CHURN + _GRID)
      for stage in ("prepare", "bind") for system in _SYSTEMS),
    _ladder("api.refresh_us", "us", "lower", _CHURN),
    *(_ladder(f"core.codegen_jit_ms.d{d}", "ms", "lower", _CHURN)
      for d in (8, 16, 32)),
    _ladder("core.autotune_cold_ms", "ms", "lower", _CHURN),
    _ladder("isa.assemble_kinstr_per_s", "kinstr/s", "higher", _CHURN),
    _ladder("isa.jit_code_bytes", "bytes", "lower", _CHURN, exact=True),
    *(_ladder(f"aot.compile_ms.{p}", "ms", "lower", _SEARCH + _GRID)
      for p in _PERSONALITIES),
    *(_ladder(f"aot.code_bytes.{p}", "bytes", "lower", _GRID, exact=True)
      for p in _PERSONALITIES),
    _ladder("aot.search_s_per_candidate", "s", "lower", _SEARCH),
    _ladder("aot.search_candidates", "count", "lower", _SEARCH, exact=True),
    _ladder("aot.search_rejected", "count", "lower", _SEARCH, exact=True),
    *(_ladder(f"machine.minstr_per_s.{b}", "Minstr/s", "higher",
              _GRID + _SEARCH)
      for b in _SIM_BACKENDS),
    _ladder("serve.multiply_unloaded_us", "us", "lower", _HOT + _GATEWAY),
    _ladder("serve.overhead_us", "us", "lower", _HOT + _GATEWAY),
    _ladder("gateway.encode_multiply_us", "us", "lower", _GATEWAY),
    _ladder("gateway.decode_reply_us", "us", "lower", _GATEWAY),
    _ladder("gateway.shm_write_read_us", "us", "lower", _GATEWAY),
    _ladder("gateway.rtt_unloaded_p50_ms", "ms", "lower", _GATEWAY),
    _ladder("gateway.transport_overhead_ms", "ms", "lower", _GATEWAY),
    _ladder("obs.disabled_span_ns", "ns", "lower", ()),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
E2E_BY_NAME = {m.name: m for m in END_TO_END}
PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}


def benchmark_json() -> dict:
    """The document the driver reads, with exactly the contract's keys."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound} for m in END_TO_END],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER],
    }

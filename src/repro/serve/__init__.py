"""Serving subsystem: cached, autotuned SpMM over request traffic.

The paper pays JIT code generation once per run (Table IV); a serving
workload pays it once per *kernel identity* and amortizes it across the
request stream.  Components:

* :mod:`repro.serve.cache` — :class:`KernelCache`, a thread-safe LRU
  over compiled kernels with a byte budget and hit/miss/eviction
  counters (also pluggable into :func:`repro.core.runner.run_jit` /
  :func:`~repro.core.runner.run_aot` and
  :class:`repro.core.engine.JitSpMM`), and :class:`ShardedKernelCache`,
  the same contract striped over per-shard LRUs with a combined budget;
* :mod:`repro.serve.service` — :class:`SpmmService`: register a matrix,
  get a handle, serve ``multiply`` (host fast path: one GIL-free
  kernel call on the caller's thread, so concurrent requests overlap)
  and ``profile`` (simulated, counter-reporting) requests with
  one-time autotuning and codegen;
* :mod:`repro.serve.stats` — per-handle and service-wide request
  statistics, including the amortized Table-IV ``codegen_overhead``
  and lock-contention counters.

See :mod:`repro.bench.serving` for the amortization experiment,
:mod:`repro.bench.servethroughput` for the serving throughput
harness, and ``examples/serving_traffic.py`` for a request-replay demo.
"""

from repro.serve.cache import (
    CacheStats,
    KernelCache,
    KernelKey,
    ShardedKernelCache,
    aot_key,
    jit_key,
    mkl_key,
)
from repro.serve.service import MatrixHandle, SpmmService
from repro.serve.stats import (
    HandleStats,
    LatencyStat,
    LockStats,
    ServiceStats,
    TimedLock,
)

__all__ = [
    "CacheStats",
    "HandleStats",
    "KernelCache",
    "KernelKey",
    "LatencyStat",
    "LockStats",
    "MatrixHandle",
    "ServiceStats",
    "ShardedKernelCache",
    "SpmmService",
    "TimedLock",
    "aot_key",
    "jit_key",
    "mkl_key",
]

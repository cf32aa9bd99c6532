"""repro.obs: unified tracing, metrics and profiling for the stack.

The paper's central claim is an accounting argument — specialization
wins only when codegen overhead is amortized across runs (Table IV) —
and this package is the accounting instrument: one low-overhead
observability layer threaded through serving, the plan→bind→execute
pipeline, autotuning, code generation and the simulator.

Three pieces:

* **tracing** (:mod:`repro.obs.trace`) — ``with obs.span("serve.
  multiply", handle=h): ...`` records timed, attributed spans into
  per-thread ring buffers.  Off by default: a disabled span costs one
  attribute check and returns a shared no-op, so the instrumented hot
  paths are effectively free until :func:`enable_tracing` is called.
  Trace ids scope a request's nested spans.
* **metrics** (:mod:`repro.obs.metrics`) — a registry of counters /
  gauges / histograms plus *collectors* that convert the existing stat
  surfaces (``ServiceStats``, ``CacheStats``, ``LockStats``,
  autotune memo, replay-engine flush counters, simulated perf
  counters) into one snapshot-consistent sample set.
* **export** (:mod:`repro.obs.export`) — Chrome-trace/Perfetto JSON
  for spans (loadable at https://ui.perfetto.dev), Prometheus text and
  structured JSON for metrics.

Quick use::

    import repro.obs as obs

    obs.enable_tracing()
    ... serve traffic ...
    obs.write_chrome_trace("trace.json")      # -> ui.perfetto.dev
    print(obs.prometheus_text())              # every subsystem's stats

``python -m repro.bench obsoverhead`` measures the cost of all of this
on the serving hot path (CI gates: tracing off ~free, tracing on under
20 us per request).
"""

from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    metrics_json,
    prometheus_text,
    write_chrome_trace,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    Sample,
    get_registry,
    labels_key,
)
from repro.obs.trace import (
    SpanRecord,
    Tracer,
    current_trace_id,
    disable_tracing,
    enable_tracing,
    event,
    get_tracer,
    span,
    trace_context,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Sample",
    "SpanRecord",
    "Tracer",
    "chrome_trace",
    "chrome_trace_json",
    "current_trace_id",
    "disable_tracing",
    "enable_tracing",
    "event",
    "get_registry",
    "get_tracer",
    "labels_key",
    "metrics_json",
    "prometheus_text",
    "record_counters",
    "span",
    "trace_context",
    "tracing_enabled",
    "write_chrome_trace",
]


def record_counters(counters, **labels) -> None:
    """Publish one simulated run's perf counters into the registry.

    Each non-zero :class:`repro.machine.Counters` field becomes a
    ``sim_<field>_total`` counter labeled by the caller (``backend=``,
    ``system=``), so ``repro.run(..., backend="sim")`` results are
    inspectable with the same tooling as serving stats.
    """
    registry = get_registry()
    for name, value in counters.as_dict().items():
        if value:
            registry.counter(f"sim_{name}_total", **labels).inc(value)


# ----------------------------------------------------------------------
# Built-in collectors for process-wide stat surfaces.  Imports happen
# inside the collectors: obs stays import-light (core and serve import
# it from their hot modules), and the stats appear in snapshots as soon
# as — and only when — the owning subsystem has been imported.
# ----------------------------------------------------------------------
def _autotune_collector():
    import sys

    module = sys.modules.get("repro.core.autotune")
    if module is None:
        return ()
    memo = module.autotune_memo_stats()
    return (
        Sample("autotune_memo_hits_total", (), memo["hits"], "counter"),
        Sample("autotune_memo_misses_total", (), memo["misses"], "counter"),
        Sample("autotune_memo_entries", (), memo["entries"], "gauge"),
        Sample("autotune_memo_pass_entries", (), memo["pass_entries"],
               "gauge"),
    )


def _replay_collector():
    import sys

    module = sys.modules.get("repro.machine.replay")
    if module is None:
        return ()
    stats = module.flush_stats()
    return tuple(
        Sample(f"sim_replay_{name}_total", (), value, "counter")
        for name, value in stats.items()
    )


get_registry().register_collector(_autotune_collector)
get_registry().register_collector(_replay_collector)

"""Exporters: Chrome-trace/Perfetto JSON for spans, Prometheus text and
structured JSON for metrics.

The trace format is the Chrome Trace Event JSON that
https://ui.perfetto.dev (and ``chrome://tracing``) loads directly: one
complete (``"ph": "X"``) event per :class:`~repro.obs.trace.SpanRecord`
with microsecond timestamps, per-thread tracks named after the emitting
threads, and every span attribute (trace id, handle, cold/warm,
...) under ``args`` where the UI's selection panel shows it.

The metrics exporters render a :class:`~repro.obs.metrics
.MetricsSnapshot`: :func:`prometheus_text` emits the text exposition
format (``# TYPE`` headers, ``name{label="v"} value`` lines) and
:func:`metrics_json` a stable JSON document for archival next to the
``BENCH_*.json`` files.
"""

from __future__ import annotations

import json
import os

from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, get_registry
from repro.obs.trace import SpanRecord, Tracer, get_tracer

__all__ = [
    "chrome_trace",
    "chrome_trace_json",
    "metrics_json",
    "prometheus_text",
    "write_chrome_trace",
]


def chrome_trace(spans: list[SpanRecord] | None = None, *,
                 tracer: Tracer | None = None) -> dict:
    """Render spans as a Chrome Trace Event document (a JSON dict).

    With no ``spans`` given, snapshots ``tracer`` (default: the
    process-wide tracer).  Events are sorted by start time within each
    thread, so per-thread timestamps are monotonic; the document also
    records the tracer's drop count, making ring-buffer truncation
    visible in the artifact rather than silent.
    """
    source = tracer or get_tracer()
    if spans is None:
        spans = source.spans()
    pid = os.getpid()
    by_thread: dict[int, list[SpanRecord]] = {}
    names: dict[int, str] = {}
    for record in spans:
        by_thread.setdefault(record.tid, []).append(record)
        names.setdefault(record.tid, record.thread_name)
    events: list[dict] = []
    for tid in sorted(by_thread):
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": names[tid]},
        })
        for record in sorted(by_thread[tid], key=lambda r: r.start):
            args = {str(k): v for k, v in record.attrs.items()}
            if record.trace_id:
                args["trace_id"] = record.trace_id
            events.append({
                "name": record.name,
                "cat": record.name.split(".", 1)[0],
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": record.start * 1e6,
                "dur": (record.end - record.start) * 1e6,
                "args": args,
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs",
            "spans": len(spans),
            "dropped_spans": source.dropped(),
        },
    }


def chrome_trace_json(spans: list[SpanRecord] | None = None, *,
                      tracer: Tracer | None = None, indent=None) -> str:
    """:func:`chrome_trace`, serialized (attrs must be JSON-encodable)."""
    return json.dumps(chrome_trace(spans, tracer=tracer), indent=indent,
                      default=str)


def write_chrome_trace(path: str, spans: list[SpanRecord] | None = None, *,
                       tracer: Tracer | None = None) -> str:
    """Dump the current trace to ``path``; returns the path."""
    with open(path, "w") as handle:
        handle.write(chrome_trace_json(spans, tracer=tracer, indent=None))
        handle.write("\n")
    return path


# ----------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace(
        "\n", r"\n")


def prometheus_text(snapshot: MetricsSnapshot | None = None, *,
                    registry: MetricsRegistry | None = None) -> str:
    """The Prometheus text exposition of one metrics snapshot.

    With no ``snapshot`` given, takes one from ``registry`` (default:
    the process-wide registry).
    """
    if snapshot is None:
        snapshot = (registry or get_registry()).snapshot()
    lines: list[str] = []
    last_name = None
    for sample in snapshot.samples:
        # histogram children (_bucket/_count/_sum) share the parent's
        # TYPE header; emit one header per base series name
        base = sample.name
        for suffix in ("_bucket", "_count", "_sum"):
            if base.endswith(suffix):
                base = base[: -len(suffix)]
                break
        if base != last_name:
            kind = "histogram" if base != sample.name else sample.kind
            lines.append(f"# TYPE {base} {kind}")
            last_name = base
        if sample.labels:
            rendered = ",".join(
                f'{key}="{_escape_label(value)}"'
                for key, value in sample.labels)
            lines.append(f"{sample.name}{{{rendered}}} {sample.value:g}")
        else:
            lines.append(f"{sample.name} {sample.value:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def metrics_json(snapshot: MetricsSnapshot | None = None, *,
                 registry: MetricsRegistry | None = None) -> dict:
    """A stable JSON document for one metrics snapshot."""
    if snapshot is None:
        snapshot = (registry or get_registry()).snapshot()
    return {
        "metrics": [
            {
                "name": sample.name,
                "labels": sample.labels_dict,
                "value": sample.value,
                "kind": sample.kind,
            }
            for sample in snapshot.samples
        ],
    }

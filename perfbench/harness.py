"""Measurement plumbing shared by the workloads and the ladder.

Nothing here knows about the program under test: a measuring window cut
into slices, benchmark-side spans, order statistics, the process-tree
memory reading and the environment stamp.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass

import numpy as np

now = time.perf_counter

#: generator threads (and gateway connections): never more than this
CLIENTS = min(4, os.cpu_count() or 1)

#: ops that end in the first WARMUP_S seconds of a window are discarded
WARMUP_S = 1.0


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


def spread(values) -> dict:
    """Median, quartiles and sample count of ``values`` (>= 1 sample).

    The quartiles are those of the few slices themselves (``inclusive``);
    the default method extrapolates toward the extremes, and with five
    slices one slow slice would then set the whole spread.
    """
    values = list(values)
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


# ----------------------------------------------------------------------
# Spans recorded by the benchmark around each call into a layer
# ----------------------------------------------------------------------
class Trace:
    """In-memory span list: ``(id, parent, name, request, tid, start, end)``.

    Callers already hold the timestamps (they time the same calls for the
    latency metrics), so a span is one ``list.append`` — which is atomic,
    hence safe from every client thread.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def add(self, name: str, request: int, parent: int,
            start: float, end: float) -> int:
        span_id = next(self._ids)
        self.spans.append((span_id, parent, name, request,
                           threading.get_ident(), start, end))
        return span_id

    def medians(self) -> dict[str, float]:
        """Median duration in seconds per span name."""
        by_name: dict[str, list[float]] = {}
        for _id, _parent, name, _req, _tid, start, end in self.spans:
            by_name.setdefault(name, []).append(end - start)
        return {name: statistics.median(d) for name, d in by_name.items()}

    def write_chrome(self, path: str) -> None:
        """Chrome-trace JSON (``chrome://tracing`` / Perfetto)."""
        events = [
            {"name": name, "ph": "X", "pid": os.getpid(), "tid": tid,
             "ts": start * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": span_id, "parent": parent, "request": request}}
            for span_id, parent, name, request, tid, start, end in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


# ----------------------------------------------------------------------
# The measuring window
# ----------------------------------------------------------------------
@dataclass
class Slice:
    """One stretch of the measured window."""

    seconds: float
    completed: int            # verified-correct ops that ended in it
    latencies: list           # seconds, for ops that report a latency
    traced: bool = False


class Window:
    """Warm-up plus ``seconds`` of measurement cut into equal slices.

    An op belongs to the slice its end time falls in.  In a traced run
    the odd slices record spans and the even ones do not, so one run
    yields both throughputs and their difference is the tracing overhead.
    """

    def __init__(self, seconds: float, trace: Trace | None) -> None:
        self.trace = trace
        self.slices = 10 if trace is not None else 5
        self.slice_s = seconds / self.slices
        self.begin = now() + WARMUP_S
        self.stop = self.begin + seconds

    def index(self, t: float) -> int:
        return int((t - self.begin) // self.slice_s)

    def tracing(self, t: float) -> bool:
        return (self.trace is not None and t >= self.begin
                and self.index(t) & 1 == 1)

    def cut(self, records) -> tuple[list[Slice], int, int]:
        """Slices plus (attempted, failed) from per-op records
        ``(end, latency_or_None, ok)`` of the whole run."""
        out = [Slice(self.slice_s, 0, [], self.trace is not None and i & 1 == 1)
               for i in range(self.slices)]
        attempted = failed = 0
        for end, latency, ok in records:
            if end < self.begin:
                continue
            attempted += 1
            if not ok:
                failed += 1
                continue
            index = self.index(end)
            if index < self.slices:
                out[index].completed += 1
                if latency is not None:
                    out[index].latencies.append(latency)
        return out, attempted, failed


def run_clients(bodies, seconds: float, trace: Trace | None):
    """Run each ``body(window, out)`` in its own thread over one window;
    returns ``Window.cut`` of everything they recorded.  The first
    exception any thread hit is re-raised: an untyped failure aborts the
    run."""
    window = Window(seconds, trace)
    records: list[list] = [[] for _ in bodies]
    errors: list[BaseException] = []

    def guarded(body, out):
        try:
            body(window, out)
        except BaseException as error:      # re-raised below
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(body, out))
               for body, out in zip(bodies, records)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return window.cut(itertools.chain.from_iterable(records))


def summarize(slices: list[Slice]) -> dict:
    """The run's end-to-end timing metrics from its untraced slices, each
    with the slice spread that the noise guard reads."""
    plain = [s for s in slices if not s.traced and s.latencies]
    return {
        "throughput_ops_s": spread(s.completed / s.seconds for s in plain),
        "latency_p50_ms": spread(
            1e3 * percentile(s.latencies, 0.5) for s in plain),
        "latency_p90_ms": spread(
            1e3 * percentile(s.latencies, 0.9) for s in plain),
    }


def trace_overhead_pct(slices: list[Slice]) -> float:
    """1 - traced/untraced throughput over the alternating slices, in
    percent."""
    rate = {flag: sum(s.completed for s in slices if s.traced is flag)
            / sum(s.seconds for s in slices if s.traced is flag)
            for flag in (True, False)}
    return 100.0 * (1.0 - rate[True] / rate[False])


# ----------------------------------------------------------------------
# Timing one entry point (the ladder)
# ----------------------------------------------------------------------
def time_calls(call, *, budget_s: float = 0.15, max_calls: int = 200,
               min_calls: int = 3) -> float:
    """Median seconds per ``call()``: up to ``max_calls`` calls or
    ``budget_s`` seconds, whichever ends first (never under
    ``min_calls``)."""
    samples = []
    deadline = now() + budget_s
    while len(samples) < max_calls:
        start = now()
        call()
        end = now()
        samples.append(end - start)
        if end >= deadline and len(samples) >= min_calls:
            break
    return statistics.median(samples)


# ----------------------------------------------------------------------
# Memory and environment
# ----------------------------------------------------------------------
def tree_peak_rss_mb() -> float:
    """Summed peak RSS (``VmHWM``) of this process and every live
    descendant — call it before stopping the children."""
    parent: dict[int, int] = {}
    peak_kb: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/status") as handle:
                fields = dict(line.split(":", 1) for line in handle)
        except OSError:                      # exited while we looked
            continue
        pid = int(entry)
        parent[pid] = int(fields["PPid"])
        peak_kb[pid] = int(fields.get("VmHWM", "0 kB").split()[0])
    tree = {os.getpid()}
    grew = True
    while grew:
        grew = False
        for pid, ppid in parent.items():
            if ppid in tree and pid not in tree:
                tree.add(pid)
                grew = True
    return sum(peak_kb.get(pid, 0) for pid in tree) / 1024.0


def environment(root: str) -> dict:
    """What the numbers were measured on."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "clients": CLIENTS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "cpu": cpu,
    }

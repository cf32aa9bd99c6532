"""Request statistics for the serving subsystem.

The live version of the paper's Table IV: where the bench measures
codegen overhead for one run, a service measures it over a *stream* —
codegen happens once per kernel and its cost is divided across every
request that reuses it, so the amortized overhead (the same
``codegen / (codegen + execution)`` ratio, summed over the stream)
converges toward zero as traffic accumulates.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = ["HandleStats", "LatencyStat", "LockStats", "ServiceStats",
           "TimedLock"]


@dataclass(frozen=True)
class LockStats:
    """Aggregated contention counters over a set of timed locks."""

    acquisitions: int = 0
    waits: int = 0
    wait_seconds: float = 0.0

    def __add__(self, other: "LockStats") -> "LockStats":
        return LockStats(
            acquisitions=self.acquisitions + other.acquisitions,
            waits=self.waits + other.waits,
            wait_seconds=self.wait_seconds + other.wait_seconds,
        )

    @property
    def contention_rate(self) -> float:
        return self.waits / self.acquisitions if self.acquisitions else 0.0

    def render(self) -> str:
        return (f"lock contention: {self.waits}/{self.acquisitions} "
                f"contended acquisitions "
                f"({100.0 * self.contention_rate:.2f}%), "
                f"{1e3 * self.wait_seconds:.3f}ms waited")


class TimedLock:
    """A mutex that counts contended acquisitions and time spent waiting.

    The uncontended path is one extra non-blocking ``acquire`` attempt;
    only a failed attempt pays two clock reads.  Counters are mutated
    while the lock is held, so they need no lock of their own.
    """

    __slots__ = ("_lock", "acquisitions", "waits", "wait_seconds")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquisitions = 0
        self.waits = 0
        self.wait_seconds = 0.0

    def __enter__(self) -> "TimedLock":
        if not self._lock.acquire(blocking=False):
            started = time.perf_counter()
            self._lock.acquire()
            self.wait_seconds += time.perf_counter() - started
            self.waits += 1
        self.acquisitions += 1
        return self

    def __exit__(self, *exc) -> None:
        self._lock.release()

    def stats(self) -> LockStats:
        """One *consistent* snapshot of the three counters.

        Counters are mutated while the lock is held, so reading them
        field-by-field from another thread can tear (an acquisition
        counted whose wait time is not yet added).  Taking the
        underlying lock — uncounted, so profiling reads never inflate
        the contention they measure — makes the triplet atomic; lock
        hold times in this codebase are all short, bounded sections.
        """
        with self._lock:
            return LockStats(acquisitions=self.acquisitions,
                             waits=self.waits,
                             wait_seconds=self.wait_seconds)


@dataclass
class LatencyStat:
    """Streaming min/mean/max over observed wall-clock latencies."""

    count: int = 0
    total_seconds: float = 0.0
    min_seconds: float = float("inf")
    max_seconds: float = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        self.min_seconds = min(self.min_seconds, seconds)
        self.max_seconds = max(self.max_seconds, seconds)

    def snapshot(self) -> "LatencyStat":
        return LatencyStat(count=self.count,
                           total_seconds=self.total_seconds,
                           min_seconds=self.min_seconds,
                           max_seconds=self.max_seconds)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def render(self) -> str:
        if not self.count:
            return "n=0"
        return (f"n={self.count} mean={self.mean_seconds * 1e3:.3f}ms "
                f"min={self.min_seconds * 1e3:.3f}ms "
                f"max={self.max_seconds * 1e3:.3f}ms")


@dataclass
class HandleStats:
    """Per-registered-matrix request accounting."""

    name: str = ""
    requests: int = 0
    profiled_requests: int = 0
    codegen_runs: int = 0
    codegen_seconds: float = 0.0
    exec_seconds: float = 0.0
    cold: LatencyStat = field(default_factory=LatencyStat)
    warm: LatencyStat = field(default_factory=LatencyStat)
    #: requests per execution backend (``"native"`` for the fast path,
    #: the resolved simulator backend for profiled requests)
    backends: dict[str, int] = field(default_factory=dict)

    def record_codegen(self, seconds: float) -> None:
        """Record one code-generation run (whether or not it served a
        request — prefetching via ``SpmmService.kernel`` counts too)."""
        self.codegen_runs += 1
        self.codegen_seconds += seconds

    def observe(self, seconds: float, cold: bool,
                exec_seconds: float | None = None,
                profiled: bool = False,
                backend: str | None = None) -> None:
        """Record one served request.

        ``seconds`` is the request's total wall latency (what the
        cold/warm stats track); ``exec_seconds`` is the pure execution
        part — excluding codegen, autotuning and operand mapping, which
        are one-time cold costs — and is the denominator the amortized
        Table-IV ratio accumulates.  Defaults to ``seconds`` when the
        request had no setup component.  ``backend`` attributes the
        request to one execution backend's traffic bucket.
        """
        self.requests += 1
        if profiled:
            self.profiled_requests += 1
        if cold:
            self.cold.observe(seconds)
        else:
            self.warm.observe(seconds)
        if backend:
            self.backends[backend] = self.backends.get(backend, 0) + 1
        self.exec_seconds += max(
            0.0, seconds if exec_seconds is None else exec_seconds)

    def snapshot(self) -> "HandleStats":
        """An independent copy (taken under the owning stripe lock by
        the service, so every field of the copy is mutually consistent
        — no torn reads of ``requests`` vs ``exec_seconds``)."""
        return HandleStats(
            name=self.name, requests=self.requests,
            profiled_requests=self.profiled_requests,
            codegen_runs=self.codegen_runs,
            codegen_seconds=self.codegen_seconds,
            exec_seconds=self.exec_seconds,
            cold=self.cold.snapshot(), warm=self.warm.snapshot(),
            backends=dict(self.backends),
        )

    def codegen_overhead(self) -> float:
        """Amortized Table-IV metric: codegen time / total stream time."""
        total = self.codegen_seconds + self.exec_seconds
        return self.codegen_seconds / total if total else 0.0

    def render(self) -> str:
        label = self.name or "<anonymous>"
        lines = [
            f"{label}: {self.requests} requests "
            f"({self.codegen_runs} codegen runs, "
            f"{self.profiled_requests} profiled)",
            f"  cold  {self.cold.render()}",
            f"  warm  {self.warm.render()}",
            f"  codegen {self.codegen_seconds * 1e3:.3f}ms total, "
            f"amortized overhead {100.0 * self.codegen_overhead():.4f}%",
        ]
        if self.backends:
            lines.append("  backends " + " ".join(
                f"{name}={count}"
                for name, count in sorted(self.backends.items())))
        return "\n".join(lines)


@dataclass
class ServiceStats:
    """Service-wide aggregation over every handle's stream.

    Aggregate properties snapshot the shared dicts with single C-level
    ``list(...)`` calls before iterating, so a report taken during live
    traffic (handles registering, new backends appearing) never
    observes a dict resizing mid-iteration.
    """

    handles: dict[int, HandleStats] = field(default_factory=dict)

    def handle(self, handle_id: int, name: str = "") -> HandleStats:
        """The (created-on-demand) stats bucket for one handle.

        Creation is ``setdefault``-atomic: callers serialized per
        handle (the service's lock stripes) may still race the *first*
        touch of a handle from different stripes' critical sections.
        """
        stats = self.handles.get(handle_id)
        if stats is None:
            stats = self.handles.setdefault(handle_id, HandleStats(name=name))
        return stats

    def _snapshot(self) -> list[HandleStats]:
        return list(self.handles.values())

    @property
    def requests(self) -> int:
        return sum(h.requests for h in self._snapshot())

    @property
    def codegen_runs(self) -> int:
        return sum(h.codegen_runs for h in self._snapshot())

    @property
    def codegen_seconds(self) -> float:
        return sum(h.codegen_seconds for h in self._snapshot())

    @property
    def exec_seconds(self) -> float:
        return sum(h.exec_seconds for h in self._snapshot())

    @property
    def backend_traffic(self) -> dict[str, int]:
        """Service-wide requests per execution backend."""
        traffic: dict[str, int] = {}
        for handle in self._snapshot():
            for name, count in list(handle.backends.items()):
                traffic[name] = traffic.get(name, 0) + count
        return traffic

    def codegen_overhead(self) -> float:
        """Amortized Table-IV metric across all handles."""
        total = self.codegen_seconds + self.exec_seconds
        return self.codegen_seconds / total if total else 0.0

    def render(self, cache_stats=None, lock_stats=None) -> str:
        lines = [
            f"SpmmService: {self.requests} requests over "
            f"{len(self.handles)} handles, {self.codegen_runs} codegen "
            f"runs, amortized codegen overhead "
            f"{100.0 * self.codegen_overhead():.4f}%",
        ]
        traffic = self.backend_traffic
        if traffic:
            lines.append("traffic by backend: " + ", ".join(
                f"{name}={count}"
                for name, count in sorted(traffic.items())))
        if lock_stats is not None:
            lines.append(lock_stats.render())
        if cache_stats is not None:
            lines.append(cache_stats.render())
        lines.extend(stats.render()
                     for _, stats in sorted(self.handles.items()))
        return "\n".join(lines)


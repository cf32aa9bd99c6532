"""Metrics: counters, gauges, histograms behind one snapshot surface.

Before :mod:`repro.obs`, every subsystem grew its own stat dict —
``ServiceStats``, ``CacheStats``, ``LockStats``, the autotune memo
counters — each with its own reader that walked live mutable state.  This module unifies them behind one registry with two
feeding modes:

* **instruments** — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` objects created once
  (``registry.counter("sim_instructions_total", backend="sim")``) and
  bumped from the code that owns the event;
* **collectors** — callables returning :class:`Sample` lists, for
  subsystems that already keep their own counters: the collector
  converts a *consistent snapshot* of the native stats into samples at
  read time, so nothing is double-counted and the hot paths pay zero
  new bookkeeping.

:meth:`MetricsRegistry.snapshot` materializes one
:class:`MetricsSnapshot` — instruments read under the registry lock,
collectors invoked once each — that the exporters
(:mod:`repro.obs.export`) render as Prometheus text or JSON.

Naming conventions (enforced by use, not code): ``snake_case`` metric
names, ``_total`` suffix for monotonic counters, ``_seconds`` /
``_bytes`` unit suffixes, and low-cardinality labels (``service``,
``backend``, ``system``, ``handle`` only where bounded).
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Sample",
    "get_registry",
    "labels_key",
]

#: fixed bucket layout for latency histograms, in seconds: 10us .. 10s
#: in 1-2.5-5 steps — wide enough for codegen, tight enough for serving
DEFAULT_LATENCY_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1.0, 2.5, 5.0, 10.0,
)


def labels_key(labels: dict) -> tuple[tuple[str, str], ...]:
    """Canonical (sorted, stringified) identity of one label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class Sample:
    """One exported time-series point: name + labels + value."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float
    kind: str = "gauge"              # "counter" | "gauge"

    @property
    def labels_dict(self) -> dict:
        return dict(self.labels)


class Counter:
    """A monotonically increasing count (requests, drops, events)."""

    kind = "counter"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def samples(self) -> list[Sample]:
        return [Sample(self.name, self.labels, self._value, "counter")]


class Gauge:
    """A point-in-time level (live workspaces, retained bytes)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def samples(self) -> list[Sample]:
        return [Sample(self.name, self.labels, self._value, "gauge")]


class Histogram:
    """A fixed-bucket distribution (latencies, sizes).

    Buckets are cumulative on export (Prometheus ``le`` convention):
    ``name_bucket{le="0.005"}`` counts observations <= 0.005, the
    ``le="+Inf"`` bucket equals ``name_count``, and ``name_sum``
    accumulates the raw values.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "_counts", "_sum", "_count",
                 "_lock")

    def __init__(self, name: str, labels: tuple,
                 buckets: tuple = DEFAULT_LATENCY_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(
                f"histogram buckets must be a sorted non-empty sequence, "
                f"got {buckets!r}")
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)   # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def samples(self) -> list[Sample]:
        with self._lock:
            counts = list(self._counts)
            total, acc = self._count, self._sum
        out: list[Sample] = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            out.append(Sample(f"{self.name}_bucket",
                              self.labels + (("le", repr(bound)),),
                              running, "counter"))
        out.append(Sample(f"{self.name}_bucket",
                          self.labels + (("le", "+Inf"),), total, "counter"))
        out.append(Sample(f"{self.name}_count", self.labels, total,
                          "counter"))
        out.append(Sample(f"{self.name}_sum", self.labels, acc, "counter"))
        return out


class MetricsRegistry:
    """Get-or-create instruments plus pluggable collectors.

    Instruments are keyed by ``(name, labels)`` — a second
    ``counter("x", a=1)`` call returns the first instrument, so call
    sites need no caching of their own.  Registering the same name with
    a different instrument kind is an error (one name, one type).
    """

    def __init__(self) -> None:
        self._instruments: dict = {}
        self._kinds: dict[str, str] = {}
        self._collectors: list = []
        self._lock = threading.RLock()

    # -- instruments ----------------------------------------------------
    def _instrument(self, cls, name: str, labels: dict, **kwargs):
        key = (name, labels_key(labels))
        with self._lock:
            existing = self._instruments.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} is a {type(existing).__name__}, "
                        f"not a {cls.__name__}")
                return existing
            kind = self._kinds.get(name)
            if kind is not None and kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {kind}")
            self._kinds[name] = cls.kind
            instrument = cls(name, labels_key(labels), **kwargs)
            self._instruments[key] = instrument
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._instrument(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._instrument(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: tuple = DEFAULT_LATENCY_BUCKETS,
                  **labels) -> Histogram:
        return self._instrument(Histogram, name, labels, buckets=buckets)

    # -- collectors -----------------------------------------------------
    def register_collector(self, collect) -> object:
        """Add a callable returning an iterable of :class:`Sample`.

        A collector can mark itself finished by setting ``collect.dead``
        truthy; it is then pruned at the next snapshot (the weakref
        pattern service collectors use).
        """
        with self._lock:
            self._collectors.append(collect)
        return collect

    def unregister_collector(self, collect) -> bool:
        with self._lock:
            try:
                self._collectors.remove(collect)
                return True
            except ValueError:
                return False

    # -- reading --------------------------------------------------------
    def snapshot(self) -> "MetricsSnapshot":
        """One consistent pass over instruments and collectors."""
        with self._lock:
            instruments = list(self._instruments.values())
            collectors = list(self._collectors)
        samples: list[Sample] = []
        for instrument in instruments:
            samples.extend(instrument.samples())
        dead = []
        for collect in collectors:
            if getattr(collect, "dead", False):
                dead.append(collect)
                continue
            samples.extend(collect())
        for collect in dead:
            self.unregister_collector(collect)
        samples.sort(key=lambda s: (s.name, s.labels))
        return MetricsSnapshot(samples=tuple(samples))


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable, sorted sample set from one registry pass."""

    samples: tuple[Sample, ...]

    def value(self, name: str, **labels) -> float:
        """The value of the sample matching ``name`` and (a superset of)
        ``labels``; raises KeyError when nothing matches."""
        wanted = set(labels_key(labels))
        for sample in self.samples:
            if sample.name == name and wanted <= set(sample.labels):
                return sample.value
        raise KeyError(f"no sample {name!r} with labels {labels!r}")

    def filter(self, name: str) -> list[Sample]:
        return [s for s in self.samples if s.name == name]

    def names(self) -> list[str]:
        seen: dict[str, None] = {}
        for sample in self.samples:
            seen.setdefault(sample.name, None)
        return list(seen)


# ----------------------------------------------------------------------
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry the built-in instrumentation feeds."""
    return _REGISTRY

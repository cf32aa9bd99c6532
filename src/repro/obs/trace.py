"""Structured tracing: per-thread span ring buffers, trace-id scopes.

The serving subsystem's request lifecycle — admit, resolve, execute —
crosses thread and lock boundaries the aggregate stats cannot
attribute: a counter says *some* request paid codegen, a trace says
*which* one, behind *which* lock and for how long.  This module is the
recording half of :mod:`repro.obs`:

* :func:`span` is a context manager emitting one timed
  :class:`SpanRecord` into the calling thread's ring buffer on exit.
  Disabled (the default), it returns a shared no-op object after one
  attribute check — the instrumented hot paths cost a function call and
  an argument dict, nothing else.  Enabled, a span costs two clock
  reads and one list store; no locks are taken on the hot path.
* Each thread writes to its own fixed-capacity ring.  A full ring
  overwrites its oldest record and counts the drop — emission never
  blocks, never allocates beyond the record itself, and never stalls
  another thread.
* Trace ids scope requests: the outermost (root) span of a thread
  allocates a fresh id and nested spans inherit it, so one served
  request's autotune, codegen and execute spans share an id without any
  caller plumbing.  :func:`trace_context` pins an explicit id across a
  region (for cross-thread propagation).

Spans are *records*, not live objects: readers snapshot the rings
(:meth:`Tracer.spans`) and feed exporters
(:func:`repro.obs.export.chrome_trace`); nothing here retains kernels,
plans or operands.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_CAPACITY",
    "SpanRecord",
    "Tracer",
    "current_trace_id",
    "disable_tracing",
    "enable_tracing",
    "event",
    "get_tracer",
    "span",
    "trace_context",
    "tracing_enabled",
]

#: per-thread ring capacity (span records); at typical serving rates a
#: ring this size holds several seconds of history per thread
DEFAULT_CAPACITY = 8192


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: a named, attributed [start, end) interval."""

    name: str
    trace_id: str
    tid: int
    thread_name: str
    start: float                     # time.perf_counter() seconds
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NoopSpan:
    """The disabled-tracing span: enter/exit/annotate all do nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **attrs) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class _Ring:
    """One thread's span buffer: fixed capacity, overwrite-oldest.

    Only the owning thread writes; readers snapshot cross-thread.  The
    writes are plain list stores and integer bumps (GIL-atomic), so the
    emitting thread never blocks — a reader racing a writer may miss
    the very newest record, which is the documented trade.
    """

    __slots__ = ("records", "capacity", "count", "tid", "thread_name")

    def __init__(self, capacity: int, tid: int, thread_name: str) -> None:
        self.records: list = [None] * capacity
        self.capacity = capacity
        self.count = 0
        self.tid = tid
        self.thread_name = thread_name

    def push(self, record: SpanRecord) -> None:
        self.records[self.count % self.capacity] = record
        self.count += 1

    @property
    def dropped(self) -> int:
        """Records overwritten before any reader saw them."""
        return max(0, self.count - self.capacity)

    def snapshot(self) -> list[SpanRecord]:
        """The retained records, oldest first."""
        count, cap = self.count, self.capacity
        if count <= cap:
            return [r for r in self.records[:count] if r is not None]
        pivot = count % cap
        wrapped = self.records[pivot:] + self.records[:pivot]
        return [r for r in wrapped if r is not None]

    def reset(self) -> None:
        self.records = [None] * self.capacity
        self.count = 0


class _Span:
    """A live (entered, not yet exited) span."""

    __slots__ = ("_tracer", "name", "attrs", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def annotate(self, **attrs) -> "_Span":
        """Attach attributes discovered mid-span (handle ids, verdicts)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        self._tracer._enter_span()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._record(self.name, self._start, end, self.attrs)
        self._tracer._exit_span()
        return False


class Tracer:
    """A set of per-thread span rings behind one enable switch.

    One process-wide instance (:func:`get_tracer`) backs the module-
    level :func:`span` / :func:`event` helpers every instrumented call
    site uses; independent instances exist only for tests.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 enabled: bool = False) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.enabled = enabled
        self.capacity = capacity
        self._local = threading.local()
        self._rings: list[_Ring] = []
        self._rings_lock = threading.Lock()
        self._ids = itertools.count(1)

    # -- per-thread state ----------------------------------------------
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            thread = threading.current_thread()
            ring = _Ring(self.capacity, thread.ident or 0, thread.name)
            # registration is once per thread — the only lock in the
            # emission path, never on the steady state
            with self._rings_lock:
                self._rings.append(ring)
            state = self._local.state = {
                "ring": ring, "depth": 0, "trace": "", "pinned": 0}
        return state

    def new_trace_id(self) -> str:
        return f"t{next(self._ids):06x}"

    def current_trace_id(self) -> str:
        """The active trace id for this thread ('' outside any span)."""
        state = getattr(self._local, "state", None)
        return state["trace"] if state is not None else ""

    def _enter_span(self) -> None:
        state = self._state()
        if state["depth"] == 0 and not state["pinned"]:
            state["trace"] = self.new_trace_id()
        state["depth"] += 1

    def _exit_span(self) -> None:
        state = self._state()
        state["depth"] -= 1
        if state["depth"] <= 0:
            state["depth"] = 0
            if not state["pinned"]:
                state["trace"] = ""

    def _record(self, name: str, start: float, end: float,
                attrs: dict) -> None:
        state = self._state()
        ring = state["ring"]
        ring.push(SpanRecord(
            name=name, trace_id=state["trace"], tid=ring.tid,
            thread_name=ring.thread_name, start=start, end=end,
            attrs=attrs,
        ))

    # -- emission -------------------------------------------------------
    def span(self, name: str, /, **attrs):
        """A context manager timing one named operation.

        Disabled, returns the shared no-op span; enabled, the span
        records on exit into the calling thread's ring.  ``name`` is
        positional-only so attributes may be called ``name`` too.
        """
        if not self.enabled:
            return _NOOP
        return _Span(self, name, attrs)

    def event(self, name: str, /, **attrs) -> None:
        """Record an instantaneous (zero-duration) marker."""
        if not self.enabled:
            return
        now = time.perf_counter()
        self._record(name, now, now, attrs)

    def trace_context(self, trace_id: str | None = None):
        """Pin a trace id across a region (cross-thread propagation).

        Spans inside the region record the pinned id instead of
        allocating per-root ids; the previous id is restored on exit.
        """
        return _TraceContext(self, trace_id or self.new_trace_id())

    # -- reading --------------------------------------------------------
    def spans(self) -> list[SpanRecord]:
        """All retained spans across threads (per-thread order kept)."""
        with self._rings_lock:
            rings = list(self._rings)
        collected: list[SpanRecord] = []
        for ring in rings:
            collected.extend(ring.snapshot())
        return collected

    def dropped(self) -> int:
        """Spans lost to ring wraparound, across all threads."""
        with self._rings_lock:
            return sum(ring.dropped for ring in self._rings)

    def clear(self) -> None:
        """Reset every ring in place (thread-local handles stay valid)."""
        with self._rings_lock:
            for ring in self._rings:
                ring.reset()


class _TraceContext:
    __slots__ = ("_tracer", "_trace_id", "_saved")

    def __init__(self, tracer: Tracer, trace_id: str) -> None:
        self._tracer = tracer
        self._trace_id = trace_id

    def __enter__(self) -> str:
        state = self._tracer._state()
        self._saved = (state["trace"], state["pinned"])
        state["trace"] = self._trace_id
        state["pinned"] += 1
        return self._trace_id

    def __exit__(self, *exc) -> bool:
        state = self._tracer._state()
        state["trace"], state["pinned"] = self._saved
        return False


# ----------------------------------------------------------------------
# The process-wide tracer behind every instrumented call site
# ----------------------------------------------------------------------
_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer the instrumentation emits into."""
    return _TRACER


def span(name: str, /, **attrs):
    """Emit one span into the process-wide tracer (no-op when disabled)."""
    if not _TRACER.enabled:
        return _NOOP
    return _Span(_TRACER, name, attrs)


def event(name: str, /, **attrs) -> None:
    """Emit one instantaneous marker into the process-wide tracer."""
    _TRACER.event(name, **attrs)


def current_trace_id() -> str:
    return _TRACER.current_trace_id()


def trace_context(trace_id: str | None = None):
    return _TRACER.trace_context(trace_id)


def enable_tracing() -> Tracer:
    """Switch span recording on; returns the process-wide tracer."""
    _TRACER.enabled = True
    return _TRACER


def disable_tracing() -> Tracer:
    """Switch span recording off (buffers are kept until cleared)."""
    _TRACER.enabled = False
    return _TRACER


def tracing_enabled() -> bool:
    return _TRACER.enabled

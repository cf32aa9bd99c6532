"""`SpmmService`: an SpMM request server that amortizes kernel setup.

The paper's trade-off (Table IV) is codegen time vs. specialized-kernel
speedup, measured for a single run.  A service turns that into a
streaming question: register a matrix once, pay autotuning
(:func:`repro.core.autotune.choose_split`) and code generation on the
first request, and serve every later request by *calling the generated
code* — the plan's host kernel (:mod:`repro.exec.host`), mapped
executable once and run on the caller's core — so the amortized codegen
overhead converges to zero as traffic accumulates.

Since the :mod:`repro.api` redesign the service is system-agnostic: it
serves any registered :class:`~repro.api.System` (``system="jit"`` by
default, or ``"aot:<personality>"`` / ``"mkl"``), holding one prepared
artifact whose bound plans are the per-``(handle, d)`` workspaces.
Address-free systems amortize their one-time compile across the stream
exactly like JIT codegen.

Throughput architecture — the paper's amortization argument only pays
off if the steady-state multiply path is hardware-limited, not lock-
and-Python-overhead-limited, so the service removes per-request
overhead the same way codegen overhead was removed:

* **striped locks** — service state is sharded: handles map to lock
  stripes (workspace table + request stats per stripe) and the private
  kernel cache is a :class:`~repro.serve.cache.ShardedKernelCache`, so
  register/evict traffic on one matrix never stalls multiply traffic on
  another;
* **every request on its caller's thread** — ``multiply`` is one call
  of the workspace's generated kernel (re-entrant: ``X`` and ``Y``
  arrive as arguments, so concurrent requests share one code page)
  plus one stats update under the handle's stripe lock; kernels long
  enough to be worth a GIL hand-off run GIL-free and overlap on as many
  cores as they have callers, and no request ever sleeps or waits on
  another;
* **persistent workspaces** — the per-``(handle, d)`` workspaces keep
  their plan — tuned ranges, the host kernel, and for ``profile`` the
  simulated address space, mapped only when ``profile`` first asks —
  across requests, so a steady-state request allocates nothing beyond
  the result buffer its caller keeps.  A workspace binds one plan and
  keeps it until it is unregistered, evicted or closed.

Two request paths, mirroring :class:`repro.core.engine.JitSpMM`:

* :meth:`SpmmService.multiply` — production path: the plan's generated
  kernel on the host CPU, bit-equal to ``spmm_reference`` (the scipy
  template where the plan has no host form — address-free systems,
  hosts that cannot run the code);
* :meth:`SpmmService.profile` — opt-in simulated path that re-executes
  the *cached* simulated-address kernel on the persistent per-handle
  address space (operand segments are zero-copy views, so a new ``X``
  is written in place and the baked addresses stay valid); that
  program and its mapping are built on the first ``profile`` /
  ``kernel`` call, through the kernel cache, and never by ``multiply``.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from repro.api.config import ExecutionConfig
from repro.api.registry import get_system
from repro.exec import get_backend
from repro.core.autotune import SplitChoice, autotune_memo_stats
from repro.core.engine import (
    check_operands,
    fast_check_operands,
    multiply_partitioned,
)
from repro.core.runner import RunResult
from repro.errors import DeadlineExceeded, ServiceClosed, ShapeError
from repro.isa.isainfo import IsaLevel
from repro.obs.metrics import Sample, get_registry, labels_key
from repro.obs.trace import span as _span
from repro.serve.cache import CacheStats, KernelCache, ShardedKernelCache
from repro.serve.stats import HandleStats, LockStats, ServiceStats, TimedLock
from repro.sparse.csr import CsrMatrix

__all__ = ["MatrixHandle", "ServiceSnapshot", "SpmmService"]

#: default retained-kernel budget: plenty for dozens of live kernels
#: (a generated SpMM kernel encodes to a few hundred bytes)
DEFAULT_CACHE_BUDGET = 1 << 20

#: default cap on live per-(handle, d) workspaces: bounds the simulated
#: memory pinned by multiply-only traffic over many shapes (each
#: workspace maps full operand copies), while staying far above any
#: realistic working set of concurrently hot shapes
DEFAULT_MAX_WORKSPACES = 64

#: default stripe/shard width for the service's locks and private
#: cache: enough that independent handles rarely collide, small enough
#: that aggregation (reports, workspace counts) stays trivial
DEFAULT_STRIPES = 8


@dataclass(frozen=True)
class MatrixHandle:
    """An opaque ticket for one registered matrix."""

    handle_id: int
    matrix: CsrMatrix = field(compare=False, repr=False)
    name: str = field(default="", compare=False)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (f"MatrixHandle(#{self.handle_id}{label}, "
                f"{self.matrix.nrows}x{self.matrix.ncols}, "
                f"nnz={self.matrix.nnz})")


@dataclass
class _Workspace:
    """Per-(handle, d) state: one bound plan + its profile lock."""

    #: the pipeline's stage-2 product: tuned split and partitions, the
    #: host kernel ``multiply`` runs, and — once ``profile``/``kernel``
    #: asked for them — the persistent simulated address space and the
    #: cached kernel bound to it
    plan: object
    #: the cached-kernel identity this workspace holds a reference on
    #: (``plan.key``); None until ``profile``/``kernel`` resolves it —
    #: ``multiply`` never does.  Set under the owning stripe lock.
    identity: object = None
    #: monotonic recency stamp (service-wide clock): reproduces the
    #: global LRU order across stripes for workspace-cap eviction
    touched: int = 0
    #: serializes simulated runs over this address space (its mapped
    #: X/Y segments are shared mutable state); fast-path requests never
    #: take it, so a long profile stalls only concurrent profiles of
    #: this same (handle, d).  Codegen has its own per-identity lock in
    #: the service.
    lock: threading.Lock = field(default_factory=threading.Lock)


class _Stripe:
    """One lock stripe: the workspaces and stats of its handles."""

    __slots__ = ("lock", "workspaces", "evictions")

    def __init__(self) -> None:
        self.lock = TimedLock()
        self.workspaces: OrderedDict[tuple[int, int], _Workspace] = (
            OrderedDict())
        self.evictions = 0


@dataclass(frozen=True)
class ServiceSnapshot:
    """One consistent point-in-time view of a service's observability.

    Everything :meth:`SpmmService.report` prints and everything the
    service exports to the metrics registry renders from one of these,
    so the human summary and the machine export can never disagree:
    per-handle stats are copied under their owning stripe locks (no
    torn ``requests`` vs ``exec_seconds`` reads under traffic), and the
    cache/lock counters are each taken with their native
    consistent-snapshot calls.
    """

    stats: ServiceStats
    cache: CacheStats
    locks: LockStats
    workspaces_live: int
    workspace_cap: int | None
    workspace_evictions: int
    autotune_memo: dict

    def render(self) -> str:
        """The service report (live Table IV) — byte-identical to what
        the pre-snapshot ``report()`` rendered from live state."""
        cap = ("unbounded" if self.workspace_cap is None
               else self.workspace_cap)
        memo = self.autotune_memo
        return "\n".join([
            self.stats.render(self.cache, self.locks),
            f"workspaces: {self.workspaces_live} live (cap {cap}), "
            f"{self.workspace_evictions} evicted",
            f"autotune memo: {memo['hits']} hits / {memo['misses']} "
            f"misses ({memo['entries']} entries, process-wide)",
        ])

    def metric_samples(self, **labels) -> list[Sample]:
        """The snapshot as registry samples (``serve_*`` series).

        ``labels`` stamp every emitted sample — the service's own
        collector passes ``service=<obs_label>``, and a gateway
        aggregating per-worker snapshots adds ``worker=<index>`` so
        the workers' series stay distinct instead of colliding on one
        name.  Caller labels and per-sample labels are merged into one
        canonically sorted label set (per-sample keys win), so label
        identity is order-independent no matter who adds what.
        """

        def sample(name, value, kind="counter", **extra):
            return Sample(name, labels_key({**labels, **extra}),
                          float(value), kind)

        stats = self.stats
        out = [
            sample("serve_requests_total", stats.requests),
            sample("serve_profiled_requests_total",
                   sum(h.profiled_requests
                       for h in stats.handles.values())),
            sample("serve_codegen_runs_total", stats.codegen_runs),
            sample("serve_codegen_seconds_total", stats.codegen_seconds),
            sample("serve_exec_seconds_total", stats.exec_seconds),
            sample("serve_codegen_overhead_ratio",
                   stats.codegen_overhead(), "gauge"),
            sample("serve_handles", len(stats.handles), "gauge"),
            sample("serve_cache_hits_total", self.cache.hits),
            sample("serve_cache_misses_total", self.cache.misses),
            sample("serve_cache_evictions_total", self.cache.evictions),
            sample("serve_cache_entries", self.cache.entries, "gauge"),
            sample("serve_cache_bytes", self.cache.bytes, "gauge"),
            sample("serve_lock_acquisitions_total", self.locks.acquisitions),
            sample("serve_lock_waits_total", self.locks.waits),
            sample("serve_lock_wait_seconds_total", self.locks.wait_seconds),
            sample("serve_workspaces_live", self.workspaces_live, "gauge"),
            sample("serve_workspace_evictions_total",
                   self.workspace_evictions),
        ]
        out.extend(
            sample("serve_backend_requests_total", count, backend=name)
            for name, count in sorted(stats.backend_traffic.items()))
        return out


def _service_collector(ref: "weakref.ref[SpmmService]", label: str):
    """A registry collector bound to one service by weak reference.

    Marks itself dead once the service is collected, so a long-lived
    process churning through services never leaks collectors.
    """

    def collect():
        service = ref()
        if service is None:
            collect.dead = True
            return ()
        return service.metric_samples()

    collect.dead = False
    collect.label = label
    return collect


#: distinguishes the metric streams of multiple services in one process
_SERVICE_IDS = itertools.count(0)


class SpmmService:
    """Serve ``Y = A @ X`` requests with cached, autotuned kernels.

    Args:
        threads: Worker threads each kernel is generated/partitioned for.
        split: ``"auto"`` (default: tune per matrix — JIT only), or a
            fixed ``"row"`` / ``"nnz"`` / ``"merge"``.
        isa: ISA level for JIT code generation (AOT personalities and
            MKL fix their own).
        timing: Model caches/pipeline on the simulated ``profile`` path
            (legacy spelling of ``backend``: sim vs counts).
        backend: Default execution backend for ``profile`` requests —
            any :func:`repro.exec.get_backend`-resolvable name
            (``"counts"``, ``"sim"``, ``"sim-ref"``, ...); ``None``
            defers to ``timing``.  ``multiply`` always serves on the
            ``"native"`` backend (the host CPU).  Per-request overrides win;
            :meth:`report` breaks traffic down per backend.
        cache: Shared kernel cache (:class:`KernelCache` or
            :class:`~repro.serve.cache.ShardedKernelCache`); when
            omitted a private :class:`ShardedKernelCache` is created
            with ``cache_budget_bytes`` spread over ``stripes`` shards.
        cache_budget_bytes: Byte budget for the private cache.
        l1 / l2: Cache-geometry overrides for the simulated ``profile``
            path (same knobs as :func:`repro.core.runner.run_jit`, used
            by the bench harness to scale caches with dataset twins).
        system: Registered system name to serve (``"jit"`` default;
            any :func:`repro.api.get_system`-resolvable name works —
            the service's workspaces are that system's bound plans).
        max_workspaces: Cap on live (handle, d) workspaces (None =
            unbounded).  Evicting a workspace unmaps its host kernel
            and releases its mapped operand copies, but not the cached
            kernel ``profile`` simulates: a shape that comes back
            regenerates the former and re-maps for the latter.
            Enforced strictly
            over the service-wide count with least-recently-used
            eviction across stripes (monotonic touch stamps order
            recency globally); the just-touched workspace is never its
            own victim.
        max_batch / flush_us: Inert.  They sized the request-coalescing
            protocol this service no longer has (every ``multiply``
            runs alone on its caller's thread); still accepted, and
            range-checked as before, only because the frozen
            ``perfbench/workloads.py`` passes them.  Stored nowhere.
        stripes: Lock stripes for service state, and the shard count of
            the private kernel cache.
        opt_level: AOT optimization level for the served system
            (ignored by systems without an IR pass pipeline); at
            ``opt_level=3`` an AOT system searches pass configs per
            matrix, on the first request for each (handle, d).
        search_budget: Candidate budget for one ``opt_level=3`` search.
        obs_label: The ``service=`` label on this service's exported
            metrics (:mod:`repro.obs`); defaults to a process-unique
            ``spmmN``.

    Resource model: each live (handle, d) pair pins a workspace — one
    page of executable memory for its host kernel (unmapped when the
    workspace goes and its last in-flight request returns) and, once
    profiled, mapped operand copies sized by the matrix and width —
    bounded by ``max_workspaces``; the kernel cache's byte budget
    bounds the simulated-address programs ``profile``/``kernel``
    resolve.  ``multiply`` pays exactly one codegen per (handle, d) on
    the request path — for the code it executes.
    """

    def __init__(
        self,
        threads: int = 8,
        split: str = "auto",
        isa: IsaLevel | str = IsaLevel.AVX512,
        timing: bool = False,
        backend: str | None = None,
        cache: KernelCache | None = None,
        cache_budget_bytes: int = DEFAULT_CACHE_BUDGET,
        l1=None,
        l2=None,
        system: str = "jit",
        max_workspaces: int | None = DEFAULT_MAX_WORKSPACES,
        max_batch: int = 1,
        flush_us: float = 0.0,
        stripes: int = DEFAULT_STRIPES,
        opt_level: int = 0,
        search_budget: int = 16,
        obs_label: str | None = None,
    ) -> None:
        if stripes <= 0:
            raise ShapeError(f"stripes must be positive, got {stripes}")
        if max_batch < 1:
            raise ShapeError(
                f"max_batch must be at least 1, got {max_batch}")
        if flush_us < 0:
            raise ShapeError(
                f"flush_us must be non-negative, got {flush_us}")
        self._private_cache = cache is None
        self.cache = cache if cache is not None else ShardedKernelCache(
            budget_bytes=cache_budget_bytes, shards=stripes)
        self._system = get_system(system)
        if split == "auto" and not self._system.supports_autotune:
            raise ShapeError(
                f"split='auto' autotunes via the JIT cost model; system "
                f"{system!r} serves fixed splits (row/nnz/merge)")
        # validation (thread count, split name, backend name, ...)
        # happens here, once, for the contract every entry point shares
        self._config = ExecutionConfig(
            split=split, threads=threads, isa=isa, timing=timing,
            backend=backend, l1=l1, l2=l2, cache=self.cache,
            opt_level=opt_level, search_budget=search_budget,
        )
        self._artifact = self._system.prepare(self._config)
        if max_workspaces is not None and max_workspaces <= 0:
            raise ShapeError(
                f"max_workspaces must be positive or None, got "
                f"{max_workspaces}")
        self.system = self._system.name
        self.threads = threads
        self.split = split
        self.isa = self._config.isa
        self.timing = timing
        self.backend = self._config.backend
        self.l1 = l1
        self.l2 = l2
        self.max_workspaces = max_workspaces
        self.stats = ServiceStats()
        self._handles: dict[int, MatrixHandle] = {}
        self._next_id = 0
        # service-wide recency clock for cross-stripe LRU eviction
        # (itertools.count.__next__ is GIL-atomic)
        self._ws_clock = itertools.count(1)
        # handle -> stripe: workspace table + stats mutation lock per
        # stripe, so traffic on one matrix never serializes behind
        # traffic on another
        self._stripes = [_Stripe() for _ in range(stripes)]
        self._registry_lock = TimedLock()
        # kernel-identity bookkeeping, shared across stripes (twin
        # handles on different stripes legitimately share one kernel):
        # codegen serialization locks plus a refcount of the live
        # workspaces carrying each identity — cache insert/discard
        # decisions serialize on this guard
        self._keylock_guard = TimedLock()
        self._keylocks: dict = {}
        self._key_refs: dict = {}
        # observability: the metrics collector holds only a weak
        # reference, so a dropped service is pruned from the registry,
        # not pinned by it
        self.obs_label = obs_label or f"spmm{next(_SERVICE_IDS)}"
        self._closed = False
        self._collector = _service_collector(weakref.ref(self),
                                             self.obs_label)
        get_registry().register_collector(self._collector)

    # ------------------------------------------------------------------
    # Sharded-state accessors (also the tests' introspection surface)
    # ------------------------------------------------------------------
    def _stripe(self, handle_id: int) -> _Stripe:
        return self._stripes[handle_id % len(self._stripes)]

    def _live_workspaces(self) -> int:
        # len() per stripe is GIL-atomic; the sum is a consistent-enough
        # snapshot for eviction decisions and reporting
        return sum(len(stripe.workspaces) for stripe in self._stripes)

    @property
    def _workspaces(self) -> dict:
        """Merged (handle_id, d) -> workspace snapshot across stripes."""
        merged: dict = {}
        for stripe in self._stripes:
            with stripe.lock:
                merged.update(stripe.workspaces)
        return merged

    @property
    def _workspace_evictions(self) -> int:
        return sum(stripe.evictions for stripe in self._stripes)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, matrix: CsrMatrix, name: str = "") -> MatrixHandle:
        """Register a matrix for serving; returns its handle.

        Registration is cheap — autotuning and code generation are
        deferred to the first request for each dense width ``d``.  The
        matrix side of the operand contract is validated here, once
        (:class:`CsrMatrix` self-validates on construction and is
        immutable), so per-request validation reduces to a cheap assert
        on ``x``.
        """
        if self._closed:
            raise ServiceClosed("service is closed; no further requests")
        with _span("serve.register", name=name or matrix.name,
                   nnz=matrix.nnz) as sp:
            with self._registry_lock:
                handle = MatrixHandle(self._next_id, matrix,
                                      name or matrix.name)
                self._handles[handle.handle_id] = handle
                self._next_id += 1
                self.stats.handle(handle.handle_id, handle.name)
            sp.annotate(handle=handle.handle_id)
        return handle

    def unregister(self, handle: MatrixHandle) -> None:
        """Release a handle: its workspaces and cached kernels are
        dropped, so a long-lived service does not pin operand buffers
        for matrices it no longer serves.

        The handle's accumulated :class:`HandleStats` are kept (the
        stream history stays in :meth:`report`).  Requests already in
        flight complete against their own references; new requests for
        the handle raise :class:`~repro.errors.ShapeError`.  Cached
        kernels are dropped only from a service-private cache, and only
        when no surviving workspace shares the kernel identity (same-
        shaped matrices legitimately share one cached kernel); an
        externally supplied cache is never mutated here.
        """
        self._validate_handle(handle)
        with _span("serve.unregister", handle=handle.handle_id):
            with self._registry_lock:
                self._handles.pop(handle.handle_id, None)
            stripe = self._stripe(handle.handle_id)
            with stripe.lock:
                dropped = [stripe.workspaces.pop(key)
                           for key in list(stripe.workspaces)
                           if key[0] == handle.handle_id]
            for ws in dropped:
                self._release_identity(ws.identity, drop_kernel=True)

    def handle_stats(self, handle: MatrixHandle) -> HandleStats:
        """The request statistics accumulated for ``handle``."""
        self._validate_handle(handle)
        with self._stripe(handle.handle_id).lock:
            return self.stats.handle(handle.handle_id, handle.name)

    def _validate_handle(self, handle: MatrixHandle) -> None:
        if self._closed:
            raise ServiceClosed("service is closed; no further requests")
        # lock-free read: dict.get is atomic under the GIL, and an
        # unregister racing past it is indistinguishable from one that
        # completed just after this request was admitted
        known = self._handles.get(handle.handle_id)
        if known is None or known.matrix is not handle.matrix:
            raise ShapeError(f"unknown handle {handle!r}; "
                             "register the matrix with this service first")

    # ------------------------------------------------------------------
    # Kernel identity bookkeeping (refcounted across stripes)
    # ------------------------------------------------------------------
    def _release_identity(self, key, drop_kernel: bool = False) -> None:
        """Drop one reference to a kernel identity (no-op for ``None``:
        a workspace only ``multiply`` ever touched holds none).

        Every removed workspace releases its identity here.
        When the last workspace carrying an identity goes, its codegen
        lock is dropped (so heavy shape churn cannot grow ``_keylocks``
        without bound) and — ``drop_kernel``: on unregister/close of a
        service-private cache — so is the cached kernel.  Eviction
        keeps the cached kernel warm: a re-profiled shape pays
        re-mapping, never re-codegen (its host kernel is the plan's and
        goes with it).
        """
        if key is None:
            return
        with self._keylock_guard:
            refs = self._key_refs.get(key, 0) - 1
            if refs > 0:
                self._key_refs[key] = refs
                return
            self._key_refs.pop(key, None)
            self._keylocks.pop(key, None)
            if drop_kernel and self._private_cache:
                self.cache.discard(key)

    # ------------------------------------------------------------------
    # Workspace resolution
    # ------------------------------------------------------------------
    def _make_workspace(self, handle: MatrixHandle, d: int) -> _Workspace:
        x0 = np.zeros((handle.matrix.ncols, d), dtype=np.float32)
        # stage 2 only: autotune + partitioning; nothing is mapped or
        # generated until a request needs it
        plan = self._artifact.bind(handle.matrix, x0, ensure_kernel=False,
                                   name_prefix="serve")
        return _Workspace(plan=plan)

    def _workspace(self, handle: MatrixHandle,
                   d: int) -> tuple[_Workspace, bool]:
        """Get or create the tuned workspace for (handle, d) — no codegen.

        Returns ``(workspace, created)``; created marks the first
        request for this (handle, d), which paid autotune.
        """
        self._validate_handle(handle)
        key = (handle.handle_id, d)
        stripe = self._stripe(handle.handle_id)
        with stripe.lock:
            ws = stripe.workspaces.get(key)
            if ws is not None:
                stripe.workspaces.move_to_end(key)
                ws.touched = next(self._ws_clock)
                return ws, False
        # autotune happens outside the stripe lock; a concurrent
        # duplicate loses the setdefault race and is simply dropped
        with _span("serve.bind", handle=handle.handle_id, d=d):
            built = self._make_workspace(handle, d)
        with stripe.lock:
            # re-check liveness: an unregister() racing with us must
            # not be followed by an insertion it can never sweep
            self._validate_handle(handle)
            ws = stripe.workspaces.setdefault(key, built)
            stripe.workspaces.move_to_end(key)
            ws.touched = next(self._ws_clock)
        if ws is built:
            for victim in self._enforce_workspace_cap(protect=ws):
                self._release_identity(victim.identity)
        return ws, ws is built

    def _enforce_workspace_cap(self,
                               protect: _Workspace) -> list[_Workspace]:
        """Evict least-recently-touched workspaces service-wide until
        the live count is back under the cap.

        Locks one stripe at a time (never nested), so traffic on other
        stripes proceeds during enforcement; the global touch stamps
        reproduce the pre-sharding single-LRU eviction order.
        ``protect`` — the workspace whose insertion triggered the pass
        — is never a victim, so an insertion cannot evict itself.
        In-flight requests holding an evicted workspace complete
        against their reference (which is also what keeps its host
        kernel mapped until they return), and the kernel cache is
        untouched.
        """
        if self.max_workspaces is None:
            return []
        victims: list[_Workspace] = []
        stalls = 0
        while (self._live_workspaces() > self.max_workspaces
               and stalls < 2 * len(self._stripes)):
            best = None
            for stripe in self._stripes:
                with stripe.lock:
                    # dict order is per-stripe LRU (touches move_to_end)
                    for key, ws in stripe.workspaces.items():
                        if ws is protect:
                            continue
                        if best is None or ws.touched < best[0]:
                            best = (ws.touched, stripe, key, ws)
                        break
            if best is None:            # nothing evictable remains
                break
            stamp, stripe, key, ws = best
            with stripe.lock:
                # re-check under the owning lock: the candidate may have
                # been touched, evicted, or swept since the scan
                current = stripe.workspaces.get(key)
                if current is ws and ws.touched == stamp:
                    stripe.workspaces.pop(key)
                    stripe.evictions += 1
                    victims.append(ws)
                    stalls = 0
                else:
                    stalls += 1
        return victims

    def _resolve(self, handle: MatrixHandle, d: int):
        """Workspace + plan + cached kernel for (handle, d): what
        ``profile`` simulates and ``kernel`` returns — the program bound
        to the workspace's simulated address space, which this call
        maps on first use.  ``multiply`` never comes here.

        Returns ``(workspace, plan, kernel, codegen_seconds, cold,
        generated)`` — generated is True iff kernel construction ran in
        this call (the kernel was not served from the cache); cold is
        True when the request paid one-time setup: the first request for
        this (handle, d) (autotune, even if the kernel itself was
        already cached under a shared key) or a kernel construction run
        (first use, or regeneration after eviction).
        """
        ws, created = self._workspace(handle, d)
        plan = ws.plan
        if ws.identity is None:
            self._retain_identity(handle, d, ws)
        system = self._system
        # lock-free warm path: a long profile() holding ws.lock must not
        # stall concurrent numpy-path requests (the cache locks itself,
        # per shard)
        kernel = self.cache.get(plan.key)
        if kernel is not None:
            plan.attach_kernel(kernel, cache_hit=True, codegen_seconds=0.0)
            return ws, plan, kernel, 0.0, created, False
        # codegen serialization is keyed on kernel *identity*, not on
        # the workspace: same-shaped handles share one kernel, and two
        # concurrent cold requests must not both generate it
        with self._keylock_guard:
            keylock = self._keylocks.setdefault(plan.key, threading.Lock())
        with _span("serve.codegen", handle=handle.handle_id, d=d,
                   system=system.name) as sp, keylock:
            # uncounted re-check: the probe above already recorded the
            # miss; a hit here means a peer generated it meanwhile
            kernel = self.cache.peek(plan.key)
            if kernel is not None:
                plan.attach_kernel(kernel, cache_hit=True,
                                   codegen_seconds=0.0)
                sp.annotate(generated=False)
                return ws, plan, kernel, 0.0, created, False
            kernel, seconds = system.build_kernel(plan)
            sp.annotate(generated=True)
            with self._keylock_guard:
                # don't re-insert behind a racing unregister: cache the
                # kernel only while some workspace still carries its
                # identity (this request is still served either way);
                # the refcount check and the put share the guard, so an
                # unregister cannot interleave between them
                if self._key_refs.get(plan.key):
                    self.cache.put(plan.key, kernel,
                                   system.kernel_nbytes(kernel))
        plan.attach_kernel(kernel, cache_hit=False, codegen_seconds=seconds)
        self._record_codegen(handle, seconds)
        return ws, plan, kernel, seconds, True, True

    def _retain_identity(self, handle: MatrixHandle, d: int,
                         ws: _Workspace) -> None:
        """Take the workspace's reference on its plan's cached-kernel
        identity (resolving it maps the simulated operands, outside any
        lock).  Only a workspace that is still live holds one: removal
        reads ``ws.identity`` under the same stripe lock, so a reference
        is never taken behind a sweep that could no longer release it."""
        identity = ws.plan.key
        stripe = self._stripe(handle.handle_id)
        with stripe.lock:
            if (ws.identity is None
                    and stripe.workspaces.get(
                        (handle.handle_id, d)) is ws):
                with self._keylock_guard:
                    self._key_refs[identity] = (
                        self._key_refs.get(identity, 0) + 1)
                ws.identity = identity

    def kernel(self, handle: MatrixHandle, d: int):
        """The cached kernel ``profile`` simulates for (handle, d): the
        system's program bound to the workspace's simulated address
        space (``multiply`` runs the plan's host kernel instead, see
        :meth:`repro.api.BoundPlan.host_kernel`).

        Usable as a prefetch: generation triggered here is charged to
        the handle's codegen stats like any cold request, so later
        ``profile`` calls are warm.
        """
        _, _, kernel, _, _, _ = self._resolve(handle, d)
        return kernel

    def choice(self, handle: MatrixHandle, d: int) -> SplitChoice | None:
        """The autotuner's verdict for (handle, d); None for fixed splits.

        Tunes if this (handle, d) is new, but never maps operands or
        generates code — inspecting the plan costs no codegen.
        """
        ws, _ = self._workspace(handle, d)
        return ws.plan.choice

    def _record_codegen(self, handle: MatrixHandle, seconds: float) -> None:
        with self._stripe(handle.handle_id).lock:
            self.stats.handle(handle.handle_id, handle.name).record_codegen(
                seconds)

    # ------------------------------------------------------------------
    # Request paths
    # ------------------------------------------------------------------
    @staticmethod
    def _check_deadline(deadline: float | None, stage: str) -> None:
        """Raise :class:`DeadlineExceeded` if ``deadline`` has passed.

        ``deadline`` is an absolute :func:`time.monotonic` timestamp
        (``None`` disables the check); ``stage`` names where the budget
        ran out, so the typed error says *what* the request never got
        to do.
        """
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceeded(
                f"deadline expired before {stage}")

    def multiply(self, handle: MatrixHandle, x: np.ndarray,
                 deadline: float | None = None) -> np.ndarray:
        """Serve one ``Y = A @ X`` request on the host CPU.

        The first request for a given ``x.shape[1]`` autotunes and
        generates the plan's host kernel (cold) — the one program this
        (handle, d) pays for on the request path, and the code every
        later request executes; nothing is mapped into the simulated
        address space.  Plans without a host form (address-free
        systems, hosts that cannot run the code) answer with the scipy
        template instead.  Well-formed operands (contiguous float32 of
        the registered height) pass a hoisted cheap assert instead of
        full validation.  The request executes
        on the calling thread, none waits on another (a kernel long
        enough to be worth a hand-off runs GIL-free,
        :data:`repro.exec.host.GIL_RELEASE_NS`), and the result is a
        fresh C-contiguous array the caller owns.

        ``deadline`` is an absolute :func:`time.monotonic` budget: the
        request raises :class:`repro.errors.DeadlineExceeded` rather
        than start bind/codegen (or execution, if resolution consumed
        the budget) past it.
        """
        x = fast_check_operands(handle.matrix, x)
        d = int(x.shape[1])
        with _span("serve.multiply", handle=handle.handle_id, d=d) as sp:
            t0 = time.perf_counter()
            self._check_deadline(deadline, "bind/codegen")
            ws, cold = self._workspace(handle, d)
            # a lock-free read on every request but the one that
            # generates the plan's host kernel, which is charged for it
            kernel, generated = ws.plan.resolve_host_kernel()
            if generated:
                self._record_codegen(handle, kernel.codegen_seconds)
                cold = True
            sp.annotate(cold=cold)
            self._check_deadline(deadline, "execution")
            t1 = time.perf_counter()
            if kernel is None:
                y = multiply_partitioned(handle.matrix, x, ws.plan.ranges)
            else:
                y = kernel(x)
            t2 = time.perf_counter()
            with self._stripe(handle.handle_id).lock:
                self.stats.handle(handle.handle_id, handle.name).observe(
                    t2 - t0, cold, exec_seconds=t2 - t1, backend="native")
        return y

    # ------------------------------------------------------------------
    def profile(self, handle: MatrixHandle, x: np.ndarray,
                timing: bool | None = None,
                backend: str | None = None,
                deadline: float | None = None) -> RunResult:
        """Serve one request on the simulated machine, with counters.

        Re-executes the cached kernel in the handle's persistent address
        space: the new ``X`` is written into the mapped segment the
        kernel reads, ``Y`` and the dispatch state are reset, and the
        simulated threads run the identical instruction stream.

        ``backend`` picks the simulator backend for this request
        (``"counts"`` / ``"sim"`` / ``"sim-ref"``); ``timing`` is the
        legacy boolean spelling.  Explicit per-request arguments beat
        the service defaults.
        """
        x = check_operands(handle.matrix, x)
        d = int(x.shape[1])
        with _span("serve.profile", handle=handle.handle_id, d=d) as sp:
            t0 = time.perf_counter()
            self._check_deadline(deadline, "bind/codegen")
            ws, plan, _, codegen_seconds, cold, generated = self._resolve(
                handle, d)
            self._check_deadline(deadline, "simulated execution")
            if backend is None and timing is None:
                backend = self._config.effective_backend
            resolved = plan.resolve_backend(timing=timing,
                                            backend=backend)
            sp.annotate(backend=resolved, cold=cold)
            if not get_backend(resolved).provides_counters:
                raise ShapeError(
                    f"profile() returns perf counters, which backend "
                    f"{resolved!r} does not produce; use multiply() for "
                    f"the plain product or a simulator backend "
                    f"(counts/sim/sim-ref)")
            # the workspace's mapped segments are shared mutable state:
            # serialize concurrent profiles of the same (handle, d)
            with ws.lock:
                # exec clock starts inside the lock: wait time behind a
                # contended workspace must not inflate exec_seconds
                t1 = time.perf_counter()
                result = plan.refresh(x).execute(backend=resolved)
                y = result.y.copy()
            t2 = time.perf_counter()
            with self._stripe(handle.handle_id).lock:
                self.stats.handle(handle.handle_id, handle.name).observe(
                    t2 - t0, cold, exec_seconds=t2 - t1, profiled=True,
                    backend=resolved)
        return replace(
            result, y=y, codegen_seconds=codegen_seconds,
            system=f"{result.system}-serve",
            # cache_hit mirrors the one-call entry points: True iff the
            # kernel was served from the cache (cold can also mean
            # first-use setup of a workspace whose kernel a same-shaped
            # handle already built)
            cache_hit=not generated,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the service down cleanly (idempotent).

        New requests are refused with
        :class:`~repro.errors.ServiceClosed`; a request already past
        admission completes against the references it holds (no
        request ever waits on another, so there is nothing to drain);
        every workspace is retired — releasing its mapped operand
        copies and, for a service-private cache, its cached kernels —
        and the metrics collector deregisters so the registry stops
        exporting this service's series.  Accumulated
        :class:`HandleStats` survive: :meth:`report` still renders the
        stream history after close.

        Needed wherever services have a bounded life inside a long
        process — a gateway worker shutting down must not leak its
        registry collector or pin its operand arenas until gc happens
        to run.
        """
        if self._closed:
            return
        self._closed = True
        for stripe in self._stripes:
            with stripe.lock:
                dropped = list(stripe.workspaces.values())
                stripe.workspaces.clear()
            for ws in dropped:
                self._release_identity(ws.identity, drop_kernel=True)
        with self._registry_lock:
            self._handles.clear()
        self._collector.dead = True
        get_registry().unregister_collector(self._collector)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "SpmmService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def lock_stats(self) -> LockStats:
        """Aggregated contention counters over every service lock.

        Covers the registry lock, the kernel-identity guard and every
        stripe lock.
        """
        total = self._registry_lock.stats() + self._keylock_guard.stats()
        for stripe in self._stripes:
            total = total + stripe.lock.stats()
        return total

    def stats_snapshot(self) -> ServiceStats:
        """An independent copy of every handle's stats.

        Each handle's copy is taken under its owning stripe lock, so
        the fields *within* a handle are mutually consistent even while
        requests are completing — ``report()`` during a multiply storm
        never shows a request counted whose latency is missing.
        """
        copies: dict[int, HandleStats] = {}
        width = len(self._stripes)
        for index, stripe in enumerate(self._stripes):
            with stripe.lock:
                # list(...) first: a concurrent register() adds keys
                # under the registry lock, not this stripe's lock
                for handle_id, hs in list(self.stats.handles.items()):
                    if handle_id % width == index:
                        copies[handle_id] = hs.snapshot()
        return ServiceStats(handles=copies)

    def snapshot(self) -> ServiceSnapshot:
        """One consistent observability snapshot of the whole service."""
        return ServiceSnapshot(
            stats=self.stats_snapshot(),
            cache=self.cache.stats(),
            locks=self.lock_stats(),
            workspaces_live=self._live_workspaces(),
            workspace_cap=self.max_workspaces,
            workspace_evictions=self._workspace_evictions,
            autotune_memo=autotune_memo_stats(),
        )

    def metric_samples(self) -> list[Sample]:
        """This service's stats as registry samples (the collector
        registered at construction calls this on every registry
        snapshot)."""
        return self.snapshot().metric_samples(service=self.obs_label)

    def report(self) -> str:
        """Human-readable service-wide stats (live Table IV).

        Renders one :meth:`snapshot`, so every line describes the same
        instant (summary fields are byte-compatible with the historical
        live-state report)."""
        return self.snapshot().render()

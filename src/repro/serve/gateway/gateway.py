"""The serving gateway: asyncio front end over a worker-process pool.

:class:`Gateway` is the network face of :mod:`repro.serve`.  It owns

* one asyncio TCP server (on a background loop thread — the public API
  stays synchronous) speaking the length-prefixed binary protocol of
  :mod:`repro.serve.gateway.protocol`;
* a pool of worker *processes*, each running a private
  :class:`~repro.serve.SpmmService` (its own sharded kernel cache and
  workspaces).  What the process boundary buys is containment:
  ``multiply`` runs generated machine code, and a fault there kills
  one worker — a typed :class:`~repro.errors.WorkerCrashed` and a
  respawn — rather than the gateway;
* one shared-memory slot ring (:class:`~repro.serve.gateway.shm.ShmRing`)
  that operands and results travel through — the hot path never pickles
  a matrix: the gateway copies request columns from the socket buffer
  into a slot, the worker maps a zero-copy view, computes, writes the
  result back in place, and the gateway serves the reply bytes straight
  out of the slot.

The event loop reads the worker pipes itself (``loop.add_reader``): no
reader thread, no cross-thread hand-off per reply.

Admission control is strictly bounded: a gateway-wide ``max_inflight``
cap, optional per-tenant quotas, and slot exhaustion each reject with a
typed :class:`~repro.errors.GatewayOverloaded` (carrying a ``reason``)
instead of queueing unboundedly.  Worker death is detected by pipe EOF;
the dead process is joined *before* any of its in-flight slots are
released (a half-written slot is never recycled), its requests fail
with :class:`~repro.errors.WorkerCrashed`, and a replacement is spawned
and re-fed every registration and the accumulated autotune memo.

Resilience (on top of crash recovery): request deadlines ride the wire
header as a relative budget, are anchored to the monotonic clock at
header arrival, checked at admission (typed
:class:`~repro.errors.DeadlineExceeded` before any work), and shipped
to the worker as an absolute stamp so queue wait decrements the budget
for free.  A watchdog thread tracks each worker's oldest in-flight
dispatch; past ``hang_threshold_ms`` the worker is declared hung — its
requests fail fast with :class:`~repro.errors.WorkerHung`, the process
is killed and respawned through the crash path.  A per-worker-slot
circuit breaker (closed → open → half-open; state survives respawns)
stops routing to repeat offenders; all live breakers open rejects with
``GatewayOverloaded(reason="breaker")``.  Every failure mode is
reproducible on demand through :meth:`Gateway.set_fault_plan`
(:mod:`repro.faults`).

Registration replicates to all workers: the CSR arrays are written once
into a dedicated shared-memory segment, every worker copies them out
(fingerprint-verified) and registers under the gateway-assigned handle
id, and the segment is unlinked.  The :func:`~repro.core.autotune`
memo is fleet-shared through the gateway: any worker's fresh verdicts
ride back on its replies and are broadcast to the siblings, so each
kernel identity is tuned once per fleet, not once per process.

Observability: ``gateway.admit`` / ``gateway.dispatch`` /
``gateway.reply`` spans carry the gateway-assigned request id (the same
id the worker's ``gateway.worker.multiply`` span annotates), and
``gateway_*`` metrics land in the process registry.  The ``STATS`` op
renders Prometheus text combining the gateway's own series with every
worker's service snapshot, each stamped with a distinct ``worker``
label.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import threading
import time
from multiprocessing import get_context, shared_memory

from repro import errors as _errors
from repro import faults
from repro.api.config import ExecutionConfig
from repro.errors import (DeadlineExceeded, FrameTooLarge, GatewayError,
                          GatewayOverloaded, ProtocolError, ReproError,
                          ShapeError, WorkerCrashed, WorkerHung)
from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsSnapshot, get_registry
from repro.obs.trace import span as _span
from repro.serve.gateway import protocol as proto
from repro.serve.gateway.shm import DEFAULT_SLOT_BYTES, ShmRing
from repro.serve.gateway.worker import worker_main
from repro.sparse.csr import CsrMatrix

__all__ = ["Gateway"]

_GATEWAY_IDS = itertools.count()

#: seconds a fresh worker has to report ready
_SPAWN_TIMEOUT = 120.0

#: the worker-pipe message kind of each request op
_WORKER_KINDS = {"multiply": "mul", "profile": "prof"}


class _WorkerHandle:
    """Gateway-side state for one worker process."""

    __slots__ = ("index", "process", "conn", "pending", "alive", "seq",
                 "pid", "started")

    def __init__(self, index: int, process, conn, pid: int) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.pid = pid
        self.pending: dict[int, asyncio.Future] = {}
        #: msg_id -> dispatch time.monotonic(); the watchdog's view of
        #: this worker's in-flight age (loop thread only)
        self.started: dict[int, float] = {}
        self.alive = True
        self.seq = 0


class _Breaker:
    """One worker slot's circuit breaker: closed → open → half-open.

    Keyed by worker *index*, not process — state survives respawns, so
    a slot whose fresh processes keep hanging stays open instead of
    earning a clean slate per corpse.  All transitions happen on the
    gateway's loop thread (picks, replies, death/hang handling), so no
    lock is needed.

    * CLOSED: routing normally; ``threshold`` consecutive hang/crash
      failures open it.
    * OPEN: no requests routed for ``cooldown`` seconds.
    * HALF_OPEN: exactly one in-flight probe request at a time; a reply
      closes the breaker, another failure re-opens it.

    Any worker reply — ok *or* typed error — counts as success here:
    the breaker tracks process liveness, not request outcomes.
    """

    CLOSED, OPEN, HALF_OPEN = 0, 1, 2

    __slots__ = ("threshold", "cooldown", "state", "failures",
                 "opened_at", "probing")

    def __init__(self, threshold: int, cooldown: float) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.probing = False

    def allow(self, now: float) -> bool:
        """May a request route to this worker right now?"""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if now - self.opened_at < self.cooldown:
                return False
            self.state = self.HALF_OPEN
            self.probing = False
        if self.probing:
            return False
        self.probing = True
        return True

    def record_success(self) -> None:
        self.state = self.CLOSED
        self.failures = 0
        self.probing = False

    def record_failure(self, now: float) -> None:
        self.probing = False
        if (self.state == self.HALF_OPEN
                or self.failures + 1 >= self.threshold):
            self.state = self.OPEN
            self.opened_at = now
            self.failures = 0
        else:
            self.failures += 1


class Gateway:
    """Network-facing SpMM serving gateway over a worker-process pool.

    Args:
        config: An :class:`~repro.api.ExecutionConfig`; ``workers``,
            ``max_inflight`` and ``tenant_quota`` shape the gateway,
            the execution knobs (threads/split/isa/backend/opt_level)
            shape each worker's service.  ``None`` serves the native
            backend with autotuned splits on one worker.
        host / port: Bind address; port 0 (default) picks a free port
            (``gateway.port`` after :meth:`start`).
        system: Registry system every worker serves (``"jit"`` default).
        slot_bytes: Byte capacity of one shm operand slot — bounds the
            largest operand *and* result a request may carry.
        slots: Slot count of the ring; ``None`` sizes it to
            ``max_inflight`` (clamped to [4, 64]).  Fewer slots than
            ``max_inflight`` makes slot exhaustion a real backpressure
            signal.
        max_frame: Reject request frames above this many payload bytes
            *before* buffering them.
        mp_start: Multiprocessing start method for workers (``"spawn"``
            default — robust; ``"fork"`` starts much faster where safe,
            e.g. single-threaded test drivers).
        obs_label: ``gateway=`` label on exported metrics.

    Lifecycle: :meth:`start` → traffic → :meth:`close`; also a context
    manager.  All public methods are thread-safe and synchronous — the
    asyncio machinery is an implementation detail on a daemon thread.
    """

    def __init__(self, config: ExecutionConfig | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 system: str = "jit",
                 slot_bytes: int = DEFAULT_SLOT_BYTES,
                 slots: int | None = None,
                 max_frame: int = proto.DEFAULT_MAX_FRAME,
                 mp_start: str = "spawn",
                 breaker_cooldown: float = 1.0,
                 obs_label: str | None = None) -> None:
        if config is None:
            config = ExecutionConfig(split="auto", backend="native")
        self.config = config
        self.workers = config.workers
        self.max_inflight = config.max_inflight
        self.tenant_quota = config.tenant_quota
        #: seconds before a worker's oldest in-flight request means hung
        self.hang_threshold = config.hang_threshold_ms / 1e3
        #: seconds an open breaker waits before admitting a probe
        self.breaker_cooldown = breaker_cooldown
        self.host = host
        self.port = port
        self.system = system
        self.max_frame = max_frame
        self.slot_bytes = slot_bytes
        self.slots = (slots if slots is not None
                      else max(4, min(64, config.max_inflight)))
        self.obs_label = obs_label or f"gateway{next(_GATEWAY_IDS)}"
        self._ctx = get_context(mp_start)
        self._service_kwargs = {
            "threads": config.threads,
            "split": config.split,
            "isa": config.isa,
            "backend": config.effective_backend,
            "l1": config.l1,
            "l2": config.l2,
            "system": system,
            "opt_level": config.opt_level,
            "search_budget": config.search_budget,
        }
        self._ring: ShmRing | None = None
        self._workers: list[_WorkerHandle] = []
        self._rr = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None
        self._conns: set[asyncio.Task] = set()
        self._started = False
        self._closing = False
        # admission state — mutated only on the loop thread
        self._inflight = 0
        self._tenants: dict[str, int] = {}
        #: wakes close()'s drain wait whenever in-flight hits zero
        self._drain = threading.Condition()
        # supervision: per-slot breakers + the watchdog thread
        self._breakers = [_Breaker(config.breaker_threshold,
                                   breaker_cooldown)
                          for _ in range(self.workers)]
        self._watchdog: threading.Thread | None = None
        self._watchdog_stop = threading.Event()
        self._fault_plan: faults.FaultPlan | None = None
        # registration / memo state — shared with respawn threads
        self._state_lock = threading.Lock()
        self._matrices: dict[int, tuple[CsrMatrix, str, str]] = {}
        self._next_gid = itertools.count(1)
        self._memo: dict = {}
        self._next_request_id = itertools.count(1)
        #: set when a wire SHUTDOWN op arrives; ``serve_forever`` waits
        #: on it (the gateway itself keeps serving until ``close``)
        self.shutdown_requested = threading.Event()
        reg = get_registry()
        lbl = {"gateway": self.obs_label}
        self._c_requests = {
            op: reg.counter("gateway_requests_total", op=name, **lbl)
            for op, name in proto.OP_NAMES.items() if op != proto.OP_REPLY}
        self._c_rejects = {
            reason: reg.counter("gateway_rejections_total", reason=reason,
                                **lbl)
            for reason in ("inflight", "tenant", "shm", "frame", "protocol",
                           "breaker")}
        self._g_inflight = reg.gauge("gateway_inflight", **lbl)
        self._g_handles = reg.gauge("gateway_registered_handles", **lbl)
        self._g_shm = reg.gauge("gateway_shm_slots_in_use", **lbl)
        self._c_crashes = reg.counter("gateway_worker_crashes_total", **lbl)
        self._c_hangs = reg.counter("gateway_worker_hangs_total", **lbl)
        self._c_deadline = reg.counter("gateway_deadline_exceeded_total",
                                       **lbl)
        self._g_breaker = [
            reg.gauge("gateway_breaker_state", worker=str(i), **lbl)
            for i in range(self.workers)]
        self._h_latency = {
            name: reg.histogram("gateway_request_seconds", op=name, **lbl)
            for name in ("multiply", "profile")}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Gateway":
        """Spawn workers, bind the server; returns ``self`` when live."""
        if self._started:
            raise GatewayError("gateway already started")
        self._started = True
        self._ring = ShmRing(self.slot_bytes, self.slots)
        try:
            self._workers = [self._spawn_worker(i)
                             for i in range(self.workers)]
        except BaseException:
            self._emergency_teardown()
            raise
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, daemon=True,
            name=f"{self.obs_label}-loop")
        self._loop_thread.start()
        try:
            future = asyncio.run_coroutine_threadsafe(
                self._start_server(), self._loop)
            self.host, self.port = future.result(timeout=30.0)
        except BaseException:
            self._emergency_teardown()
            raise
        self._watchdog = threading.Thread(
            target=self._watchdog_main, daemon=True,
            name=f"{self.obs_label}-watchdog")
        self._watchdog.start()
        return self

    async def _start_server(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port)
        for wh in self._workers:
            self._watch(wh)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    def close(self, drain_seconds: float = 5.0) -> None:
        """Drain in-flight traffic, stop workers, free the shm ring.

        The drain parks on a condition variable that :meth:`_release`
        signals when the last in-flight request completes — no
        busy-wait; the thread sleeps until drained or the budget runs
        out, whichever comes first.
        """
        if not self._started or self._closing:
            return
        self._closing = True
        self._watchdog_stop.set()
        deadline = time.perf_counter() + drain_seconds
        with self._drain:
            while self._inflight:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._drain.wait(remaining)
        if self._watchdog is not None:
            self._watchdog.join(timeout=5.0)
        if self._server is not None:
            asyncio.run_coroutine_threadsafe(
                self._stop_server(), self._loop).result(timeout=10.0)
        for wh in self._workers:
            wh.alive = False
            try:
                wh.conn.send(("shutdown",))
            except (OSError, ValueError):
                pass
        for wh in self._workers:
            wh.process.join(timeout=10.0)
            if wh.process.is_alive():          # pragma: no cover - stuck
                wh.process.terminate()
                wh.process.join(timeout=5.0)
            try:
                wh.conn.close()
            except OSError:                    # pragma: no cover
                pass
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._loop_thread.join(timeout=10.0)
            self._loop.close()
        if self._ring is not None:
            self._ring.close()

    async def _stop_server(self) -> None:
        self._server.close()
        await self._server.wait_closed()
        # connections linger after the listener dies (handlers park on
        # readexactly); cancel them so no task is destroyed pending when
        # the loop closes.  In-flight *requests* were already drained —
        # only the idle read awaits get interrupted here.
        for task in list(self._conns):
            task.cancel()
        if self._conns:
            await asyncio.gather(*self._conns, return_exceptions=True)
        # no request awaits a worker reply any more; close() shuts the
        # workers down and closes their pipes next
        for wh in self._workers:
            self._unwatch(wh)

    def _emergency_teardown(self) -> None:
        """Best-effort cleanup when ``start`` fails part-way."""
        self._watchdog_stop.set()
        for wh in self._workers:
            wh.alive = False
            try:
                wh.process.terminate()
                wh.process.join(timeout=5.0)
                wh.conn.close()
            except (OSError, ValueError):      # pragma: no cover
                pass
        self._workers = []
        if self._loop is not None and self._loop_thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._loop_thread.join(timeout=5.0)
            self._loop.close()
        if self._ring is not None:
            self._ring.close()

    def __enter__(self) -> "Gateway":
        return self.start() if not self._started else self

    def __exit__(self, *exc) -> None:
        self.close()

    def serve_forever(self) -> None:
        """Block until a wire ``SHUTDOWN`` op arrives, then close."""
        try:
            self.shutdown_requested.wait()
        finally:
            self.close()

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def _spawn_worker(self, index: int) -> _WorkerHandle:
        """Spawn one worker and replicate current state to it (sync).

        Called from :meth:`start` and from respawn threads — never from
        the event loop.  The handshake (ready ack, registration
        replication, memo seeding) happens directly on the pipe, before
        the event loop watches it, so no future bookkeeping is needed.
        """
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            # untrack_shm=False: multiprocessing children inherit the
            # gateway's resource tracker (spawn passes its fd through
            # preparation data), so attach-side unregistering would
            # strip the gateway's own registrations; untracking is for
            # *foreign* processes attaching by name
            args=(index, child, self._ring.name, self.slot_bytes,
                  self.slots, self._service_kwargs, False),
            daemon=True, name=f"{self.obs_label}-worker{index}")
        process.start()
        child.close()
        if not parent.poll(_SPAWN_TIMEOUT):
            process.terminate()
            raise GatewayError(f"worker {index} did not report ready "
                               f"within {_SPAWN_TIMEOUT}s")
        msg = parent.recv()
        if msg[0] == "fail":
            process.join(timeout=5.0)
            raise GatewayError(
                f"worker {index} failed to start: {msg[1]}: {msg[2]}")
        _, _, pid = msg
        wh = _WorkerHandle(index, process, parent, pid)
        with self._state_lock:
            registrations = sorted(self._matrices.items())
            memo = dict(self._memo)
        for gid, (matrix, name, _tenant) in registrations:
            segment, meta = self._stage_registration(gid, matrix, name)
            try:
                parent.send(("reg", wh.seq, segment.name, meta))
                wh.seq += 1
                reply = parent.recv()
            finally:
                segment.close()
                segment.unlink()
            if reply[0] != "ok":
                process.terminate()
                raise GatewayError(
                    f"worker {index} failed to replay registration "
                    f"{gid}: {reply[2]}: {reply[3]}")
        if memo:
            parent.send(("seed", memo))
        return wh

    def _stage_registration(self, gid: int, matrix: CsrMatrix,
                            name: str) -> tuple[shared_memory.SharedMemory,
                                                dict]:
        """Write one matrix's CSR arrays into a fresh shm segment."""
        blobs = (matrix.row_ptr.tobytes(), matrix.col_indices.tobytes(),
                 matrix.vals.tobytes())
        segment = shared_memory.SharedMemory(
            create=True, size=sum(len(b) for b in blobs))
        offset = 0
        for blob in blobs:
            segment.buf[offset:offset + len(blob)] = blob
            offset += len(blob)
        meta = {"gid": gid, "nrows": matrix.nrows, "ncols": matrix.ncols,
                "nnz": matrix.nnz, "name": name,
                "fingerprint": matrix.fingerprint()}
        return segment, meta

    def _watch(self, wh: _WorkerHandle) -> None:
        """Loop thread: read this worker's pipe whenever it is readable.

        Every path that closes ``wh.conn`` calls :meth:`_unwatch` on the
        loop thread first: a respawned worker's pipe can reuse the fd
        number, and a stale selector key would misroute or refuse it.
        """
        self._loop.add_reader(wh.conn.fileno(), self._on_worker_readable,
                              wh)

    def _unwatch(self, wh: _WorkerHandle) -> None:
        try:
            self._loop.remove_reader(wh.conn.fileno())
        except OSError:                        # conn already closed
            pass

    def _on_worker_readable(self, wh: _WorkerHandle) -> None:
        """One worker reply, read on the loop thread; EOF means death."""
        try:
            msg = wh.conn.recv()
        except (EOFError, OSError):
            self._unwatch(wh)
            self._on_worker_death(wh)
            return
        # "ok" or "err": a typed error is still a *live* worker, so
        # either one is a breaker success
        wh.started.pop(msg[1], None)
        self._breaker_success(wh.index)
        future = wh.pending.pop(msg[1], None)
        if future is None or future.done():
            return
        if msg[0] == "ok":
            future.set_result(msg[2])
        else:
            future.set_exception(_remote_exception(msg[2], msg[3]))

    def _on_worker_death(self, wh: _WorkerHandle) -> None:
        """Loop-thread handler for a worker pipe reaching EOF.

        Deliberate shutdowns arrive with ``alive`` already False.  For a
        crash: the process is joined *first* — only a provably dead
        worker's in-flight slots may be recycled — then every pending
        request fails with :class:`WorkerCrashed` (which is what lets
        the awaiting tasks release those slots), and a replacement is
        spawned off-loop.
        """
        if not wh.alive or self._closing:
            return
        wh.alive = False
        self._c_crashes.inc()
        self._breaker_failure(wh.index)
        wh.process.join(timeout=10.0)
        if wh.process.is_alive():              # pragma: no cover - EOF but
            wh.process.terminate()             # process wedged
            wh.process.join(timeout=5.0)
        wh.conn.close()                        # unwatched by the caller
        pending = list(wh.pending.values())
        wh.pending.clear()
        wh.started.clear()
        crash = WorkerCrashed(
            f"worker {wh.index} (pid {wh.pid}) died with "
            f"{len(pending)} requests in flight")
        for future in pending:
            if not future.done():
                future.set_exception(crash)
        threading.Thread(target=self._respawn, args=(wh.index,),
                         daemon=True,
                         name=f"{self.obs_label}-respawn{wh.index}").start()

    def _respawn(self, index: int) -> None:
        try:
            replacement = self._spawn_worker(index)
        except BaseException:
            # the pool keeps serving on the surviving workers; a second
            # death with no survivors surfaces as WorkerCrashed upstream
            return

        def install() -> None:
            if self._closing:
                replacement.alive = False
                try:
                    replacement.conn.send(("shutdown",))
                except (OSError, ValueError):  # pragma: no cover
                    pass
                return
            self._workers[index] = replacement
            self._watch(replacement)

        try:
            self._loop.call_soon_threadsafe(install)
        except RuntimeError:                   # pragma: no cover
            replacement.process.terminate()

    # ------------------------------------------------------------------
    # Supervision: hang watchdog + circuit breakers
    # ------------------------------------------------------------------
    def _watchdog_main(self) -> None:
        """Ticks the loop-thread hang check a few times per threshold."""
        interval = max(0.01, self.hang_threshold / 4.0)
        while not self._watchdog_stop.wait(interval):
            if self._closing or self._loop is None:
                return
            try:
                self._loop.call_soon_threadsafe(self._check_hangs)
            except RuntimeError:               # pragma: no cover - closing
                return

    def _check_hangs(self) -> None:
        """Loop thread: declare workers with over-age requests hung.

        Runs on the loop thread so ``started``/``pending`` are only
        ever touched where every other mutation happens — the watchdog
        thread itself never reads worker state.
        """
        if self._closing:
            return
        now = time.monotonic()
        for wh in list(self._workers):
            if wh.alive and wh.started:
                age = now - min(wh.started.values())
                if age >= self.hang_threshold:
                    self._declare_hung(wh, age)

    def _declare_hung(self, wh: _WorkerHandle, age: float) -> None:
        """Kill one hung worker; its requests fail fast, typed.

        The pipe is unwatched before the kill — this path owns failing
        the pending futures, reaping (which closes the conn off-loop)
        and respawning, so no EOF handler may run for it.
        """
        self._unwatch(wh)
        wh.alive = False
        self._c_hangs.inc()
        self._breaker_failure(wh.index)
        pending = list(wh.pending.values())
        wh.pending.clear()
        wh.started.clear()
        hung = WorkerHung(
            f"worker {wh.index} (pid {wh.pid}) exceeded the "
            f"{self.hang_threshold * 1e3:.0f}ms hang threshold (oldest "
            f"in-flight request {age * 1e3:.0f}ms old); killed")
        for future in pending:
            if not future.done():
                future.set_exception(hung)
        try:
            wh.process.kill()
        except (OSError, ValueError, AttributeError):  # pragma: no cover
            pass
        threading.Thread(target=self._reap_and_respawn, args=(wh,),
                         daemon=True,
                         name=f"{self.obs_label}-reap{wh.index}").start()

    def _reap_and_respawn(self, wh: _WorkerHandle) -> None:
        """Off-loop: join the killed process, then the usual respawn."""
        wh.process.join(timeout=10.0)
        try:
            wh.conn.close()
        except OSError:                        # pragma: no cover
            pass
        self._respawn(wh.index)

    def _breaker_success(self, index: int) -> None:
        breaker = self._breakers[index]
        breaker.record_success()
        self._g_breaker[index].set(breaker.state)

    def _breaker_failure(self, index: int) -> None:
        breaker = self._breakers[index]
        breaker.record_failure(time.monotonic())
        self._g_breaker[index].set(breaker.state)

    def _pick_worker(self) -> _WorkerHandle:
        """Round-robin over live, breaker-admitted workers (loop thread).

        Dead workers are skipped as before; a live worker whose breaker
        is open (or half-open with its probe already in flight) is
        passed over.  All live workers refused means the pool is
        breaker-limited: typed ``GatewayOverloaded(reason="breaker")``
        rather than silently queueing into known-bad processes.
        """
        count = len(self._workers)
        now = time.monotonic()
        alive = 0
        for _ in range(count):
            wh = self._workers[self._rr % count]
            self._rr += 1
            if not wh.alive:
                continue
            alive += 1
            breaker = self._breakers[wh.index]
            allowed = breaker.allow(now)
            self._g_breaker[wh.index].set(breaker.state)
            if allowed:
                return wh
        if alive:
            raise GatewayOverloaded(
                f"all {alive} live workers' circuit breakers are open",
                reason="breaker")
        raise WorkerCrashed("no live workers to dispatch to")

    def _post(self, wh: _WorkerHandle, kind: str, *rest) -> asyncio.Future:
        """Send one control message; the future resolves on its reply."""
        msg_id = wh.seq
        wh.seq += 1
        future = self._loop.create_future()
        wh.pending[msg_id] = future
        wh.started[msg_id] = time.monotonic()
        try:
            wh.conn.send((kind, msg_id) + rest)
        except (OSError, ValueError):
            wh.pending.pop(msg_id, None)
            wh.started.pop(msg_id, None)
            future.set_exception(WorkerCrashed(
                f"worker {wh.index} pipe closed mid-send"))
        return future

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:                    # pragma: no cover - e.g. UDS
                pass
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        me = asyncio.current_task()
        if me is not None:
            self._conns.add(me)
        try:
            while True:
                try:
                    header = await reader.readexactly(proto.HEADER.size)
                except (asyncio.IncompleteReadError, ConnectionError,
                        OSError):
                    break
                try:
                    op, length, request_id, deadline_ms = proto.parse_header(
                        header, self.max_frame)
                except ProtocolError as error:
                    # framing is broken (or the frame is refused before
                    # buffering): answer with the typed error, then drop
                    # the connection — stream sync is unrecoverable
                    reason = ("frame" if isinstance(error, FrameTooLarge)
                              else "protocol")
                    self._c_rejects[reason].inc()
                    await self._write_reply(
                        writer, write_lock, 0,
                        proto.encode_reply_error(error))
                    break
                try:
                    payload = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError,
                        OSError):
                    break
                counter = self._c_requests.get(op)
                if counter is not None:
                    counter.inc()
                # the wire carries a *relative* budget; anchor it to
                # this host's monotonic clock the moment the header is
                # in — queue wait, dispatch and worker time all burn
                # the same absolute deadline from here on
                deadline = (time.monotonic() + deadline_ms / 1e3
                            if deadline_ms else None)
                task = asyncio.ensure_future(self._serve_request(
                    op, payload, request_id, writer, write_lock, deadline))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except asyncio.CancelledError:
            # _stop_server cancels idle connections at shutdown; finish
            # normally so asyncio's stream machinery sees a clean task
            pass
        finally:
            if me is not None:
                self._conns.discard(me)
            # never cancel in-flight tasks: their finally blocks own the
            # slot/accounting lifecycle and must run to completion
            if tasks:
                await asyncio.shield(
                    asyncio.gather(*tasks, return_exceptions=True))
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass    # RuntimeError: loop tore down mid-handler

    async def _write_reply(self, writer, write_lock, request_id: int,
                           reply_payload: bytes) -> None:
        rule = faults.check("reply.delay", request=request_id)
        if rule is not None and rule.delay_ms:
            await asyncio.sleep(rule.delay_ms / 1e3)
        async with write_lock:
            with _span("gateway.reply", request=request_id,
                       bytes=len(reply_payload)):
                try:
                    writer.write(proto.encode_frame(
                        proto.OP_REPLY, reply_payload, request_id))
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass                        # client went away; the
                                                # request already ran

    async def _serve_request(self, op: int, payload: bytes,
                             request_id: int, writer, write_lock,
                             deadline: float | None = None) -> None:
        t0 = time.perf_counter()
        try:
            if op == proto.OP_MULTIPLY:
                body = await self._op_multiply(payload, deadline)
            elif op == proto.OP_PROFILE:
                body = await self._op_profile(payload, deadline)
            elif op == proto.OP_REGISTER:
                body = await self._op_register(payload)
            elif op == proto.OP_UNREGISTER:
                body = await self._op_unregister(payload)
            elif op == proto.OP_STATS:
                body = await self._op_stats()
            elif op == proto.OP_PING:
                body = proto.encode_json_op(ok=True, gateway=self.obs_label,
                                            workers=len(self._workers))
            elif op == proto.OP_SHUTDOWN:
                proto.decode_json_op(payload)
                self.shutdown_requested.set()
                body = proto.encode_json_op(ok=True)
            else:                              # pragma: no cover - header
                raise ProtocolError(f"unknown op 0x{op:02x}")  # validated
            reply_payload = proto.encode_reply_ok(body)
        except DeadlineExceeded as error:
            self._c_deadline.inc()
            reply_payload = proto.encode_reply_error(error)
        except GatewayOverloaded as error:
            self._c_rejects.get(error.reason,
                                self._c_rejects["inflight"]).inc()
            reply_payload = proto.encode_reply_error(error)
        except BaseException as error:
            reply_payload = proto.encode_reply_error(error)
        histogram = self._h_latency.get(proto.OP_NAMES.get(op, ""))
        if histogram is not None:
            histogram.observe(time.perf_counter() - t0)
        await self._write_reply(writer, write_lock, request_id,
                                reply_payload)

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def _admit(self, grid: int, op_name: str, tenant: str,
               need_bytes: int) -> int:
        """Admission control (loop thread): returns an acquired slot.

        Every rejection is typed and counted; nothing is ever queued.
        """
        with _span("gateway.admit", request=grid, op=op_name,
                   tenant=tenant) as sp:
            if need_bytes > self.slot_bytes:
                raise FrameTooLarge(
                    f"request needs {need_bytes} operand/result bytes, "
                    f"slot capacity is {self.slot_bytes} (raise "
                    f"slot_bytes)")
            if self._inflight >= self.max_inflight:
                raise GatewayOverloaded(
                    f"{self._inflight} requests in flight (cap "
                    f"{self.max_inflight})", reason="inflight")
            if self.tenant_quota is not None:
                used = self._tenants.get(tenant, 0)
                if used >= self.tenant_quota:
                    raise GatewayOverloaded(
                        f"tenant {tenant!r} has {used} requests in "
                        f"flight (quota {self.tenant_quota})",
                        reason="tenant")
            slot = (None if faults.check("shm.exhaust", request=grid)
                    else self._ring.acquire())
            if slot is None:
                raise GatewayOverloaded(
                    f"all {self.slots} shared-memory slots in flight",
                    reason="shm")
            self._inflight += 1
            self._tenants[tenant] = self._tenants.get(tenant, 0) + 1
            self._g_inflight.set(self._inflight)
            sp.annotate(slot=slot, inflight=self._inflight)
            return slot

    def _release(self, slot: int, tenant: str) -> None:
        self._inflight -= 1
        remaining = self._tenants.get(tenant, 1) - 1
        if remaining <= 0:
            self._tenants.pop(tenant, None)
        else:
            self._tenants[tenant] = remaining
        self._g_inflight.set(self._inflight)
        self._ring.release(slot)
        if self._inflight == 0:
            with self._drain:               # wake a close() drain wait
                self._drain.notify_all()

    def _lookup_matrix(self, handle: int) -> CsrMatrix:
        with self._state_lock:
            entry = self._matrices.get(handle)
        if entry is None:
            raise ShapeError(f"unknown handle {handle}; register the "
                             f"matrix through this gateway first")
        return entry[0]

    @staticmethod
    def _check_deadline(deadline: float | None, stage: str) -> None:
        """Reject with typed ``DeadlineExceeded`` past the budget."""
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceeded(f"deadline expired {stage}")

    async def _op_multiply(self, payload: bytes,
                           deadline: float | None = None) -> bytes:
        self._check_deadline(deadline, "at gateway admission")
        handle, tenant, rows, cols, operand = proto.decode_multiply(payload)
        return await self._dispatch(
            "multiply", handle, tenant, rows, cols, operand, (), deadline,
            lambda reply, out: proto.encode_multiply_reply(
                None, reply["rows"], reply["cols"], data=out))

    async def _op_profile(self, payload: bytes,
                          deadline: float | None = None) -> bytes:
        self._check_deadline(deadline, "at gateway admission")
        meta, operand = proto.decode_profile(payload)
        return await self._dispatch(
            "profile", int(meta["handle"]),
            str(meta.get("tenant", "default")), int(meta["rows"]),
            int(meta["cols"]), operand, (meta.get("backend"),), deadline,
            lambda reply, out: proto.encode_profile_reply(
                {"rows": reply["rows"], "cols": reply["cols"],
                 **reply["meta"]}, out))

    async def _dispatch(self, op: str, handle: int, tenant: str, rows: int,
                        cols: int, operand, extra: tuple,
                        deadline: float | None, encode) -> bytes:
        """Admit one request, run it on a worker through a shm slot, and
        ``encode(reply, out)`` its reply straight out of the slot."""
        matrix = self._lookup_matrix(handle)
        grid = next(self._next_request_id)
        need = 4 * max(rows, matrix.nrows) * cols
        slot = self._admit(grid, op, tenant, need)
        try:
            with _span("gateway.dispatch", request=grid, op=op,
                       handle=handle, rows=rows, d=cols) as sp:
                self._ring.write(slot, operand)
                wh = self._pick_worker()
                sp.annotate(worker=wh.index)
                future = self._post(wh, _WORKER_KINDS[op], grid, slot,
                                    handle, rows, cols, *extra, deadline)
            reply = await future
            self._share_memo(reply.get("memo"), wh)
            out = self._ring.view(slot, 4 * reply["rows"] * reply["cols"])
            try:
                return encode(reply, out)
            finally:
                out.release()
        finally:
            self._release(slot, tenant)

    async def _op_register(self, payload: bytes) -> bytes:
        meta, wire_matrix = proto.decode_register(payload)
        # own the arrays: the payload buffer dies with this request, and
        # the matrix must outlive it (crash respawns re-register from it)
        matrix = CsrMatrix(
            wire_matrix.nrows, wire_matrix.ncols,
            wire_matrix.row_ptr.copy(), wire_matrix.col_indices.copy(),
            wire_matrix.vals.copy(), name=wire_matrix.name)
        expected = meta.get("fingerprint")
        if expected and matrix.fingerprint() != expected:
            raise ProtocolError(
                "registration fingerprint mismatch at the gateway: "
                "operands were corrupted in transport")
        name = str(meta.get("name", ""))
        tenant = str(meta.get("tenant", "default"))
        gid = next(self._next_gid)
        segment, wmeta = self._stage_registration(gid, matrix, name)
        live = [wh for wh in self._workers if wh.alive]
        if not live:
            segment.close()
            segment.unlink()
            raise WorkerCrashed("no live workers to register with")
        futures = [self._post(wh, "reg", segment.name, wmeta)
                   for wh in live]
        results = await asyncio.gather(*futures, return_exceptions=True)
        segment.close()
        segment.unlink()
        failures = [r for r in results if isinstance(r, BaseException)]
        if failures:
            # roll back the workers that did accept it, then surface the
            # first failure; nothing is recorded, so a retry is clean
            for wh, result in zip(live, results):
                if not isinstance(result, BaseException) and wh.alive:
                    self._post(wh, "unreg", gid)
            raise failures[0]
        with self._state_lock:
            self._matrices[gid] = (matrix, name, tenant)
            self._g_handles.set(len(self._matrices))
        return proto.encode_json_op(handle=gid, name=name,
                                    fingerprint=matrix.fingerprint(),
                                    workers=len(live))

    async def _op_unregister(self, payload: bytes) -> bytes:
        meta = proto.decode_json_op(payload)
        gid = int(meta["handle"])
        with self._state_lock:
            if gid not in self._matrices:
                raise ShapeError(f"unknown handle {gid}")
            del self._matrices[gid]
            self._g_handles.set(len(self._matrices))
        futures = [self._post(wh, "unreg", gid)
                   for wh in self._workers if wh.alive]
        await asyncio.gather(*futures, return_exceptions=True)
        return proto.encode_json_op(handle=gid)

    async def _op_stats(self) -> bytes:
        """Prometheus text: gateway series + every worker's snapshot."""
        self._g_shm.set(self._ring.in_use())
        snapshots = await self._gather_snapshots()
        samples = list(get_registry().snapshot().samples)
        for index, _pid, snapshot in snapshots:
            samples.extend(snapshot.metric_samples(
                service=self.obs_label, worker=str(index)))
        text = prometheus_text(MetricsSnapshot(samples=tuple(samples)))
        return text.encode("utf-8")

    async def _gather_snapshots(self) -> list:
        live = [wh for wh in self._workers if wh.alive]
        futures = [self._post(wh, "stats") for wh in live]
        results = await asyncio.gather(*futures, return_exceptions=True)
        out = []
        for wh, result in zip(live, results):
            if not isinstance(result, BaseException):
                out.append((wh.index, result["pid"], result["snapshot"]))
        return out

    def _share_memo(self, entries, source: _WorkerHandle) -> None:
        """Merge a worker's fresh autotune verdicts; broadcast the news."""
        if not entries:
            return
        with self._state_lock:
            fresh = {key: choice for key, choice in entries.items()
                     if key not in self._memo}
            self._memo.update(fresh)
        if not fresh:
            return
        for wh in self._workers:
            if wh.alive and wh is not source:
                try:
                    wh.conn.send(("seed", fresh))
                except (OSError, ValueError):  # pragma: no cover - dying
                    pass                       # worker; respawn reseeds

    # ------------------------------------------------------------------
    # Synchronous conveniences (tests, benches, the CLI)
    # ------------------------------------------------------------------
    def _run(self, coro, timeout: float = 60.0):
        if self._loop is None:
            raise GatewayError("gateway is not started")
        return asyncio.run_coroutine_threadsafe(
            coro, self._loop).result(timeout=timeout)

    @property
    def inflight(self) -> int:
        """Admitted-but-unanswered requests right now."""
        return self._inflight

    def worker_pids(self) -> list[int]:
        """Live worker process ids (respawns change these)."""
        return [wh.pid for wh in self._workers if wh.alive]

    def worker_snapshots(self) -> list:
        """``(index, pid, ServiceSnapshot)`` per live worker."""
        return self._run(self._gather_snapshots())

    def stats_text(self) -> str:
        """The STATS op's Prometheus text, without a socket."""
        return self._run(self._op_stats()).decode("utf-8")

    def registered_handles(self) -> dict[int, str]:
        """Gateway handle id -> registered name."""
        with self._state_lock:
            return {gid: name
                    for gid, (_m, name, _t) in self._matrices.items()}

    def autotune_memo_size(self) -> int:
        with self._state_lock:
            return len(self._memo)

    def shm_stats(self):
        """Live :class:`~repro.serve.gateway.shm.ShmRingStats`.

        The leak check chaos runs gate on: ``in_use`` must return to 0
        once traffic drains, whatever faults fired in between.
        """
        return self._ring.stats()

    def breaker_states(self) -> list[int]:
        """Per-worker breaker state (0 closed, 1 open, 2 half-open)."""
        return [breaker.state for breaker in self._breakers]

    def set_fault_plan(self, plan: faults.FaultPlan | None) -> None:
        """Arm (``None``: disarm) a fault plan, fleet-wide.

        Installs the plan in the gateway process and broadcasts it to
        every live worker over the control pipes (serialized through
        the event loop, so the send never races a dispatch).  A worker
        respawned *afterwards* starts with no plan — deliberate: a
        one-shot ``worker.crash`` rule must not crash-loop its own
        replacements.  Export :data:`repro.faults.ENV_VAR` instead to
        arm every worker incarnation for a process's whole life.
        """
        if plan is None:
            faults.clear_plan()
            payload = None
        else:
            faults.install_plan(plan)
            payload = plan.to_dict()
        self._fault_plan = plan
        if self._started and not self._closing and self._loop is not None:
            self._run(self._broadcast_fault(payload), timeout=10.0)

    async def _broadcast_fault(self, payload: dict | None) -> None:
        for wh in self._workers:
            if wh.alive:
                try:
                    wh.conn.send(("fault", payload))
                except (OSError, ValueError):  # pragma: no cover - dying
                    pass

    def connect(self, **kwargs):
        """A :class:`~repro.serve.gateway.client.GatewayClient` to self.

        The client inherits the gateway config's resilience defaults
        (``max_retries``, ``deadline_ms``); explicit keyword arguments
        win.
        """
        from repro.serve.gateway.client import GatewayClient

        kwargs.setdefault("max_retries", self.config.max_retries)
        if self.config.deadline_ms is not None:
            kwargs.setdefault("deadline_ms", self.config.deadline_ms)
        return GatewayClient(self.host, self.port, **kwargs)


def _remote_exception(name: str, message: str) -> BaseException:
    """A worker-reported failure as its local typed equivalent."""
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls(message)
    return GatewayError(f"worker {name}: {message}")

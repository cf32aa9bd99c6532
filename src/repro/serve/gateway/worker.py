"""Gateway worker: one process, one :class:`SpmmService`, shm operands.

Each worker is a separate interpreter, so a fault in generated code
running here (``multiply`` calls the plan's machine code in process)
kills this worker, not the gateway: the gateway sees the pipe close and
fails its requests with a typed :class:`~repro.errors.WorkerCrashed`.
A worker owns a private service (its own sharded kernel cache and
workspaces) and speaks a tiny pickled control protocol with the
gateway over a :class:`multiprocessing.connection.Connection`:

* ``("reg", msg_id, segment, meta)`` — replicate one registration: the
  CSR arrays arrive *once*, in a dedicated shared-memory segment, are
  copied into worker-owned arrays, fingerprint-verified against the
  client's digest, and registered with the service under the
  gateway-assigned handle id;
* ``("mul", msg_id, request_id, slot, handle, rows, cols, deadline)`` —
  serve one multiply: the operand is a zero-copy numpy view over the
  shm ring slot, the result is written back into the same slot, and
  only dims (plus any fresh autotune verdicts) travel over the pipe;
  ``deadline`` is an absolute ``time.monotonic()`` stamp (``None`` =
  no deadline; CLOCK_MONOTONIC is system-wide on Linux, so the
  gateway's clock is the worker's clock) checked at dispatch, around
  bind/codegen inside the service, and again after execution — a late
  result is discarded and replied as typed ``DeadlineExceeded``;
* ``("prof", ...)``, ``("unreg", ...)``, ``("stats", msg_id)``,
  ``("seed", entries)``, ``("fault", plan_dict | None)``,
  ``("shutdown",)`` — the cold control plane.  ``fault`` arms (or,
  with ``None``, disarms) a :class:`repro.faults.FaultPlan` in this
  process; the request paths honor the ``worker.crash`` /
  ``worker.hang`` / ``codegen.raise`` injection sites.

:data:`WORKER_EXECUTOR_THREADS` threads take turns receiving
(leader/follower): control messages run under the receive lock, in
arrival order; a ``mul`` / ``prof`` runs after its release, start to
finish on the thread that read it.  So a slow request never stops the
next from being received, and pipelined dispatches overlap their
GIL-free kernels inside one worker (nothing batches, nothing waits on
a peer).  Every reply is
``("ok", msg_id, payload)`` or ``("err", msg_id, name, message)``;
exceptions never cross the pipe as pickles, only as ``(class name,
message)`` pairs the gateway re-frames for the client.

Autotune replication: after any request that grew the process-wide
:func:`~repro.core.autotune.choose_split` memo, the delta rides along
on the reply; the gateway broadcasts it to the sibling workers
(``seed``), so each kernel identity is tuned once per fleet.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict

import numpy as np

from repro import faults
from repro.core.autotune import export_autotune_memo, seed_autotune_memo
from repro.errors import (CodegenError, DeadlineExceeded, ProtocolError,
                          ShapeError)
from repro.obs.trace import span as _span
from repro.serve.gateway.shm import ShmRing, attach_shm, set_attach_untrack
from repro.serve.service import SpmmService
from repro.sparse.csr import CsrMatrix

__all__ = ["WORKER_EXECUTOR_THREADS", "worker_main"]

#: receive-and-execute threads per worker: enough that pipelined
#: dispatches overlap their GIL-free kernel calls (and one slow request
#: never blocks the rest), small enough that a worker never
#: oversubscribes its host share
WORKER_EXECUTOR_THREADS = 4

#: the request kinds (the rest is control plane) and their spans
_SPANS = {"mul": "gateway.worker.multiply", "prof": "gateway.worker.profile"}


class _MemoSync:
    """Tracks which autotune verdicts this worker already shipped."""

    def __init__(self) -> None:
        self._known = set(export_autotune_memo())
        self._lock = threading.Lock()

    def delta(self) -> dict | None:
        memo = export_autotune_memo()
        with self._lock:
            fresh = {key: memo[key] for key in memo.keys() - self._known}
            self._known |= set(fresh)
        return fresh or None

    def absorb(self, entries: dict) -> None:
        seed_autotune_memo(entries)
        with self._lock:
            self._known |= set(entries)


def worker_main(index: int, conn, ring_name: str, slot_bytes: int,
                slots: int, service_kwargs: dict,
                untrack_shm: bool = True,
                fault_plan: dict | None = None) -> None:
    """Entry point of one worker process (spawn- and fork-safe).

    ``untrack_shm`` is False for fork-started workers: they share the
    gateway's resource tracker, so undoing the attach-time registration
    would strip the gateway's own.

    ``fault_plan`` (a serialized :class:`repro.faults.FaultPlan`) arms
    fault injection from birth — how a respawned worker inherits the
    plan the gateway broadcast before its predecessor died.
    """
    set_attach_untrack(untrack_shm)
    # a fork-started worker inherits the gateway process's module
    # state, including any plan installed *there* (set_fault_plan
    # installs locally before broadcasting); shed it so only the spawn
    # argument, a later broadcast, or this process's own read of
    # REPRO_FAULT_PLAN arms injection
    faults.reset_inherited_state()
    if fault_plan is not None:
        faults.install_plan(faults.FaultPlan.from_dict(fault_plan))
    ring = ShmRing.attach(ring_name, slot_bytes, slots)
    try:
        service = SpmmService(obs_label=f"gateway-worker{index}",
                              **service_kwargs)
    except BaseException as error:
        conn.send(("fail", type(error).__name__, str(error)))
        conn.close()
        return
    conn.send(("ready", index, os.getpid()))
    handles: dict[int, object] = {}
    memo = _MemoSync()
    send_lock = threading.Lock()
    recv_lock = threading.Lock()
    stopping = False

    def reply(msg_id: int, payload) -> None:
        with send_lock:
            conn.send(("ok", msg_id, payload))

    def reply_error(msg_id: int, error: BaseException) -> None:
        with send_lock:
            conn.send(("err", msg_id, type(error).__name__, str(error)))

    def fault_hooks(request_id: int) -> None:
        """Honor the worker-side injection sites for one request.

        Runs on the request's thread, before any service work: a crash
        takes the whole process (exercising gateway crash recovery), a
        hang outlives the watchdog's threshold, and ``codegen.raise``
        surfaces as the typed error a real codegen failure would.
        """
        if faults.check("worker.crash", request=request_id, worker=index):
            os._exit(17)
        rule = faults.check("worker.hang", request=request_id, worker=index)
        if rule is not None:
            time.sleep(rule.hang_seconds)
        if faults.check("codegen.raise", request=request_id, worker=index):
            raise CodegenError(
                "injected codegen failure (fault plan: codegen.raise)")

    def check_deadline(deadline, stage: str) -> None:
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceeded(f"deadline expired {stage}")

    def serve_request(msg) -> None:
        """One ``mul`` / ``prof`` (which adds a backend before the
        deadline): operand from its shm slot, result back into it."""
        kind, msg_id, request_id, slot, handle, rows, cols = msg[:7]
        deadline = msg[-1]
        view = None
        try:
            fault_hooks(request_id)
            check_deadline(deadline, "before worker dispatch")
            with _span(_SPANS[kind], request=request_id, worker=index,
                       handle=handle):
                view = ring.view(slot, 4 * rows * cols)
                x = np.frombuffer(view, dtype=np.float32).reshape(rows, cols)
                if kind == "mul":
                    y = service.multiply(handles[handle], x,
                                         deadline=deadline)
                    body = {}
                else:
                    result = service.profile(handles[handle], x,
                                             backend=msg[7],
                                             deadline=deadline)
                    y = np.ascontiguousarray(result.y)
                    body = {"meta": {
                        "counters": asdict(result.counters),
                        "backend": result.backend,
                        "system": result.system,
                        "split": result.split,
                        "threads": result.threads,
                        "cache_hit": bool(result.cache_hit),
                        "codegen_seconds": result.codegen_seconds,
                    }}
                # the operand has been fully consumed; the result (a
                # fresh C-contiguous array) takes over the slot
                ring.write(slot, y)
            # a result that lands past its deadline is discarded — the
            # client gave up on it, and replying "ok" late would let a
            # reply race the caller's timeout handling
            check_deadline(deadline, "before the reply (result discarded)")
            reply(msg_id, {"rows": int(y.shape[0]), "cols": int(y.shape[1]),
                           **body, "memo": memo.delta()})
        except KeyError:
            reply_error(msg_id, _unknown_handle(handle))
        except BaseException as error:
            reply_error(msg_id, error)
        finally:
            if view is not None:
                view.release()

    def serve_control(msg) -> None:
        """Run one control message; the caller holds ``recv_lock``."""
        nonlocal stopping
        kind = msg[0]
        if kind == "reg":
            _, msg_id, segment_name, meta = msg
            try:
                matrix = _matrix_from_segment(segment_name, meta)
                handle = service.register(matrix, meta.get("name", ""))
                handles[int(meta["gid"])] = handle
                reply(msg_id, {"handle": int(meta["gid"]),
                               "memo": memo.delta()})
            except BaseException as error:
                reply_error(msg_id, error)
        elif kind == "unreg":
            _, msg_id, gid = msg
            try:
                service.unregister(handles.pop(gid))
                reply(msg_id, {"handle": gid})
            except BaseException as error:
                reply_error(msg_id, error)
        elif kind == "stats":
            _, msg_id = msg
            try:
                reply(msg_id, {"snapshot": service.snapshot(),
                               "pid": os.getpid()})
            except BaseException as error:
                reply_error(msg_id, error)
        elif kind == "seed":
            memo.absorb(msg[1])
        elif kind == "fault":
            if msg[1] is None:
                faults.clear_plan()
            else:
                faults.install_plan(faults.FaultPlan.from_dict(msg[1]))
        elif kind == "shutdown":
            stopping = True
            if len(msg) > 1:            # acked shutdown: (shutdown, msg_id)
                reply(msg[1], {"pid": os.getpid()})
        # unknown kinds are dropped: a newer gateway may speak ops this
        # worker build does not know, and the pipe must stay in sync

    def serve_loop() -> None:
        """Leader/follower: receive under the lock, run outside it."""
        nonlocal stopping
        while True:
            with recv_lock:
                if stopping:
                    return
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    stopping = True
                    return
                if msg[0] not in _SPANS:
                    serve_control(msg)
                    continue
            serve_request(msg)

    followers = [threading.Thread(target=serve_loop, daemon=True,
                                  name=f"gw-worker{index}-{i}")
                 for i in range(1, WORKER_EXECUTOR_THREADS)]
    for thread in followers:
        thread.start()
    serve_loop()
    # in-flight requests finish before the service closes under them
    for thread in followers:
        thread.join()
    service.close()
    ring.close()
    conn.close()


def _unknown_handle(handle: int):
    return ShapeError(f"unknown handle {handle}; register the matrix "
                      f"through this gateway first")


def _matrix_from_segment(segment_name: str, meta: dict) -> CsrMatrix:
    """Rebuild (and verify) one registered matrix from its shm segment.

    The arrays are copied out — the segment is unlinked by the gateway
    as soon as every worker has acknowledged — and the content hash is
    recomputed and checked against the client-supplied fingerprint, so
    a corrupted transport surfaces at registration, not as wrong
    results later.
    """
    nrows = int(meta["nrows"])
    nnz = int(meta["nnz"])
    segment = attach_shm(segment_name)
    try:
        offset = 0
        row_ptr = np.frombuffer(segment.buf, dtype=np.int64,
                                count=nrows + 1, offset=offset).copy()
        offset += 8 * (nrows + 1)
        col = np.frombuffer(segment.buf, dtype=np.int64, count=nnz,
                            offset=offset).copy()
        offset += 8 * nnz
        vals = np.frombuffer(segment.buf, dtype=np.float32, count=nnz,
                             offset=offset).copy()
    finally:
        segment.close()
    matrix = CsrMatrix(nrows, int(meta["ncols"]), row_ptr, col, vals,
                       name=str(meta.get("name", "")))
    expected = meta.get("fingerprint")
    if expected and matrix.fingerprint() != expected:
        raise ProtocolError(
            f"registration fingerprint mismatch for {matrix!r}: operands "
            f"were corrupted in transport")
    return matrix

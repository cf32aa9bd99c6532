"""Tiered execution for the serving subsystem.

The paper's trade-off (Table IV) prices specialization per run; PRs
1-9 amortized it across steady-state traffic, but the *first* request
for a new handle still paid autotune + codegen inline — the cold-start
latency a gateway deadline faithfully turns into an overrun.  This
module holds the policy layer :class:`repro.serve.SpmmService` uses to
remove that cost the way a tiered VM does (interpret first, compile
hot paths):

* **template tier** — a new ``(handle, d)`` binds the system's
  address-free template (:meth:`repro.api.System.tier_template`), whose
  native product is one scipy ``csr_matvecs`` call: zero per-matrix
  codegen, so the first request costs partitioning plus one SpMM;
* **promotion** — per-``(handle, d)`` traffic counters cross a
  configured threshold (``promote_after``; ``tier_mode="eager"``
  promotes on the first request) and a bounded background
  :class:`PromotionExecutor` runs autotune + code generation off the
  request path — for the JIT, the host kernel the promoted tier then
  *executes* (:mod:`repro.exec.host`; 2.0x scipy at d >= 16,
  ``BENCH_hw.json``) — and hot-swaps the workspace's plan under its
  stripe lock;
* **degradation** — a failed promotion leaves the workspace serving
  the template tier forever, with the failure's exception type counted
  in :class:`TierStats` (the typed reason a report names).

Both tiers compute bit-identical results: the template tier is
``multiply_partitioned`` — one host product that accumulates each
output element in ascending non-zero order, checked against the plan's
row ranges — and the promoted JIT kernel accumulates in the same order
with the same two roundings per term.

The tier state machine per ``(handle, d)`` workspace::

    template ──(traffic >= promote_after)──> promoting ──ok──> promoted
        ^                                        │
        └────────(stale: evicted/unregistered)───┤
                                                 └──error──> failed

``"inline"`` is the pseudo-tier of an untiered service (tier_mode
``"off"``, or a system with no template): every request serves the
specialized plan, exactly the pre-tiering behavior.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

from repro.api.config import TIER_MODES

__all__ = [
    "PROMOTION_OUTCOMES",
    "PromotionExecutor",
    "TIER_FAILED",
    "TIER_INLINE",
    "TIER_MODES",
    "TIER_PROMOTED",
    "TIER_PROMOTING",
    "TIER_TEMPLATE",
    "TierSnapshot",
    "TierStats",
]

#: workspace serves the shared address-free template (cold tier)
TIER_TEMPLATE = "template"
#: template tier, with a promotion job submitted and not yet landed
TIER_PROMOTING = "promoting"
#: workspace serves its specialized (autotuned/JIT) plan (hot tier)
TIER_PROMOTED = "promoted"
#: promotion failed; the workspace serves the template tier for good
TIER_FAILED = "failed"
#: untiered service: every workspace is specialized from the start
TIER_INLINE = "inline"

#: terminal accounting buckets for one promotion job
PROMOTION_OUTCOMES = ("promoted", "failed", "stale")


@dataclass(frozen=True)
class TierSnapshot:
    """Point-in-time tiering state, riding :class:`ServiceSnapshot`.

    Picklable (it crosses the gateway worker pipe inside the stats
    reply), and the single source for the tier line of the human
    report and the ``serve_tier_*`` metric series.
    """

    mode: str
    template: str
    promote_after: int
    pending: int
    outcomes: dict[str, int] = field(default_factory=dict)
    failure_reasons: dict[str, int] = field(default_factory=dict)
    codegen_seconds: float = 0.0

    def render(self) -> str:
        parts = [
            f"tier: mode={self.mode} template={self.template} "
            f"promote_after={self.promote_after}",
            "promotions " + " ".join(
                f"{name}={self.outcomes.get(name, 0)}"
                for name in PROMOTION_OUTCOMES)
            + f" pending={self.pending}",
            f"background codegen {1e3 * self.codegen_seconds:.3f}ms",
        ]
        if self.failure_reasons:
            parts.append("failures " + " ".join(
                f"{reason}={count}" for reason, count
                in sorted(self.failure_reasons.items())))
        return ", ".join(parts)


class TierStats:
    """Thread-safe promotion accounting for one service.

    Counters are mutated by request threads (job submission) and
    promotion workers (job completion); :meth:`snapshot` freezes a
    mutually consistent copy under the same lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending = 0
        self._outcomes: dict[str, int] = {}
        self._failure_reasons: dict[str, int] = {}
        self._codegen_seconds = 0.0

    def begin(self) -> None:
        """Count one promotion job as submitted and in flight."""
        with self._lock:
            self._pending += 1

    def finish(self, outcome: str, codegen_seconds: float = 0.0,
               reason: str | None = None) -> None:
        """Settle one in-flight job into its terminal bucket.

        ``reason`` is the typed failure cause (exception class name)
        counted for ``outcome="failed"`` jobs.
        """
        if outcome not in PROMOTION_OUTCOMES:
            raise ValueError(f"unknown promotion outcome {outcome!r}")
        with self._lock:
            self._pending -= 1
            self._outcomes[outcome] = self._outcomes.get(outcome, 0) + 1
            self._codegen_seconds += codegen_seconds
            if reason:
                self._failure_reasons[reason] = (
                    self._failure_reasons.get(reason, 0) + 1)

    @property
    def pending(self) -> int:
        with self._lock:
            return self._pending

    def outcome(self, name: str) -> int:
        with self._lock:
            return self._outcomes.get(name, 0)

    def snapshot(self, *, mode: str, template: str,
                 promote_after: int) -> TierSnapshot:
        with self._lock:
            return TierSnapshot(
                mode=mode, template=template,
                promote_after=promote_after, pending=self._pending,
                outcomes=dict(self._outcomes),
                failure_reasons=dict(self._failure_reasons),
                codegen_seconds=self._codegen_seconds,
            )


class PromotionExecutor:
    """A bounded pool of daemon threads running promotion jobs.

    Deliberately minimal (submit / drain / close): jobs are opaque
    callables that must not raise — the service's promotion routine
    owns its own error accounting, and a job that escapes anyway is
    swallowed so one bad promotion can never kill the pool.
    """

    def __init__(self, workers: int = 1, name: str = "tier-promote") -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self._queue: queue.Queue = queue.Queue()
        self._cv = threading.Condition()
        self._inflight = 0
        self._closed = False
        self._threads = [
            threading.Thread(target=self._run, daemon=True,
                             name=f"{name}-{index}")
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, fn) -> bool:
        """Queue one job; False (job not queued) after :meth:`close`."""
        with self._cv:
            if self._closed:
                return False
            self._inflight += 1
        self._queue.put(fn)
        return True

    def _run(self) -> None:
        while True:
            fn = self._queue.get()
            if fn is None:                  # close() sentinel
                return
            try:
                fn()
            except BaseException:
                pass                        # job owns its accounting
            finally:
                with self._cv:
                    self._inflight -= 1
                    self._cv.notify_all()

    @property
    def inflight(self) -> int:
        """Jobs submitted and not yet finished (queued or running)."""
        with self._cv:
            return self._inflight

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until every submitted job has finished.

        Returns False if ``timeout`` seconds elapsed first.  Used by
        tests (and service close) to sequence assertions after the
        background work they provoked.
        """
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._cv:
            while self._inflight:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._cv.wait(remaining)
            return True

    def close(self, timeout: float | None = 5.0) -> None:
        """Stop accepting jobs and join the workers (idempotent).

        Jobs already queued still run before the workers exit — a
        promotion in flight at service close settles through the
        service's stale-commit path rather than vanishing mid-swap.
        """
        with self._cv:
            if self._closed:
                return
            self._closed = True
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout)

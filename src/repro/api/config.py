"""`ExecutionConfig`: one validated home for every execution knob.

Before :mod:`repro.api`, the ``split / threads / dynamic / batch / isa /
timing / warmup / l1 / l2 / cache`` contract was re-declared — with
subtly different defaults and checks — by ``run_jit``-style runner
functions, :class:`repro.core.engine.JitSpMM`, and
:class:`repro.serve.SpmmService`.  This dataclass is the single place
the contract lives: construct one (any entry point's keyword arguments
map 1:1 onto its fields), and validation, normalization (ISA parsing)
and the dynamic-dispatch defaulting rule happen once, identically, for
every caller.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.split import SPLITS
from repro.errors import ShapeError
from repro.isa.isainfo import IsaLevel
from repro.machine.cache import CacheConfig

__all__ = ["DEFAULT_MAX_STEPS", "ExecutionConfig", "SPLITS"]

#: default per-thread dynamic instruction budget (mirrors
#: :class:`repro.machine.CpuConfig`'s historical constant)
DEFAULT_MAX_STEPS = 500_000_000


@dataclass(frozen=True)
class ExecutionConfig:
    """Validated execution knobs shared by every system in the registry.

    Attributes:
        split: Workload division — ``"row"`` / ``"nnz"`` / ``"merge"``,
            or ``"auto"`` (JIT only: the autotuner decides per matrix at
            bind time).
        threads: Simulated CPU threads (positive).
        dynamic: Listing-1 dynamic row dispatching.  ``None`` (default)
            resolves to True exactly for row-split, the paper's pairing;
            True with any other split is rejected, and ``"auto"``
            requires None (the tuner decides).
        batch: Dynamic-dispatch batch size; ``None`` sizes it from the
            row count (:func:`repro.core.runner.auto_batch`).
        isa: ISA level for JIT code generation (AOT personalities and
            the MKL kernel fix their own ISA).  Parsed at construction.
        timing: Model caches/pipeline on the simulated machine.  Legacy
            spelling of the backend axis: with ``backend=None`` it
            selects ``"sim"`` (True) or ``"counts"`` (False).
        backend: Execution backend by registry name — ``"native"``,
            ``"counts"``, ``"sim"``, ``"sim-ref"``, or anything
            registered via :func:`repro.exec.register_backend`.
            Validated (and alias-normalized) at construction; ``None``
            defers to ``timing``.  When set, it overrides ``timing``.
        max_steps: Per-thread dynamic instruction budget for the
            simulated backends; the interpreter raises
            :class:`repro.errors.ExecutionLimitExceeded` (naming the
            limit and the owning thread) when a thread exceeds it.
        warmup: Measure the second of two runs (warm caches/predictors,
            the paper's methodology); only meaningful with ``timing``.
        l1 / l2: Cache-geometry overrides for the simulated machine.
        cache: Optional :class:`repro.serve.KernelCache` (or the duck-
            compatible :class:`repro.serve.ShardedKernelCache`) shared
            across artifacts; ``None`` means no cross-artifact kernel
            reuse.
        workers: Worker *processes* behind a serving gateway
            (:class:`repro.serve.gateway.Gateway`), each running its own
            :class:`~repro.serve.SpmmService`.  Irrelevant to in-process
            entry points; 1 (default) means a single worker.
        max_inflight: Gateway-wide cap on admitted-but-unanswered
            requests; arrivals beyond it are rejected with
            :class:`repro.errors.GatewayOverloaded` rather than queued
            unboundedly.
        tenant_quota: Per-tenant in-flight cap at the gateway (``None``
            disables per-tenant accounting; the gateway-wide cap always
            applies).
        deadline_ms: Default per-request deadline budget in
            milliseconds for gateway clients minted via
            :meth:`repro.serve.gateway.Gateway.connect`.  Rides the
            wire header, is checked at gateway admission, decremented
            across queue wait, and enforced inside the worker around
            bind/codegen/multiply; a blown budget surfaces as a typed
            :class:`repro.errors.DeadlineExceeded`.  ``None`` (default)
            means no deadline.
        hang_threshold_ms: Age at which the gateway watchdog declares a
            worker's oldest in-flight request hung: the worker is
            killed and respawned, its in-flight requests fail fast with
            :class:`repro.errors.WorkerHung`.  The 60 s default sits
            below the client's socket timeout but above any legitimate
            simulated profile; latency-sensitive deployments tune it
            down to a small multiple of their p99.
        max_retries: Retry attempts a gateway client makes for
            *idempotent* ops (multiply/profile/stats/ping — never
            register) after a connection drop or worker death, with
            capped exponential backoff + jitter, budgeted by the
            request deadline.  0 disables retries.
        breaker_threshold: Consecutive hang/crash failures after which
            a worker slot's circuit breaker opens (requests stop
            routing to it until a half-open probe succeeds).
        opt_level: AOT optimization level (systems without an IR-level
            pass pipeline ignore it).  0 (default) is the historical
            fixed-function lowering; 1 enables the cleanup passes
            (constant folding, strength reduction, DCE); 2 adds
            within-block instruction scheduling; 3 runs the
            feedback-directed search (:mod:`repro.aot.search`) per
            bound matrix, scoring candidate pass configs by simulated
            cycles on a downsampled operand sample.
        search_budget: Maximum candidate compilations one ``opt_level=3``
            search may evaluate (>= 1; 1 degenerates to the
            fixed-function baseline).
    """

    split: str = "row"
    threads: int = 1
    dynamic: bool | None = None
    batch: int | None = None
    isa: IsaLevel | str = IsaLevel.AVX512
    timing: bool = True
    backend: str | None = None
    max_steps: int = DEFAULT_MAX_STEPS
    warmup: bool = False
    l1: CacheConfig | None = None
    l2: CacheConfig | None = None
    cache: object | None = None
    workers: int = 1
    max_inflight: int = 64
    tenant_quota: int | None = None
    deadline_ms: float | None = None
    hang_threshold_ms: float = 60_000.0
    max_retries: int = 2
    breaker_threshold: int = 3
    opt_level: int = 0
    search_budget: int = 16

    def __post_init__(self) -> None:
        if self.threads <= 0:
            raise ShapeError(
                f"thread count must be positive, got {self.threads}")
        if self.max_steps <= 0:
            raise ShapeError(
                f"max_steps must be positive, got {self.max_steps}")
        if self.backend is not None:
            # resolve through the live registry: unknown names fail here
            # with the full available-backend list, and aliases
            # normalize to the canonical registry key
            from repro.exec import canonical_name

            object.__setattr__(self, "backend",
                               canonical_name(self.backend))
        if self.split not in SPLITS:
            raise ShapeError(
                f"unknown split {self.split!r}; expected one of {SPLITS}")
        if self.split == "auto" and self.dynamic is not None:
            raise ShapeError("split='auto' chooses dispatch itself; "
                             "leave dynamic=None")
        if self.dynamic and self.split != "row":
            raise ShapeError("dynamic dispatch applies to row-split only")
        if self.batch is not None and self.batch <= 0:
            raise ShapeError(
                f"batch size must be positive, got {self.batch}")
        if self.workers < 1:
            raise ShapeError(
                f"workers must be at least 1, got {self.workers}")
        if self.max_inflight < 1:
            raise ShapeError(
                f"max_inflight must be at least 1, got {self.max_inflight}")
        if self.tenant_quota is not None and self.tenant_quota < 1:
            raise ShapeError(
                f"tenant_quota must be positive or None, got "
                f"{self.tenant_quota}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ShapeError(
                f"deadline_ms must be positive or None, got "
                f"{self.deadline_ms}")
        if self.hang_threshold_ms <= 0:
            raise ShapeError(
                f"hang_threshold_ms must be positive, got "
                f"{self.hang_threshold_ms}")
        if self.max_retries < 0:
            raise ShapeError(
                f"max_retries must be non-negative, got {self.max_retries}")
        if self.breaker_threshold < 1:
            raise ShapeError(
                f"breaker_threshold must be at least 1, got "
                f"{self.breaker_threshold}")
        if not 0 <= self.opt_level <= 3:
            raise ShapeError(
                f"opt_level must be in 0..3, got {self.opt_level}")
        if self.search_budget < 1:
            raise ShapeError(
                f"search_budget must be at least 1, got "
                f"{self.search_budget}")
        object.__setattr__(self, "isa", IsaLevel.parse(self.isa))

    @property
    def effective_backend(self) -> str:
        """The resolved execution-backend name for this config.

        ``backend`` as given when explicit, else derived from the
        legacy ``timing`` flag: ``"sim"`` (cycle-accurate) when True,
        ``"counts"`` when False.
        """
        if self.backend is not None:
            return self.backend
        return "sim" if self.timing else "counts"

    @property
    def effective_dynamic(self) -> bool:
        """The resolved dispatch mode for a non-``"auto"`` split.

        ``dynamic`` as given when explicit, else the paper's default:
        dynamic exactly for row-split.  (For ``"auto"`` the tuner's
        verdict applies instead; this property then reports False.)
        """
        if self.dynamic is not None:
            return self.dynamic
        return self.split == "row"

    def with_overrides(self, **changes) -> "ExecutionConfig":
        """A copy with ``changes`` applied — re-validated on construction."""
        return replace(self, **changes)

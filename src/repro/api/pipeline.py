"""The three-stage execution pipeline: prepare → bind → execute.

The paper itself distinguishes the phases this module reifies:

* **prepare** — code generation / compilation, the cacheable unit
  (Table IV measures it; the serving subsystem amortizes it).
  ``system.prepare(config)`` returns an :class:`Artifact` whose kernels
  are keyed by the same identity :class:`repro.serve.KernelCache` uses.
* **bind** — operand mapping and work partitioning for one concrete
  ``(A, X)`` problem.  ``artifact.bind(matrix, x)`` returns a
  :class:`BoundPlan` that is reusable across same-shaped requests
  (:meth:`BoundPlan.refresh` writes a new ``X`` into the already-mapped
  segment, exactly what the serving workspaces do).
* **execute** — ``plan.execute()`` resolves an execution backend from
  the :mod:`repro.exec` registry (``config.backend``, or per-call
  ``backend=`` / legacy ``timing=`` overrides) and returns that
  backend's :class:`repro.core.runner.RunResult` — the host CPU
  (``"native"``: the plan's own generated kernel where it has a host
  form, :meth:`BoundPlan.host_kernel`, else the scipy template),
  functional counting (``"counts"``), or cycle-accurate simulation
  (``"sim"``, with ``"sim-ref"`` as its per-access oracle).

Systems differ in *when* their kernel exists.  Address-free templates
(AOT personalities, the MKL-like kernel read operands from a parameter
block) have a prepare-time identity: the artifact compiles them once
and every bind reuses the template.  Specialized JIT kernels bake the
operand addresses into the instruction stream, so their identity is
only known at bind time; the artifact then resolves the kernel through
its cache per plan.  :attr:`System.address_free` records which regime a
system lives in — the bench harness also uses it to decide which
systems' codegen belongs inside the measured run.
"""

from __future__ import annotations

import abc
import threading

import numpy as np

from repro.core.engine import (
    check_operands,
    check_ranges,
    multiply_partitioned,
)
from repro.core.runner import RunResult
from repro.errors import HostUnsupported, ReproError, ShapeError
from repro.exec import canonical_name, get_backend
from repro.exec.host import count_fallback
from repro.obs.trace import span as _span

from repro.api.config import ExecutionConfig

__all__ = ["Artifact", "BoundPlan", "System"]


class System(abc.ABC):
    """One runnable SpMM implementation (the registry's unit).

    Subclasses provide the three hooks below; the pipeline mechanics —
    caching, lazy kernel resolution, machine execution — are shared by
    :class:`Artifact` and :class:`BoundPlan`.

    Attributes:
        name: Registry name (``"jit"``, ``"aot:<personality>"``,
            ``"mkl"``).
        address_free: True when the compiled kernel is a template with
            no problem state baked in (reusable across any operands);
            False for specialized kernels whose identity exists only
            once operands are mapped.
        supports_autotune: True when ``split="auto"`` is meaningful for
            this system (the JIT, whose cost model the tuner uses).
    """

    name: str = ""
    address_free: bool = False
    supports_autotune: bool = False

    # ------------------------------------------------------------------
    def prepare(self, config: ExecutionConfig | None = None, *,
                kernel=None, **overrides) -> "Artifact":
        """Stage 1: an :class:`Artifact` holding this system's kernels.

        Pass a ready :class:`ExecutionConfig`, or keyword overrides to
        build one.  ``kernel`` injects a pre-compiled kernel (address-
        free systems only — the ``run_aot(kernel=...)`` compatibility
        path), bypassing the cache entirely.
        """
        if config is None:
            config = ExecutionConfig(**overrides)
        elif overrides:
            config = config.with_overrides(**overrides)
        if kernel is not None and not self.address_free:
            raise ReproError(
                f"system {self.name!r} specializes kernels per problem; "
                "a pre-compiled kernel cannot be injected at prepare()")
        return Artifact(self, config, kernel=kernel)

    # -- hooks ----------------------------------------------------------
    @abc.abstractmethod
    def bind(self, artifact: "Artifact", matrix, x,
             name_prefix: str | None = None) -> "BoundPlan":
        """Map operands + partition work for one problem (no codegen)."""

    @abc.abstractmethod
    def build_kernel(self, plan: "BoundPlan | None") -> tuple[object, float]:
        """Compile/generate one kernel; returns ``(kernel, seconds)``.

        Pure codegen — no cache interaction (the artifact and the
        serving subsystem each apply their own cache discipline around
        this hook).  ``plan`` is None for address-free templates.
        """

    @abc.abstractmethod
    def kernel_nbytes(self, kernel) -> int:
        """Cache-accounting size of one compiled kernel."""

    def build_host_kernel(self, plan: "BoundPlan"):
        """Generate and load the code that computes ``plan``'s product
        on the host CPU; returns a callable ``kernel(x) -> y`` carrying
        ``codegen_seconds`` and ``d`` (the one ``X`` width it was
        generated for), or ``None`` when this system's native
        product is the address-free scipy template (the default: AOT
        personalities and the MKL-like kernel are templates, and what a
        template computes on the host is what scipy already is).  May
        raise :class:`~repro.errors.HostUnsupported`; the plan then
        falls back to the template and counts the reason.
        """
        return None

    def prepare_key(self, config: ExecutionConfig):
        """Cache identity known at prepare time (address-free systems);
        None when the identity needs bound operands (the JIT, or an
        AOT personality whose pass config is searched per matrix)."""
        return None

    def build_template(self, config: ExecutionConfig):
        """Compile the address-free template for ``config``; returns
        ``(kernel, seconds)``.  Default delegates to
        ``build_kernel(None)`` — the historical contract third-party
        address-free systems implement; built-in systems override this
        when the template depends on the config (optimization level).
        """
        return self.build_kernel(None)


class Artifact:
    """Stage-1 output: a system + config, resolving kernels on demand.

    The artifact is the cache boundary.  With ``config.cache`` set, all
    kernel lookups go through that shared :class:`KernelCache` (counted
    probes, exactly like the pre-pipeline ``run_jit(cache=...)`` path);
    without one, address-free templates are memoized on the artifact
    itself and specialized kernels are generated per bind.
    """

    def __init__(self, system: System, config: ExecutionConfig,
                 kernel=None) -> None:
        self.system = system
        self.config = config
        self.cache = config.cache
        self._kernel = kernel          # template (or injected) kernel
        self._injected = kernel is not None
        #: wall time spent compiling at this artifact (0 when every
        #: kernel came from the cache or was injected)
        self.prepare_seconds = 0.0

    @property
    def key(self):
        """Prepare-time cache identity; None for specialized systems."""
        return self.system.prepare_key(self.config)

    # ------------------------------------------------------------------
    @property
    def kernel(self):
        """The template kernel (address-free systems), compiled on first
        access through the cache.  Specialized systems have no prepare-
        time kernel — bind a problem and use ``plan.kernel`` instead."""
        if not self.system.address_free:
            raise ReproError(
                f"system {self.system.name!r} specializes kernels per "
                "problem; bind(matrix, x) and read plan.kernel")
        if self._kernel is None and self.key is None:
            raise ReproError(
                f"system {self.system.name!r} resolves its kernel "
                "identity per matrix at this config (feedback-directed "
                "search); bind(matrix, x) and read plan.kernel")
        kernel, _, _ = self._template_kernel()
        return kernel

    def _template_kernel(self):
        """Resolve the address-free template: ``(kernel, cache_hit, s)``.

        ``cache_hit`` is True when this call avoided a compile via the
        shared cache or the artifact's own memo; injected kernels never
        count as hits (they are "bring your own kernel", not a cache
        event — mirroring the legacy ``run_aot(kernel=...)`` contract).
        """
        if self._kernel is not None:
            return self._kernel, not self._injected, 0.0
        kernel = None
        if self.cache is not None:
            kernel = self.cache.get(self.key)
        if kernel is not None:
            self._kernel = kernel
            return kernel, True, 0.0
        kernel, seconds = self.system.build_template(self.config)
        if self.cache is not None:
            self.cache.put(self.key, kernel,
                           self.system.kernel_nbytes(kernel))
        self._kernel = kernel
        self.prepare_seconds += seconds
        return kernel, False, seconds

    # ------------------------------------------------------------------
    def bind(self, matrix, x, *, ensure_kernel: bool | None = None,
             name_prefix: str | None = None) -> "BoundPlan":
        """Stage 2: map operands and partition work for ``(matrix, x)``.

        With ``ensure_kernel=False`` the kernel stays unresolved (no
        cache probe, no codegen) until :meth:`BoundPlan.ensure_kernel`
        or the first execute — the serving subsystem uses this to pay
        autotune + mapping without touching the cache counters.  The
        default (``None``) resolves the kernel exactly when the
        config's execution backend needs one, so binding for the
        ``"native"`` backend never pays codegen.
        """
        if ensure_kernel is None:
            ensure_kernel = get_backend(
                self.config.effective_backend).requires_kernel
        with _span("pipeline.bind", system=self.system.name,
                   d=int(x.shape[1]) if getattr(x, "ndim", 0) == 2 else 0):
            plan = self.system.bind(self, matrix, x,
                                    name_prefix=name_prefix)
            if ensure_kernel:
                self.ensure_kernel(plan)
        return plan

    def ensure_kernel(self, plan: "BoundPlan") -> "BoundPlan":
        """Resolve ``plan``'s kernel: cache probe, then codegen on miss.

        Address-free systems with a prepare-time identity (or an
        injected kernel) resolve through the artifact's template path;
        everything else — the JIT, and searched AOT configs whose
        identity exists only once a matrix is bound — resolves through
        the plan's own key.
        """
        if plan.kernel is not None:
            return plan
        if self.system.address_free and (self._kernel is not None
                                         or self.key is not None):
            kernel, cache_hit, seconds = self._template_kernel()
            plan.attach_kernel(kernel, cache_hit=cache_hit,
                               codegen_seconds=seconds)
            return plan
        kernel = self.cache.get(plan.key) if self.cache is not None else None
        if kernel is not None:
            plan.attach_kernel(kernel, cache_hit=True, codegen_seconds=0.0)
            return plan
        kernel, seconds = self.system.build_kernel(plan)
        if self.cache is not None:
            self.cache.put(plan.key, kernel,
                           self.system.kernel_nbytes(kernel))
        self.prepare_seconds += seconds
        plan.attach_kernel(kernel, cache_hit=False, codegen_seconds=seconds)
        return plan


#: :attr:`BoundPlan._host` before the first native use
_UNBUILT = object()


class BoundPlan:
    """Stage-2 output: one problem bound to one artifact, ready to run.

    Carries the host-side operand buffers, the resolved split and
    thread partitions, and (once resolved) the compiled kernel.  The
    *simulated* address space is bound lazily: ``bind`` only validates
    operands and partitions work, and the mapping is materialized the
    first time something actually reads it (kernel identity resolution
    or a simulated-machine backend).  A ``repro.run(..., backend=
    "native")`` therefore never maps the address space it never reads —
    it runs :meth:`host_kernel`, the plan's own code for the host CPU,
    generated on first native use and unmapped when the plan goes.
    Reusable across same-shaped requests: :meth:`refresh` writes a new
    ``X`` into the (possibly mapped) buffer and re-arms the dispatcher,
    and :meth:`execute` re-runs the identical instruction stream.
    """

    def __init__(self, artifact: Artifact, matrix, *, key, split: str,
                 partitions, ranges, operands=None, x_host=None,
                 dynamic: bool = False, choice=None,
                 name_prefix: str | None = None) -> None:
        self.artifact = artifact
        self.matrix = matrix
        self._key = key
        self.split = split
        self.dynamic = dynamic
        self.partitions = partitions
        #: row ranges the host fast path checks (host-side equivalent
        #: of the simulated threads' ownership)
        self.ranges = ranges
        self.choice = choice
        self.name_prefix = name_prefix
        self.kernel = None
        self.cache_hit = False
        self.codegen_seconds = 0.0
        self._host = _UNBUILT
        self._operands = operands
        if operands is not None:
            # eager binding (third-party systems): host views come from
            # the already-mapped segments
            self.x_host = operands.x_host
            self.y_host = operands.y_host
        else:
            self.x_host = x_host
            self.y_host = (None if x_host is None else
                           np.zeros((matrix.nrows, x_host.shape[1]),
                                    dtype=np.float32))
        # kernel attachment finalizes kernel-dependent state (spill
        # areas); concurrent resolvers (the serving subsystem) must not
        # run that finalization twice — the same lock also serializes
        # lazy operand materialization
        self._attach_lock = threading.Lock()
        # the host kernel has its own: generating it must neither stall
        # a concurrent profile() mapping operands nor deadlock a system
        # whose build_host_kernel reads plan.operands
        self._host_lock = threading.Lock()

    @property
    def key(self):
        """Kernel-cache identity (may materialize operands: specialized
        kernels bake mapped addresses into their identity)."""
        return self._key

    @property
    def operands(self):
        """The simulated address space, mapped on first access."""
        operands = self._operands
        if operands is None:
            with self._attach_lock:
                operands = self._operands
                if operands is None:
                    operands = self._operands = self._materialize()
        return operands

    @property
    def mapped(self) -> bool:
        """Whether the simulated address space has been materialized."""
        return self._operands is not None

    def _materialize(self):
        """Subclass hook: map the simulated address space."""
        raise ReproError(
            f"plan for system {self.system_name!r} has no simulated "
            "operands; pass operands= at construction or override "
            "_materialize()")

    @property
    def config(self) -> ExecutionConfig:
        return self.artifact.config

    @property
    def threads(self) -> int:
        return self.artifact.config.threads

    @property
    def system_name(self) -> str:
        return self.artifact.system.name

    @property
    def d(self) -> int:
        return int(self.x_host.shape[1])

    # ------------------------------------------------------------------
    def attach_kernel(self, kernel, *, cache_hit: bool,
                      codegen_seconds: float) -> None:
        """Install a resolved kernel (idempotent for a given identity)."""
        with self._attach_lock:
            self.kernel = kernel
            self.cache_hit = cache_hit
            self.codegen_seconds = codegen_seconds
            self._on_attach(kernel)

    def _on_attach(self, kernel) -> None:
        """Subclass hook: finalize kernel-dependent state (spill areas)."""

    def ensure_kernel(self) -> "BoundPlan":
        if self.kernel is None:
            self.artifact.ensure_kernel(self)
        return self

    # ------------------------------------------------------------------
    def host_kernel(self):
        """The code this plan runs on the host CPU, or ``None`` when
        its native product is the scipy template (see
        :meth:`resolve_host_kernel`)."""
        return self.resolve_host_kernel()[0]

    def resolve_host_kernel(self) -> tuple[object, bool]:
        """``(host_kernel, generated)``: build the plan's host kernel
        on first use — once per plan, whichever thread gets here first
        — and say whether *this* call ran the code generator (so a
        caller can charge the codegen to exactly one request).  Once
        built the answer is one lock-free attribute read.

        The plan's row ranges are checked against the matrix first, as
        the template path checks them on every call: the generated
        kernel runs ``[0, m)`` on the calling thread, and a split
        configuration that fails to tile the rows must fail identically
        on either path.  A host that cannot run the code
        (:class:`~repro.errors.HostUnsupported`) is counted and leaves
        the plan on the template for good.
        """
        if self._host is not _UNBUILT:
            return self._host, False
        generated = False
        with self._host_lock:
            if self._host is _UNBUILT:
                with _span("pipeline.host_kernel",
                           system=self.system_name) as sp:
                    check_ranges(self.matrix, self.ranges)
                    try:
                        kernel = self.artifact.system.build_host_kernel(self)
                    except HostUnsupported as error:
                        count_fallback(error)
                        kernel = None
                    generated = kernel is not None
                    sp.annotate(generated=generated)
                    self._host = kernel
        return self._host, generated

    # ------------------------------------------------------------------
    def refresh(self, x) -> "BoundPlan":
        """Load a new same-shaped ``X`` into the bound address space.

        Zeroes ``Y`` and re-arms the dynamic dispatcher, so the next
        :meth:`execute` serves the new request on the cached kernel —
        the operand segments are zero-copy views, so the baked addresses
        stay valid.
        """
        x = check_operands(self.matrix, x)
        if int(x.shape[1]) != self.d:
            raise ShapeError(
                f"plan is bound for d={self.d}, got X with d={x.shape[1]}")
        self.x_host[:] = x
        self.y_host[:] = 0.0
        self._reset_dispatch()
        return self

    def _reset_dispatch(self) -> None:
        """Subclass hook: reset shared dispatch state (NEXT counter)."""

    # ------------------------------------------------------------------
    def execute(self, *, timing: bool | None = None,
                backend: str | None = None) -> RunResult:
        """Stage 3: run the plan through an execution backend.

        The backend is resolved per run: an explicit ``backend=`` wins,
        else a ``timing=`` override picks ``"sim"``/``"counts"`` (the
        legacy spelling, kept for per-request fidelity switching in the
        serving subsystem), else the config's
        :attr:`~repro.api.ExecutionConfig.effective_backend`.  The
        returned ``y`` aliases the plan's live output buffer — copy it
        before refreshing the plan if the result must outlive the next
        request.
        """
        resolved = self.resolve_backend(timing=timing, backend=backend)
        with _span("pipeline.execute", backend=resolved,
                   system=self.artifact.system.name):
            return get_backend(resolved).execute(self)

    def resolve_backend(self, *, timing: bool | None = None,
                        backend: str | None = None) -> str:
        """The canonical backend name one :meth:`execute` call with
        these arguments would dispatch to (aliases normalized, so
        traffic accounting and memo keys never fragment a backend)."""
        if backend is not None:
            return canonical_name(backend)
        if timing is not None:
            return "sim" if timing else "counts"
        return self.artifact.config.effective_backend

    def _thread_specs(self):
        raise NotImplementedError

    def _between_runs(self):
        """Callable for the warmup path's state reset, or None."""
        return None

    def _make_result(self, merged, per_thread) -> RunResult:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def multiply(self, x) -> np.ndarray:
        """Fast-path ``Y = A @ x``: one call of the plan's host kernel
        (or of the scipy template, checked against this plan's row
        ranges).  The kernel has the plan's ``d`` baked in; an ``x`` of
        any other width — legal here, unlike :meth:`refresh` — is the
        template's to answer."""
        x = check_operands(self.matrix, x)
        kernel = self.host_kernel()
        if kernel is None or x.shape[1] != kernel.d:
            return multiply_partitioned(self.matrix, x, self.ranges)
        return kernel(x)

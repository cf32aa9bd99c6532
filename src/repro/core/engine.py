"""The user-facing JITSPMM engine (paper Fig. 5).

:class:`JitSpMM` wraps the whole workflow — assembly code generation,
thread spawning, execution, result joining — behind two entry points:

* :meth:`JitSpMM.multiply` — compute ``Y = A @ X`` on the host (same
  partitioning logic, one scipy C call — a one-shot call has no plan
  to amortize a generated kernel over; :class:`repro.serve.SpmmService`
  and bound plans run their own JIT kernel); use this in applications;
* :meth:`JitSpMM.profile` — generate the specialized kernel and execute
  it on a simulator backend (``"sim"`` / ``"counts"`` / ``"sim-ref"``
  from the :mod:`repro.exec` registry), returning the perf counters the
  paper's evaluation reports; use this to reproduce the experiments.

:meth:`JitSpMM.run` is the engine's single pipeline-dispatch path;
``profile`` forwards to it, and ``multiply`` runs the identical shared
arithmetic (:func:`multiply_partitioned` over the resolved partitions,
the native executor's template path) without binding a simulated
address space the host-speed product would never read.

Example::

    engine = JitSpMM(split="merge", threads=8)
    y = engine.multiply(A, X)                    # fast result
    result = engine.profile(A, X)                # simulated, with counters
    fast = engine.profile(A, X, backend="counts")  # counters, no cycle model
    print(result.counters)
    print(engine.inspect(A, X))                  # generated assembly

``split="auto"`` defers the workload-division choice to
:func:`repro.core.autotune.choose_split`, re-deciding per matrix — the
natural extension of JIT specialization, since the matrix is in hand
when code is generated anyway.  Passing a shared
:class:`repro.serve.KernelCache` lets repeated :meth:`profile` calls on
same-shaped problems skip codegen entirely (see :mod:`repro.serve` for
the full serving workflow).
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.autotune import SplitChoice, choose_split
from repro.core.codegen import JitCodegen
from repro.core.layout import tile_columns
from repro.core.runner import (
    PLACEHOLDER_ADDRESSES,
    PLACEHOLDER_NEXT_ADDR,
    RunResult,
    make_jit_spec,
)
from repro.core.split import SPLITS, partition
from repro.errors import ShapeError
from repro.exec import get_backend
from repro.isa.isainfo import IsaLevel
from repro.sparse.csr import CsrMatrix
from repro.sparse.ops import spmm_reference

__all__ = ["JitSpMM", "SPLITS", "SpmmResult", "check_operands",
           "check_ranges", "fast_check_operands", "multiply_partitioned"]

SpmmResult = RunResult  # public alias

_F32 = np.dtype(np.float32)


def check_operands(matrix: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """Validate ``(A, X)`` compatibility; returns X as contiguous f32.

    Shared by the engine and the serving subsystem so every entry point
    rejects malformed operands with identical errors.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ShapeError(f"X must be 2-D, got ndim={x.ndim}")
    if x.shape[0] != matrix.ncols:
        raise ShapeError(
            f"dimension mismatch: A is {matrix.nrows}x{matrix.ncols}, "
            f"X is {x.shape[0]}x{x.shape[1]}"
        )
    if x.shape[1] <= 0:
        raise ShapeError("X must have at least one column")
    return np.ascontiguousarray(x, dtype=np.float32)


def fast_check_operands(matrix: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """:func:`check_operands` with the steady-state path hoisted out.

    The matrix side of the contract is fixed at registration; per call
    only ``x`` varies, and production traffic sends well-formed operands
    (contiguous float32 of the right height).  This probe accepts that
    common case with a handful of cheap attribute reads — no
    ``asarray`` / ``ascontiguousarray`` round trip — and defers
    everything else (wrong dtype, non-contiguous, lists, malformed
    shapes) to the full check, so error behavior is identical.
    """
    if (type(x) is np.ndarray and x.dtype == _F32 and x.ndim == 2
            and x.shape[0] == matrix.ncols and x.shape[1] > 0
            and x.flags.c_contiguous):
        return x
    return check_operands(matrix, x)


# Optional accelerator for the host fast path: scipy's C csr_matvecs
# accumulates each output column in float32, in non-zero storage order
# — the identical operation order (and therefore identical rounding) as
# the ``np.add.at`` segment reduction in ``spmm_reference`` and as the
# generated kernels' per-row accumulators, at a fraction of the cost.
# Conformance is asserted in tests/test_core_engine.py; without scipy
# the pure-numpy oracle serves identically.
try:
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - scipy ships with the test env
    _scipy_sparse = None


def check_ranges(matrix: CsrMatrix, ranges: list[tuple[int, int]]) -> None:
    """Raise :class:`ShapeError` unless ``ranges`` are contiguous and
    cover ``[0, nrows)`` — the partitioners' contract, under which the
    product over the ranges *is* the whole product."""
    end = 0
    for r0, r1 in ranges:
        if r0 != end or r1 < r0:
            end = -1
            break
        end = r1
    if end != matrix.nrows:
        raise ShapeError(
            f"row ranges {list(ranges)} do not tile [0, {matrix.nrows})")


def multiply_partitioned(matrix: CsrMatrix, x: np.ndarray,
                         ranges: list[tuple[int, int]]) -> np.ndarray:
    """The address-free host template: ``A @ X`` over the plan's row
    ranges, in one scipy call.

    What the ``"native"`` backend computes for everything that has no
    generated host kernel of its own (:mod:`repro.exec.host`): plan-less
    one-shot calls (:meth:`JitSpMM.multiply`), the AOT / MKL template
    systems, and any plan on a host that cannot run generated code.
    Which of the two runs follows from what the plan is, never from an
    option.  Rows are independent and every kernel here accumulates an
    output element in ascending non-zero order, so the
    product over contiguous ranges covering ``[0, nrows)`` — the
    partitioners' contract — *is* the whole product, bit for bit: the
    ranges are checked, then the matrix's prepared scipy handle
    (:meth:`CsrMatrix.to_scipy`, built once per matrix) does the work
    in a single C call (``spmm_reference`` without scipy).
    """
    check_ranges(matrix, ranges)
    if _scipy_sparse is None:
        return spmm_reference(matrix, x)
    return matrix.to_scipy() @ x


class JitSpMM:
    """Just-in-time SpMM engine: ``Y = A @ X`` on the simulated CPU.

    Args:
        split: Workload division — ``"row"`` (default), ``"nnz"``,
            ``"merge"`` (paper §IV-B) or ``"auto"`` (pick per matrix via
            :func:`repro.core.autotune.choose_split`).
        threads: Simulated CPU threads.
        dynamic: Use Listing-1 dynamic row dispatching (defaults to True
            for row-split, as in the paper; forced False otherwise; must
            stay None for ``"auto"``, where the tuner decides).
        batch: Dynamic dispatch batch size; None (default) sizes it
            automatically from the row count (the paper's fixed 128 is
            the cap — see :func:`repro.core.runner.auto_batch`).
        isa: ISA level for code generation (``"avx512"`` default).
        timing: Model caches/pipeline when profiling (slower, gives
            cycle estimates); counts are identical either way.
        backend: Execution backend :meth:`profile` dispatches to
            (``"counts"``, ``"sim"``, ``"sim-ref"``, or any
            :func:`repro.exec.register_backend`-ed name); ``None``
            defers to ``timing``.
        cache: Optional shared :class:`repro.serve.KernelCache`;
            :meth:`profile` reuses cached kernels across calls when the
            full kernel identity matches.
    """

    def __init__(
        self,
        split: str = "row",
        threads: int = 8,
        dynamic: bool | None = None,
        batch: int | None = None,
        isa: IsaLevel | str = IsaLevel.AVX512,
        timing: bool = True,
        backend: str | None = None,
        cache=None,
    ) -> None:
        # one validation authority: the api-level config applies the
        # same split/thread/dispatch contract for every entry point
        from repro.api.config import ExecutionConfig

        self.config = ExecutionConfig(
            split=split, threads=threads, dynamic=dynamic, batch=batch,
            isa=isa, timing=timing, backend=backend, cache=cache,
        )
        self.split = split
        self.threads = threads
        self.dynamic = self.config.effective_dynamic
        self.batch = batch
        self.isa = self.config.isa
        self.timing = timing
        self.cache = cache
        # (id(matrix), d) -> (weakref to matrix, SplitChoice); the
        # weakref guards against id() reuse after garbage collection
        self._choices: dict[tuple[int, int], tuple] = {}

    # ------------------------------------------------------------------
    def choose(self, matrix: CsrMatrix, d: int) -> SplitChoice:
        """The tuner's verdict for (matrix, d), memoized per matrix.

        Autotuning is O(m) per candidate — cheap next to codegen but
        not free, so like codegen it is paid once per (matrix, d) when
        the engine is reused across requests.
        """
        key = (id(matrix), d)
        cached = self._choices.get(key)
        if cached is not None and cached[0]() is matrix:
            return cached[1]
        choice = choose_split(matrix, d, self.threads, self.isa)
        # drop entries whose matrix has been collected, so a long-lived
        # engine serving transient matrices doesn't grow without bound
        self._choices = {k: v for k, v in self._choices.items()
                         if v[0]() is not None}
        self._choices[key] = (weakref.ref(matrix), choice)
        return choice

    def _resolve(self, matrix: CsrMatrix, d: int) -> tuple[str, bool, int | None]:
        """The concrete ``(split, dynamic, batch)`` for this instance."""
        if self.split != "auto":
            return self.split, self.dynamic, self.batch
        choice = self.choose(matrix, d)
        return choice.split, choice.dynamic, self.batch or choice.batch

    # ------------------------------------------------------------------
    def run(self, matrix: CsrMatrix, x: np.ndarray,
            backend: str | None = None) -> RunResult:
        """Execute ``Y = A @ X`` through one execution backend.

        The single execution path behind :meth:`multiply` and
        :meth:`profile`: resolves the engine's (possibly autotuned)
        split, then dispatches through the :mod:`repro.api` pipeline to
        the requested :mod:`repro.exec` backend (default: the engine's
        configured backend).
        """
        from repro.api import get_system

        x = self._check_operands(matrix, x)
        split, dynamic, batch = self._resolve(matrix, int(x.shape[1]))
        config = self.config.with_overrides(
            split=split, dynamic=dynamic, batch=batch)
        plan = get_system("jit").prepare(config).bind(
            matrix, x,
            ensure_kernel=None if backend is None else
            get_backend(backend).requires_kernel)
        return plan.execute(backend=backend)

    def multiply(self, matrix: CsrMatrix, x: np.ndarray) -> np.ndarray:
        """Compute ``Y = A @ X`` with the ``"native"`` backend.

        Same partitioning as the simulated path (so a bad split
        configuration fails identically) and the arithmetic of the
        :class:`~repro.exec.backends.NativeExecutor`'s template path —
        a one-shot call binds no plan, so there is no generated kernel
        to reuse (``run(..., backend="native")`` gives the pipeline
        form, which generates and runs the plan's host kernel, when a
        :class:`RunResult` is wanted).  Bit-equal to the
        reference kernel.  Well-formed operands take the hoisted
        fast-path check (:func:`fast_check_operands`) — this is the
        production entry point and its per-call overhead matters.
        """
        x = fast_check_operands(matrix, x)
        split, _, _ = self._resolve(matrix, int(x.shape[1]))
        return multiply_partitioned(
            matrix, x, partition(matrix, self.threads, split))

    # ------------------------------------------------------------------
    def profile(self, matrix: CsrMatrix, x: np.ndarray,
                backend: str | None = None) -> RunResult:
        """Generate the specialized kernel and run it on the simulator.

        ``backend`` overrides the engine's configured simulator backend
        for this call (``"counts"``, ``"sim"``, ``"sim-ref"``)."""
        return self.run(matrix, x, backend=backend)

    # ------------------------------------------------------------------
    def inspect(self, matrix: CsrMatrix, x: np.ndarray) -> str:
        """Return the assembly listing the JIT would generate for (A, X).

        Generates against placeholder addresses — the instruction stream
        shape is what matters for inspection.
        """
        x = self._check_operands(matrix, x)
        _, dynamic, batch = self._resolve(matrix, int(x.shape[1]))
        spec = make_jit_spec(
            int(x.shape[1]), matrix.nrows, PLACEHOLDER_ADDRESSES,
            next_addr=PLACEHOLDER_NEXT_ADDR if dynamic else 0,
            batch=batch, threads=self.threads, isa=self.isa,
        )
        gen = JitCodegen(spec)
        program = (gen.build_dynamic_kernel() if dynamic
                   else gen.build_range_kernel())
        return program.listing()

    def plan(self, d: int) -> list:
        """The column-tile / register plan for ``d`` (paper Fig. 8)."""
        return tile_columns(d, self.isa)

    # ------------------------------------------------------------------
    _check_operands = staticmethod(check_operands)

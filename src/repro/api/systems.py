"""Built-in :class:`~repro.api.System` implementations.

Three systems mirror the paper's evaluation matrix:

* :class:`JitSystem` (``"jit"``) — JITSPMM: specialized code generated
  per problem (addresses baked, column loop folded away).  Kernel
  identity exists at bind time; ``split="auto"`` autotunes per matrix.
* :class:`AotSystem` (``"aot:<personality>"``) — the gcc / clang / icc
  / icc-avx512 compiler personalities.  Address-free param-block
  templates: compiled once per personality, reused for any operands.
* :class:`MklSystem` (``"mkl"``) — the hand-scheduled MKL-like kernel,
  likewise an address-free template (keyed by its SIMD lane count).

All three produce :class:`~repro.core.runner.RunResult` objects that
are bit-identical to what the pre-pipeline ``run_jit`` / ``run_aot`` /
``run_mkl`` entry points produced: operand segments are mapped in the
same order (so baked addresses — and therefore cache identities and
modeled memory behaviour — are unchanged), and the machine is driven
with the same warmup/dispatch contract.
"""

from __future__ import annotations

import time

import numpy as np

from repro.aot import abi
from repro.aot.compiler import AotCompiler
from repro.aot.mkl import MklKernel
from repro.core.autotune import choose_split
from repro.core.codegen import DEFAULT_BATCH, JitCodegen
from repro.core.engine import check_operands
from repro.core.runner import (
    MappedOperands,
    RunResult,
    jit_thread_specs,
    map_jit_operands,
    resolve_jit_dispatch,
)
from repro.core.split import partition
from repro.exec.host import build_host_kernel
from repro.machine import ThreadSpec
from repro.obs.trace import span as _span
from repro.serve.cache import aot_key, jit_key, mkl_key

from repro.api.pipeline import Artifact, BoundPlan, System
from repro.api.registry import register

__all__ = ["AotSystem", "JitSystem", "MklSystem"]


# ----------------------------------------------------------------------
# JIT: specialized kernels, bind-time identity
# ----------------------------------------------------------------------
class JitPlan(BoundPlan):
    """A JIT problem binding: spec + partitions, operands mapped lazily.

    The kernel's cache identity bakes the mapped base addresses, so
    resolving :attr:`key` materializes the address space; a plan served
    purely by the ``"native"`` backend never does either — it runs
    :meth:`JitSystem.build_host_kernel`'s code, which bakes the real
    addresses of the matrix arrays instead.
    """

    def __init__(self, artifact: Artifact, matrix, x, *, split: str,
                 dynamic: bool, batch, partitions, ranges, choice,
                 name_prefix: str | None) -> None:
        super().__init__(
            artifact, matrix, key=None, split=split,
            partitions=partitions, ranges=ranges, x_host=x,
            dynamic=dynamic, choice=choice, name_prefix=name_prefix,
        )
        self._batch = batch
        self.spec = None

    def _materialize(self):
        config = self.config
        operands, spec, _, _ = map_jit_operands(
            self.matrix, self.x_host, split=self.split,
            threads=config.threads, dynamic=self.dynamic,
            batch=self._batch, isa=config.isa, y=self.y_host,
            partitions=self.partitions,
        )
        self.spec = spec
        return operands

    @property
    def key(self):
        """Kernel identity: needs the baked addresses, so the first
        resolution maps the operands."""
        self.operands
        return jit_key(self.spec, self.dynamic)

    def _thread_specs(self):
        return jit_thread_specs(
            self.kernel.program, self.threads, self.partitions,
            self.dynamic, name_prefix=self.name_prefix or "jit")

    def _reset_dispatch(self) -> None:
        if self.spec is not None and self.spec.next_addr:
            self._operands.memory.write_int(self.spec.next_addr, 8, 0)

    def _between_runs(self):
        return self._reset_dispatch

    def _make_result(self, merged, per_thread) -> RunResult:
        return RunResult(
            y=self.y_host, counters=merged, per_thread=per_thread,
            program=self.kernel.program,
            codegen_seconds=self.codegen_seconds,
            code_bytes=self.kernel.code_bytes, system="jit",
            split=self.split, threads=self.threads,
            partitions=self.partitions, cache_hit=self.cache_hit,
        )


class JitSystem(System):
    """JITSPMM: generate specialized code per problem, then execute."""

    name = "jit"
    address_free = False
    supports_autotune = True

    def bind(self, artifact: Artifact, matrix, x,
             name_prefix: str | None = None) -> JitPlan:
        config = artifact.config
        # bind a private copy: refresh() overwrites the buffer (and,
        # once mapped, the segment aliasing it) in place and must never
        # clobber the caller's array
        x = check_operands(matrix, x).copy()
        d = int(x.shape[1])
        choice = None
        split, dynamic, batch = config.split, config.dynamic, config.batch
        if split == "auto":
            choice = choose_split(matrix, d, config.threads, config.isa)
            split, dynamic = choice.split, choice.dynamic
            batch = batch or choice.batch
        dynamic, partitions = resolve_jit_dispatch(
            matrix, split, config.threads, dynamic)
        ranges = (partition(matrix, config.threads, "row") if dynamic
                  else partitions)
        return JitPlan(
            artifact, matrix, x, split=split, dynamic=dynamic, batch=batch,
            partitions=partitions, ranges=ranges, choice=choice,
            name_prefix=name_prefix,
        )

    def build_kernel(self, plan: JitPlan) -> tuple[object, float]:
        with _span("codegen.jit", dynamic=plan.dynamic,
                   split=str(plan.split)):
            plan.operands  # specialization bakes the mapped addresses
            output = JitCodegen(plan.spec).generate(dynamic=plan.dynamic)
        return output, output.codegen_seconds

    def kernel_nbytes(self, kernel) -> int:
        return kernel.code_bytes

    def build_host_kernel(self, plan: JitPlan):
        # always the range kernel over [0, m) on the caller's thread,
        # whatever the plan's simulated dispatch: the dynamic kernel's
        # shared NEXT counter would make the code page single-use
        with _span("codegen.jit", host=True, d=plan.d):
            return build_host_kernel(plan.matrix, plan.d)


# ----------------------------------------------------------------------
# Param-block templates: AOT personalities and the MKL-like kernel
# ----------------------------------------------------------------------
class ParamBlockPlan(BoundPlan):
    """A problem bound to an address-free param-block kernel.

    Operand layout reproduces the legacy runner exactly: the five SpMM
    arrays, then the parameter block, then the NEXT word, then one
    spill area per thread.  The whole address space is materialized
    lazily (native-backend plans never map it); spill areas depend on
    the compiled kernel (its register allocation), so they are mapped
    when the kernel attaches — deterministically in the same position,
    since nothing else maps segments in between.
    """

    def __init__(self, artifact: Artifact, matrix, x, *, key,
                 name_prefix: str | None, pass_config=None) -> None:
        config = artifact.config
        # private copy, same reason as the JIT bind: refresh() writes
        # into the mapped segment
        x = check_operands(matrix, x).copy()
        partitions = partition(matrix, config.threads, config.split)
        super().__init__(
            artifact, matrix, key=key, split=config.split,
            partitions=partitions, ranges=partitions, x_host=x,
            name_prefix=name_prefix,
        )
        #: searched per-matrix PassConfig (opt_level=3 binds only);
        #: None means the artifact's template config applies
        self.pass_config = pass_config
        self.pb_addr = None
        self.next_addr = None
        self._init_gprs: list[dict] | None = None

    def _materialize(self):
        operands = MappedOperands.create(self.matrix, self.x_host,
                                         y=self.y_host)
        memory = operands.memory
        pb = np.zeros(abi.PARAM_BLOCK_BYTES // 8, dtype=np.int64)
        self.pb_addr = memory.map_array(pb, "param_block")
        self.next_addr, _ = memory.map_zeros(8, "NEXT")
        pb[abi.PARAM_ROW_PTR // 8] = operands.row_ptr_addr
        pb[abi.PARAM_COL_INDICES // 8] = operands.col_addr
        pb[abi.PARAM_VALS // 8] = operands.vals_addr
        pb[abi.PARAM_X // 8] = operands.x_addr
        pb[abi.PARAM_Y // 8] = operands.y_addr
        pb[abi.PARAM_D // 8] = operands.d
        pb[abi.PARAM_M // 8] = operands.m
        pb[abi.PARAM_NEXT // 8] = self.next_addr
        pb[abi.PARAM_BATCH // 8] = DEFAULT_BATCH
        return operands

    # -- kernel adapters (overridden by the MKL plan) -------------------
    def _program(self):
        return self.kernel.program

    def _spill_bytes(self) -> int:
        return self.kernel.spill_bytes

    def _label(self) -> str:
        return f"aot-{self.kernel.personality.name}"

    # ------------------------------------------------------------------
    def _on_attach(self, kernel) -> None:
        if self._init_gprs is not None:
            return
        # the attach lock is already held; materialize directly rather
        # than through the (re-entrant-unsafe) operands property
        if self._operands is None:
            self._operands = self._materialize()
        memory = self._operands.memory
        spill_bytes = self._spill_bytes()
        init_gprs = []
        for t, (r0, r1) in enumerate(self.partitions):
            init = {abi.ARG_PARAM_BLOCK: self.pb_addr,
                    abi.ARG_ROW_START: r0, abi.ARG_ROW_END: r1}
            if spill_bytes:
                spill_addr, _ = memory.map_zeros(spill_bytes, f"spill{t}")
                init[abi.SPILL_BASE_REG] = spill_addr
            init_gprs.append(init)
        self._init_gprs = init_gprs

    def _thread_specs(self):
        prefix = self.name_prefix or self._label()
        program = self._program()
        return [ThreadSpec(program, init_gpr=init, name=f"{prefix}{t}")
                for t, init in enumerate(self._init_gprs)]

    def _reset_dispatch(self) -> None:
        if self._operands is not None:
            self._operands.memory.write_int(self.next_addr, 8, 0)

    def _make_result(self, merged, per_thread) -> RunResult:
        # codegen_seconds stays 0: AOT compilation happens "before
        # shipping" and is never part of the measured execution (the
        # serving subsystem accounts amortization separately)
        return RunResult(
            y=self.y_host, counters=merged, per_thread=per_thread,
            program=self._program(), system=self._label(),
            split=self.split, threads=self.threads,
            partitions=self.partitions, cache_hit=self.cache_hit,
        )


class AotSystem(System):
    """An AOT compiler personality serving the param-block SpMM.

    ``config.opt_level`` selects the IR pass pipeline: levels 0-2 keep
    the address-free template contract (one compile per personality and
    level, any operands), while level 3 runs the feedback-directed
    search per bound matrix — the kernel identity then exists only at
    bind time, exactly like the JIT's.
    """

    address_free = True

    def __init__(self, personality: str = "icc-avx512") -> None:
        # resolve (and validate) eagerly so unknown personalities fail
        # at registry time, matching the legacy AotCompiler error
        self.personality = AotCompiler(personality).personality
        self.name = f"aot:{self.personality.name}"

    def prepare_key(self, config):
        if config.opt_level >= 3:
            return None  # searched per matrix: bind-time identity
        passes = self.personality.pass_config(config.opt_level)
        return aot_key(self.personality.name,
                       passes=passes.ident() if config.opt_level else "")

    def bind(self, artifact: Artifact, matrix, x,
             name_prefix: str | None = None) -> ParamBlockPlan:
        config = artifact.config
        key = self.prepare_key(config)
        pass_config = None
        if key is None:
            from repro.aot.search import search_passes

            choice = search_passes(
                self.personality, matrix, int(x.shape[1]),
                budget=config.search_budget, l1=config.l1, l2=config.l2)
            pass_config = choice.config
            key = aot_key(self.personality.name,
                          passes=pass_config.ident())
        return ParamBlockPlan(artifact, matrix, x, key=key,
                              name_prefix=name_prefix,
                              pass_config=pass_config)

    def build_template(self, config) -> tuple[object, float]:
        return self._compile(self.personality.pass_config(config.opt_level))

    def build_kernel(self, plan) -> tuple[object, float]:
        passes = getattr(plan, "pass_config", None)
        if passes is None:
            opt_level = 0 if plan is None else plan.config.opt_level
            passes = self.personality.pass_config(min(opt_level, 2))
        return self._compile(passes)

    def _compile(self, passes) -> tuple[object, float]:
        with _span("codegen.aot", personality=self.personality,
                   passes=passes.ident()):
            started = time.perf_counter()
            compiled = AotCompiler(self.personality).compile_spmm(
                passes=passes)
            return compiled, time.perf_counter() - started

    def kernel_nbytes(self, kernel) -> int:
        return len(kernel.program.encode())


class MklPlan(ParamBlockPlan):
    """MKL template binding: the cached kernel is a bare ``Program``."""

    def _program(self):
        return self.kernel

    def _spill_bytes(self) -> int:
        return 0

    def _label(self) -> str:
        return "mkl"


class MklSystem(System):
    """The hand-scheduled MKL-like AOT kernel (``repro.aot.mkl``)."""

    address_free = True

    def __init__(self, lanes: int = 16) -> None:
        self.lanes = lanes
        self.name = "mkl" if lanes == 16 else f"mkl:{lanes}"

    def prepare_key(self, config):
        return mkl_key(self.lanes)

    def bind(self, artifact: Artifact, matrix, x,
             name_prefix: str | None = None) -> MklPlan:
        return MklPlan(artifact, matrix, x,
                       key=self.prepare_key(artifact.config),
                       name_prefix=name_prefix)

    def build_kernel(self, plan) -> tuple[object, float]:
        with _span("codegen.mkl", lanes=self.lanes):
            started = time.perf_counter()
            program = MklKernel(lanes=self.lanes).build()
            return program, time.perf_counter() - started

    def kernel_nbytes(self, kernel) -> int:
        return len(kernel.encode())


# ----------------------------------------------------------------------
# Built-in registrations (imported once via the registry)
# ----------------------------------------------------------------------
register("jit", JitSystem())
register("mkl", MklSystem())
for _personality in ("gcc", "clang", "icc", "icc-avx512"):
    register(f"aot:{_personality}", AotSystem(_personality),
             aliases=(_personality,))
del _personality

"""Built-in :class:`~repro.exec.Executor` implementations.

Four backends cover today's speed/fidelity spectrum:

* :class:`NativeExecutor` (``"native"``) — the product computed on the
  host CPU: the plan's own generated kernel (:mod:`repro.exec.host`)
  where the plan has a host form, else one C call on the matrix's
  prepared scipy handle; the production answer path.  No simulated
  machine, no counters.
* :class:`CountsExecutor` (``"counts"``) — functional execution of the
  generated kernel with event counters (the pre-exec ``timing=False``).
* :class:`SimExecutor` (``"sim"``) — cycle-accurate via the
  record/replay timing engine (:mod:`repro.machine.replay`): generated
  blocks (:mod:`repro.machine.fused`) record a columnar trace, the
  vectorized cache / predictor / scoreboard models replay it in batch.
  Bit-identical counters (cycles included) to ``sim-ref`` at several
  times its simulated instructions/sec.  ``"sim-fused"`` and
  ``"fused"`` are aliases of it, kept because the frozen perfbench
  ladder names a ``sim-fused`` rung.
* :class:`SimRefExecutor` (``"sim-ref"``) — the per-access reference:
  caches, predictors and the pipeline scoreboard interpreted per
  instruction.  The conformance oracle (and escape hatch) for the
  replay engine.
"""

from __future__ import annotations

from repro.core.engine import multiply_partitioned
from repro.core.runner import RunResult
from repro.machine import Counters, CpuConfig, Machine
from repro.obs import record_counters

from repro.exec.backend import Executor, register_backend

__all__ = ["CountsExecutor", "NativeExecutor", "SimExecutor",
           "SimRefExecutor"]


class NativeExecutor(Executor):
    """The plan's product, computed on the host CPU.

    What runs is decided by what the plan is: a JIT plan on an x86-64
    host runs :meth:`~repro.api.BoundPlan.host_kernel` — its own range
    kernel, generated for this CPU on first use, over ``[0, m)`` on the
    calling thread; every other plan (address-free AOT / MKL templates,
    third-party systems, hosts that cannot run the code) runs the scipy
    template, :func:`~repro.core.engine.multiply_partitioned`.  Either
    way the plan's row ranges are checked — the ownership the simulated
    threads would have, so a bad split configuration fails identically
    — and the result, bit-equal to the reference kernel, becomes the
    plan's live ``Y`` buffer.  ``requires_kernel`` stays False: the
    cached, simulated-address kernel is not what runs here.
    """

    name = "native"
    requires_kernel = False

    def execute(self, plan) -> RunResult:
        # host-side buffers only: the simulated address space is never
        # read here, and the lazy-binding plans never map it for us
        kernel = plan.host_kernel()
        if kernel is None:
            y = multiply_partitioned(plan.matrix, plan.x_host, plan.ranges)
        else:
            y = kernel(plan.x_host)
        if plan.mapped:
            plan.y_host[:] = y  # Y is aliased by the mapped segment
        else:
            plan.y_host = y
        # a simulated run may have attached a kernel: a JIT/AOT compile
        # output carrying ``.program``, or MKL's bare ``Program``
        program = getattr(plan.kernel, "program", plan.kernel)
        return RunResult(
            y=plan.y_host,
            counters=Counters(),
            per_thread=[],
            program=program,
            codegen_seconds=plan.codegen_seconds,
            system=plan.system_name,
            split=plan.split,
            threads=plan.threads,
            partitions=plan.partitions,
            cache_hit=plan.cache_hit,
            backend=self.name,
        )


class MachineExecutor(Executor):
    """Shared driver for the simulated-machine backends."""

    provides_counters = True
    timing = False
    engine = "replay"

    def execute(self, plan) -> RunResult:
        plan.ensure_kernel()
        config = plan.config
        machine = Machine(
            plan.operands.memory,
            CpuConfig(timing=self.timing, engine=self.engine,
                      l1=config.l1, l2=config.l2,
                      max_instructions=config.max_steps),
        )
        merged, per_thread = machine.run(
            plan._thread_specs(),
            warmup=config.warmup and self.timing,
            between_runs=plan._between_runs(),
        )
        result = plan._make_result(merged, per_thread)
        result.backend = self.name
        # every simulated run's counters flow into the unified metrics
        # registry, labeled by backend and system
        record_counters(result.counters, backend=self.name,
                        system=plan.system_name)
        return result


class CountsExecutor(MachineExecutor):
    """Functional execution + event counters (no caches, no cycles)."""

    name = "counts"


class SimExecutor(MachineExecutor):
    """Cycle-accurate simulation through the record/replay timing
    engine: generated-block execution, trace-replayed caches /
    predictors / scoreboard.  Bit-identical counters to ``sim-ref``."""

    name = "sim"
    provides_cycles = True
    timing = True


class SimRefExecutor(SimExecutor):
    """Cycle-accurate per-access reference: caches, predictors and the
    pipeline scoreboard interpreted at every instruction — the engine
    ``sim`` used before trace replay.  Slow; kept as the conformance
    oracle and escape hatch."""

    name = "sim-ref"
    engine = "ref"


register_backend("native", NativeExecutor(), aliases=("numpy",))
register_backend("counts", CountsExecutor())
register_backend("sim", SimExecutor(), aliases=("sim-fused", "fused"))
register_backend("sim-ref", SimRefExecutor())

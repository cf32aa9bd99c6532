"""Multi-core execution: threads, round-robin scheduling, atomicity.

Mirrors the paper's execution model (Fig. 5): a number of threads are
spawned, each independently determines its workload and invokes the
jit-function; when all complete, results are joined.  Threads share the
:class:`Memory` but have private registers, caches, predictors and
pipelines (the paper's Xeon has private L1/L2 per core; we do not model
shared-L3 contention).

Scheduling interleaves threads at a fixed instruction quantum, which is
what makes the ``lock xadd`` dynamic row dispatcher (paper Listing 1)
meaningful: threads race for batches exactly as on real hardware, just
with a deterministic interleaving.  Instructions never interleave
*within* an instruction, so ``lock``-prefixed read-modify-writes are
atomic by construction.

Block dispatch (:meth:`Cpu.run_quantum`) preserves that contract
exactly: a thread's turn still retires exactly ``quantum`` instructions
— whole blocks while they fit, per-instruction steps for the residue —
so the global interleaving, and with it every ``lock xadd`` race outcome
and per-thread counter, is bit-identical to per-instruction scheduling.
A machine running a single thread has no interleaving to preserve and
runs it in one unbounded turn: the result is the same for any quantum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.assembler import Program
from repro.machine.counters import Counters
from repro.machine.cpu import UNBOUNDED_QUANTUM, Cpu, CpuConfig
from repro.machine.memory import Memory

__all__ = ["Machine", "ThreadSpec"]

#: Modeled fixed cost of spawning a thread team and joining it (cycles).
#: Kept small relative to kernel runtimes on the scaled twins; at the
#: paper's matrix sizes any constant here is invisible.
THREAD_OVERHEAD_CYCLES = 200.0


@dataclass
class ThreadSpec:
    """One thread's work order: a program plus initial register values."""

    program: Program
    init_gpr: dict = field(default_factory=dict)
    name: str = ""


class Machine:
    """A multi-core machine over one shared memory."""

    def __init__(
        self,
        memory: Memory,
        config: CpuConfig | None = None,
        quantum: int = 64,
    ) -> None:
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.memory = memory
        self.config = config or CpuConfig()
        self.quantum = quantum

    def run(
        self,
        threads: list[ThreadSpec],
        warmup: bool = False,
        between_runs=None,
    ) -> tuple[Counters, list[Counters]]:
        """Run all threads to completion.

        Returns ``(merged, per_thread)`` counters.  Merged counters sum all
        events except cycles, which take the slowest thread (that is the
        machine's elapsed time) plus a fixed spawn/join overhead.

        With ``warmup=True`` the whole workload executes twice and only
        the second (warm caches, trained predictors) run is measured —
        the steady state the paper's average-of-ten methodology reports.
        ``between_runs()`` is called after the warm-up pass so the caller
        can reset non-idempotent shared state (the dynamic dispatcher's
        ``NEXT`` counter).
        """
        cpus = [Cpu(self.memory, self.config) for _ in threads]
        if warmup:
            for cpu in cpus:
                cpu.disable_pipeline()  # warm caches/predictors cheaply
            self._execute(cpus, threads)
            for cpu in cpus:
                cpu.reset_metrics()
            if between_runs is not None:
                between_runs()
        self._execute(cpus, threads)
        per_thread = [cpu.finish() for cpu in cpus]
        merged = Counters()
        for counters in per_thread:
            merged.merge(counters)
        if merged.cycles:
            merged.cycles += THREAD_OVERHEAD_CYCLES
        return merged, per_thread

    def _execute(self, cpus: list[Cpu], threads: list[ThreadSpec]) -> None:
        for cpu, spec in zip(cpus, threads):
            cpu.start(spec.program, spec.init_gpr, name=spec.name)
        # one thread has nobody to interleave with: drive it unbounded
        # (run_quantum's flush-pressure stride still bounds the
        # recorder) rather than stepping a block-sized residue at the
        # end of every turn
        quantum = self.quantum if len(cpus) > 1 else UNBOUNDED_QUANTUM
        try:
            while True:
                alive = False
                for cpu in cpus:
                    if cpu.done:
                        continue
                    alive = True
                    cpu.run_quantum(quantum)
                if not alive:
                    break
        except BaseException:
            # a faulting thread ends the run: replay every thread's
            # recorded prefix so fault-time counters match per-access
            # interpretation (cycles stay unset, as on the ref path)
            for cpu in cpus:
                cpu.flush_timing()
            raise

    def run_single(self, spec: ThreadSpec) -> Counters:
        """Convenience wrapper for single-thread programs."""
        merged, _ = self.run([spec])
        return merged

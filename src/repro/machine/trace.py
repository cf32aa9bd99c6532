"""Execution tracing: a perf-record-like facility for the simulator.

Wraps a :class:`Cpu` so every retired instruction is appended to a
bounded trace with its program counter, disassembly, and running event
counts.  Useful for debugging generated kernels ("why is this branch
always mispredicted?") and for teaching — the examples print annotated
traces of the paper's Listing-2 inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.assembler import Program
from repro.machine.cpu import Cpu, ProgramSemantics

__all__ = ["TraceEntry", "Tracer"]


@dataclass(frozen=True)
class TraceEntry:
    """One retired instruction."""

    seq: int
    pc: int
    text: str
    cycles: float

    def __str__(self) -> str:
        return f"{self.seq:8d}  pc={self.pc:5d}  cyc={self.cycles:12,.1f}  {self.text}"


@dataclass
class Tracer:
    """Bounded instruction trace recorder for one CPU.

    Attributes:
        limit: Keep at most this many most-recent entries (ring buffer
            semantics; old entries are dropped).
    """

    cpu: Cpu
    limit: int = 10_000
    entries: list[TraceEntry] = field(default_factory=list)
    _installed: bool = False

    def run(self, program: Program, **kwargs) -> None:
        """Execute ``program`` on the wrapped CPU, recording the trace.

        Generated blocks execute their instructions inline, which would
        silently drop them from the trace, so the wrapped steps are
        installed next to an empty block table: every instruction is
        dispatched as a single step.  The CPU's own compiled entries
        come back on exit.
        """
        cpu = self.cpu
        semantics = cpu.semantics(program)
        texts = [str(insn) for insn in program.instructions]
        wrapped = [self._wrap(step, pc, texts[pc])
                   for pc, step in enumerate(semantics.steps)]
        # both caches are keyed on content fingerprint, not object
        # identity
        key = program.fingerprint()
        blocks = cpu.superblocks(program)
        cpu._compiled[key] = ProgramSemantics(semantics.insns, steps=wrapped)
        cpu._superblocks[key] = [None] * len(wrapped)
        try:
            cpu.run(program, **kwargs)
        finally:
            cpu._compiled[key] = semantics
            cpu._superblocks[key] = blocks

    def _wrap(self, step, pc: int, text: str):
        entries = self.entries
        limit = self.limit
        cpu = self.cpu

        def traced() -> int:
            nxt = step()
            cycles = cpu.pipeline.cycles if cpu.pipeline is not None else 0.0
            entries.append(TraceEntry(len(entries), pc, text, cycles))
            if len(entries) > 2 * limit:
                del entries[:limit]
            return nxt

        return traced

    def tail(self, count: int = 20) -> list[TraceEntry]:
        return self.entries[-count:]

    def render(self, count: int = 20) -> str:
        return "\n".join(str(entry) for entry in self.tail(count))

    def histogram(self) -> dict[str, int]:
        """Dynamic mnemonic histogram of the recorded window."""
        counts: dict[str, int] = {}
        for entry in self.entries:
            mnemonic = entry.text.split()[0]
            if mnemonic == "lock":
                mnemonic = "lock " + entry.text.split()[1]
            counts[mnemonic] = counts.get(mnemonic, 0) + 1
        return counts

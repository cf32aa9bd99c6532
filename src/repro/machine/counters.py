"""Performance counters, the simulated analogue of Linux perf events.

The paper's profiling analysis (§V-D, Fig. 11) reports four hardware
events: memory loads, branches, branch misses, and instructions.
:class:`Counters` tracks those plus the extra detail our model produces
for free (stores, bytes moved, SIMD/FMA breakdown, cache hits/misses,
modeled cycles).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["Counters"]


@dataclass
class Counters:
    """Mutable event counters for one simulated hardware thread."""

    instructions: int = 0
    memory_loads: int = 0
    memory_stores: int = 0
    loaded_bytes: int = 0
    stored_bytes: int = 0
    branches: int = 0
    cond_branches: int = 0
    branch_misses: int = 0
    simd_instructions: int = 0
    fma_instructions: int = 0
    flop: int = 0
    gather_elements: int = 0
    atomic_ops: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    cycles: float = 0.0

    def merge(self, other: "Counters") -> "Counters":
        """Accumulate another counter set into this one (cycles take max).

        Cycles take the max rather than the sum because threads run
        concurrently: the machine's elapsed time is the slowest thread.
        """
        for f in fields(self):
            if f.name == "cycles":
                self.cycles = max(self.cycles, other.cycles)
            else:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def scaled(self, factor: float) -> "Counters":
        """Return a copy with every event count multiplied by ``factor``."""
        out = Counters()
        for f in fields(self):
            value = getattr(self, f.name)
            setattr(out, f.name, type(value)(value * factor))
        return out

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def seconds(self, ghz: float = 3.7) -> float:
        """Modeled wall time at a given clock frequency."""
        return self.cycles / (ghz * 1e9)

    def __str__(self) -> str:
        parts = [
            f"insns={self.instructions:,}",
            f"loads={self.memory_loads:,}",
            f"stores={self.memory_stores:,}",
            f"branches={self.branches:,}",
            f"br_miss={self.branch_misses:,}",
            f"cycles={self.cycles:,.0f}",
        ]
        return "Counters(" + " ".join(parts) + ")"

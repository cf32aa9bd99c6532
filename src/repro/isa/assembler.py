"""Two-pass assembler: fluent instruction emission, labels, programs.

The :class:`Assembler` is the interface every code generator in this
library (JIT and AOT alike) uses to emit instructions, in the same spirit
as the AsmJit builder the paper uses.  A finished :class:`Program` carries
the instruction list, resolved label targets, and can be encoded to
machine-code bytes on demand.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

from repro.errors import AssemblyError
from repro.isa.instructions import MNEMONICS, Instruction
from repro.isa.operands import Imm, Operand

__all__ = ["Assembler", "Label", "Program"]


@dataclass(frozen=True)
class Label:
    """A named position in the instruction stream."""

    name: str

    def __repr__(self) -> str:
        return f".{self.name}:"


@dataclass
class Program:
    """A finished, label-resolved instruction sequence.

    Attributes:
        instructions: Flat instruction list in program order.
        labels: Map from label name to the index of the instruction the
            label precedes (may equal ``len(instructions)`` for a label at
            the very end).
        name: Optional symbol name for listings.
    """

    instructions: list[Instruction]
    labels: dict[str, int]
    name: str = ""
    _encoded: bytes | None = field(default=None, repr=False, compare=False)
    _fingerprint: str | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.instructions)

    def fingerprint(self) -> str:
        """Content identity of the instruction stream (cached).

        Two programs with equal fingerprints have identical instructions
        and label targets, hence identical execution semantics — the
        interpreter keys its compiled-closure caches on this instead of
        ``id(program)``, whose value a garbage-collected program can
        bequeath to an unrelated new one.  ``name`` is excluded: it only
        decorates listings and error messages.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for insn in self.instructions:
                digest.update(str(insn).encode())
                digest.update(b"\n")
            for label, index in sorted(self.labels.items()):
                digest.update(f"{label}@{index}\n".encode())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def block_starts(self) -> list[int]:
        """Basic-block leader indices, in program order.

        A leader is the entry point, any label (every branch target is a
        label in this ISA), or the instruction following a branch/`ret`.
        The straight-line run from one leader to the next is a basic
        block — the unit the simulator compiles into one function.
        """
        leaders = {0}
        for index, insn in enumerate(self.instructions):
            if insn.is_branch or insn.mnemonic == "ret":
                leaders.add(index + 1)
        leaders.update(self.labels.values())
        return sorted(i for i in leaders if i < len(self.instructions))

    def target_index(self, label: str) -> int:
        """Resolve a label to an instruction index."""
        try:
            return self.labels[label]
        except KeyError:
            raise AssemblyError(
                f"undefined label {label!r} in program {self.name!r}"
            ) from None

    def listing(self) -> str:
        """Human-readable assembly listing with labels interleaved."""
        by_index: dict[int, list[str]] = {}
        for label, index in self.labels.items():
            by_index.setdefault(index, []).append(label)
        lines: list[str] = []
        if self.name:
            lines.append(f"{self.name}:")
        for index, insn in enumerate(self.instructions):
            for label in sorted(by_index.get(index, ())):
                lines.append(f".{label}:")
            lines.append(f"    {insn}")
        for label in sorted(by_index.get(len(self.instructions), ())):
            lines.append(f".{label}:")
        return "\n".join(lines)

    def encode(self) -> bytes:
        """Machine-code bytes for the whole program (cached)."""
        if self._encoded is None:
            from repro.isa.encoder import encode_program

            self._encoded = encode_program(self)
        return self._encoded

    def code_size(self) -> int:
        """Size of the encoded program in bytes."""
        return len(self.encode())

    def static_counts(self) -> dict[str, int]:
        """Static histogram of mnemonics (for codegen statistics)."""
        counts: dict[str, int] = {}
        for insn in self.instructions:
            counts[insn.mnemonic] = counts.get(insn.mnemonic, 0) + 1
        return counts


class Assembler:
    """Fluent instruction builder with label management.

    Mnemonics from the registry are exposed as methods::

        asm = Assembler("kernel")
        asm.mov(regs.rdi, Imm(0))
        asm.label("loop")
        ...
        asm.jmp("loop")
        program = asm.finish()

    Integer arguments in operand position are promoted to :class:`Imm`.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._items: list[Instruction | Label] = []
        self._label_names: set[str] = set()
        self._gensym = itertools.count()

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    @staticmethod
    def _promote(op: Operand | int) -> Operand:
        if isinstance(op, int):
            return Imm(op)
        return op

    def emit(self, mnemonic: str, *operands: Operand | int, lock: bool = False) -> Instruction:
        """Append one instruction; returns it for inspection."""
        insn = Instruction(
            mnemonic, tuple(self._promote(op) for op in operands), lock=lock
        )
        self._items.append(insn)
        return insn

    def __getattr__(self, name: str):
        if name in MNEMONICS:
            def emit_named(*operands: Operand | int, lock: bool = False) -> Instruction:
                return self.emit(name, *operands, lock=lock)

            return emit_named
        raise AttributeError(f"{type(self).__name__} has no attribute {name!r}")

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------
    def label(self, name: str) -> str:
        """Bind ``name`` to the current position; returns the name."""
        if name in self._label_names:
            raise AssemblyError(f"label {name!r} defined twice")
        self._label_names.add(name)
        self._items.append(Label(name))
        return name

    def fresh_label(self, prefix: str = "L") -> str:
        """Generate a unique label *name* (not yet bound to a position)."""
        return f"{prefix}_{next(self._gensym)}"

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finish(self) -> Program:
        """Resolve labels and produce an immutable :class:`Program`."""
        instructions: list[Instruction] = []
        labels: dict[str, int] = {}
        for item in self._items:
            if isinstance(item, Label):
                labels[item.name] = len(instructions)
            else:
                instructions.append(item)
        for insn in instructions:
            target = insn.branch_target
            if target is not None and target not in labels:
                raise AssemblyError(
                    f"branch to undefined label {target!r} in {self.name!r}"
                )
        return Program(instructions, labels, name=self.name)

    def __len__(self) -> int:
        return sum(1 for item in self._items if isinstance(item, Instruction))

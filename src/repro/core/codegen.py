"""JIT assembly code generation for SpMM (paper Listings 1 and 2).

Everything the AOT side must fetch from memory at run time is *baked into
the instruction stream* here: array base addresses are 64-bit immediates,
``d`` folds into scaled displacements, the column loop disappears
entirely (coarse-grain column merging, Alg. 2), and the accumulators for
one output row live in SIMD registers chosen by
:func:`repro.core.layout.plan_layout`.

Three kernel shapes are generated:

* **range kernel** — processes rows ``[rsi, rdx)``; used by the static
  row-split and by nnz-split / merge-split (whose ranges come from the
  host-side binary searches, paper §IV-B.2);
* **dynamic kernel** — the Listing-1 wrapper: threads fetch row batches
  from a shared ``NEXT`` counter with ``lock xadd`` (batch size 128);
* **single-row body** — the Listing-2 core shared by both.

Register plan (GPRs): rax/rbx/rcx/r8/r9 hold the five baked array bases,
rdi is the current row, r10/r11 the non-zero cursor and row end, r12 the
column index ``k`` (then the ``X`` row address), r13 the ``Y`` row
address, rsi/r14/r15 serve the dynamic dispatcher.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.layout import ColumnTile, RowLayout, tile_columns
from repro.errors import CodegenError
from repro.isa.assembler import Assembler, Program
from repro.isa.isainfo import IsaLevel, IsaSpec, isa_spec
from repro.isa.operands import Imm, Mem
from repro.isa.registers import regs, xmm

__all__ = ["JitCodegen", "JitKernelSpec", "CodegenOutput"]

#: Paper §IV-B.1 footnote: "The batch size is set to 128 in this work."
DEFAULT_BATCH = 128


@dataclass(frozen=True)
class JitKernelSpec:
    """Runtime information the JIT bakes into the generated code.

    Attributes:
        d: Dense-matrix column count (known only at run time — the whole
            point of the JIT approach).
        m: Number of sparse rows.
        row_ptr_addr / col_addr / vals_addr / x_addr / y_addr: Base
            addresses of the five arrays (simulated address space, or
            real pointers for a host kernel).  ``x_addr`` / ``y_addr``
            may be ``None``: the base then arrives in the register the
            plan keeps it in anyway — ``r8`` / ``r9``, SysV arguments
            five and six — so one code page serves any ``X`` / ``Y``
            (the host form, :mod:`repro.exec.host`).
        next_addr: Address of the shared NEXT counter (dynamic dispatch).
        batch: Dynamic dispatch batch size.
        isa: ISA level to generate for.
        fused: Accumulate with ``vfmadd231`` where the ISA has it.
            False selects the multiply-then-add path on every ISA: two
            roundings per term, which is what the simulator, scipy and
            ``spmm_reference`` compute — hardware FMA rounds once, so
            only the unfused kernel is bit-identical to them on silicon.
    """

    d: int
    m: int
    row_ptr_addr: int
    col_addr: int
    vals_addr: int
    x_addr: int | None
    y_addr: int | None
    next_addr: int = 0
    batch: int = DEFAULT_BATCH
    isa: IsaLevel = IsaLevel.AVX512
    fused: bool = True

    @property
    def spec(self) -> IsaSpec:
        return isa_spec(self.isa)


@dataclass
class CodegenOutput:
    """A generated program plus codegen-time statistics."""

    program: Program
    tiles: list[ColumnTile]
    codegen_seconds: float
    code_bytes: int = field(default=0)

    def listing(self) -> str:
        return self.program.listing()


class JitCodegen:
    """Generates specialized SpMM kernels from runtime information."""

    def __init__(self, spec: JitKernelSpec) -> None:
        if spec.d <= 0 or spec.m < 0:
            raise CodegenError(f"bad kernel spec: d={spec.d}, m={spec.m}")
        self.spec = spec
        self.tiles = tile_columns(spec.d, spec.isa)

    # ------------------------------------------------------------------
    # Listing 2: one row, coarse-grain column merging
    # ------------------------------------------------------------------
    def _emit_row_body(self, asm: Assembler, label_prefix: str) -> None:
        """Emit code computing row ``rdi`` of Y (paper Listing 2).

        With column tiling (d beyond register capacity) the non-zero list
        is walked once per tile; for the common single-tile case this is
        exactly the paper's structure.
        """
        spec = self.spec
        isa = spec.spec
        for tile_no, tile in enumerate(self.tiles):
            layout = tile.layout
            prefix = f"{label_prefix}_t{tile_no}"
            bcast = layout.broadcast
            # initialize the registers storing the results (vxorps idiom)
            for piece in layout.pieces:
                reg = piece.register
                asm.vxorps(reg, reg, reg)
            # load the start and end position of the nz list
            asm.mov(regs.r10, Mem(regs.rax, regs.rdi, 8, 0, size=8))
            asm.mov(regs.r11, Mem(regs.rax, regs.rdi, 8, 8, size=8))
            # r13 = &Y[rdi][tile.start]
            asm.mov(regs.r13, regs.rdi)
            asm.imul(regs.r13, regs.r13, Imm(4 * spec.d))
            asm.add(regs.r13, regs.r9)

            asm.label(f"{prefix}_nnzloop_start")
            asm.cmp(regs.r10, regs.r11)
            asm.jge(f"{prefix}_nnzloop_end")
            # load corresponding column id
            asm.mov(regs.r12, Mem(regs.rbx, regs.r10, 4, 0, size=4))
            # load the nz value and broadcast it
            if isa.max_vector_bits > 32:
                asm.vbroadcastss(bcast, Mem(regs.rcx, regs.r10, 4, 0, size=4))
            else:
                asm.vmovss(xmm(layout.broadcast_code),
                           Mem(regs.rcx, regs.r10, 4, 0, size=4))
            # r12 = &X[k][tile.start]
            asm.imul(regs.r12, regs.r12, Imm(4 * spec.d))
            asm.add(regs.r12, regs.r8)
            # accumulate the results
            for piece in layout.pieces:
                mem = Mem(regs.r12, disp=4 * (tile.start + piece.offset),
                          size=4 * piece.lanes)
                self._emit_accumulate(asm, layout, piece, mem)
            # next nz element
            asm.inc(regs.r10)
            asm.jmp(f"{prefix}_nnzloop_start")
            asm.label(f"{prefix}_nnzloop_end")
            # write the result into memory
            for piece in layout.pieces:
                mem = Mem(regs.r13, disp=4 * (tile.start + piece.offset),
                          size=4 * piece.lanes)
                if piece.is_scalar:
                    asm.vmovss(mem, xmm(piece.code))
                else:
                    asm.vmovups(mem, piece.register)

    def _emit_accumulate(self, asm: Assembler, layout: RowLayout,
                         piece, mem: Mem) -> None:
        fma = self.spec.fused and self.spec.spec.has_fma
        bcast = layout.broadcast
        if piece.is_scalar:
            if fma:
                asm.vfmadd231ss(xmm(piece.code), xmm(layout.broadcast_code), mem)
            else:
                scratch = xmm(layout.scratch_code)
                asm.vmulss(scratch, xmm(layout.broadcast_code), mem)
                asm.vaddss(xmm(piece.code), xmm(piece.code), scratch)
        else:
            reg = piece.register
            if fma:
                asm.vfmadd231ps(reg, bcast.with_width(reg.width), mem)
            else:
                # unfused path (pre-FMA ISAs, exact host kernels):
                # multiply into scratch, add
                scratch = xmm(layout.scratch_code).with_width(reg.width)
                asm.vmulps(scratch, bcast.with_width(reg.width), mem)
                asm.vaddps(reg, reg, scratch)

    # ------------------------------------------------------------------
    # Shared prologue: materialize baked addresses
    # ------------------------------------------------------------------
    def _emit_prologue(self, asm: Assembler) -> None:
        spec = self.spec
        asm.mov(regs.rax, Imm(spec.row_ptr_addr, 64))
        asm.mov(regs.rbx, Imm(spec.col_addr, 64))
        asm.mov(regs.rcx, Imm(spec.vals_addr, 64))
        if spec.x_addr is not None:
            asm.mov(regs.r8, Imm(spec.x_addr, 64))
        if spec.y_addr is not None:
            asm.mov(regs.r9, Imm(spec.y_addr, 64))

    # ------------------------------------------------------------------
    # Range kernel: rows [rsi, rdx)
    # ------------------------------------------------------------------
    def build_range_kernel(self) -> Program:
        asm = Assembler(f"jitspmm_range_d{self.spec.d}")
        self._emit_prologue(asm)
        asm.mov(regs.rdi, regs.rsi)
        asm.label("row_head")
        asm.cmp(regs.rdi, regs.rdx)
        asm.jge("done")
        self._emit_row_body(asm, "row")
        asm.inc(regs.rdi)
        asm.jmp("row_head")
        asm.label("done")
        asm.ret()
        return asm.finish()

    # ------------------------------------------------------------------
    # Listing 1: dynamic row dispatching
    # ------------------------------------------------------------------
    def build_dynamic_kernel(self) -> Program:
        spec = self.spec
        if spec.next_addr == 0:
            raise CodegenError("dynamic kernel requires next_addr")
        if spec.batch <= 0:
            raise CodegenError(f"batch must be positive, got {spec.batch}")
        asm = Assembler(f"jitspmm_dyn_d{spec.d}")
        self._emit_prologue(asm)
        # load the address of NEXT before the loop
        asm.mov(regs.r14, Imm(spec.next_addr, 64))
        asm.label("start")
        # load the batch number
        asm.mov(regs.rsi, Imm(spec.batch))
        # atomic exchange and add
        asm.xadd(Mem(regs.r14, size=8), regs.rsi, lock=True)
        # boundary check
        asm.cmp(regs.rsi, Imm(spec.m))
        asm.jge("end")
        # r15 = min(rsi + batch, m)
        asm.mov(regs.r15, regs.rsi)
        asm.add(regs.r15, Imm(spec.batch))
        asm.cmp(regs.r15, Imm(spec.m))
        asm.jle("batch_ready")
        asm.mov(regs.r15, Imm(spec.m))
        asm.label("batch_ready")
        asm.mov(regs.rdi, regs.rsi)
        asm.label("batch_head")
        asm.cmp(regs.rdi, regs.r15)
        asm.jge("start")
        self._emit_row_body(asm, "dyn")
        asm.inc(regs.rdi)
        asm.jmp("batch_head")
        asm.label("end")
        asm.ret()
        return asm.finish()

    # ------------------------------------------------------------------
    def generate(self, dynamic: bool = False) -> CodegenOutput:
        """Generate (and time) the requested kernel, including encoding.

        The returned ``codegen_seconds`` is real wall-clock time of
        assembly generation plus machine-code encoding — the numerator of
        the paper's Table IV overhead ratio.
        """
        t0 = time.perf_counter()
        program = self.build_dynamic_kernel() if dynamic else self.build_range_kernel()
        code = program.encode()
        seconds = time.perf_counter() - t0
        return CodegenOutput(program, self.tiles, seconds, len(code))

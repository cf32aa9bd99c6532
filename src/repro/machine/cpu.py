"""Single-thread functional interpreter for the ISA subset.

Every static instruction is decoded once, ahead of the execution loop —
the same just-in-time trick the paper applies to SpMM, applied to the
simulator itself — into two forms that sit side by side in each
``_compile_*`` method:

* a hand-written *closure* (``body()``: operands, effective-address
  formation and segment lookup captured as cells): what the reference
  engine (``sim-ref``) executes, with cache / pipeline accounting
  composed around it, and what a form without an emitter contributes to
  the fast engines;
* a source *emitter* (``emit(code)``, run only for the fast engines):
  the same semantics as a :class:`~repro.machine.fused.Code` fragment —
  register codes, scales, displacements and immediates as literals, the
  effective address formed once, scalar SSE arithmetic on float32
  scalars, vector arithmetic on register views hoisted out of the loop
  — which :mod:`repro.machine.fused` assembles into one generated
  function per basic block.  The hot forms have one
  (``mov``, ALU reg/imm, ``imul``, ``cmp`` / ``test``, ``inc`` / ``dec``
  / ``neg``, shifts, ``vmov*`` load/store, ``vbroadcastss`` from memory,
  ``vfmadd231ps/ss``, reg-reg ``vaddps``-family, the ``vxorps`` zero
  idiom); the rest are called through their closure inside the block.

:meth:`Cpu.semantics` compiles a :class:`Program` into a
:class:`ProgramSemantics` table holding, per instruction, the fragment,
the static counter *deltas* the instruction retires with, and a *step*
returning the next pc — for the ``counts`` / ``sim`` engines the
fragment compiled as a block of one, so blocks and steps share one
definition per form; for the reference engine closure plus accounting.
:meth:`Cpu.superblocks` builds the block table, and the one dispatch
loop (:meth:`Cpu.run_quantum`, shared by :meth:`Cpu.run` and the SMP
scheduler) retires whole blocks while they fit the turn and single
steps otherwise: at odd entry points, for quantum or limit residues
smaller than a block, and for every instruction of the reference
engine, whose dynamic accounting leaves nothing to generate.

Semantics notes (documented deviations, none observable by the kernels
this library generates):

* Integer registers hold exact Python integers; flags are computed from
  exact arithmetic rather than mod-2^64 wraparound.  Kernel arithmetic
  (addresses, indices, counters) never wraps.
* ``vfmadd231ps`` rounds twice (multiply then add) because numpy has no
  fused primitive; the float32 error is below the tolerances the tests
  and the paper's workloads care about.
* Scalar AVX ops zero the untouched upper lanes of the destination, as
  VEX-encoded scalar ops do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExecutionLimitExceeded, MachineError
from repro.isa.assembler import Program
from repro.isa.instructions import Instruction
from repro.isa.operands import Imm, Mem
from repro.isa.registers import GPR64, VectorRegister, gpr
from repro.machine.branch import make_predictor
from repro.machine.cache import CacheConfig, CacheHierarchy
from repro.machine.counters import Counters
from repro.machine.fused import (
    Code,
    build_block_table,
    compile_block,
    shared_binds,
)
from repro.machine.memory import Memory
from repro.machine.pipeline import PipelineModel, PipelineSpec, ReplayInsn
from repro.machine.replay import ReplayEngine

__all__ = ["Cpu", "CpuConfig", "InsnSemantics", "ProgramSemantics"]

#: mnemonics retiring one FLOP per destination lane (FMAs retire two)
_FLOP_MNEMONICS = ("vaddps", "vsubps", "vmulps", "vdivps",
                   "vaddss", "vsubss", "vmulss", "vhaddps")

#: instructions between recorder flush-pressure checks in the run loop
#: (far below the recorder's event limit, far above per-instruction)
_FLUSH_CHECK_STRIDE = 4096

#: the turn length a thread with nobody to interleave with is driven
#: with (:meth:`Cpu.run`, and a one-thread :class:`~repro.machine.smp.
#: Machine`)
UNBOUNDED_QUANTUM = 1 << 62


@dataclass(frozen=True)
class CpuConfig:
    """Fidelity and microarchitecture knobs for one simulated core.

    ``timing=False`` runs in *counts* mode: functional execution plus
    event counters only (no caches, no pipeline, cycles stay 0) — several
    times faster, used by tests that only check counts and results.
    With ``timing=True``, ``engine`` picks the timing implementation:
    ``"ref"`` interprets the cache/predictor/pipeline models per access
    (the reference path, the ``sim-ref`` backend), ``"replay"`` records
    a columnar trace and replays it through the vectorized models in
    :mod:`repro.machine.replay` — bit-identical counters at several
    times the simulated instruction throughput.  ``max_instructions``
    bounds each thread's dynamic instruction count
    (:class:`repro.api.ExecutionConfig` exposes it as ``max_steps``).
    """

    timing: bool = True
    engine: str = "ref"
    predictor: str = "gshare"
    max_instructions: int = 500_000_000
    pipeline: PipelineSpec = field(default_factory=PipelineSpec)
    l1: CacheConfig | None = None
    l2: CacheConfig | None = None

    def __post_init__(self) -> None:
        if self.engine not in ("ref", "replay"):
            raise ValueError(
                f"unknown timing engine {self.engine!r}; "
                "expected 'ref' or 'replay'")


class InsnSemantics:
    """Compiled forms + static metadata for one instruction.

    Attributes:
        step: Executes the instruction including event accounting,
            returns the next pc — the reference engine's closure.  None
            for the fast engines: their step is ``code`` compiled as a
            block of one, on first use (:meth:`Cpu.semantics`).
        code: The generated-source fragment of the architectural
            semantics (no static counters, no pc) — the unit the block
            compiler assembles.  In record mode it also appends the
            instruction's effective addresses and branch outcome to the
            trace.  None for the reference engine.
        deltas: Static counter increments this instruction retires with
            in counts fidelity, or None when execution-dependent state
            (caches, pipeline) makes accounting dynamic.
        replay: Static :class:`~repro.machine.pipeline.ReplayInsn`
            metadata for the trace-replay timing engine (record mode
            only; None otherwise).
        tail: The next-pc expression ``code`` ends in, for control flow
            (``code`` then closes a block); None when the instruction
            falls through.
    """

    __slots__ = ("step", "code", "deltas", "replay", "tail")

    def __init__(self, step, code=None, deltas=None, replay=None,
                 tail=None) -> None:
        self.step = step
        self.code = code
        self.deltas = deltas
        self.replay = replay
        self.tail = tail


class ProgramSemantics:
    """The shared semantics table for one ``(cpu, program)`` pair."""

    __slots__ = ("insns", "steps")

    def __init__(self, insns: list[InsnSemantics],
                 steps: list | None = None) -> None:
        self.insns = insns
        self.steps = [sem.step for sem in insns] if steps is None else steps

    def __len__(self) -> int:
        return len(self.insns)


def _static_deltas(insn: Instruction, load_size: int, store_size: int,
                   extra: dict[str, int] | None = None) -> dict[str, int]:
    """The counter increments one retirement of ``insn`` contributes.

    Single source of truth for counts-fidelity accounting: both the
    single step's bump and the block's batch sum are generated from this
    dict, so they cannot drift apart.
    """
    name = insn.mnemonic
    deltas = {"instructions": 1}
    if load_size:
        deltas["memory_loads"] = 1
        deltas["loaded_bytes"] = load_size
    if store_size:
        deltas["memory_stores"] = 1
        deltas["stored_bytes"] = store_size
    if name.startswith("v"):
        deltas["simd_instructions"] = 1
    if name.startswith("vfmadd"):
        deltas["fma_instructions"] = 1
        deltas["flop"] = 2 * _dest_lanes(insn)
    elif name in _FLOP_MNEMONICS:
        deltas["flop"] = _dest_lanes(insn)
    for key, amount in (extra or {}).items():
        deltas[key] = deltas.get(key, 0) + amount
    return deltas


class Cpu:
    """One simulated hardware thread."""

    def __init__(
        self,
        memory: Memory,
        config: CpuConfig | None = None,
        counters: Counters | None = None,
    ) -> None:
        self.memory = memory
        self.config = config or CpuConfig()
        self.counters = counters or Counters()
        self.gpr: list[int] = [0] * 16
        self.vec = np.zeros((32, 16), dtype=np.float32)
        self.vec_i32 = self.vec.view(np.int32)
        self.zf = False
        self.sf = False
        self.cf = False
        self.predictor = make_predictor(self.config.predictor)
        self.record = self.config.timing and self.config.engine == "replay"
        self.replay: ReplayEngine | None = None
        if self.record:
            # record/replay timing: no per-access model objects — the
            # trace recorder stands in, and flush() runs the vectorized
            # cache / predictor / scoreboard models over the columns
            self.caches: CacheHierarchy | None = None
            self.pipeline: PipelineModel | None = None
            self.replay = ReplayEngine(
                self.counters, self.predictor, self.config.pipeline,
                l1=self.config.l1, l2=self.config.l2,
            )
        elif self.config.timing:
            kwargs = {}
            if self.config.l1 is not None:
                kwargs["l1"] = self.config.l1
            if self.config.l2 is not None:
                kwargs["l2"] = self.config.l2
            self.caches = CacheHierarchy(**kwargs)
            self.pipeline = PipelineModel(self.config.pipeline)
        else:
            self.caches = None
            self.pipeline = None
        # both caches are keyed on Program.fingerprint() — content
        # identity — never id(program): a collected program's id can be
        # reused by a new one, which would replay stale closures
        self._compiled: dict[str, ProgramSemantics] = {}
        self._superblocks: dict[str, list] = {}
        # the names every generated block binds of this CPU
        self._binds = shared_binds(self)
        # the program in flight (see start()): nothing loaded yet
        self.pc = 0
        self.executed = 0
        self.done = True

    def reset_metrics(self) -> None:
        """Zero counters and restart the pipeline clock; keep caches and
        branch-predictor state (warm-run measurement, like the paper's
        average-of-ten methodology)."""
        if self.record:
            # retire any pending trace first: the warm-up pass's events
            # must warm the cache/predictor state before the counters
            # they produced are discarded
            self.replay.flush()
            self.counters.__init__()
            self.replay.reset_scoreboard()
            # compiled code binds only the recorder lists (cleared in
            # place) and the counters object (re-initialized, same
            # identity), so it stays valid — no recompilation needed
            return
        self.counters.__init__()
        if self.config.timing:
            self.pipeline = PipelineModel(self.config.pipeline)
        self._compiled.clear()  # closures captured the old pipeline
        self._superblocks.clear()

    def disable_pipeline(self) -> None:
        """Drop to counts+caches fidelity (used for cheap warm-up passes).

        The next :meth:`reset_metrics` restores full timing fidelity.
        """
        if self.record:
            self.replay.flush()
            self.replay.scoreboard_enabled = False
            return
        self.pipeline = None
        self._compiled.clear()
        self._superblocks.clear()

    def flush_timing(self, set_cycles: bool = False) -> None:
        """Replay any recorded trace (no-op outside record mode).

        ``set_cycles=True`` additionally publishes the modeled cycle
        count into the counters — the record-mode analogue of reading
        ``pipeline.cycles`` at the end of a run.  Fault paths flush
        with ``set_cycles=False``: per-access interpretation leaves
        ``cycles`` unset when a run dies, and so does the replay.
        """
        if not self.record:
            return
        self.replay.flush()
        if set_cycles and self.replay.scoreboard_enabled:
            self.counters.cycles = self.replay.cycles

    # ------------------------------------------------------------------
    # Register access helpers (used by tests and the SMP wrapper)
    # ------------------------------------------------------------------
    def set_gpr(self, reg: GPR64 | str | int, value: int) -> None:
        code = reg.code if isinstance(reg, GPR64) else gpr(reg).code if isinstance(reg, str) else reg
        self.gpr[code] = int(value)

    def get_gpr(self, reg: GPR64 | str | int) -> int:
        code = reg.code if isinstance(reg, GPR64) else gpr(reg).code if isinstance(reg, str) else reg
        return self.gpr[code]

    def get_vec(self, reg: VectorRegister) -> np.ndarray:
        return self.vec[reg.code, : reg.lanes_f32].copy()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(
        self,
        program: Program,
        init_gpr: dict | None = None,
        entry: int | str = 0,
        fuel: int | None = None,
        name: str = "",
    ) -> None:
        """Load ``program`` for execution by :meth:`run_quantum`.

        ``init_gpr`` maps registers (objects or names) to initial values,
        the simulated analogue of function arguments.  ``fuel`` bounds the
        dynamic instruction count (defaults to the config's limit);
        ``name`` labels the thread in the limit error.
        """
        for reg, value in (init_gpr or {}).items():
            self.set_gpr(reg, value)
        semantics = self.semantics(program)
        self._steps = semantics.steps
        self._blocks = self.superblocks(program)
        if self.replay is not None:
            self.replay.begin(program, semantics)
        self._program = program
        self._thread_name = name
        self._limit = fuel if fuel is not None else self.config.max_instructions
        self.pc = program.target_index(entry) if isinstance(entry, str) else entry
        self.executed = 0
        self.done = not 0 <= self.pc < len(self._steps)

    def run_quantum(self, quantum: int) -> None:
        """Retire up to ``quantum`` instructions of the started program.

        The recorder's memory bound must hold inside one turn too, so a
        turn longer than the flush-check stride runs in stride-sized
        slices with a flush-pressure check before each.  Slicing never
        changes semantics: the turn still retires exactly ``quantum``
        instructions, and a block that no longer fits a slice residue
        is stepped, which is bit-identical by the fusion contract.
        """
        replay = self.replay
        if replay is None:
            self._run_slice(quantum)
            return
        while quantum > 0 and not self.done:
            if replay.should_flush():
                replay.flush()
            self._run_slice(min(quantum, _FLUSH_CHECK_STRIDE))
            quantum -= _FLUSH_CHECK_STRIDE

    def _run_slice(self, quantum: int) -> None:
        """The instruction-dispatch loop: whole superblocks while they
        fit the remaining budget, single steps otherwise.

        The budget stops one instruction past the execution limit, so
        the limit fires after exactly the instruction it would under
        pure stepping.
        """
        steps = self._steps
        blocks = self._blocks
        n = len(steps)
        pc = self.pc
        budget = remaining = min(quantum, self._limit + 1 - self.executed)
        while remaining > 0:
            block = blocks[pc]
            if block is not None and block.length <= remaining:
                pc = block.run()
                remaining -= block.length
            else:
                pc = steps[pc]()
                remaining -= 1
            if not 0 <= pc < n:
                self.done = True
                break
        self.pc = pc
        self.executed += budget - remaining
        if self.executed > self._limit:
            raise ExecutionLimitExceeded(
                f"thread {self._thread_name or '<unnamed>'!r} exceeded the "
                f"{self._limit}-instruction execution limit in program "
                f"{self._program.name!r} (infinite loop? raise "
                f"ExecutionConfig.max_steps for long workloads)"
            )

    def finish(self) -> Counters:
        """Publish the modeled cycle count of a completed run; returns
        this CPU's counters."""
        if self.pipeline is not None:
            self.counters.cycles = self.pipeline.cycles
        else:
            self.flush_timing(set_cycles=True)
        return self.counters

    def run(
        self,
        program: Program,
        init_gpr: dict | None = None,
        entry: int | str = 0,
        fuel: int | None = None,
    ) -> Counters:
        """Execute ``program`` until ``ret``; returns this CPU's counters.

        One thread driven with an unbounded quantum; the arguments are
        :meth:`start`'s.
        """
        self.start(program, init_gpr, entry, fuel)
        try:
            if not self.done:
                self.run_quantum(UNBOUNDED_QUANTUM)
        except BaseException:
            # retire the completed prefix's timing so fault-time counters
            # are bit-identical to per-access interpretation
            self.flush_timing()
            raise
        return self.finish()

    # ------------------------------------------------------------------
    # Instruction compilation
    # ------------------------------------------------------------------
    def semantics(self, program: Program) -> ProgramSemantics:
        """The compiled semantics table for ``program`` (cached)."""
        key = program.fingerprint()
        cached = self._compiled.get(key)
        if cached is not None:
            return cached
        table = ProgramSemantics([
            self._compile_insn(insn, index, program)
            for index, insn in enumerate(program.instructions)
        ])
        for pc, sem in enumerate(table.insns):
            if sem.step is None:
                table.steps[pc] = self._deferred_step(table.steps, pc, sem)
        self._compiled[key] = table
        return table

    def _deferred_step(self, steps: list, pc: int, sem: InsnSemantics):
        """The fast engines' single step: the instruction's fragment as
        a block of one, generated the first time the dispatch loop has
        to step it — most instructions only ever run inside their block.
        The generated step then replaces this stub in ``steps``."""
        run = None

        def step() -> int:
            nonlocal run
            if run is None:
                unit = (pc, pc + 1) if self.record else None
                if sem.tail is None:
                    run = compile_block([sem.code], self._binds, sem.deltas,
                                        unit, str(pc + 1))
                else:
                    run = compile_block([], self._binds, sem.deltas, unit,
                                        sem.tail, sem.code)
                steps[pc] = run
            return run()

        return step

    def superblocks(self, program: Program) -> list:
        """The superblock table for ``program`` (cached); see
        :func:`repro.machine.fused.build_block_table`."""
        key = program.fingerprint()
        table = self._superblocks.get(key)
        if table is None:
            table = build_block_table(self.semantics(program), program,
                                      self._binds)
            self._superblocks[key] = table
        return table

    # -- operand access factories ---------------------------------------
    def _addr_fn(self, mem: Mem):
        gpr_state = self.gpr
        scale, disp = mem.scale, mem.disp
        base_code = mem.base.code if mem.base is not None else None
        index = mem.index
        if index is None:
            if disp == 0:
                return lambda: gpr_state[base_code]
            return lambda: gpr_state[base_code] + disp
        if isinstance(index, VectorRegister):
            raise MachineError("VSIB address used outside vgatherdps")
        idx_code = index.code
        if base_code is None:
            return lambda: gpr_state[idx_code] * scale + disp
        return lambda: gpr_state[base_code] + gpr_state[idx_code] * scale + disp

    def _seg_lookup_fn(self, size: int):
        """Per-call-site memoized segment lookup: addr -> (segment, offset)."""
        memory = self.memory
        cache: list = [None, 0, 0]  # segment, base, end

        def lookup(addr: int):
            if not (cache[1] <= addr and addr + size <= cache[2]):
                seg = memory.segment_of(addr, size)
                cache[0], cache[1], cache[2] = seg, seg.base, seg.end
            return cache[0]

        return lookup

    def _load_int_fn(self, mem: Mem):
        addr_fn = self._addr_fn(mem)
        size = mem.size
        lookup = self._seg_lookup_fn(size)
        if size == 8:
            def load() -> int:
                addr = addr_fn()
                seg = lookup(addr)
                off = addr - seg.base
                if not off & 7:
                    return int(seg.i64v[off >> 3])
                return int.from_bytes(seg.raw[off: off + 8].tobytes(), "little")
        elif size == 4:
            def load() -> int:
                addr = addr_fn()
                seg = lookup(addr)
                off = addr - seg.base
                if not off & 3:
                    return int(seg.i32v[off >> 2]) & 0xFFFFFFFF
                return int.from_bytes(seg.raw[off: off + 4].tobytes(), "little")
        else:
            raise MachineError(f"unsupported integer access size {size}")
        return load

    def _store_int_fn(self, mem: Mem):
        addr_fn = self._addr_fn(mem)
        size = mem.size
        lookup = self._seg_lookup_fn(size)

        def store(value: int) -> None:
            addr = addr_fn()
            seg = lookup(addr)
            off = addr - seg.base
            if size == 8 and not off & 7:
                wrapped = value & 0xFFFFFFFFFFFFFFFF
                seg.i64v[off >> 3] = (
                    wrapped - 0x10000000000000000
                    if wrapped >= 0x8000000000000000 else wrapped
                )
            elif size == 4 and not off & 3:
                seg.i32v[off >> 2] = np.int64(value & 0xFFFFFFFF).astype(np.int32)
            else:
                mask = (1 << (size * 8)) - 1
                seg.raw[off: off + size] = np.frombuffer(
                    (value & mask).to_bytes(size, "little"), np.uint8
                )

        return store

    def _load_f32_fn(self, mem: Mem, lanes: int):
        addr_fn = self._addr_fn(mem)
        lookup = self._seg_lookup_fn(4 * lanes)

        def load() -> np.ndarray:
            addr = addr_fn()
            seg = lookup(addr)
            off = addr - seg.base
            if not off & 3:
                lane0 = off >> 2
                return seg.f32v[lane0: lane0 + lanes]
            return np.frombuffer(
                seg.raw[off: off + 4 * lanes].tobytes(), np.float32
            )

        return load

    def _store_f32_fn(self, mem: Mem, lanes: int):
        addr_fn = self._addr_fn(mem)
        lookup = self._seg_lookup_fn(4 * lanes)

        def store(values: np.ndarray) -> None:
            addr = addr_fn()
            seg = lookup(addr)
            off = addr - seg.base
            if not off & 3:
                lane0 = off >> 2
                seg.f32v[lane0: lane0 + lanes] = values
            else:
                seg.raw[off: off + 4 * lanes] = np.asarray(
                    values, np.float32
                ).view(np.uint8)

        return store

    # -- the access factories' emitted twins ------------------------------
    @staticmethod
    def _emit_load_int(code: Code, mem: Mem, target: str) -> None:
        """``target = `` the little-endian unsigned integer at ``mem``
        (:meth:`_load_int_fn`'s ``load``)."""
        size = mem.size
        code.access(mem, size, "i64v" if size == 8 else "i32v")
        aligned = (f"{code.view}.item(o >> 3)" if size == 8
                   else f"{code.view}.item(o >> 2) & 0xFFFFFFFF")
        code.add(
            f"if o & {size - 1}:",
            f"    {target} = int.from_bytes("
            f"{code.unaligned(size)}.tobytes(), 'little')",
            "else:",
            f"    {target} = {aligned}")

    @staticmethod
    def _emit_store_int(code: Code, mem: Mem, value: str) -> None:
        """Write the low ``mem.size`` bytes of ``value`` at ``mem``
        (:meth:`_store_int_fn`'s ``store``): typed views hold signed
        words, so an aligned store wraps to two's complement first."""
        size = mem.size
        bits = 8 * size
        raw = (f"{code.unaligned(size)} = frombuffer(({value} & "
               f"{(1 << bits) - 1:#x}).to_bytes({size}, 'little'), u8)")
        if size not in (4, 8):
            code.access(mem, size, "raw").add(raw)
            return
        code.access(mem, size, "i64v" if size == 8 else "i32v")
        code.add(
            f"if o & {size - 1}:",
            f"    {raw}",
            "else:",
            f"    w = {value} & {(1 << bits) - 1:#x}",
            f"    {code.view}[o >> {2 if size == 4 else 3}] = "
            f"w - {1 << bits:#x} if w >= {1 << (bits - 1):#x} else w")

    # -- accounting factories --------------------------------------------
    def _finish(
        self,
        insn: Instruction,
        body,
        nxt: int,
        load: Mem | None = None,
        load_size: int = 0,
        store: Mem | None = None,
        store_size: int = 0,
        extra: dict[str, int] | None = None,
        emit=None,
    ) -> InsnSemantics:
        """Compose one straight-line instruction: semantics + accounting.

        ``body`` is the form's closure, ``emit(code)`` its emitter
        (None: the form has none), ``load`` / ``store`` the memory
        operand it reads / writes.  In counts fidelity the accounting is
        the static ``deltas``, and the emitted fragment — a call to
        ``body`` for a form without an emitter — is what blocks and the
        single step are generated from; in record mode the fragment
        additionally appends the instruction's effective addresses to
        the trace (loads, then stores, formed after execution: exactly
        when the reference accounting computes them); in reference
        timing fidelity accounting touches caches and the pipeline per
        execution, so a closure step is the only runnable form and
        nothing is emitted.
        """
        if self.caches is None:
            deltas = _static_deltas(insn, load_size, store_size, extra)
            code = Code(self, nxt - 1)
            if emit is None:
                code.call(body)
            else:
                emit(code)
            replay_insn = None
            if self.record:
                replay_insn = ReplayInsn(insn, load_size=load_size,
                                         store_size=store_size)
                for mem in (load, store):
                    if mem is not None:
                        code.trace(mem, any(
                            reg in mem.registers()
                            for reg in insn.registers_written()))
            return InsnSemantics(None, code, deltas, replay_insn)

        account = self._timing_account_fn(
            insn,
            self._addr_fn(load) if load is not None else None, load_size,
            self._addr_fn(store) if store is not None else None, store_size,
            extra,
        )

        def step() -> int:
            body()
            account()
            return nxt

        return InsnSemantics(step)

    def _timing_account_fn(
        self,
        insn: Instruction,
        load_addr_fn,
        load_size: int,
        store_addr_fn,
        store_size: int,
        extra: dict[str, int] | None,
    ):
        """Per-execution bookkeeping with cache and pipeline modeling."""
        counters = self.counters
        caches = self.caches
        is_simd = insn.mnemonic.startswith("v")
        is_fma = insn.mnemonic.startswith("vfmadd")
        flop = 0
        if is_fma:
            flop = 2 * _dest_lanes(insn)
        elif insn.mnemonic in _FLOP_MNEMONICS:
            flop = _dest_lanes(insn)
        # every extra delta (atomic_ops today, anything tomorrow) is
        # honored generically so the timing backend can never drift
        # from the counts-fidelity _static_deltas accounting
        extra_items = tuple(sorted((extra or {}).items()))

        cpu = self  # pipeline may be swapped out during warm-up passes

        def account() -> None:
            counters.instructions += 1
            if is_simd:
                counters.simd_instructions += 1
            if is_fma:
                counters.fma_instructions += 1
            counters.flop += flop
            for name, amount in extra_items:
                setattr(counters, name, getattr(counters, name) + amount)
            load_refs: tuple = ()
            store_refs: tuple = ()
            if load_addr_fn is not None:
                counters.memory_loads += 1
                counters.loaded_bytes += load_size
                addr = load_addr_fn()
                level = caches.access(addr, load_size)
                _count_level(counters, level)
                load_refs = ((level, addr >> 6),)
            if store_addr_fn is not None:
                counters.memory_stores += 1
                counters.stored_bytes += store_size
                addr = store_addr_fn()
                level = caches.access(addr, store_size)
                _count_level(counters, level)
                store_refs = ((level, addr >> 6),)
            if cpu.pipeline is not None:
                cpu.pipeline.issue(insn, load_refs=load_refs,
                                   store_refs=store_refs)

        return account

    # -- main translation --------------------------------------------------
    def _compile_insn(self, insn: Instruction, index: int,
                      program: Program) -> InsnSemantics:
        name = insn.mnemonic
        ops = insn.operands
        nxt = index + 1
        gpr_state = self.gpr
        counters = self.counters

        # ---------------- control flow ----------------
        if name == "ret":
            if self.caches is None:
                return self._branch(insn, index, "-1")
            account = self._timing_account_fn(insn, None, 0, None, 0, None)

            def step_ret() -> int:
                account()
                counters.branches += 1
                return -1
            return InsnSemantics(step_ret)

        if name == "jmp":
            target = program.target_index(ops[0])
            if self.caches is None:
                return self._branch(insn, index, str(target))
            account = self._timing_account_fn(insn, None, 0, None, 0, None)

            def step_jmp() -> int:
                account()
                counters.branches += 1
                return target
            return InsnSemantics(step_jmp)

        if insn.is_cond_branch:
            return self._compile_jcc(insn, index, program)

        if name == "nop":
            def body_nop() -> None:
                return None
            return self._finish(insn, body_nop, nxt,
                                emit=lambda code: None)

        # ---------------- integer ----------------
        if name == "mov":
            return self._compile_mov(insn, nxt)
        if name == "lea":
            dst_code = ops[0].code
            addr_fn = self._addr_fn(ops[1])

            def body_lea() -> None:
                gpr_state[dst_code] = addr_fn()
            return self._finish(insn, body_lea, nxt)
        if name in ("add", "sub", "and", "or", "xor", "imul"):
            return self._compile_alu(insn, nxt)
        if name in ("cmp", "test"):
            return self._compile_cmp(insn, nxt)
        if name in ("inc", "dec", "neg"):
            return self._compile_unary(insn, nxt)
        if name in ("shl", "shr", "sar"):
            return self._compile_shift(insn, nxt)
        if name == "xadd":
            return self._compile_xadd(insn, nxt)

        # ---------------- vector ----------------
        if name in ("vmovups", "vmovaps", "vmovdqu32", "vmovss"):
            return self._compile_vmov(insn, nxt)
        if name == "vxorps":
            return self._compile_vxorps(insn, nxt)
        if name in ("vbroadcastss", "vpbroadcastd"):
            return self._compile_broadcast(insn, nxt)
        if name in ("vaddps", "vsubps", "vmulps", "vdivps", "vpaddd", "vpmulld"):
            return self._compile_vec3(insn, nxt)
        if name in ("vaddss", "vsubss", "vmulss"):
            return self._compile_vec3_scalar(insn, nxt)
        if name in ("vfmadd231ps", "vfmadd231ss"):
            return self._compile_fma(insn, nxt)
        if name == "vhaddps":
            return self._compile_vhaddps(insn, nxt)
        if name in ("vextractf128", "vextractf64x4"):
            return self._compile_extract(insn, nxt)
        if name == "vpslld":
            return self._compile_vpslld(insn, nxt)
        if name == "vgatherdps":
            return self._compile_gather(insn, nxt)

        raise MachineError(f"no interpreter for instruction: {insn}")

    # ------------------------------------------------------------------
    def _branch(self, insn: Instruction, index: int, tail: str,
                taken: str | None = None) -> InsnSemantics:
        """A control-flow instruction of the fast engines: a fragment
        that closes its block, and ``tail``, the next-pc expression.

        A conditional branch evaluates ``taken`` into ``t``.  In counts
        fidelity it updates the live predictor; in record mode the taken
        bit is recorded instead, and the replay sweep classifies (and
        counts) mispredictions.
        """
        code = Code(self, index)
        deltas = {"instructions": 1, "branches": 1}
        if taken is not None:
            deltas["cond_branches"] = 1
            code.add(f"t = {taken}")
            if self.record:
                code.add(f"ba({index << 1 | 1} if t else {index << 1})")
            else:
                code.add(f"if not predict({index}, t):",
                         "    c.branch_misses += 1")
        return InsnSemantics(None, code, deltas,
                             ReplayInsn(insn) if self.record else None, tail)

    def _compile_jcc(self, insn: Instruction, index: int,
                     program: Program) -> InsnSemantics:
        target = program.target_index(insn.operands[0])
        nxt = index + 1
        name = insn.mnemonic
        cpu = self
        counters = self.counters
        predictor = self.predictor
        pipeline = self.pipeline

        # closure and emitted expression, side by side
        conditions = {
            "je": (lambda: cpu.zf, "cpu.zf"),
            "jne": (lambda: not cpu.zf, "not cpu.zf"),
            "jl": (lambda: cpu.sf, "cpu.sf"),
            "jge": (lambda: not cpu.sf, "not cpu.sf"),
            "jle": (lambda: cpu.sf or cpu.zf, "cpu.sf or cpu.zf"),
            "jg": (lambda: not (cpu.sf or cpu.zf),
                   "not (cpu.sf or cpu.zf)"),
            "jb": (lambda: cpu.cf, "cpu.cf"),
            "jae": (lambda: not cpu.cf, "not cpu.cf"),
            "jbe": (lambda: cpu.cf or cpu.zf, "cpu.cf or cpu.zf"),
            "ja": (lambda: not (cpu.cf or cpu.zf),
                   "not (cpu.cf or cpu.zf)"),
        }
        cond, taken = conditions[name]

        if self.caches is None:
            return self._branch(insn, index, f"{target} if t else {nxt}",
                                taken)

        if pipeline is None:
            def step_jcc() -> int:
                taken = cond()
                counters.instructions += 1
                counters.branches += 1
                counters.cond_branches += 1
                if not predictor.update(index, taken):
                    counters.branch_misses += 1
                return target if taken else nxt
            return InsnSemantics(step_jcc)

        def step_jcc_timed() -> int:
            taken = cond()
            counters.instructions += 1
            counters.branches += 1
            counters.cond_branches += 1
            correct = predictor.update(index, taken)
            if not correct:
                counters.branch_misses += 1
            pipeline.issue(insn, mispredicted=not correct)
            return target if taken else nxt

        return InsnSemantics(step_jcc_timed)

    def _compile_mov(self, insn: Instruction, nxt: int) -> InsnSemantics:
        dst, src = insn.operands
        gpr_state = self.gpr

        if isinstance(dst, GPR64) and isinstance(src, Imm):
            value = src.value
            dcode = dst.code

            def body() -> None:
                gpr_state[dcode] = value

            def emit(code: Code) -> None:
                code.add(f"g[{dcode}] = {value}")
            return self._finish(insn, body, nxt, emit=emit)
        if isinstance(dst, GPR64) and isinstance(src, GPR64):
            dcode, scode = dst.code, src.code

            def body() -> None:
                gpr_state[dcode] = gpr_state[scode]

            def emit(code: Code) -> None:
                code.add(f"g[{dcode}] = g[{scode}]")
            return self._finish(insn, body, nxt, emit=emit)
        if isinstance(dst, GPR64) and isinstance(src, Mem):
            load = self._load_int_fn(src)
            dcode = dst.code

            def body() -> None:
                gpr_state[dcode] = load()

            def emit(code: Code) -> None:
                self._emit_load_int(code, src, f"g[{dcode}]")
            return self._finish(insn, body, nxt, load=src,
                                load_size=src.size, emit=emit)
        if isinstance(dst, Mem) and isinstance(src, GPR64):
            store = self._store_int_fn(dst)
            scode = src.code

            def body() -> None:
                store(gpr_state[scode])

            def emit(code: Code) -> None:
                self._emit_store_int(code, dst, f"g[{scode}]")
            return self._finish(insn, body, nxt, store=dst,
                                store_size=dst.size, emit=emit)
        if isinstance(dst, Mem) and isinstance(src, Imm):
            store = self._store_int_fn(dst)
            value = src.value

            def body() -> None:
                store(value)

            def emit(code: Code) -> None:
                self._emit_store_int(code, dst, str(value))
            return self._finish(insn, body, nxt, store=dst,
                                store_size=dst.size, emit=emit)
        raise MachineError(f"unsupported mov form: {insn}")

    def _compile_alu(self, insn: Instruction, nxt: int) -> InsnSemantics:
        name = insn.mnemonic
        ops = insn.operands
        gpr_state = self.gpr
        cpu = self

        if not isinstance(ops[0], GPR64):
            raise MachineError(f"ALU destination must be a register: {insn}")
        dcode = ops[0].code

        if name == "imul" and len(ops) == 3:
            src, imm = ops[1], ops[2]
            if not isinstance(src, GPR64) or not isinstance(imm, Imm):
                raise MachineError(f"unsupported imul form: {insn}")
            scode, k = src.code, imm.value

            def body() -> None:
                value = gpr_state[scode] * k
                gpr_state[dcode] = value
                cpu.zf, cpu.sf, cpu.cf = value == 0, value < 0, False

            def emit(code: Code) -> None:
                code.add(f"r = g[{scode}] * {k}", f"g[{dcode}] = r",
                         "cpu.zf = r == 0; cpu.sf = r < 0; cpu.cf = False")
            return self._finish(insn, body, nxt, emit=emit)

        src = ops[1]
        operations = {
            "add": lambda a, b: a + b,
            "sub": lambda a, b: a - b,
            "and": lambda a, b: a & b,
            "or": lambda a, b: a | b,
            "xor": lambda a, b: a ^ b,
            "imul": lambda a, b: a * b,
        }
        op = operations[name]
        is_sub = name == "sub"
        symbol = {"add": "+", "sub": "-", "and": "&", "or": "|",
                  "xor": "^", "imul": "*"}[name]

        def emitter(operand: str):
            def emit(code: Code) -> None:
                code.add(f"x = g[{dcode}]; y = {operand}",
                         f"r = x {symbol} y", f"g[{dcode}] = r",
                         "cpu.zf = r == 0; cpu.sf = r < 0; "
                         f"cpu.cf = {'x < y' if is_sub else 'False'}")
            return emit

        if isinstance(src, Imm):
            k = src.value

            def body() -> None:
                a = gpr_state[dcode]
                value = op(a, k)
                gpr_state[dcode] = value
                cpu.zf, cpu.sf = value == 0, value < 0
                cpu.cf = a < k if is_sub else False
            return self._finish(insn, body, nxt, emit=emitter(str(k)))
        if isinstance(src, GPR64):
            scode = src.code

            def body() -> None:
                a = gpr_state[dcode]
                b = gpr_state[scode]
                value = op(a, b)
                gpr_state[dcode] = value
                cpu.zf, cpu.sf = value == 0, value < 0
                cpu.cf = a < b if is_sub else False
            return self._finish(insn, body, nxt,
                                emit=emitter(f"g[{scode}]"))
        if isinstance(src, Mem):
            load = self._load_int_fn(src)

            def body() -> None:
                a = gpr_state[dcode]
                b = load()
                value = op(a, b)
                gpr_state[dcode] = value
                cpu.zf, cpu.sf = value == 0, value < 0
                cpu.cf = a < b if is_sub else False
            return self._finish(insn, body, nxt,
                                load=src, load_size=src.size)
        raise MachineError(f"unsupported {name} form: {insn}")

    def _compile_cmp(self, insn: Instruction, nxt: int) -> InsnSemantics:
        a_op, b_op = insn.operands
        gpr_state = self.gpr
        cpu = self
        is_test = insn.mnemonic == "test"

        def value_fn(op):
            """The operand's closure, source expression and memory
            operand (a memory operand has no expression: the form then
            stays a closure call)."""
            if isinstance(op, GPR64):
                code = op.code
                return (lambda: gpr_state[code]), f"g[{code}]", None
            if isinstance(op, Imm):
                k = op.value
                return (lambda: k), str(k), None
            if isinstance(op, Mem):
                return self._load_int_fn(op), None, op
            raise MachineError(f"unsupported compare operand: {op}")

        a_fn, a_expr, a_mem = value_fn(a_op)
        b_fn, b_expr, b_mem = value_fn(b_op)
        load = a_mem or b_mem

        if is_test:
            def body() -> None:
                value = a_fn() & b_fn()
                cpu.zf, cpu.sf, cpu.cf = value == 0, value < 0, False

            def emit(code: Code) -> None:
                code.add(f"r = {a_expr} & {b_expr}",
                         "cpu.zf = r == 0; cpu.sf = r < 0; cpu.cf = False")
        else:
            def body() -> None:
                a, b = a_fn(), b_fn()
                cpu.zf, cpu.sf, cpu.cf = a == b, a < b, a < b

            def emit(code: Code) -> None:
                code.add(f"x = {a_expr}; y = {b_expr}",
                         "cpu.zf = x == y; cpu.sf = cpu.cf = x < y")
        return self._finish(insn, body, nxt, load=load,
                            load_size=load.size if load else 0,
                            emit=emit if load is None else None)

    def _compile_unary(self, insn: Instruction, nxt: int) -> InsnSemantics:
        (dst,) = insn.operands
        if not isinstance(dst, GPR64):
            raise MachineError(f"unary op destination must be a register: {insn}")
        gpr_state = self.gpr
        cpu = self
        code = dst.code
        name = insn.mnemonic

        if name == "inc":
            def body() -> None:
                value = gpr_state[code] + 1
                gpr_state[code] = value
                cpu.zf, cpu.sf = value == 0, value < 0
            result, carry = f"g[{code}] + 1", ""
        elif name == "dec":
            def body() -> None:
                value = gpr_state[code] - 1
                gpr_state[code] = value
                cpu.zf, cpu.sf = value == 0, value < 0
            result, carry = f"g[{code}] - 1", ""
        else:  # neg
            def body() -> None:
                value = -gpr_state[code]
                gpr_state[code] = value
                cpu.zf, cpu.sf = value == 0, value < 0
                cpu.cf = value != 0
            result, carry = f"-g[{code}]", "; cpu.cf = r != 0"

        def emit(emitted: Code) -> None:
            emitted.add(f"r = {result}", f"g[{code}] = r",
                        f"cpu.zf = r == 0; cpu.sf = r < 0{carry}")
        return self._finish(insn, body, nxt, emit=emit)

    def _compile_shift(self, insn: Instruction, nxt: int) -> InsnSemantics:
        dst, amount = insn.operands
        if not isinstance(dst, GPR64) or not isinstance(amount, Imm):
            raise MachineError(f"unsupported shift form: {insn}")
        gpr_state = self.gpr
        cpu = self
        code, k = dst.code, amount.value
        name = insn.mnemonic

        if name == "shl":
            def body() -> None:
                value = gpr_state[code] << k
                gpr_state[code] = value
                cpu.zf, cpu.sf = value == 0, value < 0
        else:  # shr/sar agree on non-negative values; we never shift negatives
            def body() -> None:
                value = gpr_state[code] >> k
                gpr_state[code] = value
                cpu.zf, cpu.sf = value == 0, value < 0

        def emit(emitted: Code) -> None:
            emitted.add(
                f"r = g[{code}] {'<<' if name == 'shl' else '>>'} {k}",
                f"g[{code}] = r", "cpu.zf = r == 0; cpu.sf = r < 0")
        return self._finish(insn, body, nxt, emit=emit)

    def _compile_xadd(self, insn: Instruction, nxt: int) -> InsnSemantics:
        dst, src = insn.operands
        if not isinstance(dst, Mem) or not isinstance(src, GPR64):
            raise MachineError(f"unsupported xadd form: {insn}")
        load = self._load_int_fn(dst)
        store = self._store_int_fn(dst)
        gpr_state = self.gpr
        cpu = self
        scode = src.code

        def body() -> None:
            old = load()
            total = old + gpr_state[scode]
            store(total)
            gpr_state[scode] = old
            cpu.zf, cpu.sf, cpu.cf = total == 0, total < 0, False
        return self._finish(
            insn, body, nxt,
            load=dst, load_size=dst.size,
            store=dst, store_size=dst.size,
            extra={"atomic_ops": 1},
        )

    # ------------------------------------------------------------------
    # Vector handlers
    # ------------------------------------------------------------------
    def _compile_vmov(self, insn: Instruction, nxt: int) -> InsnSemantics:
        dst, src = insn.operands
        vec = self.vec
        name = insn.mnemonic
        scalar = name == "vmovss"

        if isinstance(dst, VectorRegister) and isinstance(src, Mem):
            lanes = 1 if scalar else dst.lanes_f32
            load = self._load_f32_fn(src, lanes)
            dcode = dst.code

            def body() -> None:
                row = vec[dcode]
                row[:] = 0.0
                row[:lanes] = load()

            def emit(code: Code) -> None:
                self._emit_clear_then_access(code, dcode, lanes, src,
                                             4 * lanes)
                if scalar:
                    code.add(f"{code.row(dcode)}[0] = {self._f32_at(code)}")
                    return
                code.add(
                    "if o & 3:",
                    f"    {code.low(dcode, lanes)}[:] = frombuffer("
                    f"{code.unaligned(4 * lanes)}.tobytes(), f32)",
                    "else:",
                    f"    k = o >> 2; {code.low(dcode, lanes)}[:] = "
                    f"{code.view}[k:k + {lanes}]")
            return self._finish(insn, body, nxt, load=src,
                                load_size=4 * lanes, emit=emit)
        if isinstance(dst, Mem) and isinstance(src, VectorRegister):
            lanes = 1 if scalar else src.lanes_f32
            store = self._store_f32_fn(dst, lanes)
            scode = src.code

            def body() -> None:
                store(vec[scode, :lanes])

            def emit(code: Code) -> None:
                code.access(dst, 4 * lanes, "f32v")
                values = code.low(scode, lanes)
                code.add(
                    "if o & 3:",
                    f"    {code.unaligned(4 * lanes)} = {values}.view(u8)",
                    "else:",
                    f"    {code.view}[o >> 2] = {code.row(scode)}[0]"
                    if scalar else
                    f"    k = o >> 2; {code.view}[k:k + {lanes}] = {values}")
            return self._finish(insn, body, nxt, store=dst,
                                store_size=4 * lanes, emit=emit)
        if isinstance(dst, VectorRegister) and isinstance(src, VectorRegister):
            lanes = 1 if scalar else max(dst.lanes_f32, src.lanes_f32)
            dcode, scode = dst.code, src.code

            def body() -> None:
                row = vec[dcode]
                row[:] = 0.0
                row[:lanes] = vec[scode, :lanes]
            return self._finish(insn, body, nxt)
        raise MachineError(f"unsupported {name} form: {insn}")

    @staticmethod
    def _emit_clear_then_access(code: Code, dcode: int, lanes: int,
                                mem: Mem, size: int) -> None:
        """A vector load's opening: clear the destination register, then
        check the access — the closure's order, so a faulting load
        leaves a cleared register behind.  A full-width load overwrites
        every lane anyway, so it clears only on the miss path, where the
        fault can happen."""
        clear = f"{code.row(dcode)}.fill(0.0)"
        if lanes == 16:
            code.access(mem, size, "f32v", before_miss=clear)
        else:
            code.add(clear).access(mem, size, "f32v")

    @staticmethod
    def _f32_at(code: Code) -> str:
        """The float32 scalar at the checked address."""
        return (f"(frombuffer({code.unaligned(4)}.tobytes(), f32)[0] "
                f"if o & 3 else {code.view}[o >> 2])")

    def _compile_vxorps(self, insn: Instruction, nxt: int) -> InsnSemantics:
        dst, a, b = insn.operands
        vec_i32 = self.vec_i32
        vec = self.vec
        lanes = dst.lanes_f32
        dcode = dst.code

        if isinstance(a, VectorRegister) and isinstance(b, VectorRegister):
            if a.code == b.code:
                def body() -> None:
                    vec[dcode, :] = 0.0

                def emit(code: Code) -> None:
                    code.add(f"{code.row(dcode)}.fill(0.0)")
                return self._finish(insn, body, nxt, emit=emit)
            acode, bcode = a.code, b.code

            def body() -> None:
                vec_i32[dcode, :] = 0
                vec_i32[dcode, :lanes] = vec_i32[acode, :lanes] ^ vec_i32[bcode, :lanes]
            return self._finish(insn, body, nxt)
        raise MachineError(f"unsupported vxorps form: {insn}")

    def _compile_broadcast(self, insn: Instruction, nxt: int) -> InsnSemantics:
        dst, src = insn.operands
        vec = self.vec
        vec_i32 = self.vec_i32
        lanes = dst.lanes_f32
        dcode = dst.code
        is_int = insn.mnemonic == "vpbroadcastd"

        if isinstance(src, Mem):
            if is_int:
                load = self._load_int_fn(src)
                emit = None

                def body() -> None:
                    vec_i32[dcode, :] = 0
                    vec_i32[dcode, :lanes] = load()
            else:
                load = self._load_f32_fn(src, 1)

                def body() -> None:
                    vec[dcode, :] = 0.0
                    vec[dcode, :lanes] = load()[0]

                def emit(code: Code) -> None:
                    self._emit_clear_then_access(code, dcode, lanes, src, 4)
                    code.add(f"{code.low(dcode, lanes)}.fill("
                             f"{self._f32_at(code)})")
            return self._finish(insn, body, nxt, load=src, load_size=4,
                                emit=emit)
        if isinstance(src, VectorRegister):
            scode = src.code

            if is_int:
                def body() -> None:
                    vec_i32[dcode, :] = 0
                    vec_i32[dcode, :lanes] = vec_i32[scode, 0]
            else:
                def body() -> None:
                    vec[dcode, :] = 0.0
                    vec[dcode, :lanes] = vec[scode, 0]
            return self._finish(insn, body, nxt)
        raise MachineError(f"unsupported broadcast form: {insn}")

    def _compile_vec3(self, insn: Instruction, nxt: int) -> InsnSemantics:
        dst, a, b = insn.operands
        vec = self.vec
        vec_i32 = self.vec_i32
        lanes = dst.lanes_f32
        dcode, acode = dst.code, a.code
        name = insn.mnemonic
        is_int = name in ("vpaddd", "vpmulld")
        state = vec_i32 if is_int else vec

        float_ops = {
            "vaddps": np.add, "vsubps": np.subtract,
            "vmulps": np.multiply, "vdivps": np.divide,
            "vpaddd": np.add, "vpmulld": np.multiply,
        }
        op = float_ops[name]

        if isinstance(b, VectorRegister):
            bcode = b.code

            def body() -> None:
                result = op(state[acode, :lanes], state[bcode, :lanes])
                state[dcode, lanes:] = 0
                state[dcode, :lanes] = result

            def emit(code: Code) -> None:
                # the ufunc writes the destination view in place: lanes
                # are independent, so a destination that is also a
                # source is safe
                code.add(f"{op.__name__}({code.low(acode, lanes, is_int)}, "
                         f"{code.low(bcode, lanes, is_int)}, "
                         f"{code.low(dcode, lanes, is_int)})")
                if lanes < 16:
                    code.add(f"{code.high(dcode, lanes)}.fill(0.0)")
            return self._finish(insn, body, nxt, emit=emit)
        if isinstance(b, Mem):
            if is_int:
                raise MachineError(f"memory form not supported: {insn}")
            load = self._load_f32_fn(b, lanes)

            def body() -> None:
                result = op(state[acode, :lanes], load())
                state[dcode, lanes:] = 0
                state[dcode, :lanes] = result
            return self._finish(insn, body, nxt,
                                load=b, load_size=4 * lanes)
        raise MachineError(f"unsupported {name} form: {insn}")

    def _compile_vec3_scalar(self, insn: Instruction, nxt: int) -> InsnSemantics:
        dst, a, b = insn.operands
        vec = self.vec
        dcode, acode = dst.code, a.code
        name = insn.mnemonic
        ops = {"vaddss": np.float32.__add__, "vsubss": np.float32.__sub__,
               "vmulss": np.float32.__mul__}
        op = ops[name]

        if isinstance(b, VectorRegister):
            bcode = b.code

            def body() -> None:
                value = op(np.float32(vec[acode, 0]), np.float32(vec[bcode, 0]))
                row = vec[dcode]
                upper = vec[acode, 1:4].copy()
                row[:] = 0.0
                row[0] = value
                row[1:4] = upper
            return self._finish(insn, body, nxt)
        if isinstance(b, Mem):
            load = self._load_f32_fn(b, 1)

            def body() -> None:
                value = op(np.float32(vec[acode, 0]), np.float32(load()[0]))
                row = vec[dcode]
                upper = vec[acode, 1:4].copy()
                row[:] = 0.0
                row[0] = value
                row[1:4] = upper
            return self._finish(insn, body, nxt, load=b, load_size=4)
        raise MachineError(f"unsupported {name} form: {insn}")

    def _compile_fma(self, insn: Instruction, nxt: int) -> InsnSemantics:
        dst, a, b = insn.operands
        vec = self.vec
        scalar = insn.mnemonic == "vfmadd231ss"
        lanes = 1 if scalar else dst.lanes_f32
        dcode, acode = dst.code, a.code

        def accumulate(code: Code, operand: str) -> str:
            """``dst += a * operand``: the scalar form on float32
            scalars (the same two roundings as a one-lane array
            expression at a fraction of the dispatch), the packed form
            on the hoisted register views."""
            if scalar:
                acc = code.row(dcode)
                return (f"{acc}[0] = {acc}[0] + "
                        f"{code.row(acode)}[0] * {operand}")
            acc = code.low(dcode, lanes)
            return f"add({acc}, {code.low(acode, lanes)} * {operand}, {acc})"

        if isinstance(b, VectorRegister):
            bcode = b.code

            def body() -> None:
                vec[dcode, :lanes] += vec[acode, :lanes] * vec[bcode, :lanes]

            def emit(code: Code) -> None:
                code.add(accumulate(code, f"{code.row(bcode)}[0]" if scalar
                                    else code.low(bcode, lanes)))
            return self._finish(insn, body, nxt, emit=emit)
        if isinstance(b, Mem):
            load = self._load_f32_fn(b, lanes)

            def body() -> None:
                vec[dcode, :lanes] += vec[acode, :lanes] * load()

            def emit(code: Code) -> None:
                code.access(b, 4 * lanes, "f32v")
                if scalar:
                    code.add(accumulate(code, self._f32_at(code)))
                    return
                unaligned = (f"frombuffer({code.unaligned(4 * lanes)}"
                             ".tobytes(), f32)")
                code.add(
                    "if o & 3:",
                    "    " + accumulate(code, unaligned),
                    "else:",
                    "    k = o >> 2; "
                    + accumulate(code, f"{code.view}[k:k + {lanes}]"))
            return self._finish(insn, body, nxt, load=b,
                                load_size=4 * lanes, emit=emit)
        raise MachineError(f"unsupported fma form: {insn}")

    def _compile_vhaddps(self, insn: Instruction, nxt: int) -> InsnSemantics:
        dst, a, b = insn.operands
        if dst.width != 128:
            raise MachineError("vhaddps supported for xmm only in this subset")
        vec = self.vec
        dcode, acode, bcode = dst.code, a.code, b.code

        def body() -> None:
            av = vec[acode, :4]
            bv = vec[bcode, :4]
            result = np.array(
                [av[0] + av[1], av[2] + av[3], bv[0] + bv[1], bv[2] + bv[3]],
                dtype=np.float32,
            )
            row = vec[dcode]
            row[:] = 0.0
            row[:4] = result
        return self._finish(insn, body, nxt)

    def _compile_extract(self, insn: Instruction, nxt: int) -> InsnSemantics:
        dst, src, imm = insn.operands
        if not isinstance(dst, VectorRegister):
            raise MachineError("memory destination extract unsupported")
        out_lanes = 4 if insn.mnemonic == "vextractf128" else 8
        offset = imm.value * out_lanes
        vec = self.vec
        dcode, scode = dst.code, src.code

        def body() -> None:
            chunk = vec[scode, offset: offset + out_lanes].copy()
            row = vec[dcode]
            row[:] = 0.0
            row[:out_lanes] = chunk
        return self._finish(insn, body, nxt)

    def _compile_vpslld(self, insn: Instruction, nxt: int) -> InsnSemantics:
        dst, src, imm = insn.operands
        vec_i32 = self.vec_i32
        lanes = dst.lanes_f32
        dcode, scode, k = dst.code, src.code, imm.value

        def body() -> None:
            result = vec_i32[scode, :lanes] << k
            vec_i32[dcode, :] = 0
            vec_i32[dcode, :lanes] = result
        return self._finish(insn, body, nxt)

    def _compile_gather(self, insn: Instruction, nxt: int) -> InsnSemantics:
        dst, mem = insn.operands
        if not mem.is_gather or mem.base is None:
            raise MachineError(f"vgatherdps needs base + vector index: {insn}")
        vec = self.vec
        vec_i32 = self.vec_i32
        lanes = dst.lanes_f32
        dcode = dst.code
        icode = mem.index.code
        scale, disp = mem.scale, mem.disp
        base_code = mem.base.code
        gpr_state = self.gpr
        memory = self.memory
        counters = self.counters
        caches = self.caches

        def body() -> None:
            base = gpr_state[base_code] + disp
            indices = vec_i32[icode, :lanes]
            row = vec[dcode]
            row[lanes:] = 0.0
            for lane in range(lanes):
                addr = base + int(indices[lane]) * scale
                seg = memory.segment_of(addr, 4)
                off = addr - seg.base
                row[lane] = seg.f32v[off >> 2] if not off & 3 else np.frombuffer(
                    seg.raw[off: off + 4].tobytes(), np.float32
                )[0]

        if caches is None:
            deltas = {
                "instructions": 1, "simd_instructions": 1,
                "memory_loads": lanes, "loaded_bytes": 4 * lanes,
                "gather_elements": lanes,
            }
            if not self.record:
                return InsnSemantics(None, Code(self, nxt - 1).call(body),
                                     deltas)
            # per-lane address recording interleaved with the lane
            # reads, mirroring the reference timed step: a lane's
            # address is recorded only once its read succeeded, so a
            # mid-gather fault leaves exactly the completed lanes'
            # cache events in the trace
            record = self.replay.recorder.addrs.append

            def body_rec() -> None:
                base = gpr_state[base_code] + disp
                indices = vec_i32[icode, :lanes]
                row = vec[dcode]
                row[lanes:] = 0.0
                for lane in range(lanes):
                    addr = base + int(indices[lane]) * scale
                    seg = memory.segment_of(addr, 4)
                    off = addr - seg.base
                    row[lane] = (seg.f32v[off >> 2] if not off & 3
                                 else np.frombuffer(
                                     seg.raw[off: off + 4].tobytes(),
                                     np.float32)[0])
                    record(addr)

            return InsnSemantics(None, Code(self, nxt - 1).call(body_rec),
                                 deltas, ReplayInsn(insn, gather_lanes=lanes))

        cpu = self  # pipeline may be swapped out during warm-up passes

        def step_timed() -> int:
            base = gpr_state[base_code] + disp
            indices = vec_i32[icode, :lanes]
            refs = []
            row = vec[dcode]
            row[lanes:] = 0.0
            for lane in range(lanes):
                addr = base + int(indices[lane]) * scale
                seg = memory.segment_of(addr, 4)
                off = addr - seg.base
                row[lane] = seg.f32v[off >> 2] if not off & 3 else np.frombuffer(
                    seg.raw[off: off + 4].tobytes(), np.float32
                )[0]
                level = caches.access(addr, 4)
                _count_level(counters, level)
                refs.append((level, addr >> 6))
            counters.instructions += 1
            counters.simd_instructions += 1
            counters.memory_loads += lanes
            counters.loaded_bytes += 4 * lanes
            counters.gather_elements += lanes
            if cpu.pipeline is not None:
                cpu.pipeline.issue(insn, load_refs=tuple(refs),
                                   gather_lanes=lanes)
            return nxt
        return InsnSemantics(step_timed)


def _dest_lanes(insn: Instruction) -> int:
    op = insn.operands[0]
    if isinstance(op, VectorRegister):
        if insn.mnemonic.endswith("ss"):
            return 1
        return op.lanes_f32
    return 1


def _count_level(counters: Counters, level: str) -> None:
    if level == "l1":
        counters.l1_hits += 1
    elif level == "l2":
        counters.l1_misses += 1
        counters.l2_hits += 1
    else:
        counters.l1_misses += 1
        counters.l2_misses += 1

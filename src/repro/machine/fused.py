"""Block compilation: the paper's trick applied to the simulator.

JITSPMM's thesis is that code generated for the problem at hand beats
an interpreter dispatching a general loop, because it sheds memory
accesses, branches and instructions the general form must keep.  The
simulator's inner loop *is* such an interpreter, so this module
generates code for it: basic blocks are discovered from the assembled
:class:`~repro.isa.assembler.Program` (label and branch boundaries,
:meth:`Program.block_starts`), and every straight-line run becomes one
generated Python function with the instruction semantics *inlined* —
registers as ``g[n]`` with register codes, scales, displacements and
immediates as literals, each effective address formed once and shared
by the access, the per-site segment check and the trace append, and
the event-counter bumps summed over the block and retired in one batch.

Each instruction form contributes its statements as a :class:`Code`
fragment, written by the emitter that sits beside the form's
hand-written closure in :mod:`repro.machine.cpu`.  A form without an
emitter (gather, ``vhaddps``, extracts, ``xadd``, ``lea``) is a call to
its closure inside the block.  The residual single step of the
``counts`` / ``sim`` engines is the same fragment compiled as a block of
one, so the fast engines have one definition per form; the closures are
what the per-access reference engine (``sim-ref``) executes, and what
the conformance suite compares the generated code against.

Generated source is cached process-wide by its text
(:data:`_BLOCK_BUILDERS`): every execute builds fresh CPUs, and a fresh
CPU only binds its own state — register file, counters, trace columns,
hoisted vector-register views — to the compiled factory.

Fidelity contract: a block is bit-identical to stepping its
instructions one by one.  The batched counter deltas are summed from
the same static per-instruction deltas a step retires; the dispatch
loop (:meth:`repro.machine.cpu.Cpu.run_quantum`) falls back to single
steps for entry points that land mid-block and for quantum, fuel or
execution-limit residues smaller than a block (so the limit still
fires at the exact instruction it would under interpretation); and a
block tracks its progress in a local, so an instruction that *faults*
mid-block (simulated segmentation fault) retires the completed
prefix's counters individually on the way out — fault-time counter and
architectural state match stepping too.  Within an instruction the
order of architectural effects is the closure's (a faulting vector load
has already cleared its destination), and trace addresses are the ones
the reference forms *after* execution: ``mov rax, [rax + 8]`` records
the address its new ``rax`` gives.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MachineError
from repro.isa.operands import Mem
from repro.isa.registers import VectorRegister
from repro.machine.counters import Counters

__all__ = ["Code", "Superblock", "addr_expr", "build_block_table",
           "compile_block", "shared_binds"]

#: long straight-line runs (skewed matrices unroll heavy rows into
#: hundreds of branch-free instructions) are chunked into superblocks of
#: at most this many instructions.  The cap must stay below the SMP
#: scheduler's quantum (64): a block longer than a whole quantum can
#: never fit a thread's turn, so it would be compiled but never executed
MAX_BLOCK_INSNS = 32

#: compiled block factories keyed by generated source — the ``exec``
#: cost is paid once per distinct block per process, not per run.  JIT
#: programs bake operand addresses in as immediates, so a serving
#: process that profiles a stream of distinct matrices generates new
#: source for each: the cache is dropped wholesale past a cap, as
#: :data:`repro.machine.pipeline._UNIT_BUILDERS` is — regeneration
#: costs time, never correctness.
_BLOCK_BUILDERS: dict[str, object] = {}
_BLOCK_BUILDERS_CAP = 16384


#: the globals of all generated code: the numpy entry points the
#: memory and vector forms call (process-wide, unlike what a CPU binds)
_GLOBALS = {
    "frombuffer": np.frombuffer, "f32": np.float32, "u8": np.uint8,
    "add": np.add, "subtract": np.subtract, "multiply": np.multiply,
    "divide": np.divide,
}


def shared_binds(cpu) -> dict:
    """The names every generated block of ``cpu`` may use: its register
    file (``g``), the CPU itself for the three flags, its counters
    (``c``), the memory's segment lookup, the live predictor, and the
    trace-column appends under recording."""
    recorder = cpu.replay.recorder if cpu.record else None
    return {
        "g": cpu.gpr, "cpu": cpu, "c": cpu.counters,
        "segment_of": cpu.memory.segment_of,
        "predict": cpu.predictor.update,
        "ra": recorder.addrs.append if recorder else None,
        "ba": recorder.branches.append if recorder else None,
        "ua": recorder.units.append if recorder else None,
    }


def addr_expr(mem: Mem) -> str:
    """``mem``'s effective address as an expression over ``g``."""
    if isinstance(mem.index, VectorRegister):
        raise MachineError("VSIB address used outside vgatherdps")
    terms = []
    if mem.base is not None:
        terms.append(f"g[{mem.base.code}]")
    if mem.index is not None:
        scaled = f"g[{mem.index.code}]"
        terms.append(scaled if mem.scale == 1 else f"{scaled} * {mem.scale}")
    if mem.disp:
        terms.append(str(mem.disp))
    return " + ".join(terms)


class Code:
    """Generated statements for one instruction.

    ``lines`` are Python statements (suites carry their own relative
    indentation); ``binds`` maps the free names they use to this CPU's
    values; ``site`` is set once the fragment checks a memory access —
    its segment cache then lives in four closure cells named after the
    instruction's pc (``s``: segment, ``b`` / ``e``: its bounds, ``v``:
    the typed view the access reads or writes).
    """

    __slots__ = ("pc", "lines", "binds", "site", "_cpu")

    def __init__(self, cpu, pc: int) -> None:
        self.pc = pc
        self.lines: list[str] = []
        self.binds: dict[str, object] = {}
        self.site: Mem | None = None
        self._cpu = cpu

    def add(self, *lines: str) -> "Code":
        self.lines.extend(lines)
        return self

    def call(self, body) -> "Code":
        """The fragment of a form without an emitter: call its closure."""
        name = f"f{self.pc}"
        self.binds[name] = body
        return self.add(f"{name}()")

    # -- hoisted vector-register views ---------------------------------
    def row(self, code: int) -> str:
        """All sixteen float lanes of register ``code``."""
        return self._view(f"R{code}", self._cpu.vec, code, slice(None))

    def low(self, code: int, lanes: int, ints: bool = False) -> str:
        """The low ``lanes`` lanes (as int32 with ``ints``)."""
        if ints:
            return self._view(f"I{code}_{lanes}", self._cpu.vec_i32, code,
                              slice(lanes))
        return self._view(f"V{code}_{lanes}", self._cpu.vec, code,
                          slice(lanes))

    def high(self, code: int, lanes: int) -> str:
        """The lanes above the low ``lanes`` (zero fill is type-blind)."""
        return self._view(f"U{code}_{lanes}", self._cpu.vec, code,
                          slice(lanes, None))

    def _view(self, name: str, state, code: int, lanes: slice) -> str:
        if name not in self.binds:
            self.binds[name] = state[code, lanes]
        return name

    # -- memory ---------------------------------------------------------
    def access(self, mem: Mem, size: int, view: str,
               before_miss: str | None = None) -> "Code":
        """Form the address once (``a``), run the site's segment check
        and leave the in-segment offset in ``o``.

        A miss asks ``segment_of`` — which raises the simulated
        segmentation fault for an unmapped address — and refills the
        site cache; ``before_miss`` runs first on that path only (a
        register clear the common path does not need but a fault must
        leave behind).
        """
        pc = self.pc
        self.site = mem
        self.add(f"a = {addr_expr(mem)}",
                 f"if a < b{pc} or a + {size} > e{pc}:")
        if before_miss is not None:
            self.add(f"    {before_miss}")
        return self.add(
            f"    s{pc} = segment_of(a, {size}); b{pc} = s{pc}.base; "
            f"e{pc} = s{pc}.end; v{pc} = s{pc}.{view}",
            f"o = a - b{pc}")

    @property
    def view(self) -> str:
        """The checked segment's typed view (``access``'s ``view``)."""
        return f"v{self.pc}"

    def unaligned(self, size: int) -> str:
        """The access's bytes, for the path typed views cannot serve."""
        return f"s{self.pc}.raw[o:o + {size}]"

    def trace(self, mem: Mem, clobbered: bool) -> "Code":
        """Append ``mem``'s address to the trace.  The reference forms
        trace addresses after the instruction executed, so the shared
        ``a`` serves only while the address registers still hold what
        they held (``clobbered``: the instruction overwrote one)."""
        if self.site is mem and not clobbered:
            return self.add("ra(a)")
        return self.add(f"ra({addr_expr(mem)})")


class Superblock:
    """One compiled basic block: a generated function plus its length.

    ``run()`` executes every instruction in the block (terminator
    included) and returns the next pc; ``length`` is the dynamic
    instruction count one execution retires.
    """

    __slots__ = ("run", "length", "start")

    def __init__(self, run, length: int, start: int) -> None:
        self.run = run
        self.length = length
        self.start = start


def compile_block(codes: list[Code], binds: dict, totals: dict[str, int],
                  unit: tuple[int, int] | None, tail: str,
                  branch: Code | None = None):
    """Generate, compile (once per distinct text) and bind one block.

    ``codes`` are the block's straight-line fragments in order and
    ``branch`` the fragment of the control-flow instruction closing it,
    if one does; ``binds`` holds this CPU's values for the shared names
    (:func:`shared_binds`) plus, for a real block, ``repair``;
    ``totals`` are the summed counter deltas; ``unit`` is the pc range
    appended to the trace under recording; ``tail`` is the next-pc
    expression the block returns.

    A block of several instructions tracks its progress in ``i`` so a
    faulting instruction can have ``repair(i)`` retire the completed
    prefix (a branch cannot fault, so it needs no marker); a block of
    one — the engines' single step — has no prefix and needs neither.
    """
    values = dict(binds)
    for code in codes:
        values.update(code.binds)
    names = sorted(values)
    sites = [code.pc for code in codes if code.site is not None]
    guarded = len(codes) > 1
    pad = "            " if guarded else "        "
    body: list[str] = []
    for i, code in enumerate(codes):
        body += [pad + line for line in code.lines]
        if guarded:
            body.append(f"{pad}i = {i + 1}")
    if branch is not None:
        body += [pad + line for line in branch.lines]
    body += [f"{pad}c.{name} += {amount}"
             for name, amount in totals.items() if amount]
    if unit is not None:
        body.append(f"{pad}ua({unit!r})")
    body.append(f"{pad}return {tail}")
    lines = [f"def _make({', '.join(names)}):"]
    lines += [f"    s{pc} = v{pc} = None; b{pc} = e{pc} = 0" for pc in sites]
    lines.append("    def run():")
    if sites:
        cells = ", ".join(f"s{pc}, b{pc}, e{pc}, v{pc}" for pc in sites)
        lines.append(f"        nonlocal {cells}")
    if guarded:
        lines += ["        i = 0", "        try:", *body,
                  "        except BaseException:",
                  f"            if i < {len(codes)}:",
                  "                repair(i)",
                  "            raise"]
    else:
        lines += body
    lines.append("    return run")
    source = "\n".join(lines) + "\n"
    builder = _BLOCK_BUILDERS.get(source)
    if builder is None:
        if len(_BLOCK_BUILDERS) >= _BLOCK_BUILDERS_CAP:
            _BLOCK_BUILDERS.clear()
        namespace = dict(_GLOBALS)
        exec(source, namespace)  # generated from decoded operands
        builder = _BLOCK_BUILDERS[source] = namespace["_make"]
    return builder(*[values[name] for name in names])


def _make_repair(chunk, counters: Counters, unit_append, chunk_start: int):
    """Accounting fallback for a faulting block: retire the first
    ``retired`` instructions' deltas individually (slow path — runs at
    most once, on the way out of a fatal machine error).  Under trace
    recording (``unit_append`` is not None) the completed prefix is also
    appended as a partial unit, so the replayed timing at fault matches
    per-instruction stepping."""

    def repair(retired: int) -> None:
        for sem in chunk[:retired]:
            for name, amount in sem.deltas.items():
                setattr(counters, name, getattr(counters, name) + amount)
        if unit_append is not None and retired:
            unit_append((chunk_start, chunk_start + retired))

    return repair


def build_block_table(semantics, program, binds: dict) -> list:
    """Superblock table for one compiled program: pc -> block or None.

    ``binds`` are the CPU's :func:`shared_binds`.

    The table is indexed by instruction index; entries are non-None only
    at basic-block leaders whose block could be compiled (at least one
    straight-line instruction).  Lone branches and the reference
    engine's instructions — dynamic accounting, no fragments — stay None
    and execute through the per-instruction step list.

    Under record/replay timing each block appends its
    pc range to the trace — the closing branch's pc included — and the
    fragments themselves append their effective addresses and the
    branch outcome, so the columnar trace is complete.
    """
    insns = semantics.insns
    n = len(insns)
    table: list = [None] * n
    counters, unit_append = binds["c"], binds["ua"]
    boundaries = program.block_starts() + [n]
    for start, end in zip(boundaries, boundaries[1:]):
        branch = insns[end - 1] if insns[end - 1].tail is not None else None
        body_end = end - 1 if branch is not None else end
        straight = insns[start:body_end]
        if not straight or any(sem.code is None for sem in straight):
            continue  # a lone branch, or the reference engine
        # chunk long straight-line runs so every superblock fits inside
        # one scheduling quantum; each chunk exits into the next, the
        # final chunk carries the block's closing branch
        for chunk_start in range(start, body_end, MAX_BLOCK_INSNS):
            chunk_end = min(chunk_start + MAX_BLOCK_INSNS, body_end)
            chunk = insns[chunk_start:chunk_end]
            closing = branch if chunk_end == body_end else None
            retired = chunk + [closing] if closing is not None else chunk
            totals: dict[str, int] = {}
            for sem in retired:
                for name, amount in sem.deltas.items():
                    totals[name] = totals.get(name, 0) + amount
            stop = chunk_start + len(retired)
            run = compile_block(
                [sem.code for sem in chunk],
                {**binds, "repair": _make_repair(chunk, counters,
                                                 unit_append, chunk_start)},
                totals,
                (chunk_start, stop) if unit_append is not None else None,
                closing.tail if closing is not None else str(stop),
                closing.code if closing is not None else None,
            )
            table[chunk_start] = Superblock(run, len(retired), chunk_start)
    return table

"""Superblock compilation: the paper's trick applied to the simulator.

JITSPMM's thesis is that code specialized to the problem at hand beats
an interpreter dispatching a general loop.  The simulator's inner loop
*is* such an interpreter — one Python call per retired instruction, plus
one accounting call and a handful of counter-attribute bumps.  This
module specializes it away: basic blocks are discovered from the
assembled :class:`~repro.isa.assembler.Program` (label and branch
boundaries, :meth:`Program.block_starts`), and each straight-line run of
instruction *bodies* (pure semantics, compiled once by
:class:`repro.machine.cpu.Cpu`) is fused into a single superblock
closure — generated Python source, compiled once per block shape — with
the event-counter bumps summed over the block and retired in one batch.

Fidelity contract: superblocks are how the simulator always runs — in
counts fidelity (results + event counters) and, with each driver also
appending its pc range to the trace, under record/replay timing.
Because every body is the same closure a single step runs, and the
batched counter deltas are summed from the same static per-instruction
deltas, a fused execution is bit-identical to per-instruction stepping
— the conformance suite asserts this across every registered system
against the per-access reference engine, whose dynamic accounting
exposes no static deltas, so its table is all ``None`` and it steps.
The dispatch loop (:meth:`repro.machine.cpu.Cpu.run_quantum`) falls
back to per-instruction steps for entry points that land mid-block and
for quantum, fuel or execution-limit residues smaller than a block (so
the limit still fires at the exact instruction it would under
interpretation).  A body that *faults* mid-block (simulated
segmentation fault) falls back to per-instruction accounting on the way
out: the completed prefix's counters are retired individually before
the error propagates, so fault-time counter and architectural state are
also bit-identical to stepping.
"""

from __future__ import annotations

from repro.machine.counters import Counters, make_bump

__all__ = ["Superblock", "build_block_table"]


class Superblock:
    """One fused basic block: a compiled closure plus its length.

    ``run()`` executes every instruction in the block (terminator
    included) and returns the next pc; ``length`` is the dynamic
    instruction count one execution retires.
    """

    __slots__ = ("run", "length", "start")

    def __init__(self, run, length: int, start: int) -> None:
        self.run = run
        self.length = length
        self.start = start


#: compiled superblock-driver factories, keyed by (body count, has
#: terminator) — the ``exec`` cost is paid once per block *shape*, then
#: each concrete block instantiates the straight-line driver with its
#: own bodies bound as locals (no loop, no per-instruction dispatch)
_RUN_BUILDERS: dict[tuple[int, bool], object] = {}

#: blocks longer than this fall back to a tuple-iteration driver: the
#: exec-specialized straight-line form stops paying for itself and very
#: long argument lists slow instantiation
_MAX_SPECIALIZED_BODIES = 64

#: long straight-line runs (skewed matrices unroll heavy rows into
#: hundreds of branch-free instructions) are chunked into superblocks of
#: at most this many instructions.  The cap must stay below the SMP
#: scheduler's quantum (64): a block longer than a whole quantum can
#: never fit a thread's turn, so it would be compiled but never executed
#: — and it bounds the distinct block shapes the specialized drivers are
#: generated for
MAX_BLOCK_INSNS = 32


def _make_run(bodies: tuple, bump, terminator, exit_pc: int, repair,
              record=None):
    """Compile the driver closure for one block.

    ``terminator`` is the interpreter step of the block-ending branch
    (``jcc``/``jmp``/``ret``) — it keeps its own accounting and returns
    the next pc; ``exit_pc`` is returned instead when the block falls
    through into a label.  ``record`` is ``(units.append, unit)`` when a
    trace recorder is attached: the chunk's pc range is appended right
    after the counter batch, inline in the generated driver.

    The driver tracks its progress in a local so a *faulting* body
    (e.g. a simulated segmentation fault) falls back to per-instruction
    accounting: ``repair(retired)`` retires the counters of the bodies
    that completed before the fault, leaving counter and architectural
    state bit-identical to where per-instruction stepping would raise.
    """
    count = len(bodies)
    has_term = terminator is not None
    unit_append, unit = record if record is not None else (None, None)
    if count > _MAX_SPECIALIZED_BODIES:
        if has_term:
            def run() -> int:
                retired = 0
                try:
                    for body in bodies:
                        body()
                        retired += 1
                    bump()
                    if unit_append is not None:
                        unit_append(unit)
                    return terminator()
                except BaseException:
                    if retired < count:
                        repair(retired)
                    raise
        else:
            def run() -> int:
                retired = 0
                try:
                    for body in bodies:
                        body()
                        retired += 1
                    bump()
                    if unit_append is not None:
                        unit_append(unit)
                    return exit_pc
                except BaseException:
                    if retired < count:
                        repair(retired)
                    raise
        return run
    has_rec = record is not None
    builder = _RUN_BUILDERS.get((count, has_term, has_rec))
    if builder is None:
        args = "".join(f"b{i}, " for i in range(count))
        calls = "\n".join(f"            b{i}()\n            i = {i + 1}"
                          for i in range(count))
        rec = "            ua(u)\n" if has_rec else ""
        tail = "return term()" if has_term else "return exit_pc"
        source = (f"def _make({args}bump, term, exit_pc, repair, ua, u):\n"
                  f"    def run():\n"
                  f"        i = 0\n"
                  f"        try:\n{calls}\n"
                  f"            bump()\n"
                  f"{rec}"
                  f"            {tail}\n"
                  f"        except BaseException:\n"
                  f"            if i < {count}:\n"
                  f"                repair(i)\n"
                  f"            raise\n"
                  f"    return run\n")
        namespace: dict = {}
        exec(source, namespace)  # generated from a fixed template
        builder = _RUN_BUILDERS[(count, has_term, has_rec)] = namespace["_make"]
    return builder(*bodies, bump, terminator, exit_pc, repair, unit_append,
                   unit)


def _make_repair(chunk, counters: Counters, recorder=None,
                 chunk_start: int = 0):
    """Accounting fallback for a faulting block: retire the first
    ``retired`` instructions' deltas individually (slow path — runs at
    most once, on the way out of a fatal machine error).  Under trace
    recording the completed prefix is also appended as a partial unit,
    so the replayed timing at fault matches per-instruction stepping."""

    def repair(retired: int) -> None:
        for sem in chunk[:retired]:
            for name, amount in sem.deltas.items():
                setattr(counters, name, getattr(counters, name) + amount)
        if recorder is not None and retired:
            recorder.units.append((chunk_start, chunk_start + retired))

    return repair


def build_block_table(semantics, program, counters: Counters,
                      recorder=None) -> list:
    """Superblock table for one compiled program: pc -> block or None.

    The table is indexed by instruction index; entries are non-None only
    at basic-block leaders whose block could be fused (at least one
    straight-line body).  Lone branches and unfusible blocks stay None
    and execute through the per-instruction step list.

    With a ``recorder`` (record/replay timing), each chunk's driver
    appends the chunk's pc range to the trace — the bodies themselves
    append their effective addresses, and the terminator step records
    its own unit and outcome, so the columnar trace is complete.
    """
    insns = semantics.insns
    n = len(insns)
    table: list = [None] * n
    boundaries = program.block_starts() + [n]
    for start, end in zip(boundaries, boundaries[1:]):
        last = insns[end - 1]
        terminator = last.step if last.body is None else None
        body_end = end - 1 if terminator is not None else end
        straight = insns[start:body_end]
        if not straight:
            continue  # a lone branch: nothing to fuse
        if any(sem.body is None or sem.deltas is None for sem in straight):
            continue  # dynamic accounting (the ref engine): not fusible
        # chunk long straight-line runs so every superblock fits inside
        # one scheduling quantum; each chunk exits into the next, the
        # final chunk carries the block's terminator
        for chunk_start in range(start, body_end, MAX_BLOCK_INSNS):
            chunk_end = min(chunk_start + MAX_BLOCK_INSNS, body_end)
            chunk = insns[chunk_start:chunk_end]
            is_last = chunk_end == body_end
            totals: dict[str, int] = {}
            for sem in chunk:
                for name, amount in sem.deltas.items():
                    totals[name] = totals.get(name, 0) + amount
            record = None
            if recorder is not None:
                record = (recorder.units.append, (chunk_start, chunk_end))
            run = _make_run(
                tuple(sem.body for sem in chunk),
                make_bump(counters, totals),
                terminator if is_last else None,
                end if is_last else chunk_end,
                _make_repair(chunk, counters, recorder, chunk_start),
                record,
            )
            length = len(chunk) + (1 if is_last and terminator is not None
                                   else 0)
            table[chunk_start] = Superblock(run, length, chunk_start)
    return table

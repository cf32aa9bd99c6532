"""Tests for block dispatch, the content-keyed compiled-program cache
and the bounded generated-source cache.

Generated blocks are the simulator's only driver, so the oracle is the
per-access reference engine (``engine="ref"``): its accounting is
dynamic, nothing is generated for it, and it therefore retires one
instruction per dispatch.  The default driver must match it on every
counter under record/replay timing, and on every counter the fidelity
models in counts mode.  (``tests/test_machine_emitters.py`` holds the
per-instruction-form conformance.)
"""

import gc

import numpy as np
import pytest

from repro.errors import ExecutionLimitExceeded, SegmentationFault
from repro.isa.assembler import Assembler
from repro.isa.operands import Imm, Mem
from repro.isa.registers import regs, zmm
from repro.machine import Cpu, CpuConfig, Machine, Memory, ThreadSpec, fused

from tests.conftest import DRIVER_CPUS, REF_CPU, comparable


def loop_program(data_base: int, out_base: int, count: int):
    """Sum data[0:count) into out[0], with a multi-instruction loop body."""
    asm = Assembler("loop")
    asm.mov(regs.rax, Imm(data_base, 64))
    asm.mov(regs.rbx, 0)          # accumulator
    asm.mov(regs.rcx, 0)          # index
    asm.label("loop")
    asm.cmp(regs.rcx, count)
    asm.jge("done")
    asm.add(regs.rbx, Mem(regs.rax, regs.rcx, 8, 0, size=8))
    asm.inc(regs.rcx)
    asm.jmp("loop")
    asm.label("done")
    asm.mov(regs.rdx, Imm(out_base, 64))
    asm.mov(Mem(regs.rdx, size=8), regs.rbx)
    asm.ret()
    return asm.finish()


def setup_memory(count=20):
    mem = Memory()
    data = np.arange(1, count + 1, dtype=np.int64)
    out = np.zeros(1, dtype=np.int64)
    db = mem.map_array(data)
    ob = mem.map_array(out)
    return mem, db, ob, out, int(data.sum())


class TestBlockDiscovery:
    def test_block_starts_at_entry_labels_and_branch_successors(self):
        program = loop_program(0x1000, 0x2000, 4)
        # layout: 0-2 prologue, 3 cmp, 4 jge, 5 add, 6 inc, 7 jmp,
        #         8 mov, 9 mov-store, 10 ret
        assert program.block_starts() == [0, 3, 5, 8]

    def test_superblock_table_shape(self):
        program = loop_program(0x1000, 0x2000, 4)
        cpu = Cpu(Memory(), CpuConfig(timing=False))
        table = cpu.superblocks(program)
        starts = [block.start for block in table if block is not None]
        assert starts == [0, 3, 5, 8]
        lengths = {block.start: block.length
                   for block in table if block is not None}
        # prologue (3 insns, falls through into the loop label)
        assert lengths[0] == 3
        # loop header: cmp + jge terminator
        assert lengths[3] == 2
        # loop body: add + inc + jmp terminator
        assert lengths[5] == 3
        # epilogue: mov + store + ret terminator
        assert lengths[8] == 3

    def test_ref_engine_exposes_nothing_to_fuse(self):
        """The oracle needs no special case: dynamic accounting means no
        static deltas, so its table is all None and every dispatch is a
        single step."""
        program = loop_program(0x1000, 0x2000, 4)
        assert Cpu(Memory(), REF_CPU).superblocks(program) == [None] * len(program)


def run_cpu(config, program, mem, **kwargs):
    """One fresh CPU's run of ``program``; returns the CPU and the
    exception type it died with (None on a clean ``ret``)."""
    cpu = Cpu(mem, config)
    try:
        cpu.run(program, **kwargs)
    except (ExecutionLimitExceeded, SegmentationFault) as exc:
        return cpu, type(exc)
    return cpu, None


class TestFusedEquivalence:
    """Each test runs the oracle once and both superblock fidelities
    against it (loops, not parametrization: the test ids are pinned)."""

    def test_single_cpu_fused_matches_stepped(self):
        mem, db, ob, out, expected = setup_memory()
        program = loop_program(db, ob, 20)
        stepped, _ = run_cpu(REF_CPU, program, mem)
        assert out[0] == expected
        for config in DRIVER_CPUS:
            out[0] = 0
            fused, _ = run_cpu(config, program, mem)
            assert any(fused.superblocks(program))
            assert out[0] == expected
            assert (comparable(fused.counters, config)
                    == comparable(stepped.counters, config))
            assert fused.gpr == stepped.gpr

    def test_entry_mid_block_falls_back_to_stepping(self):
        # entry index 1 is inside the prologue block: no superblock
        # covers it, so execution starts on per-instruction steps (rax
        # is preloaded to compensate for the skipped instruction)
        mem, db, ob, out, expected = setup_memory()
        program = loop_program(db, ob, 20)
        stepped, _ = run_cpu(REF_CPU, program, mem, init_gpr={"rax": db}, entry=1)
        assert out[0] == expected
        for config in DRIVER_CPUS:
            out[0] = 0
            fused, _ = run_cpu(config, program, mem, init_gpr={"rax": db},
                               entry=1)
            assert out[0] == expected
            assert fused.gpr == stepped.gpr
            assert (comparable(fused.counters, config)
                    == comparable(stepped.counters, config))

    def test_fuel_limit_is_exact_under_fusion(self):
        mem, db, ob, _, _ = setup_memory(1000)
        program = loop_program(db, ob, 1000)
        # the loop's blocks are 2 and 3 instructions long, so most of
        # these budgets run out mid-block
        for fuel in (1, 2, 3, 7, 10, 50):
            stepped, error = run_cpu(REF_CPU, program, mem, fuel=fuel)
            assert error is ExecutionLimitExceeded
            assert stepped.executed == fuel + 1
            for config in DRIVER_CPUS:
                fused, error = run_cpu(config, program, mem, fuel=fuel)
                assert error is ExecutionLimitExceeded
                # the raise happens at the same instruction: identical
                # architectural and counter state either way
                assert fused.executed == fuel + 1
                assert fused.gpr == stepped.gpr
                assert (comparable(fused.counters, config)
                        == comparable(stepped.counters, config))

    @pytest.mark.parametrize("quantum", [1, 2, 3, 5, 7, 8, 31, 64, 100_000])
    def test_machine_fused_matches_stepped_per_quantum(self, quantum):
        def run(config):
            mem, db, ob, out, _ = setup_memory(50)
            program = loop_program(db, ob, 50)
            merged, per_thread = Machine(mem, config, quantum=quantum).run(
                [ThreadSpec(program, name=f"t{i}") for i in range(3)])
            return int(out[0]), merged, per_thread

        out_ref, merged_ref, threads_ref = run(REF_CPU)
        for config in DRIVER_CPUS:
            out, merged, threads = run(config)
            assert out == out_ref
            assert comparable(merged, config) == comparable(merged_ref,
                                                            config)
            assert ([comparable(c, config) for c in threads]
                    == [comparable(c, config) for c in threads_ref])

    def test_faulting_block_matches_stepped_state(self):
        """A body faulting mid-block retires the completed prefix's
        counters: fault-time counter and architectural state are
        bit-identical to per-instruction stepping."""
        mem = Memory()
        base, _ = mem.map_zeros(8)
        asm = Assembler("faulty")
        asm.mov(regs.rax, Imm(base, 64))
        asm.mov(regs.rbx, 7)
        asm.mov(Mem(regs.rax, size=8), regs.rbx)       # ok
        asm.add(regs.rbx, 1)
        asm.mov(regs.rcx, Imm(0xDEAD0000, 64))
        asm.mov(Mem(regs.rcx, size=8), regs.rbx)       # faults
        asm.add(regs.rbx, 100)                          # never runs
        asm.ret()
        program = asm.finish()

        stepped, error = run_cpu(REF_CPU, program, mem)
        assert error is SegmentationFault
        # five instructions retired before the fault
        assert stepped.counters.instructions == 5
        assert mem.read_int(base, 8) == 7
        for config in DRIVER_CPUS:
            mem.write_int(base, 8, 0)
            fused, error = run_cpu(config, program, mem)
            assert error is SegmentationFault
            assert mem.read_int(base, 8) == 7
            assert fused.gpr == stepped.gpr
            assert (comparable(fused.counters, config)
                    == comparable(stepped.counters, config))

    def test_vector_blocks_fuse(self):
        """A block containing SIMD bodies fuses and counts flops
        identically to stepping."""
        mem = Memory()
        data = np.arange(32, dtype=np.float32)
        out = np.zeros(16, dtype=np.float32)
        db = mem.map_array(data)
        ob = mem.map_array(out)
        asm = Assembler("vec")
        asm.mov(regs.rax, Imm(db, 64))
        asm.vmovups(zmm(0), Mem(regs.rax, size=64))
        asm.vmovups(zmm(1), Mem(regs.rax, disp=64, size=64))
        asm.vfmadd231ps(zmm(2), zmm(0), zmm(1))
        asm.mov(regs.rbx, Imm(ob, 64))
        asm.vmovups(Mem(regs.rbx, size=64), zmm(2))
        asm.ret()
        program = asm.finish()

        stepped, _ = run_cpu(REF_CPU, program, mem)
        expected = out.copy()
        assert stepped.counters.flop == 32
        assert stepped.counters.simd_instructions == 4
        for config in DRIVER_CPUS:
            out[:] = 0.0
            fused, _ = run_cpu(config, program, mem)
            assert np.array_equal(out, expected)
            assert (comparable(fused.counters, config)
                    == comparable(stepped.counters, config))


class TestGeneratedSourceCache:
    """JIT programs bake operand addresses in as immediates, so a
    process simulating a stream of distinct matrices generates new block
    source for each: the process-wide cache must stay bounded, and
    dropping it must be invisible."""

    CAP = 8

    @staticmethod
    def baked_program(data_base: int, out_base: int, k: int):
        asm = Assembler(f"baked{k}")
        asm.mov(regs.rax, Imm(data_base + 8 * k, 64))
        asm.mov(regs.rbx, Mem(regs.rax, size=8))
        asm.add(regs.rbx, k)
        asm.mov(regs.rdx, Imm(out_base, 64))
        asm.mov(Mem(regs.rdx, size=8), regs.rbx)
        asm.ret()
        return asm.finish()

    def outcomes(self, k: int):
        """Program ``k`` on the oracle and both drivers: the stored
        result and every comparable counter."""
        mem, db, ob, out, _ = setup_memory(64)
        program = self.baked_program(db, ob, k)
        found = []
        for config in (REF_CPU, *DRIVER_CPUS):
            out[0] = 0
            cpu, _ = run_cpu(config, program, mem)
            found.append((int(out[0]), cpu.counters))
            assert len(fused._BLOCK_BUILDERS) <= self.CAP
        return found

    def test_cache_is_bounded_and_a_clear_changes_nothing(self, monkeypatch):
        monkeypatch.setattr(fused, "_BLOCK_BUILDERS_CAP", self.CAP)
        monkeypatch.setattr(fused, "_BLOCK_BUILDERS", {})
        first = self.outcomes(0)
        generated = set(fused._BLOCK_BUILDERS)
        for k in range(5 * self.CAP):       # far more programs than the cap
            (value, ref), *drivers = self.outcomes(k)
            assert value == k + 1 + k
            for config, (got, counters) in zip(DRIVER_CPUS, drivers):
                assert got == value
                assert comparable(counters, config) == comparable(ref, config)
        # program 0's blocks were dropped on the way ...
        assert not generated & set(fused._BLOCK_BUILDERS)
        # ... and regenerating them reproduces the first run exactly
        again = self.outcomes(0)
        assert ([(value, counters.as_dict()) for value, counters in again]
                == [(value, counters.as_dict()) for value, counters in first])


class TestCompiledCacheKeying:
    """Regression: `Cpu._compiled` used to key on `id(program)`."""

    def test_cache_is_content_keyed(self):
        cpu = Cpu(Memory(), CpuConfig(timing=False))
        asm = Assembler("a")
        asm.mov(regs.rax, 1)
        asm.ret()
        p1 = asm.finish()
        semantics = cpu.semantics(p1)
        # an equal-content program compiled separately shares the entry
        asm2 = Assembler("b")  # name differs: excluded from identity
        asm2.mov(regs.rax, 1)
        asm2.ret()
        assert cpu.semantics(asm2.finish()) is semantics
        # different content gets its own entry
        asm3 = Assembler("a")
        asm3.mov(regs.rax, 2)
        asm3.ret()
        assert cpu.semantics(asm3.finish()) is not semantics

    def test_id_reuse_cannot_replay_stale_closures(self):
        """A collected program's id may be handed to a new program; the
        content-keyed cache must never replay the old closures."""
        cpu = Cpu(Memory(), CpuConfig(timing=False))

        def make(value):
            asm = Assembler("prog")
            asm.mov(regs.rax, value)
            asm.ret()
            return asm.finish()

        p1 = make(111)
        cpu.run(p1)
        assert cpu.get_gpr("rax") == 111
        stale_id = id(p1)
        del p1
        gc.collect()
        # allocate until one program lands on the reused id (CPython
        # usually reuses it immediately; bail out after a bounded hunt)
        for value in range(222, 322):
            p2 = make(value)
            if id(p2) == stale_id:
                break
        cpu.run(p2)
        # correct regardless of whether the id collided; when it did,
        # this is exactly the stale-replay scenario the fingerprint fixes
        assert cpu.get_gpr("rax") == value

    def test_fingerprint_is_cached_and_stable(self):
        program = loop_program(0x1000, 0x2000, 4)
        assert program.fingerprint() == program.fingerprint()
        clone = loop_program(0x1000, 0x2000, 4)
        assert clone.fingerprint() == program.fingerprint()
        other = loop_program(0x1000, 0x2000, 5)
        assert other.fingerprint() != program.fingerprint()

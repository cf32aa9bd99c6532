"""Tests for the multi-core machine and scheduler."""

import numpy as np
import pytest

from repro.errors import ExecutionLimitExceeded
from repro.isa.assembler import Assembler
from repro.isa.operands import Imm, Mem
from repro.isa.registers import regs
from repro.machine import Cpu, CpuConfig, Machine, Memory, ThreadSpec, smp
from repro.machine.cpu import UNBOUNDED_QUANTUM
from repro.machine.smp import THREAD_OVERHEAD_CYCLES

from tests.conftest import DRIVER_CPUS, REF_CPU, comparable


def counting_program(counter_base: int, per_thread: int):
    """Each thread adds 1 to a shared counter ``per_thread`` times via xadd."""
    asm = Assembler("count")
    asm.mov(regs.rdi, Imm(counter_base, 64))
    asm.mov(regs.rcx, 0)
    asm.label("loop")
    asm.cmp(regs.rcx, per_thread)
    asm.jge("done")
    asm.mov(regs.rsi, 1)
    asm.xadd(Mem(regs.rdi, size=8), regs.rsi, lock=True)
    asm.inc(regs.rcx)
    asm.jmp("loop")
    asm.label("done")
    asm.ret()
    return asm.finish()


def range_sum_program(data_base: int, out_base: int):
    """Sum data[start:end) into out[tid]; start/end/tid passed in registers."""
    asm = Assembler("rangesum")
    # rdi = start index, rsi = end index, rdx = tid
    asm.mov(regs.rax, Imm(data_base, 64))
    asm.mov(regs.rbx, 0)
    asm.label("loop")
    asm.cmp(regs.rdi, regs.rsi)
    asm.jge("done")
    asm.add(regs.rbx, Mem(regs.rax, regs.rdi, 8, 0, size=8))
    asm.inc(regs.rdi)
    asm.jmp("loop")
    asm.label("done")
    asm.mov(regs.rcx, Imm(out_base, 64))
    asm.mov(regs.r9, regs.rdx)
    asm.shl(regs.r9, 3)
    asm.add(regs.rcx, regs.r9)
    asm.mov(Mem(regs.rcx, size=8), regs.rbx)
    asm.ret()
    return asm.finish()


class TestAtomicity:
    @pytest.mark.parametrize("threads,quantum", [(2, 1), (4, 3), (8, 64)])
    def test_shared_counter_is_exact(self, threads, quantum):
        mem = Memory()
        base, _ = mem.map_zeros(8)
        program = counting_program(base, per_thread=25)
        machine = Machine(mem, CpuConfig(timing=False), quantum=quantum)
        machine.run([ThreadSpec(program) for _ in range(threads)])
        assert mem.read_int(base, 8) == threads * 25

    def test_result_independent_of_quantum(self):
        results = []
        for quantum in (1, 7, 128):
            mem = Memory()
            base, _ = mem.map_zeros(8)
            machine = Machine(mem, CpuConfig(timing=False), quantum=quantum)
            machine.run([ThreadSpec(counting_program(base, 10))] * 3)
            results.append(mem.read_int(base, 8))
        assert results == [30, 30, 30]


def batch_claim_program(next_base: int, claims_base: int, batches: int):
    """Listing-1-style dynamic dispatcher: claim batches via lock xadd.

    Each claimed batch index gets its claims[] slot incremented, so the
    exactly-once contract is directly observable: any double dispatch
    leaves a slot > 1, any lost batch leaves a slot == 0.
    """
    asm = Assembler("claim")
    asm.mov(regs.rdi, Imm(next_base, 64))
    asm.mov(regs.r8, Imm(claims_base, 64))
    asm.label("loop")
    asm.mov(regs.rsi, 1)
    asm.xadd(Mem(regs.rdi, size=8), regs.rsi, lock=True)  # rsi = old NEXT
    asm.cmp(regs.rsi, batches)
    asm.jge("done")
    # claims[old] += 1
    asm.mov(regs.rax, Mem(regs.r8, regs.rsi, 8, 0, size=8))
    asm.inc(regs.rax)
    asm.mov(Mem(regs.r8, regs.rsi, 8, 0, size=8), regs.rax)
    asm.jmp("loop")
    asm.label("done")
    asm.ret()
    return asm.finish()


class TestSchedulingDeterminism:
    """Satellite coverage: interleaving and dispatch across quanta."""

    QUANTA = (1, 2, 3, 5, 8, 64, 1000)

    def test_interleaving_is_deterministic_per_quantum(self):
        """Two identical machines replay the identical interleaving:
        per-thread counters (not just totals) match run for run."""
        def run_once(quantum):
            mem = Memory()
            base, _ = mem.map_zeros(8)
            machine = Machine(mem, CpuConfig(timing=False), quantum=quantum)
            _, per_thread = machine.run(
                [ThreadSpec(counting_program(base, 10), name=f"t{i}")
                 for i in range(3)])
            return [c.as_dict() for c in per_thread]

        for quantum in self.QUANTA:
            assert run_once(quantum) == run_once(quantum)

    def test_static_partition_counters_invariant_across_quanta(self):
        """Threads with disjoint static work retire the same per-thread
        instruction stream whatever the quantum: the interleaving moves,
        the per-thread counters must not."""
        reference = None
        for quantum in self.QUANTA:
            mem = Memory()
            data = np.arange(60, dtype=np.int64)
            out = np.zeros(3, dtype=np.int64)
            db = mem.map_array(data)
            ob = mem.map_array(out)
            program = range_sum_program(db, ob)
            threads = [
                ThreadSpec(program, init_gpr={"rdi": t * 20,
                                              "rsi": (t + 1) * 20,
                                              "rdx": t})
                for t in range(3)
            ]
            machine = Machine(mem, CpuConfig(timing=False), quantum=quantum)
            _, per_thread = machine.run(threads)
            snapshot = [c.as_dict() for c in per_thread]
            assert out.sum() == data.sum()
            if reference is None:
                reference = snapshot
            else:
                assert snapshot == reference, f"quantum={quantum}"

    @pytest.mark.parametrize("quantum", QUANTA)
    @pytest.mark.parametrize("ref", [False, True])
    def test_lock_xadd_claims_every_batch_exactly_once(self, quantum, ref):
        """The dynamic-dispatch race: whatever the interleaving (and
        whether turns retire superblocks or the reference engine's
        single steps), every batch is claimed by exactly one thread."""
        batches, threads = 37, 4
        mem = Memory()
        next_base, _ = mem.map_zeros(8)
        claims = np.zeros(batches, dtype=np.int64)
        claims_base = mem.map_array(claims)
        program = batch_claim_program(next_base, claims_base, batches)
        machine = Machine(mem, REF_CPU if ref else CpuConfig(timing=False),
                          quantum=quantum)
        merged, _ = machine.run(
            [ThreadSpec(program, name=f"w{t}") for t in range(threads)])
        assert claims.tolist() == [1] * batches
        # every claim plus every thread's terminating probe is an xadd
        assert merged.atomic_ops == batches + threads

    def test_fused_reproduces_the_same_race_winners(self):
        """Superblock scheduling preserves the interleaving exactly, so
        the *same* thread wins each batch — not merely some thread."""
        def run(config, quantum):
            mem = Memory()
            next_base, _ = mem.map_zeros(8)
            claims = np.zeros(23, dtype=np.int64)
            claims_base = mem.map_array(claims)
            program = batch_claim_program(next_base, claims_base, 23)
            _, per_thread = Machine(mem, config, quantum=quantum).run(
                [ThreadSpec(program, name=f"w{t}") for t in range(4)])
            return per_thread

        for quantum in (1, 7, 31, 64, 100_000):
            stepped = run(REF_CPU, quantum)
            for config in DRIVER_CPUS:
                assert ([comparable(c, config) for c in run(config, quantum)]
                        == [comparable(c, config) for c in stepped]), quantum


class TestExecutionLimit:
    def test_limit_names_thread_and_limit(self):
        mem = Memory()
        asm = Assembler("spin")
        asm.label("loop")
        asm.jmp("loop")
        program = asm.finish()
        machine = Machine(mem, CpuConfig(timing=False,
                                         max_instructions=100))
        with pytest.raises(ExecutionLimitExceeded) as excinfo:
            machine.run([ThreadSpec(program, name="spinner")])
        message = str(excinfo.value)
        assert "spinner" in message
        assert "100" in message

    def test_limit_is_per_thread(self):
        """One thread spinning cannot borrow budget from finished
        peers: the limit applies to each thread's own stream."""
        mem = Memory()
        base, _ = mem.map_zeros(8)
        finite = counting_program(base, 1)
        asm = Assembler("spin")
        asm.label("loop")
        asm.jmp("loop")
        spinner = asm.finish()
        machine = Machine(mem, CpuConfig(timing=False,
                                         max_instructions=500))
        with pytest.raises(ExecutionLimitExceeded, match="spin"):
            machine.run([ThreadSpec(finite, name="finite"),
                         ThreadSpec(spinner, name="spin")])


    def test_limit_mid_block_stops_where_the_oracle_stops(self):
        """``max_steps`` running out inside a block: turns still retire
        exactly ``quantum`` instructions and the residue is stepped, so
        the same thread dies with the same shared count behind it."""
        def run(config, quantum):
            mem = Memory()
            base, _ = mem.map_zeros(8)
            machine = Machine(
                mem, CpuConfig(timing=config.timing, engine=config.engine,
                               max_instructions=42), quantum=quantum)
            with pytest.raises(ExecutionLimitExceeded) as excinfo:
                machine.run([ThreadSpec(counting_program(base, 1000),
                                        name=f"t{t}") for t in range(3)])
            return str(excinfo.value), mem.read_int(base, 8)

        for quantum in (1, 7, 31, 64, 100_000):
            stepped = run(REF_CPU, quantum)
            assert "'t0'" in stepped[0] and stepped[1] > 0
            for config in DRIVER_CPUS:
                assert run(config, quantum) == stepped, quantum


class TestWorkPartitioning:
    def test_disjoint_ranges_sum_correctly(self):
        mem = Memory()
        data = np.arange(100, dtype=np.int64)
        out = np.zeros(4, dtype=np.int64)
        db = mem.map_array(data)
        ob = mem.map_array(out)
        program = range_sum_program(db, ob)
        threads = [
            ThreadSpec(program, init_gpr={"rdi": t * 25, "rsi": (t + 1) * 25,
                                          "rdx": t})
            for t in range(4)
        ]
        machine = Machine(mem, CpuConfig(timing=False))
        merged, per_thread = machine.run(threads)
        assert out.sum() == data.sum()
        assert len(per_thread) == 4
        # per-thread counters sum into merged (except cycles)
        assert merged.instructions == sum(c.instructions for c in per_thread)


class TestSingleThread:
    """One thread has nobody to interleave with: the machine drives it
    in one unbounded turn, whatever its quantum."""

    @staticmethod
    def run(monkeypatch, config, quantum, threads=1):
        cpus = []

        class SpyCpu(Cpu):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.turns = []
                cpus.append(self)

            def run_quantum(self, quantum):
                self.turns.append(quantum)
                super().run_quantum(quantum)

        monkeypatch.setattr(smp, "Cpu", SpyCpu)
        mem = Memory()
        data = np.arange(100, dtype=np.int64)
        out = np.zeros(threads, dtype=np.int64)
        program = range_sum_program(mem.map_array(data), mem.map_array(out))
        merged, per_thread = Machine(mem, config, quantum=quantum).run([
            ThreadSpec(program, init_gpr={"rdi": 3, "rsi": 90, "rdx": t})
            for t in range(threads)])
        state = ([comparable(c, config) for c in (merged, *per_thread)],
                 [list(cpu.gpr) for cpu in cpus], out.tobytes())
        return state, [cpu.turns for cpu in cpus]

    @pytest.mark.parametrize("config", (*DRIVER_CPUS, REF_CPU),
                             ids=("sim", "counts", "sim-ref"))
    def test_any_quantum_gives_the_same_run(self, monkeypatch, config):
        reference, _ = self.run(monkeypatch, config, 64)
        assert reference[2] == np.array([sum(range(3, 90))]).tobytes()
        for quantum in (1, 7, 64, 100_000):
            state, turns = self.run(monkeypatch, config, quantum)
            assert state == reference, quantum
            assert turns == [[UNBOUNDED_QUANTUM]]

    def test_two_threads_still_take_turns_of_the_quantum(self, monkeypatch):
        _, turns = self.run(monkeypatch, CpuConfig(timing=False), 7,
                            threads=2)
        assert all(len(t) > 1 and set(t) == {7} for t in turns)


class TestTiming:
    def test_elapsed_is_max_thread_plus_overhead(self):
        mem = Memory()
        data = np.arange(64, dtype=np.int64)
        out = np.zeros(2, dtype=np.int64)
        db = mem.map_array(data)
        ob = mem.map_array(out)
        program = range_sum_program(db, ob)
        # thread 0 does 4 elements, thread 1 does 60: very imbalanced
        threads = [
            ThreadSpec(program, init_gpr={"rdi": 0, "rsi": 4, "rdx": 0}),
            ThreadSpec(program, init_gpr={"rdi": 4, "rsi": 64, "rdx": 1}),
        ]
        machine = Machine(mem, CpuConfig(timing=True))
        merged, per_thread = machine.run(threads)
        slowest = max(c.cycles for c in per_thread)
        assert merged.cycles == pytest.approx(slowest + THREAD_OVERHEAD_CYCLES)
        assert per_thread[1].cycles > per_thread[0].cycles

    def test_rejects_bad_quantum(self):
        with pytest.raises(ValueError):
            Machine(Memory(), quantum=0)

    def test_run_single(self):
        mem = Memory()
        base, _ = mem.map_zeros(8)
        machine = Machine(mem, CpuConfig(timing=False))
        counters = machine.run_single(ThreadSpec(counting_program(base, 5)))
        assert mem.read_int(base, 8) == 5
        assert counters.atomic_ops == 5

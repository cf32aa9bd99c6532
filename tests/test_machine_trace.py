"""Tests for the execution tracer."""

from repro.isa.assembler import Assembler
from repro.isa.registers import regs
from repro.machine import Cpu, CpuConfig, Memory
from repro.machine.trace import Tracer


def loop_program(iterations: int):
    asm = Assembler("traced")
    asm.mov(regs.rcx, 0)
    asm.label("loop")
    asm.cmp(regs.rcx, iterations)
    asm.jge("done")
    asm.inc(regs.rcx)
    asm.jmp("loop")
    asm.label("done")
    asm.ret()
    return asm.finish()


class TestTracer:
    def test_records_every_instruction(self):
        cpu = Cpu(Memory(), CpuConfig(timing=False))
        tracer = Tracer(cpu)
        program = loop_program(3)
        # the untraced driver would retire these as whole blocks
        assert any(cpu.superblocks(program))
        tracer.run(program)
        assert len(tracer.entries) == cpu.counters.instructions
        assert tracer.entries[0].text.startswith("mov")
        assert tracer.entries[-1].text == "ret"

    def test_cycles_monotone_in_timing_mode(self):
        cpu = Cpu(Memory(), CpuConfig(timing=True))
        tracer = Tracer(cpu)
        tracer.run(loop_program(5))
        cycles = [entry.cycles for entry in tracer.entries]
        assert all(b >= a for a, b in zip(cycles, cycles[1:]))
        assert cycles[-1] > 0

    def test_histogram(self):
        cpu = Cpu(Memory(), CpuConfig(timing=False))
        tracer = Tracer(cpu)
        tracer.run(loop_program(4))
        hist = tracer.histogram()
        assert hist["inc"] == 4
        assert hist["cmp"] == 5
        assert hist["ret"] == 1

    def test_ring_buffer_bounds_memory(self):
        cpu = Cpu(Memory(), CpuConfig(timing=False))
        tracer = Tracer(cpu, limit=50)
        tracer.run(loop_program(200))
        assert len(tracer.entries) <= 100  # 2 * limit
        assert tracer.entries[-1].text == "ret"

    def test_render_and_tail(self):
        cpu = Cpu(Memory(), CpuConfig(timing=False))
        tracer = Tracer(cpu)
        tracer.run(loop_program(2))
        assert len(tracer.tail(5)) == 5
        assert "ret" in tracer.render(3)

    def test_cpu_usable_after_tracing(self):
        cpu = Cpu(Memory(), CpuConfig(timing=False))
        tracer = Tracer(cpu)
        program = loop_program(2)
        tracer.run(program)
        before = cpu.counters.instructions
        cpu.run(program, init_gpr={"rcx": 0})  # untraced rerun
        assert cpu.counters.instructions > before

    def test_tracing_restores_the_compiled_program(self):
        """The wrapped steps and the empty block table are a loan: the
        CPU's own entries come back, so the next untraced run neither
        records nor recompiles."""
        cpu = Cpu(Memory(), CpuConfig(timing=False))
        program = loop_program(2)
        semantics, blocks = cpu.semantics(program), cpu.superblocks(program)
        tracer = Tracer(cpu)
        tracer.run(program)
        assert cpu.semantics(program) is semantics
        assert cpu.superblocks(program) is blocks
        recorded = len(tracer.entries)
        cpu.run(program)
        assert len(tracer.entries) == recorded

"""Per-emitter conformance: generated code against the closures.

Every instruction form with a source emitter (``repro.machine.cpu``)
is run as a one-block program on the ``counts`` and ``sim`` engines —
once as a generated block, once stepped one instruction per turn (the
generated block of one) — and compared with the per-access reference
engine, which executes the hand-written closures: registers, the three
flags, every vector lane, memory and every counter.  On the ``sim``
engine the recorded trace columns of the block and of the stepped run
must agree too, and equal what the reference engine handed its cache
and predictor models.  Kernel-level sweeps cannot pin these edges: a
load that overwrites its own address register, an unaligned access, a
fault in the middle of a block.
"""

import re

import numpy as np
import pytest

from repro.errors import SegmentationFault
from repro.isa.assembler import Assembler
from repro.isa.operands import Imm, Mem
from repro.isa.registers import regs, xmm, ymm, zmm
from repro.machine import Cpu, Memory, fused
from repro.machine.cpu import UNBOUNDED_QUANTUM

from tests.conftest import DRIVER_CPUS, REF_CPU, comparable

UNMAPPED = 0xDEAD0000

_RNG = np.random.default_rng(20240)
#: every CPU starts from the same non-trivial vector state
VEC_INIT = _RNG.standard_normal((32, 16)).astype(np.float32)
INTS_INIT = np.array(
    [0x1122334455667788, 0x4242, -5, 7, 0x7FFFFFFFFFFFFFFF, -(1 << 63),
     0x00000000FFFFFFFE, 1 << 40] + list(range(100, 108)), dtype=np.int64)
FLOATS_INIT = _RNG.standard_normal(64).astype(np.float32)


class Env:
    """Fresh memory for one run.  Mapping order is fixed, so every run
    of one program sees the same addresses."""

    def __init__(self) -> None:
        self.mem = Memory()
        self.ints = INTS_INIT.copy()
        self.floats = FLOATS_INIT.copy()
        self.out = np.zeros(256, dtype=np.uint8)
        self.ib = self.mem.map_array(self.ints)
        self.fb = self.mem.map_array(self.floats)
        self.ob = self.mem.map_array(self.out)


def coalesce(units):
    """Merge pc-adjacent trace units, as the replay flush does: a block
    records one unit where stepping records one per instruction."""
    merged = []
    for start, stop in units:
        if merged and merged[-1][1] == start:
            merged[-1] = (merged[-1][0], stop)
        else:
            merged.append((start, stop))
    return merged


def run(config, build, quantum=UNBOUNDED_QUANTUM, entry=0):
    """One fresh CPU's run of the program ``build`` writes, driven in
    turns of ``quantum``; returns everything observable afterwards."""
    env = Env()
    asm = Assembler("form")
    build(asm, env)
    asm.ret()
    program = asm.finish()
    cpu = Cpu(env.mem, config)
    cpu.vec[:] = VEC_INIT
    columns = None
    if cpu.caches is not None:
        # the reference engine: what it hands its cache and predictor
        # models is what the recording engine must have recorded
        columns = (None, [], [])
        access, update = cpu.caches.access, cpu.predictor.update

        def spy_access(addr, size):
            columns[1].append(addr)
            return access(addr, size)

        def spy_update(index, taken):
            columns[2].append(index << 1 | taken)
            return update(index, taken)

        cpu.caches.access, cpu.predictor.update = spy_access, spy_update
    cpu.start(program, entry=entry)
    fault = None
    try:
        while not cpu.done:
            cpu.run_quantum(quantum)
    except SegmentationFault:
        fault = SegmentationFault
    if cpu.record:
        recorder = cpu.replay.recorder
        columns = (coalesce(recorder.units), list(recorder.addrs),
                   list(recorder.branches))
    if fault is None:
        cpu.finish()
    else:
        cpu.flush_timing()
    return {
        "fault": fault,
        "gpr": list(cpu.gpr),
        "flags": (cpu.zf, cpu.sf, cpu.cf),
        "vec": cpu.vec.tobytes(),
        "memory": (env.ints.tobytes(), env.floats.tobytes(),
                   env.out.tobytes()),
        "counters": cpu.counters,
        "columns": columns,
        "blocks": [b is not None for b in cpu.superblocks(program)],
    }


STATE = ("fault", "gpr", "flags", "vec", "memory")


def check(build, quanta=(UNBOUNDED_QUANTUM, 1), entry=0):
    """Generated code, driven with each of ``quanta``, equals the
    reference closures; on the recording engine all drives record the
    same trace."""
    ref = run(REF_CPU, build, entry=entry)
    assert not any(ref["blocks"])
    for config in DRIVER_CPUS:
        runs = [run(config, build, quantum, entry) for quantum in quanta]
        assert runs[0]["blocks"][0], "the program must compile to a block"
        for got in runs:
            for key in STATE:
                assert got[key] == ref[key], key
            assert (comparable(got["counters"], config)
                    == comparable(ref["counters"], config))
            assert got["columns"] == runs[0]["columns"]
            if got["columns"] is not None:
                assert got["columns"][1:] == ref["columns"][1:]
    return ref


# ----------------------------------------------------------------------
# One entry per emitter form (and operand shape that changes the
# generated text).  Each builder writes the instructions under test;
# ``run`` appends the ``ret``.
# ----------------------------------------------------------------------
def _ints(asm, env, reg=regs.rax):
    asm.mov(reg, Imm(env.ib, 64))


def _floats(asm, env, reg=regs.rax):
    asm.mov(reg, Imm(env.fb, 64))


def _out(asm, env, reg=regs.rdx):
    asm.mov(reg, Imm(env.ob, 64))


def _big(asm, reg=regs.rbx):
    """``reg`` = 2**64 - 2: exact Python integers do not wrap, so a store
    must."""
    asm.mov(reg, Imm(0x7FFFFFFFFFFFFFFF, 64))
    asm.add(reg, reg)


FORMS = {}


def form(func):
    FORMS[func.__name__] = func
    return func


@form
def mov_reg_imm(asm, env):
    asm.mov(regs.rax, 7)
    asm.mov(regs.rbx, Imm(-(1 << 40), 64))


@form
def mov_reg_reg(asm, env):
    asm.mov(regs.rax, 1234)
    asm.mov(regs.r15, regs.rax)


@form
def mov_load8(asm, env):
    _ints(asm, env)
    asm.mov(regs.rcx, 3)
    asm.mov(regs.rbx, Mem(regs.rax, size=8))
    asm.mov(regs.rsi, Mem(regs.rax, regs.rcx, 8, 16, size=8))
    asm.mov(regs.rdi, Mem(None, regs.rcx, 8, env.ib, size=8))


@form
def mov_load4(asm, env):
    _ints(asm, env)
    # the low and the high half of -5: both load as unsigned words
    asm.mov(regs.rbx, Mem(regs.rax, disp=16, size=4))
    asm.mov(regs.rcx, Mem(regs.rax, disp=20, size=4))


@form
def mov_load_overwrites_its_base(asm, env):
    # rax <- [rax + 8] = 0x4242: the trace address is formed after
    # execution, from the *new* rax
    _ints(asm, env)
    asm.mov(regs.rax, Mem(regs.rax, disp=8, size=8))


@form
def mov_load_overwrites_its_index(asm, env):
    _ints(asm, env)
    asm.mov(regs.rcx, 3)
    asm.mov(regs.rcx, Mem(regs.rax, regs.rcx, 8, size=8))


@form
def mov_load_unaligned(asm, env):
    _ints(asm, env)
    asm.mov(regs.rbx, Mem(regs.rax, disp=1, size=8))
    asm.mov(regs.rcx, Mem(regs.rax, disp=18, size=4))


@form
def mov_store_reg(asm, env):
    _out(asm, env)
    _big(asm)
    asm.mov(Mem(regs.rdx, size=8), regs.rbx)             # wraps to -2
    asm.mov(regs.rcx, Imm(0xFFFFFFFE, 64))
    asm.mov(Mem(regs.rdx, disp=8, size=4), regs.rcx)     # wraps to -2
    asm.mov(regs.rsi, -3)
    asm.mov(Mem(regs.rdx, disp=16, size=8), regs.rsi)
    asm.mov(Mem(regs.rdx, disp=24, size=4), regs.rsi)
    asm.mov(Mem(regs.rdx, disp=32, size=2), regs.rsi)    # no typed view


@form
def mov_store_imm(asm, env):
    _out(asm, env)
    asm.mov(Mem(regs.rdx, size=8), -1)
    asm.mov(Mem(regs.rdx, disp=8, size=4), 0x7FFF0001)
    asm.mov(Mem(regs.rdx, disp=16, size=8), Imm(0x7FFFFFFFFFFFFFFF, 64))


@form
def mov_store_unaligned(asm, env):
    _out(asm, env)
    _big(asm)
    asm.mov(Mem(regs.rdx, disp=3, size=8), regs.rbx)
    asm.mov(Mem(regs.rdx, disp=17, size=4), regs.rbx)
    asm.mov(Mem(regs.rdx, disp=33, size=4), -7)


def _alu(name, operand):
    def build(asm, env):
        asm.mov(regs.rax, 12)
        asm.mov(regs.rbx, 29)
        getattr(asm, name)(regs.rax, regs.rbx if operand == "reg" else 29)
    build.__name__ = f"{name}_{operand}"
    return form(build)


for _name in ("add", "sub", "and", "or", "xor", "imul"):
    _alu(_name, "reg")
    _alu(_name, "imm")


@form
def sub_to_zero_and_self(asm, env):
    asm.mov(regs.rax, 5)
    asm.sub(regs.rax, 5)        # zf
    asm.mov(regs.rbx, 9)
    asm.add(regs.rbx, regs.rbx)  # destination is also the source


@form
def imul_three_operand(asm, env):
    asm.mov(regs.rbx, -6)
    asm.imul(regs.rax, regs.rbx, 7)


def _compare(name, a, b):
    def build(asm, env):
        asm.mov(regs.rax, a)
        asm.mov(regs.rbx, b)
        getattr(asm, name)(regs.rax, regs.rbx)
    build.__name__ = f"{name}_reg_{a}_{b}".replace("-", "m")
    form(build)

    def build_imm(asm, env):
        asm.mov(regs.rax, a)
        getattr(asm, name)(regs.rax, b)
    build_imm.__name__ = f"{name}_imm_{a}_{b}".replace("-", "m")
    form(build_imm)


for _a, _b in ((3, 3), (2, 9), (9, 2), (-4, 1)):
    _compare("cmp", _a, _b)
for _a, _b in ((6, 1), (6, 2), (-1, -8)):
    _compare("test", _a, _b)


def _unary(name, value):
    def build(asm, env):
        # a known carry going in: inc / dec must leave it alone
        asm.mov(regs.rcx, 1)
        asm.cmp(regs.rcx, 2)
        asm.mov(regs.rax, value)
        getattr(asm, name)(regs.rax)
    build.__name__ = f"{name}_{value}".replace("-", "m")
    return form(build)


for _name in ("inc", "dec", "neg"):
    for _value in (-1, 0, 1):
        _unary(_name, _value)


def _shift(name):
    def build(asm, env):
        asm.mov(regs.rax, 0x1234)
        getattr(asm, name)(regs.rax, 4)
        asm.mov(regs.rbx, 1)
        getattr(asm, name)(regs.rbx, 1)
    build.__name__ = name
    return form(build)


for _name in ("shl", "shr", "sar"):
    _shift(_name)


def _vload(name, reg, disp):
    scalar = name in ("vmovss", "vbroadcastss")

    def build(asm, env):
        _floats(asm, env)
        getattr(asm, name)(reg, Mem(regs.rax, disp=disp,
                                    size=4 if scalar else reg.width // 8))
    build.__name__ = f"{name}_load_{reg.name}_{disp}"
    return form(build)


def _vstore(name, reg, disp):
    def build(asm, env):
        _out(asm, env)
        getattr(asm, name)(Mem(regs.rdx, disp=disp,
                               size=reg.width // 8 if name != "vmovss"
                               else 4), reg)
    build.__name__ = f"{name}_store_{reg.name}_{disp}"
    return form(build)


for _disp in (8, 6):     # aligned (typed view) and not (the tobytes path)
    for _reg in (zmm(3), ymm(3), xmm(3)):
        _vload("vmovups", _reg, _disp)
        _vstore("vmovups", _reg, _disp)
    _vload("vmovss", xmm(4), _disp)
    _vstore("vmovss", xmm(4), _disp)
    for _reg in (zmm(5), ymm(5), xmm(5)):
        _vload("vbroadcastss", _reg, _disp)
_vload("vmovaps", zmm(6), 64)
_vload("vmovdqu32", ymm(6), 32)
_vstore("vmovaps", ymm(6), 64)
_vstore("vmovdqu32", zmm(6), 128)


def _fma(reg, source, disp=0):
    ss = reg is xmm
    name = "vfmadd231ss" if ss else "vfmadd231ps"

    def build(asm, env):
        _floats(asm, env)
        lanes_bytes = 4 if ss else reg(0).width // 8
        operand = (reg(9) if source == "reg" else
                   Mem(regs.rax, disp=disp, size=lanes_bytes))
        getattr(asm, name)(reg(7), reg(8), operand)
        # the accumulator is also a source
        getattr(asm, name)(reg(10), reg(10), operand)
    build.__name__ = f"{name}_{reg(0).name[:3]}_{source}_{disp}"
    return form(build)


for _reg in (zmm, ymm, xmm):
    _fma(_reg, "reg")
    _fma(_reg, "mem", 16)
    _fma(_reg, "mem", 18)


@form
def vfmadd231ps_xmm_packed(asm, env):
    # four lanes on an xmm: the packed form, not the scalar one
    _floats(asm, env)
    asm.vfmadd231ps(xmm(7), xmm(8), xmm(9))
    asm.vfmadd231ps(xmm(7), xmm(8), Mem(regs.rax, disp=4, size=16))


def _vec3(name, reg):
    def build(asm, env):
        getattr(asm, name)(reg(11), reg(12), reg(13))
        getattr(asm, name)(reg(14), reg(14), reg(15))   # dst is a source
        getattr(asm, name)(reg(16), reg(17), reg(16))
    build.__name__ = f"{name}_{reg(0).name[:3]}"
    return form(build)


for _name in ("vaddps", "vsubps", "vmulps", "vdivps", "vpaddd", "vpmulld"):
    for _reg in (zmm, ymm, xmm):
        _vec3(_name, _reg)


@form
def vxorps_zero_idiom(asm, env):
    asm.vxorps(zmm(18), zmm(18), zmm(18))
    asm.vxorps(xmm(19), xmm(19), xmm(19))


@form
def nop(asm, env):
    asm.nop()
    asm.nop()


@form
def forms_without_an_emitter_are_called(asm, env):
    # closure calls inside a generated block, traced addresses included
    _ints(asm, env)
    _floats(asm, env, regs.rsi)
    asm.lea(regs.rbx, Mem(regs.rax, disp=24, size=8))
    asm.add(regs.rcx, Mem(regs.rax, disp=24, size=8))
    asm.cmp(regs.rcx, Mem(regs.rax, disp=56, size=8))
    asm.mov(regs.rdi, 2)
    asm.xadd(Mem(regs.rax, disp=64, size=8), regs.rdi, lock=True)
    asm.vhaddps(xmm(1), xmm(2), xmm(3))
    asm.vaddps(ymm(4), ymm(5), Mem(regs.rsi, disp=32, size=32))
    asm.vaddss(xmm(6), xmm(7), Mem(regs.rsi, disp=8, size=4))
    asm.vmovaps(xmm(8), xmm(9))
    asm.vextractf128(xmm(10), ymm(11), 1)
    asm.vpbroadcastd(zmm(12), Mem(regs.rax, disp=24, size=4))


@pytest.mark.parametrize("name", sorted(FORMS))
def test_form_matches_the_reference(name):
    check(FORMS[name])


# ----------------------------------------------------------------------
# Branches close blocks: their fragment is generated too
# ----------------------------------------------------------------------
CONDITIONS = ("je", "jne", "jl", "jge", "jle", "jg", "jb", "jae", "jbe",
              "ja")


@pytest.mark.parametrize("cc", CONDITIONS)
@pytest.mark.parametrize("a,b", [(1, 2), (2, 2), (3, 2)])
def test_conditional_branch_matches_the_reference(cc, a, b):
    def build(asm, env):
        asm.mov(regs.rax, a)
        asm.cmp(regs.rax, b)
        getattr(asm, cc)("over")
        asm.mov(regs.rbx, 111)
        asm.jmp("end")
        asm.label("over")
        asm.mov(regs.rbx, 222)
        asm.label("end")

    check(build)


# ----------------------------------------------------------------------
# Faults in the middle of a block
# ----------------------------------------------------------------------
def _faulting(access):
    """A block whose fourth instruction faults: the prefix retires, the
    faulting instruction leaves what its closure leaves (a vector load
    has already cleared its destination), the suffix never runs."""
    def build(asm, env):
        asm.mov(regs.rbx, 5)
        asm.cmp(regs.rbx, 9)                         # flags to survive
        asm.mov(regs.rax, Imm(UNMAPPED, 64))
        access(asm, Mem(regs.rax, disp=8, size=8))
        asm.add(regs.rbx, 100)                       # never runs
        asm.mov(regs.rcx, 1)
    return build


FAULTS = {
    "mov_load": lambda asm, m: asm.mov(regs.rsi, m),
    "mov_store_reg": lambda asm, m: asm.mov(m, regs.rbx),
    "mov_store_imm": lambda asm, m: asm.mov(m, 3),
    "vmovups_load_zmm": lambda asm, m: asm.vmovups(
        zmm(3), Mem(m.base, disp=8, size=64)),
    "vmovups_load_ymm": lambda asm, m: asm.vmovups(
        ymm(3), Mem(m.base, disp=8, size=32)),
    "vmovss_load": lambda asm, m: asm.vmovss(
        xmm(3), Mem(m.base, disp=8, size=4)),
    "vmovups_store": lambda asm, m: asm.vmovups(
        Mem(m.base, disp=8, size=64), zmm(3)),
    "vmovss_store": lambda asm, m: asm.vmovss(
        Mem(m.base, disp=8, size=4), xmm(3)),
    "vbroadcastss_zmm": lambda asm, m: asm.vbroadcastss(
        zmm(3), Mem(m.base, disp=8, size=4)),
    "vbroadcastss_ymm": lambda asm, m: asm.vbroadcastss(
        ymm(3), Mem(m.base, disp=8, size=4)),
    "vfmadd231ps_mem": lambda asm, m: asm.vfmadd231ps(
        zmm(3), zmm(4), Mem(m.base, disp=8, size=64)),
    "vfmadd231ss_mem": lambda asm, m: asm.vfmadd231ss(
        xmm(3), xmm(4), Mem(m.base, disp=8, size=4)),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_fault_mid_block_leaves_the_stepped_state(name):
    ref = check(_faulting(FAULTS[name]))
    assert ref["fault"] is SegmentationFault
    assert ref["counters"].instructions == 3
    assert ref["gpr"][regs.rbx.code] == 5


def test_access_straddling_a_segment_end_faults():
    def build(asm, env):
        _ints(asm, env)
        # the last word is mapped, the four bytes after it are not
        asm.mov(regs.rbx, Mem(regs.rax, disp=8 * len(INTS_INIT) - 8, size=8))
        asm.mov(regs.rcx, Mem(regs.rax, disp=8 * len(INTS_INIT) - 4, size=8))
        asm.mov(regs.rdx, 1)

    ref = check(build)
    assert ref["fault"] is SegmentationFault
    assert ref["counters"].instructions == 2


# ----------------------------------------------------------------------
# Loops: site caches across executions, turns that split blocks
# ----------------------------------------------------------------------
def _walk(count):
    """Sum ``count`` words from ``ints``: one block of four instructions
    plus its closing branch per iteration."""
    def build(asm, env):
        _ints(asm, env)
        asm.mov(regs.rcx, count)
        asm.mov(regs.rbx, 0)
        asm.label("loop")
        asm.mov(regs.rsi, Mem(regs.rax, size=8))
        asm.add(regs.rbx, regs.rsi)
        asm.add(regs.rax, 8)
        asm.dec(regs.rcx)
        asm.jne("loop")
    return build


def test_block_split_by_the_turn_leaves_a_stepped_residue():
    # the loop block retires five instructions: turns of six run a block
    # and step one instruction of the next; turns of seven, two
    ref = check(_walk(12), quanta=(UNBOUNDED_QUANTUM, 1, 4, 6, 7))
    assert ref["fault"] is None
    assert ref["gpr"][regs.rbx.code] == int(INTS_INIT[:12].sum())


def test_site_cache_then_fault_past_the_segment():
    # the load's site cache serves sixteen iterations; the seventeenth
    # address misses, asks the memory and faults
    ref = check(_walk(40), quanta=(UNBOUNDED_QUANTUM, 1, 7))
    assert ref["fault"] is SegmentationFault
    assert ref["gpr"][regs.rcx.code] == 40 - len(INTS_INIT)


def test_one_site_alternating_between_segments():
    def build(asm, env):
        asm.mov(regs.r8, Imm(env.ib, 64))
        asm.mov(regs.r9, Imm(env.fb, 64))
        asm.mov(regs.rcx, 6)
        asm.mov(regs.rbx, 0)
        asm.label("loop")
        asm.mov(regs.rsi, Mem(regs.r8, size=8))   # one site, two segments
        asm.add(regs.rbx, regs.rsi)
        asm.mov(regs.r10, regs.r8)
        asm.mov(regs.r8, regs.r9)
        asm.mov(regs.r9, regs.r10)
        asm.dec(regs.rcx)
        asm.jne("loop")

    check(build, quanta=(UNBOUNDED_QUANTUM, 1, 5))


def test_block_entered_mid_way_is_stepped():
    # entry 2 is inside the first block: no block starts there, so the
    # run begins on generated single steps and joins the loop's blocks
    def build(asm, env):
        asm.mov(regs.rax, Imm(env.ib, 64))
        asm.mov(regs.rbx, 1)
        asm.mov(regs.rcx, 5)
        asm.mov(regs.rax, Imm(env.ib, 64))
        asm.label("loop")
        asm.add(regs.rbx, Mem(regs.rax, size=8))
        asm.dec(regs.rcx)
        asm.jne("loop")

    ref = check(build, entry=2)
    assert ref["counters"].instructions == 2 + 3 * 5 + 1


# ----------------------------------------------------------------------
# What the generated text contains
# ----------------------------------------------------------------------
CLOSURE_CALL = re.compile(r"\bf\d+\(\)")


def _sources(config, build):
    """The source text generated for ``build``'s program on a fresh
    cache (blocks and single steps)."""
    saved = dict(fused._BLOCK_BUILDERS)
    fused._BLOCK_BUILDERS.clear()
    try:
        for quantum in (UNBOUNDED_QUANTUM, 1):
            run(config, build, quantum)
        return list(fused._BLOCK_BUILDERS)
    finally:
        fused._BLOCK_BUILDERS.clear()
        fused._BLOCK_BUILDERS.update(saved)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf / nan lanes
@pytest.mark.parametrize("config", DRIVER_CPUS,
                         ids=lambda config: "sim" if config.timing
                         else "counts")
def test_forms_with_an_emitter_are_inlined_not_called(config):
    def every_emitter(asm, env):
        for name, build in sorted(FORMS.items()):
            if name != "forms_without_an_emitter_are_called":
                build(asm, env)

    sources = _sources(config, every_emitter)
    assert sources
    assert not any(CLOSURE_CALL.search(source) for source in sources)
    # ... while each of the ten forms without one is exactly such a call,
    # in the block and in its single step
    sources = _sources(config, FORMS["forms_without_an_emitter_are_called"])
    assert sum(len(CLOSURE_CALL.findall(source))
               for source in sources) == 2 * 10

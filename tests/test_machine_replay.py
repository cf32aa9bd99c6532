"""Conformance tests for the record/replay timing engine.

The replay engine's contract is *bit identity*: every
:class:`~repro.machine.Counters` field — cache hits and misses, branch
misses, cycles — produced by the vectorized models must equal the
per-access reference implementations exactly.  These tests pin that
down at three levels: the array LRU cache against the ``OrderedDict``
reference over randomized address streams (property-based), the
predictor sweep against per-branch updates, and whole-machine replay
against ``sim-ref`` across every registered system, SMP quanta, and
fault-mid-block cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import SegmentationFault
from repro.isa.assembler import Assembler
from repro.isa.operands import Imm, Mem
from repro.isa.registers import regs, ymm
from repro.machine import (
    Cpu,
    CpuConfig,
    CacheConfig,
    CacheHierarchy,
    Machine,
    Memory,
    ThreadSpec,
    VectorCacheHierarchy,
)
from repro.machine.branch import make_predictor, replay_outcomes
from repro.machine.cache import Cache, VectorCache
from repro.machine.pipeline import PipelineSpec

_TWINS = ("uk-2005", "GAP-urand")

#: geometries spanning everything CacheConfig accepts: direct-mapped,
#: single-set (fully associative), tall-and-narrow, wide-and-shallow
GEOMETRIES = [
    CacheConfig(size_bytes=1024, ways=1, line_bytes=64),      # direct-mapped
    CacheConfig(size_bytes=512, ways=8, line_bytes=64),       # one set
    CacheConfig(size_bytes=4096, ways=2, line_bytes=32),
    CacheConfig(size_bytes=8192, ways=8, line_bytes=64),      # bench L1
    CacheConfig(size_bytes=32 * 1024, ways=8, line_bytes=128),
]


def _reference_levels(hierarchy: CacheHierarchy, accesses):
    return [hierarchy.access(addr, size) for addr, size in accesses]


def _vector_levels(hierarchy: VectorCacheHierarchy, accesses):
    addrs = np.array([a for a, _ in accesses], dtype=np.int64)
    sizes = np.array([s for _, s in accesses], dtype=np.int64)
    worst, tri = hierarchy.classify(addrs, sizes)
    names = ["l1", "l2", "mem"]
    assert tri.tolist() == np.bincount(worst, minlength=3).tolist()
    return [names[level] for level in worst.tolist()]


class TestVectorCacheLevel:
    @given(st.lists(st.integers(min_value=0, max_value=400), max_size=300),
           st.sampled_from(GEOMETRIES))
    @settings(max_examples=60, deadline=None)
    def test_single_level_matches_reference(self, lines, config):
        ref = Cache(config)
        vec = VectorCache(config)
        arr = np.array(lines, dtype=np.int64)
        expected = [ref.access(line) for line in lines]
        assert vec.replay(arr).tolist() == expected

    def test_incremental_replay_carries_state(self):
        """Chunked replay (quantum flushes) equals one-shot replay."""
        rng = np.random.default_rng(11)
        lines = rng.integers(0, 300, size=500)
        config = GEOMETRIES[2]
        one = VectorCache(config)
        chunked = VectorCache(config)
        whole = one.replay(lines.astype(np.int64))
        parts = [chunked.replay(chunk.astype(np.int64))
                 for chunk in np.array_split(lines, 13)]
        assert np.array_equal(whole, np.concatenate(parts))

    def test_reset_clears_state(self):
        config = GEOMETRIES[0]
        vec = VectorCache(config)
        lines = np.arange(10, dtype=np.int64)
        first = vec.replay(lines).tolist()
        vec.reset()
        assert vec.replay(lines).tolist() == first


@st.composite
def _access_streams(draw):
    n = draw(st.integers(min_value=0, max_value=200))
    accesses = []
    for _ in range(n):
        # cluster addresses so hits, straddles and conflicts all occur
        base = draw(st.sampled_from([0x10000, 0x11000, 0x40000]))
        offset = draw(st.integers(min_value=0, max_value=2048))
        size = draw(st.sampled_from([1, 4, 8, 32, 64, 128]))
        accesses.append((base + offset, size))
    return accesses


class TestVectorHierarchy:
    @given(_access_streams(),
           st.sampled_from(GEOMETRIES), st.sampled_from(GEOMETRIES))
    @settings(max_examples=60, deadline=None)
    def test_classification_matches_reference(self, accesses, l1, l2):
        ref = CacheHierarchy(l1, l2)
        vec = VectorCacheHierarchy(l1, l2)
        assert _vector_levels(vec, accesses) == _reference_levels(ref,
                                                                  accesses)

    def test_line_straddles_touch_every_line(self):
        """A 128-byte access on a 64-byte-line L1 touches two lines;
        the worst level governs, exactly as the reference walks it."""
        l1 = CacheConfig(size_bytes=1024, ways=1, line_bytes=64)
        accesses = [(0, 128), (0, 64), (64, 64), (0, 128)]
        ref = CacheHierarchy(l1)
        vec = VectorCacheHierarchy(l1)
        assert _vector_levels(vec, accesses) == _reference_levels(ref,
                                                                  accesses)


class TestPredictorReplay:
    @pytest.mark.parametrize("kind", ["gshare", "two_bit"])
    def test_packed_replay_matches_updates(self, kind):
        rng = np.random.default_rng(5)
        stream = [(int(pc), bool(taken))
                  for pc, taken in zip(rng.integers(0, 97, size=400),
                                       rng.integers(0, 2, size=400))]
        ref = make_predictor(kind)
        vec = make_predictor(kind)
        expected = [not ref.update(pc, taken) for pc, taken in stream]
        packed = [(pc << 1) | int(taken) for pc, taken in stream]
        assert replay_outcomes(vec, packed) == expected
        # tables advanced identically: a second round still agrees
        second = [not ref.update(pc, taken) for pc, taken in stream]
        assert replay_outcomes(vec, packed) == second

    def test_custom_predictor_falls_back_to_update(self):
        class AlwaysTaken:
            def update(self, pc, taken):
                return taken

        assert replay_outcomes(AlwaysTaken(), [(5 << 1) | 1, 6 << 1]) == [
            False, True]


# ----------------------------------------------------------------------
# Whole-machine conformance
# ----------------------------------------------------------------------
def _loop_program(data_base, out_base, n, fault_addr=None):
    asm = Assembler("replay-loop")
    asm.mov(regs.rcx, 0)
    asm.mov(regs.rdx, 0)
    asm.label("loop")
    asm.mov(regs.rax, Mem(None, regs.rcx, 1, data_base, size=8))
    asm.add(regs.rdx, regs.rax)
    asm.mov(Mem(None, regs.rcx, 1, out_base, size=8), regs.rdx)
    asm.add(regs.rcx, Imm(8, 64))
    asm.cmp(regs.rcx, Imm(8 * n, 64))
    asm.jl("loop")
    if fault_addr is not None:
        asm.mov(regs.rax, Mem(None, regs.rcx, 1, fault_addr, size=8))
    asm.ret()
    return asm.finish()


def _run_machine(engine, quantum=64, threads=2, fault=False,
                 spec=None):
    mem = Memory()
    data = np.arange(128, dtype=np.int64)
    data_base = mem.map_array(data, "data")
    outs = [mem.map_array(np.zeros(128, dtype=np.int64), f"out{t}")
            for t in range(threads)]
    programs = [_loop_program(data_base, out, 96,
                              fault_addr=0x9990000 if fault else None)
                for out in outs]
    config = CpuConfig(timing=True, engine=engine,
                       pipeline=spec or PipelineSpec())
    machine = Machine(mem, config, quantum=quantum)
    specs = [ThreadSpec(program, name=f"t{t}")
             for t, program in enumerate(programs)]
    error = None
    merged = per_thread = None
    try:
        merged, per_thread = machine.run(specs)
    except SegmentationFault as exc:
        error = str(exc)
    if merged is None:
        return None, None, error
    return merged.as_dict(), [c.as_dict() for c in per_thread], error


class TestMachineReplayConformance:
    @pytest.mark.parametrize("quantum", [1, 3, 17, 64, 1000, 10_000_000])
    def test_quantum_sweep_bit_identical(self, quantum):
        """Includes a quantum far beyond the flush-check stride: the
        turn is internally sliced for recorder-memory pressure, which
        must not change any counter."""
        assert (_run_machine("replay", quantum=quantum)
                == _run_machine("ref", quantum=quantum))

    def test_fault_counters_bit_identical(self):
        ref = _run_machine("ref", fault=True)
        assert ref[2] is not None  # the reference run faulted
        assert _run_machine("replay", fault=True) == ref

    @pytest.mark.parametrize("issue_width", [3, 4])
    def test_custom_pipeline_spec(self, issue_width):
        spec = PipelineSpec(issue_width=issue_width,
                            branch_miss_penalty=11.5, dram_service=7.25)
        ref = _run_machine("ref", spec=spec)
        assert _run_machine("replay", spec=spec) == ref

    def test_gather_partial_fault_bit_identical(self):
        """A gather faulting mid-lane leaves exactly the completed
        lanes' cache events behind, as per-access interpretation does."""
        def run(engine):
            mem = Memory()
            vals = mem.map_array(np.arange(64, dtype=np.float32), "vals")
            idx = np.array([0, 3, 1 << 26, 2, 5, 7, 9, 11], dtype=np.int32)
            idx_base = mem.map_array(idx, "idx")
            asm = Assembler("gather-fault")
            asm.mov(regs.rax, Imm(vals, 64))
            asm.mov(regs.rbx, Imm(idx_base, 64))
            asm.vmovups(ymm(1), Mem(regs.rbx, size=32))
            asm.vgatherdps(ymm(2), Mem(regs.rax, ymm(1), 4, 0, size=4))
            asm.ret()
            cpu = Cpu(mem, CpuConfig(timing=True, engine=engine))
            with pytest.raises(SegmentationFault):
                cpu.run(asm.finish())
            return cpu.counters.as_dict()

        ref = run("ref")
        # the index-vector load plus the two lanes that landed
        assert ref["l1_hits"] + ref["l1_misses"] == 3
        assert run("replay") == ref

    def test_warmup_reset_keeps_caches_and_predictors_warm(self):
        def run(engine):
            mem = Memory()
            data = mem.map_array(np.arange(64, dtype=np.int64), "d")
            out = mem.map_array(np.zeros(64, dtype=np.int64), "o")
            program = _loop_program(data, out, 48)
            machine = Machine(mem, CpuConfig(timing=True, engine=engine))
            merged, _ = machine.run([ThreadSpec(program)], warmup=True)
            return merged.as_dict()

        assert run("replay") == run("ref")

    def test_cycles_published_only_on_clean_completion(self):
        """A faulted run leaves cycles at 0 (the reference never reaches
        the end-of-run publication), while events are all retired."""
        _, _, error = _run_machine("replay", fault=True)
        assert error is not None
        merged, _, _ = _run_machine("replay", fault=False)
        assert merged["cycles"] > 0


class TestSystemRegistrySweep:
    """Replay vs stepped reference over every registered system."""

    @pytest.fixture(scope="class")
    def twins(self):
        from repro.datasets import load
        return {name: load(name, scale=2.0 ** -21, seed=7)
                for name in _TWINS}

    @pytest.mark.parametrize("system", sorted(
        {repro.get_system(name).name for name in repro.available_systems()}))
    def test_replay_counters_bit_identical(self, twins, system):
        matrix = twins["uk-2005"]
        rng = np.random.default_rng(3)
        x = rng.random((matrix.ncols, 16), dtype=np.float32)
        ref = repro.run(matrix, x, system=system, threads=2,
                        backend="sim-ref")
        for backend in ("sim", "sim-fused", "fused"):
            got = repro.run(matrix, x, system=system, threads=2,
                            backend=backend)
            assert np.array_equal(got.y, ref.y), (system, backend)
            assert got.counters.as_dict() == ref.counters.as_dict(), (
                system, backend)
            assert ([c.as_dict() for c in got.per_thread]
                    == [c.as_dict() for c in ref.per_thread]), (
                system, backend)

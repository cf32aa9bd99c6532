"""Generated code on the silicon (repro.exec.host).

The bit-identity contract of the whole repo — every served result equals
``spmm_reference`` to the bit — now rests on machine code the host CPU
executes, so these tests compare that code against both oracles the
repo has (``spmm_reference`` and the ``sim-ref`` simulator), check the
loader's own obligations (the SysV thunk, what it refuses to run, when a
mapping goes away) and pin down what ``SpmmService.multiply`` does and
no longer does.  Where the probe says this host cannot run the code the
silicon tests skip with that reason, and the serving tests still pass
through the scipy template.
"""

import ctypes
import gc
import mmap
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.aot.compiler import AotCompiler
from repro.api import ExecutionConfig, get_system
from repro.bench.hw import load_paper_kernel
from repro.core.codegen import JitCodegen
from repro.core.runner import run_jit
from repro.datasets.generators import uniform_random
from repro.errors import HostUnsupported
from repro.exec import host
from repro.isa.assembler import Assembler
from repro.isa.encoder import encode_instruction
from repro.isa.instructions import Instruction
from repro.isa.isainfo import IsaLevel
from repro.isa.operands import Imm, Mem
from repro.isa.registers import regs
from repro.machine import Memory
from repro.obs import get_registry
from repro.serve import SpmmService
from repro.sparse import CsrMatrix, spmm_reference
from tests.conftest import random_csr
from tests.test_core_engine import _edge_matrix, _hostile_operand, _same_bits

try:
    HOST_ISAS = host._ISA_ORDER[:host._ISA_ORDER.index(host.probe_isa()) + 1]
    UNSUPPORTED = ""
except HostUnsupported as error:
    HOST_ISAS = ()
    UNSUPPORTED = f"host cannot run generated code: {error}"

on_silicon = pytest.mark.skipif(not HOST_ISAS, reason=UNSUPPORTED)

SRC = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(host.__file__))))
WIDTHS = (1, 3, 8, 16, 45, 64, 200)
EDGE_KINDS = ("0xn", "nx0", "empty-rows", "1x1", "mixed")


def executable_pages() -> int:
    """Pages of anonymous executable memory mapped by this process
    (adjacent mappings merge into one line, so count pages)."""
    pages = 0
    with open("/proc/self/maps") as maps:
        for line in maps:
            fields = line.split()
            if len(fields) == 5 and "x" in fields[1]:
                low, high = (int(part, 16) for part in fields[0].split("-"))
                pages += (high - low) // mmap.PAGESIZE
    return pages


def fallbacks(reason: str) -> float:
    return get_registry().counter("exec_host_fallback_total",
                                  reason=reason).value


@pytest.fixture
def unsupported_host(monkeypatch):
    """Make the probe report a host that cannot run generated code."""
    verdict = HostUnsupported("generated code is x86-64; this host is "
                              "a test double", reason="arch")
    monkeypatch.setattr(host, "_probe", lambda: verdict)
    return verdict


# ----------------------------------------------------------------------
# Exactness on the silicon
# ----------------------------------------------------------------------
@on_silicon
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestExactOnSilicon:
    @pytest.mark.parametrize("isa", HOST_ISAS, ids=lambda isa: isa.value)
    @pytest.mark.parametrize("d", WIDTHS)
    @pytest.mark.parametrize("kind", EDGE_KINDS)
    def test_edge_matrices_match_both_oracles(self, rng, kind, d, isa,
                                              monkeypatch):
        # the served builder takes no ISA: it generates for what the
        # probe found, so a narrower level is a narrower probe verdict
        monkeypatch.setattr(host, "_probe", lambda: isa)
        matrix = _edge_matrix(kind)
        kernel = host.build_host_kernel(matrix, d)
        x = rng.standard_normal((matrix.ncols, d)).astype(np.float32)
        simulated = run_jit(matrix, x, split="row", threads=1, isa=isa,
                            backend="sim-ref")
        y = kernel(x)
        assert np.array_equal(y, spmm_reference(matrix, x))
        assert np.array_equal(y, simulated.y)
        hostile = _hostile_operand(rng, matrix.ncols, d)
        assert _same_bits(kernel(hostile), spmm_reference(matrix, hostile))

    @pytest.mark.parametrize("isa", HOST_ISAS, ids=lambda isa: isa.value)
    @pytest.mark.parametrize("d", WIDTHS)
    def test_random_matrix_matches_reference(self, rng, d, isa,
                                             monkeypatch):
        monkeypatch.setattr(host, "_probe", lambda: isa)
        matrix = random_csr(rng, 70, 50, density=0.2)
        kernel = host.build_host_kernel(matrix, d)
        for x in (rng.standard_normal((50, d)).astype(np.float32),
                  _hostile_operand(rng, 50, d)):
            assert _same_bits(kernel(x), spmm_reference(matrix, x))

    def test_wider_than_the_host_is_refused(self, monkeypatch):
        # the loader reads the program, not a label: pretend the probe
        # found a 128-bit-only core and offer it wider code
        monkeypatch.setattr(host, "_probe", lambda: IsaLevel.SSE2)
        matrix = _edge_matrix("mixed")
        for isa in (IsaLevel.AVX2, IsaLevel.AVX512):
            spec, _ = host.jit_spec(matrix, 8, isa=isa)
            with pytest.raises(HostUnsupported) as caught:
                host.HostCode(JitCodegen(spec).build_range_kernel())
            assert caught.value.reason == "isa"
        x = np.ones((matrix.ncols, 8), dtype=np.float32)
        assert np.array_equal(host.build_host_kernel(matrix, 8)(x),
                              spmm_reference(matrix, x))

    @pytest.mark.parametrize("d", (1, 16, 64))
    def test_fused_baked_kernel_is_close_not_equal(self, rng, d,
                                                   record_property):
        """The paper's kernel — FMA, all five addresses baked — rounds
        once per term where the reference rounds twice: allclose, and
        by how many ulp is recorded (``-rP`` / junit shows it)."""
        matrix = uniform_random(400, 12_000, seed=3)
        x = rng.standard_normal((matrix.ncols, d)).astype(np.float32)
        y = np.empty((matrix.nrows, d), dtype=np.float32)
        code = load_paper_kernel(matrix, x, y)
        code.run(None, 0, matrix.nrows, None, None)
        expected = spmm_reference(matrix, x)
        assert np.allclose(y, expected, rtol=1e-4, atol=1e-4)
        ulps = np.abs(y.view(np.int32).astype(np.int64)
                      - expected.view(np.int32).astype(np.int64))
        record_property("fused_max_ulp", int(ulps.max()))
        record_property("fused_differing_share", float((ulps > 0).mean()))
        if HOST_ISAS[-1].value != "sse2":       # sse2 level has no FMA
            assert ulps.max() > 0

    def test_eight_threads_one_kernel_distinct_operands(self, rng):
        # one re-entrant code page: a held-GIL kernel and a GIL-released
        # one, each hammered from eight threads with their own X
        for matrix in (random_csr(rng, 60, 40),
                       uniform_random(2000, 60_000, seed=5)):
            kernel = host.build_host_kernel(matrix, 8)
            xs = [rng.standard_normal((matrix.ncols, 8)).astype(np.float32)
                  for _ in range(8)]
            expected = [spmm_reference(matrix, x) for x in xs]
            bad = []
            barrier = threading.Barrier(8)

            def worker(index: int) -> None:
                barrier.wait(timeout=30)
                for _ in range(25):
                    if not _same_bits(kernel(xs[index]), expected[index]):
                        bad.append(index)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=worker, args=(index,))
                           for index in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not bad

    def test_gil_is_released_by_estimated_run_time(self):
        small = host.build_host_kernel(uniform_random(50, 500, seed=1), 8)
        large = host.build_host_kernel(
            uniform_random(2000, 60_000, seed=5), 8)
        _, held, released = host._thunk()
        assert small._call is held and large._call is released
        assert host.estimate_ns(500, 8) < host.GIL_RELEASE_NS
        assert host.estimate_ns(60_000, 8) > host.GIL_RELEASE_NS


# ----------------------------------------------------------------------
# The thunk
# ----------------------------------------------------------------------
_SAVED = ("rbx", "rbp", "r12", "r13", "r14", "r15")
_PUSH = {"rbx": b"\x53", "rbp": b"\x55", "rdi": b"\x57",
         "r12": b"\x41\x54", "r13": b"\x41\x55", "r14": b"\x41\x56",
         "r15": b"\x41\x57"}
_POP = {"rbx": b"\x5b", "rbp": b"\x5d", "rdi": b"\x5f",
        "r12": b"\x41\x5c", "r13": b"\x41\x5d", "r14": b"\x41\x5e",
        "r15": b"\x41\x5f"}


def _mov(dst, src) -> bytes:
    return encode_instruction(Instruction("mov", (dst, src)))


def _register_checker(sentinels) -> bytes:
    """``checker(buf, entry, target)``: load ``sentinels`` into the six
    callee-saved registers, call ``entry(0, 0, 0, target, 0, 0)``, then
    store what the registers hold into ``buf``."""
    code = b"".join(_PUSH[name] for name in _SAVED)
    for name, value in zip(_SAVED, sentinels):
        code += _mov(getattr(regs, name), Imm(value, 64))
    code += _PUSH["rdi"]                      # keep buf; aligns the call
    code += _mov(regs.rax, regs.rsi)          # entry
    code += _mov(regs.rcx, regs.rdx)          # target -> fourth argument
    for name in ("rdi", "rsi", "rdx", "r8", "r9"):
        code += _mov(getattr(regs, name), Imm(0, 64))
    code += b"\xff\xd0"                       # call rax
    code += _POP["rdi"]
    for slot, name in enumerate(_SAVED):
        code += _mov(Mem(regs.rdi, disp=8 * slot, size=8),
                     getattr(regs, name))
    code += b"".join(_POP[name] for name in reversed(_SAVED))
    return code + b"\xc3"


@on_silicon
class TestEntryThunk:
    def test_callee_saved_registers_survive(self):
        sentinels = [0x1111_0000_0000_0001 + 0x0101 * i for i in range(6)]
        asm = Assembler("clobber")
        for name in _SAVED:
            asm.mov(getattr(regs, name), Imm(0x0BAD_0BAD_0BAD_0BAD, 64))
        asm.ret()
        target = host.HostCode(asm.finish())
        checker = host.ExecutableMapping(_register_checker(sentinels))
        call = ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_void_p,
                                ctypes.c_void_p)(checker.address)
        seen = (ctypes.c_uint64 * 6)()
        thunk, _, _ = host._thunk()
        call(ctypes.addressof(seen), thunk.address, target.mapping.address)
        assert list(seen) == sentinels
        # positive control: entered through a bare ``jmp rcx`` the same
        # target's clobbers are what the checker reads back
        bare = host.ExecutableMapping(b"\xff\xe1")
        call(ctypes.addressof(seen), bare.address, target.mapping.address)
        assert list(seen) == [0x0BAD_0BAD_0BAD_0BAD] * 6

    def test_first_use_raced_from_eight_threads(self):
        # a fresh interpreter, so the thunk really is built under the
        # race: every thread must end up calling one live thunk
        script = """
import sys, threading
import numpy as np
from repro.exec import host
from repro.datasets.generators import uniform_random
from repro.sparse import spmm_reference
matrix = uniform_random(64, 700, seed=2)
x = np.random.default_rng(0).random((matrix.ncols, 8), dtype=np.float32)
expected = spmm_reference(matrix, x)
barrier = threading.Barrier(8)
bad = []
def worker():
    barrier.wait(timeout=30)
    for _ in range(20):
        if not np.array_equal(host.build_host_kernel(matrix, 8)(x), expected):
            bad.append(1)
sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=worker) for _ in range(8)]
for thread in threads: thread.start()
for thread in threads: thread.join(timeout=60)
assert not bad and not any(thread.is_alive() for thread in threads)
print("ok")
"""
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"


# ----------------------------------------------------------------------
# What the loader refuses, and what happens then
# ----------------------------------------------------------------------
class TestLoaderSafety:
    @on_silicon
    def test_vgatherdps_is_refused_with_the_reason(self):
        program = AotCompiler("icc-avx512").compile_spmm().program
        with pytest.raises(HostUnsupported, match="k1 mask") as caught:
            host.HostCode(program)
        assert caught.value.reason == "vgatherdps"

    @on_silicon
    @pytest.mark.parametrize("personality", ("gcc", "clang", "icc"))
    def test_scalar_aot_personalities_load(self, personality):
        host.HostCode(AotCompiler(personality).compile_spmm().program)

    def test_matrix_arrays_are_read_only_views(self):
        row_ptr = np.array([0, 1, 2], dtype=np.int64)
        cols = np.array([0, 1], dtype=np.int64)
        vals = np.array([1.0, 2.0], dtype=np.float32)
        matrix = CsrMatrix(2, 2, row_ptr, cols, vals)
        for array in (matrix.row_ptr, matrix.col_indices, matrix.vals):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1
        # the caller's own arrays stay writable
        assert row_ptr.flags.writeable and vals.flags.writeable
        import pickle
        clone = pickle.loads(pickle.dumps(matrix))
        assert clone == matrix and not clone.vals.flags.writeable

    def test_unsupported_host_is_typed_and_counted(self, rng,
                                                   unsupported_host):
        with pytest.raises(HostUnsupported) as caught:
            host.probe_isa()
        assert caught.value.reason == "arch"
        matrix = random_csr(rng, 30, 20)
        x = rng.random((20, 8)).astype(np.float32)
        before = fallbacks("arch")
        plan = get_system("jit").prepare(
            ExecutionConfig(threads=2, backend="native")).bind(matrix, x)
        assert plan.host_kernel() is None
        assert np.array_equal(plan.execute().y, spmm_reference(matrix, x))
        assert fallbacks("arch") == before + 1      # once per plan

    @on_silicon
    @pytest.mark.parametrize("call,reason", [("mmap", "mmap"),
                                             ("mprotect", "mprotect")])
    def test_mapping_denial_falls_back_to_the_template(
            self, rng, monkeypatch, call, reason):
        host._thunk()                  # the shared thunk is already up
        real = host._libc()

        class Denying:
            mmap, mprotect, munmap = real.mmap, real.mprotect, real.munmap

        def denied(*args):
            ctypes.set_errno(13)       # EACCES
            return host._MAP_FAILED if call == "mmap" else -1

        setattr(Denying, call, staticmethod(denied))
        monkeypatch.setattr(host, "_libc", lambda: Denying)
        pages = executable_pages()
        with pytest.raises(HostUnsupported) as caught:
            host.ExecutableMapping(b"\xc3")
        assert caught.value.reason == reason
        assert executable_pages() == pages          # nothing left behind
        matrix = random_csr(rng, 30, 20)
        x = rng.random((20, 8)).astype(np.float32)
        before = fallbacks(reason)
        with SpmmService(threads=2, split="auto") as service:
            handle = service.register(matrix)
            for _ in range(3):
                assert np.array_equal(service.multiply(handle, x),
                                      spmm_reference(matrix, x))
            assert service.handle_stats(handle).codegen_runs == 0
        assert fallbacks(reason) == before + 1


# ----------------------------------------------------------------------
# The serving path
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    real = getattr(owner, name)

    def counting(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestServedByGeneratedCode:
    def test_multiply_runs_its_own_kernel_once_generated(self, rng,
                                                         monkeypatch):
        """The acceptance test: on a supported host ``multiply`` executes
        generated code, generates one program per (handle, d) on the
        request path and maps nothing until ``profile`` asks."""
        executed = _count_calls(monkeypatch, host.HostKernel, "__call__")
        range_kernels = _count_calls(monkeypatch, JitCodegen,
                                     "build_range_kernel")
        dynamic_kernels = _count_calls(monkeypatch, JitCodegen,
                                       "build_dynamic_kernel")
        matrices = [random_csr(rng, 40, 30), random_csr(rng, 25, 30)]
        mapped = Memory.map_events
        with SpmmService(threads=4, split="auto") as service:
            handles = [service.register(matrix) for matrix in matrices]
            cells = [(handle, matrix, d)
                     for handle, matrix in zip(handles, matrices)
                     for d in (4, 16)]
            for _ in range(5):
                for handle, matrix, d in cells:
                    x = rng.random((30, d)).astype(np.float32)
                    assert np.array_equal(service.multiply(handle, x),
                                          spmm_reference(matrix, x))
            assert Memory.map_events == mapped
            if HOST_ISAS:
                assert len(executed) == 5 * len(cells)
                assert len(set(map(id, executed))) == len(cells)
                assert len(range_kernels) == len(cells)
                assert service.stats.codegen_runs == len(cells)
            else:
                assert not executed and not range_kernels
                assert service.stats.codegen_runs == 0
            assert not dynamic_kernels
            assert service.cache.stats().requests == 0
            # profile()/kernel() build the simulated-address program
            # lazily, through the kernel cache as ever
            handle, matrix, d = cells[0]
            x = rng.random((30, d)).astype(np.float32)
            before = len(range_kernels) + len(dynamic_kernels)
            result = service.profile(handle, x)
            assert Memory.map_events > mapped
            assert len(range_kernels) + len(dynamic_kernels) == before + 1
            assert np.array_equal(result.y, spmm_reference(matrix, x))
            assert service.kernel(handle, d) is not None
            assert len(range_kernels) + len(dynamic_kernels) == before + 1

    def test_unsupported_host_serves_through_the_template(
            self, rng, monkeypatch, unsupported_host):
        executed = _count_calls(monkeypatch, host.HostKernel, "__call__")
        matrix = random_csr(rng, 40, 30)
        x = rng.random((30, 8)).astype(np.float32)
        before = fallbacks("arch")
        mapped = Memory.map_events
        with SpmmService(threads=4, split="auto") as service:
            handle = service.register(matrix)
            for _ in range(4):
                assert np.array_equal(service.multiply(handle, x),
                                      spmm_reference(matrix, x))
            stats = service.handle_stats(handle)
            assert stats.codegen_runs == 0
            assert stats.cold.count == 1 and stats.warm.count == 3
        assert not executed
        assert Memory.map_events == mapped
        assert fallbacks("arch") == before + 1

    def test_native_executor_goes_through_the_plan_kernel(self, rng,
                                                          monkeypatch):
        executed = _count_calls(monkeypatch, host.HostKernel, "__call__")
        matrix = random_csr(rng, 40, 30)
        x = rng.random((30, 8)).astype(np.float32)
        for system in ("jit", "mkl", "aot:gcc"):
            plan = get_system(system).prepare(
                ExecutionConfig(threads=2, backend="native")).bind(matrix, x)
            assert np.array_equal(plan.execute().y,
                                  spmm_reference(matrix, x))
            assert np.array_equal(plan.multiply(x),
                                  spmm_reference(matrix, x))
            assert (plan.host_kernel() is not None) == (
                system == "jit" and bool(HOST_ISAS))
        assert len(executed) == (2 if HOST_ISAS else 0)

    def test_plan_multiply_at_another_width_is_the_templates(self, rng,
                                                             monkeypatch):
        # the kernel bakes the plan's d and reads X through a raw
        # pointer: a narrower or wider X (legal on plan.multiply, which
        # was scipy's A @ x) must never reach it
        executed = _count_calls(monkeypatch, host.HostKernel, "__call__")
        matrix = random_csr(rng, 40, 30)
        plan = get_system("jit").prepare(
            ExecutionConfig(threads=2, backend="native")).bind(
                matrix, rng.random((30, 8)).astype(np.float32))
        for d in (8, 3, 8, 24, 1):
            x = rng.standard_normal((30, d)).astype(np.float32)
            y = plan.multiply(x)
            assert y.shape == (40, d)
            assert np.array_equal(y, spmm_reference(matrix, x))
        assert len(executed) == (2 if HOST_ISAS else 0)

    @on_silicon
    def test_kernel_refuses_what_it_was_not_generated_for(self, rng):
        from repro.errors import ShapeError
        matrix = random_csr(rng, 40, 30)
        kernel = host.build_host_kernel(matrix, 8)
        good = rng.random((30, 8)).astype(np.float32)
        for bad in (good[:, :4], np.ascontiguousarray(good[:, :4]),
                    rng.random((30, 16)).astype(np.float32),
                    good[:20], good.astype(np.float64),
                    np.asfortranarray(good), good.tolist()):
            with pytest.raises(ShapeError, match="generated for"):
                kernel(bad)
        assert np.array_equal(kernel(good), spmm_reference(matrix, good))

    def test_host_codegen_does_not_hold_the_operand_lock(self, rng,
                                                         monkeypatch):
        # a system may read the mapped operands while it builds its host
        # kernel; the plan must not be holding the lock that maps them
        from repro.api.systems import JitSystem
        real = JitSystem.build_host_kernel

        def mapping_builder(self, plan):
            assert plan.operands is not None
            return real(self, plan)

        monkeypatch.setattr(JitSystem, "build_host_kernel", mapping_builder)
        matrix = random_csr(rng, 40, 30)
        x = rng.random((30, 8)).astype(np.float32)
        plan = get_system("jit").prepare(
            ExecutionConfig(threads=2, backend="native")).bind(matrix, x)
        assert not plan.mapped
        out = []
        worker = threading.Thread(target=lambda: out.append(plan.multiply(x)),
                                  daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "deadlocked resolving the host kernel"
        assert plan.mapped
        assert np.array_equal(out[0], spmm_reference(matrix, x))

    def test_bad_ranges_fail_identically_on_the_kernel_path(self, rng):
        from repro.errors import ShapeError
        matrix = random_csr(rng, 40, 30)
        x = rng.random((30, 8)).astype(np.float32)
        plan = get_system("jit").prepare(
            ExecutionConfig(threads=2, backend="native")).bind(matrix, x)
        plan.ranges = [(0, 10), (12, 40)]
        with pytest.raises(ShapeError, match="do not tile"):
            plan.execute()


# ----------------------------------------------------------------------
# Mapping lifetime
# ----------------------------------------------------------------------
@on_silicon
class TestMappingLifetime:
    def test_unmapped_with_the_last_reference_not_before(self, rng):
        matrix = random_csr(rng, 30, 20)
        x = rng.random((20, 8)).astype(np.float32)
        host._thunk()
        baseline = executable_pages()
        kernel = host.build_host_kernel(matrix, 8)
        assert executable_pages() == baseline + 1
        call = kernel.__call__          # what an in-flight request holds
        del kernel
        assert executable_pages() == baseline + 1
        assert np.array_equal(call(x), spmm_reference(matrix, x))
        del call
        assert executable_pages() == baseline

    def test_register_multiply_unregister_cycles_leave_nothing(self, rng):
        matrix = random_csr(rng, 30, 20)
        x = rng.random((20, 8)).astype(np.float32)
        expected = spmm_reference(matrix, x)
        service = SpmmService(threads=2, split="auto", max_workspaces=4)
        handle = service.register(matrix)
        service.multiply(handle, x)
        service.unregister(handle)
        gc.collect()
        baseline = executable_pages()
        for _ in range(300):
            handle = service.register(matrix)
            assert np.array_equal(service.multiply(handle, x), expected)
            service.unregister(handle)
        assert executable_pages() == baseline
        # eviction under max_workspaces unmaps too: six widths, cap four
        handle = service.register(matrix)
        for d in (2, 4, 8, 16, 32, 64):
            service.multiply(handle, rng.random((20, d)).astype(np.float32))
        assert executable_pages() == baseline + 4
        service.close()
        assert executable_pages() == baseline

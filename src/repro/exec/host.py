"""Host execution: run generated x86-64 on the CPU this process runs on.

Everything upstream of this module produces *bytes* — the JIT code
generator and the AOT lowering emit real REX/VEX/EVEX machine code that
until now only the simulator interpreted.  This module is the loader:

* :class:`ExecutableMapping` — ``mmap`` an anonymous RW region, copy the
  bytes in, ``mprotect`` it to RX (W^X: the region is never writable and
  executable at once), ``munmap`` when the owner goes;
* one shared **entry thunk** — generated kernels follow their own
  register plan (the JIT's uses ``rbx`` and ``r12``-``r15``, the AOT
  allocator any GPR but ``rsp``) and contain no ``push``/``pop``, so
  every call goes through a SysV-conformant trampoline that saves the
  callee-saved registers, calls the kernel, restores them and issues
  ``vzeroupper``;
* :func:`probe_isa` — the widest ISA level the generators support that
  this CPU implements, read from ``/proc/cpuinfo`` at run time;
* :class:`HostCode` — one loaded program plus references to every array
  whose address it baked; :class:`HostKernel` — the served SpMM kernel.

Whatever cannot run here raises a typed
:class:`~repro.errors.HostUnsupported` naming the reason; callers answer
with the address-free scipy template instead
(:func:`repro.core.engine.multiply_partitioned`) and count the fallback
with :func:`count_fallback`.

The served kernel (:func:`build_host_kernel`) is the JIT range kernel of
paper Listing 2 in its **host form**: matrix bases, ``d``, the register
plan and the column tiles are baked exactly as for the simulator, but
``X`` and ``Y`` are not — the plan already keeps them in ``r8``/``r9``,
which are SysV arguments five and six, so the prologue drops those two
``mov r64, imm64`` and one code page is re-entrant: concurrent calls
share it, nothing is pinned or copied, and ``Y`` is a fresh array the
caller owns.  It accumulates **unfused** (``vmulps`` + ``vaddps``):
hardware ``vfmadd231ps`` rounds once where the simulator, scipy and
``spmm_reference`` round twice, and only the unfused kernel is
bit-identical to them on silicon (``BENCH_hw.json`` records the fused
kernel's ulp distance).
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import os
import platform
import threading
import time
import weakref

import numpy as np

from repro.core.codegen import JitCodegen, JitKernelSpec
from repro.errors import HostUnsupported, ShapeError
from repro.isa.assembler import Program
from repro.isa.isainfo import IsaLevel
from repro.isa.operands import Mem
from repro.isa.registers import VectorRegister
from repro.obs.metrics import get_registry

__all__ = [
    "ExecutableMapping",
    "GIL_RELEASE_NS",
    "HostCode",
    "HostKernel",
    "build_host_kernel",
    "count_fallback",
    "estimate_ns",
    "jit_spec",
    "probe_isa",
]

#: Estimated kernel run time, in ns, above which a call releases the GIL.
#:
#: Releasing it lets other Python threads run during the kernel, but the
#: caller then has to take it back from whichever thread picked it up: a
#: futex wake plus a context switch, and on the request path that wait
#: sits between every two requests.  With per-request interpreter work
#: ``P`` and kernel time ``K``, closed-loop clients complete one request
#: per ``P + K`` holding the GIL and at best one per ``P + h`` releasing
#: it, so releasing pays exactly when ``K`` exceeds the contended
#: hand-off ``h``.  ``bench hw`` measures where that is
#: (``BENCH_hw.json``, ``gil`` section: every served cell under two
#: closed-loop threads, both calling flavours): on the 2-core dev box
#: kernels measured under ~17 us lose 60-80 % of their throughput
#: released, kernels from ~27 us up gain 1.8-2.0x, and between the two
#: it is a coin flip — so ``h`` is ~25 us here, and the line sits just
#: above it.  :func:`estimate_ns` is within ~30 % of the measured time,
#: which puts 52 of the 56 cells on their faster flavour; the misses are
#: cells inside the coin-flip band.  At service level the same rule is
#: the difference between 14.7k and 11.3k requests/s for two clients of
#: the 383-row / 14.5k-nnz / d=8 cell (``BENCH_pr16_pairs.json``,
#: ``development``).  numpy draws the same line
#: (``NPY_BEGIN_THREADS_THRESHOLDED``).  The other bound is far away: a
#: held call delays other threads by at most its own length, against
#: CPython's 5 ms switch interval.
GIL_RELEASE_NS = 30_000


def estimate_ns(nnz: int, d: int) -> int:
    """Run-time estimate of the served kernel from its input alone:
    ~1 ns per non-zero (index load, broadcast, loop control) plus ~1/16
    ns per multiply-add (least squares over ``BENCH_hw.json``'s cells:
    0.79 and 0.064)."""
    return nnz * (16 + d) // 16


_ISA_ORDER = (IsaLevel.SSE2, IsaLevel.AVX2, IsaLevel.AVX512)
_F32 = np.dtype(np.float32)


# ----------------------------------------------------------------------
# Host probe
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _probe() -> IsaLevel | HostUnsupported:
    if platform.machine() not in ("x86_64", "AMD64"):
        return HostUnsupported(
            f"generated code is x86-64; this host is {platform.machine()}",
            reason="arch")
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            flags = next((set(line.split(":", 1)[1].split())
                          for line in cpuinfo if line.startswith("flags")),
                         set())
    except OSError as error:
        return HostUnsupported(f"cannot read /proc/cpuinfo: {error}",
                               reason="cpuinfo")
    # 128/256-bit EVEX forms (ymm31 as the broadcast register of a mixed
    # zmm/ymm layout) need AVX512VL on top of AVX512F
    if {"avx512f", "avx512vl"} <= flags:
        return IsaLevel.AVX512
    if {"avx2", "fma"} <= flags:
        return IsaLevel.AVX2
    # the generators emit VEX encodings at every level, so the "sse2"
    # level (128-bit registers, no FMA) still needs an AVX-capable core
    if "avx" in flags:
        return IsaLevel.SSE2
    return HostUnsupported(
        "the encoder emits VEX forms only and this CPU has no AVX",
        reason="no-avx")


def probe_isa() -> IsaLevel:
    """The widest supported ISA level this CPU implements (memoized):
    ``avx512f``+``avx512vl`` → AVX512, ``avx2``+``fma`` → AVX2, ``avx``
    → SSE2 (128-bit VEX); anything else raises
    :class:`~repro.errors.HostUnsupported`."""
    verdict = _probe()
    if isinstance(verdict, HostUnsupported):
        raise verdict
    return verdict


def count_fallback(error: HostUnsupported) -> None:
    """Count one answer served by the scipy template because generated
    code could not run (``exec_host_fallback_total{reason}``)."""
    get_registry().counter("exec_host_fallback_total",
                           reason=error.reason).inc()


# ----------------------------------------------------------------------
# Executable memory
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _libc():
    # PyDLL: these are microsecond system calls, and by the rule above a
    # call that short keeps the GIL — a thread that released it around
    # each of mmap / mprotect / munmap would queue behind every other
    # runnable thread three times per kernel it loads
    libc = ctypes.PyDLL(None, use_errno=True)
    libc.mmap.restype = ctypes.c_void_p
    libc.mmap.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int,
                          ctypes.c_int, ctypes.c_int, ctypes.c_long]
    libc.mprotect.restype = ctypes.c_int
    libc.mprotect.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
    libc.munmap.restype = ctypes.c_int
    libc.munmap.argtypes = [ctypes.c_void_p, ctypes.c_size_t]
    return libc


_MAP_FAILED = ctypes.c_void_p(-1).value


class ExecutableMapping:
    """``code`` in its own read+execute anonymous mapping, unmapped
    when the object is collected — for a kernel, when the last reference
    (the plan's, or an in-flight call's) goes, so never under a call.
    """

    def __init__(self, code: bytes) -> None:
        libc = _libc()
        size = -(-max(len(code), 1) // mmap.PAGESIZE) * mmap.PAGESIZE
        address = libc.mmap(None, size, mmap.PROT_READ | mmap.PROT_WRITE,
                            mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS, -1, 0)
        if address in (None, _MAP_FAILED):
            raise HostUnsupported(
                f"mmap of {size} bytes refused: "
                f"{os.strerror(ctypes.get_errno())}", reason="mmap")
        (ctypes.c_char * len(code)).from_address(address)[:] = code
        if libc.mprotect(address, size, mmap.PROT_READ | mmap.PROT_EXEC):
            reason = os.strerror(ctypes.get_errno())
            libc.munmap(address, size)
            raise HostUnsupported(
                f"mprotect to read+execute refused: {reason}",
                reason="mprotect")
        self.address = address
        weakref.finalize(self, libc.munmap, address, size)


# ----------------------------------------------------------------------
# The entry thunk
# ----------------------------------------------------------------------
#: ``thunk(arg0, row0, row1, target, arg4, arg5)``: SysV arguments stay
#: where they are (``rdi``/``rsi``/``rdx`` are the param block and row
#: range of :mod:`repro.aot.abi`; ``r8``/``r9`` are ``X``/``Y`` for a
#: host-form JIT kernel), the fourth (``rcx``, which every kernel
#: overwrites first thing or never reads) is the kernel's address, and
#: the sixth is also copied to ``rbp`` — the AOT spill-area base, which
#: is not an argument register.
_THUNK = bytes([
    0x53,                    # push rbx
    0x55,                    # push rbp
    0x41, 0x54,              # push r12
    0x41, 0x55,              # push r13
    0x41, 0x56,              # push r14
    0x41, 0x57,              # push r15
    0x48, 0x83, 0xEC, 0x08,  # sub  rsp, 8     (16-byte align the call)
    0x4C, 0x89, 0xCD,        # mov  rbp, r9
    0xFF, 0xD1,              # call rcx
    0x48, 0x83, 0xC4, 0x08,  # add  rsp, 8
    0x41, 0x5F,              # pop  r15
    0x41, 0x5E,              # pop  r14
    0x41, 0x5D,              # pop  r13
    0x41, 0x5C,              # pop  r12
    0x5D,                    # pop  rbp
    0x5B,                    # pop  rbx
    0xC5, 0xF8, 0x77,        # vzeroupper
    0xC3,                    # ret
])

_ARGTYPES = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
             ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p)


_THUNK_LOCK = threading.Lock()


@functools.lru_cache(maxsize=None)
def _load_thunk():
    probe_isa()                    # vzeroupper needs AVX
    mapping = ExecutableMapping(_THUNK)
    return (mapping,
            ctypes.PYFUNCTYPE(None, *_ARGTYPES)(mapping.address),
            ctypes.CFUNCTYPE(None, *_ARGTYPES)(mapping.address))


def _thunk():
    """``(mapping, call_holding_gil, call_releasing_gil)`` — one mapping
    for the life of the process, two ctypes views of it.  The lock
    makes it exactly one: ``lru_cache`` alone lets two first callers
    each build a thunk, and the loser's would be unmapped under the
    function pointers its caller kept."""
    with _THUNK_LOCK:
        return _load_thunk()


# ----------------------------------------------------------------------
# Loaded programs
# ----------------------------------------------------------------------
class HostCode:
    """One generated program, loaded and callable on this CPU.

    ``keep`` holds every object whose address the program (or the
    parameter block it reads) bakes: they live as long as the code can
    run.  ``release_gil`` picks the ctypes calling flavour once, from
    how long a call runs (:data:`GIL_RELEASE_NS`).
    """

    def __init__(self, program: Program, *, keep: tuple = (),
                 release_gil: bool = False) -> None:
        _check_runnable(program)
        _, held, released = _thunk()
        self._call = released if release_gil else held
        self.program = program
        self.mapping = ExecutableMapping(program.encode())
        self._keep = keep

    def run(self, arg0: int, row0: int, row1: int, arg4: int,
            arg5: int) -> None:
        """Call the program over rows ``[row0, row1)``; ``arg0`` /
        ``arg4`` / ``arg5`` land in ``rdi`` / ``r8`` / ``r9`` (+``rbp``)."""
        self._call(arg0, row0, row1, self.mapping.address, arg4, arg5)


def _check_runnable(program: Program) -> None:
    """Refuse, with the reason, a program this CPU would fault on or
    compute wrongly: the loader is the last point where that is a typed
    error and not a SIGILL."""
    host = _ISA_ORDER.index(probe_isa())
    for insn in program.instructions:
        if insn.mnemonic == "vgatherdps":
            # the encoder leaves the k1 write-mask implicit (no
            # kxnorw): on silicon k1 holds whatever the caller left
            # there, and the gather loads an arbitrary subset of lanes
            raise HostUnsupported(
                f"program {program.name!r} uses vgatherdps, which the "
                "encoder emits with an implicit k1 mask that real "
                "hardware does not initialize", reason="vgatherdps")
        vectors = [op for op in insn.operands
                   if isinstance(op, VectorRegister)]
        vectors += [op.index for op in insn.operands
                    if isinstance(op, Mem)
                    and isinstance(op.index, VectorRegister)]
        if any(v.width == 512 or v.code >= 16 for v in vectors):
            needs = IsaLevel.AVX512
        elif (insn.mnemonic.startswith("vfmadd")
              or any(v.width == 256 for v in vectors)):
            needs = IsaLevel.AVX2
        else:
            continue
        if _ISA_ORDER.index(needs) > host:
            raise HostUnsupported(
                f"program {program.name!r} needs {needs.value} "
                f"({insn}); this host implements "
                f"{_ISA_ORDER[host].value}", reason="isa")


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


class HostKernel(HostCode):
    """The served kernel: ``Y = A @ X`` by one call of the host-form JIT
    range kernel over ``[0, m)`` on the calling thread.  Re-entrant."""

    def __init__(self, program: Program, *, shape: tuple[int, int], d: int,
                 keep: tuple, release_gil: bool,
                 codegen_seconds: float) -> None:
        super().__init__(program, keep=keep, release_gil=release_gil)
        self.m, self.n = shape
        self.d = d
        self.codegen_seconds = codegen_seconds
        self._x_shape = (self.n, d)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """``x`` must be C-contiguous float32 ``(ncols, d)`` — what
        :func:`repro.core.engine.check_operands` returns, at the width
        this kernel was generated for.  ``d`` and the column count are
        baked into the code, which reads ``x`` through a raw pointer:
        this is the last point where anything else is a typed error and
        not an out-of-bounds read.  The row body stores every row, empty
        ones included, so ``Y`` starts uninitialized."""
        if not (isinstance(x, np.ndarray) and x.shape == self._x_shape
                and x.dtype == _F32 and x.flags.c_contiguous):
            raise ShapeError(
                f"host kernel is generated for a C-contiguous float32 X "
                f"of shape {self._x_shape}, got "
                f"{getattr(x, 'dtype', type(x).__name__)} "
                f"{getattr(x, 'shape', '')}")
        y = np.empty((self.m, self.d), dtype=np.float32)
        self._call(None, 0, self.m, self.mapping.address,
                   _address(x), _address(y))
        return y


def _indices32(matrix) -> np.ndarray:
    """``col_indices`` as the int32 array the kernels index: the one
    scipy already narrowed for :meth:`CsrMatrix.to_scipy` when there is
    one (one int32 copy per matrix), else a private copy."""
    if matrix.ncols > np.iinfo(np.int32).max:
        raise HostUnsupported(
            f"{matrix.ncols} columns do not fit the kernels' int32 "
            "column indices", reason="index-width")
    try:
        indices = matrix.to_scipy().indices
    except ImportError:
        indices = None
    if (indices is None or indices.dtype != np.int32
            or not indices.flags.c_contiguous):
        indices = np.ascontiguousarray(matrix.col_indices, dtype=np.int32)
    return indices


def jit_spec(matrix, d: int, **variant) -> tuple[JitKernelSpec, tuple]:
    """The JIT kernel spec with ``matrix``'s real array addresses baked,
    and the arrays that must outlive any code generated from it.
    ``X`` / ``Y`` arrive in registers and the ISA is this CPU's unless
    ``variant`` (further :class:`JitKernelSpec` fields) says otherwise.
    """
    indices = _indices32(matrix)
    fields = dict(x_addr=None, y_addr=None, isa=probe_isa(), fused=False)
    fields.update(variant)
    spec = JitKernelSpec(
        d=d, m=matrix.nrows, row_ptr_addr=_address(matrix.row_ptr),
        col_addr=_address(indices), vals_addr=_address(matrix.vals),
        **fields)
    return spec, (matrix.row_ptr, indices, matrix.vals)


def build_host_kernel(matrix, d: int) -> HostKernel:
    """Generate and load the served kernel (module docstring) for
    ``matrix`` at width ``d`` on this CPU.  Nothing here is a choice:
    the ISA is the probed one, accumulation is unfused, and
    :func:`estimate_ns` against :data:`GIL_RELEASE_NS` picks the calling
    flavour.  (``bench hw`` builds the fused, address-baked and
    forced-flavour variants it measures from :func:`jit_spec` itself.)
    """
    spec, keep = jit_spec(matrix, d)
    started = time.perf_counter()
    program = JitCodegen(spec).build_range_kernel()
    program.encode()
    seconds = time.perf_counter() - started
    return HostKernel(
        program, shape=matrix.shape, d=d, keep=keep,
        release_gil=estimate_ns(matrix.nnz, d) > GIL_RELEASE_NS,
        codegen_seconds=seconds)

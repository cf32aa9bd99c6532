"""The per-layer ladder: each layer's public entry point, in isolation.

The same seeded inputs go through every rung in every traced run, so a
rung reads the same whichever workload the run was for.  Each rung is the
median of up to 200 calls or 0.15 s (``harness.time_calls``); the time
cap on a full driver pass is what keeps the rungs this short.
"""

from __future__ import annotations

import numpy as np

from repro.aot.compiler import AotCompiler
from repro.aot.search import search_passes
from repro.api import ExecutionConfig, get_system
from repro.core.autotune import choose_split
from repro.core.codegen import JitCodegen, JitKernelSpec
from repro.isa.assembler import Assembler
from repro.obs.trace import span
from repro.serve import SpmmService
from repro.serve.gateway import GatewayClient, ShmRing
from repro.serve.gateway import protocol as proto
from repro.sparse import spmm_reference

from perfbench.harness import now, time_calls
from perfbench.workloads import (HOT_D, HOT_TWIN, SERVICE, SIM_D, SIM_L1,
                                 SIM_L2, SIM_SCALE, SIM_THREADS, WIDE_SCALE,
                                 WIDE_TWINS, operand, spawn_gateway,
                                 stop_gateway, twin)

WIDE_D = 16
SEARCH_BUDGET = 4
SYSTEMS = {"jit": "jit", "aot": "aot:gcc", "mkl": "mkl"}
PERSONALITIES = ("gcc", "clang", "icc", "icc-avx512")
#: the three cycle-accurate backends must agree on every counter
TIMED_BACKENDS = ("sim", "sim-fused", "sim-ref")


def run_ladder(seed: int) -> tuple[dict, int]:
    """Every ladder metric, and how many exactness checks failed."""
    out: dict[str, float] = {}
    failed = 0
    rng = np.random.default_rng(seed)

    t0 = now()
    for name in WIDE_TWINS:
        twin(name, WIDE_SCALE)
    out["datasets.load_s"] = now() - t0

    hot = twin(*HOT_TWIN)
    x_hot = operand(rng, hot, HOT_D)
    wide = twin("GAP-urand", WIDE_SCALE)
    x_wide = operand(rng, wide, WIDE_D)
    tiny = twin("GAP-urand", SIM_SCALE)
    x_tiny = operand(rng, tiny, SIM_D)

    # -- sparse, exec ---------------------------------------------------
    native = get_system("jit").prepare(ExecutionConfig(
        threads=SERVICE["threads"], split="auto", backend="native"))
    for tag, matrix, x in (("hot", hot, x_hot), ("wide", wide, x_wide)):
        out[f"sparse.spmm_reference_ms.{tag}"] = 1e3 * time_calls(
            lambda: spmm_reference(matrix, x))
        plan = native.bind(matrix, x)
        out[f"exec.native_execute_ms.{tag}"] = 1e3 * time_calls(plan.execute)
    # computed from the operation count, not measured on the hardware
    out["exec.native_gflops.wide"] = (
        2.0 * wide.nnz * WIDE_D
        / (out["exec.native_execute_ms.wide"] * 1e-3) / 1e9)

    # -- api: prepare / bind / refresh on the simulated path ------------
    sim = ExecutionConfig(split="row", threads=SIM_THREADS, backend="sim",
                          l1=SIM_L1, l2=SIM_L2)
    for tag, system in SYSTEMS.items():
        out[f"api.prepare_ms.{tag}"] = 1e3 * time_calls(
            lambda: get_system(system).prepare(sim))
        artifact = get_system(system).prepare(sim)
        out[f"api.bind_ms.{tag}"] = 1e3 * time_calls(
            lambda: artifact.bind(tiny, x_tiny))
    plan = get_system("jit").prepare(sim).bind(tiny, x_tiny)
    out["api.refresh_us"] = 1e6 * time_calls(lambda: plan.refresh(x_tiny))

    # -- core, isa ------------------------------------------------------
    for d in (8, 16, 32):
        codegen = JitCodegen(JitKernelSpec(
            d=d, m=hot.nrows, row_ptr_addr=1, col_addr=1, vals_addr=1,
            x_addr=1, y_addr=1, next_addr=1))
        out[f"core.codegen_jit_ms.d{d}"] = 1e3 * time_calls(
            lambda: codegen.generate(dynamic=True))
        if d == 16:
            program = codegen.generate(dynamic=True).program
    out["core.autotune_cold_ms"] = 1e3 * time_calls(
        lambda: choose_split(hot, HOT_D, SERVICE["threads"], memo=False))
    out["isa.jit_code_bytes"] = program.code_size()
    out["isa.assemble_kinstr_per_s"] = len(program) / 1e3 / time_calls(
        lambda: reassemble(program))

    # -- aot ------------------------------------------------------------
    for personality in PERSONALITIES:
        compiler = AotCompiler(personality)
        out[f"aot.compile_ms.{personality}"] = 1e3 * time_calls(
            compiler.compile_spmm)
        out[f"aot.code_bytes.{personality}"] = (
            compiler.compile_spmm().program.code_size())
    small = twin("uk-2005", SIM_SCALE)
    t0 = now()
    choice = search_passes("gcc", small, SIM_D, budget=SEARCH_BUDGET,
                           l1=SIM_L1, l2=SIM_L2, memo=False)
    out["aot.search_s_per_candidate"] = (now() - t0) / choice.evaluated
    out["aot.search_candidates"] = choice.evaluated
    out["aot.search_rejected"] = choice.rejected

    # -- machine: one jit plan under every simulating backend -----------
    plan = get_system("jit").prepare(ExecutionConfig(
        split="row", threads=SIM_THREADS, timing=False,
        l1=SIM_L1, l2=SIM_L2)).bind(tiny, x_tiny)
    counters = {}
    for backend in ("counts", *TIMED_BACKENDS):
        def execute():
            plan.refresh(x_tiny)
            counters[backend] = plan.execute(backend=backend).counters
        seconds = time_calls(execute)
        out[f"machine.minstr_per_s.{backend}"] = (
            counters[backend].instructions / seconds / 1e6)
    reference = counters[TIMED_BACKENDS[0]].as_dict()
    failed += sum(counters[b].as_dict() != reference
                  for b in TIMED_BACKENDS[1:])

    # -- serve: one thread, warm handle ---------------------------------
    with SpmmService(**SERVICE) as service:
        handle = service.register(hot)
        service.multiply(handle, x_hot)
        out["serve.multiply_unloaded_us"] = 1e6 * time_calls(
            lambda: service.multiply(handle, x_hot))
    out["serve.overhead_us"] = (out["serve.multiply_unloaded_us"]
                                - 1e3 * out["exec.native_execute_ms.hot"])

    # -- gateway: codec, shm, and one unloaded round trip ---------------
    out["gateway.encode_multiply_us"] = 1e6 * time_calls(
        lambda: proto.encode_multiply(1, x_hot))
    y_hot = spmm_reference(hot, x_hot)
    reply = proto.encode_reply_ok(
        proto.encode_multiply_reply(y_hot, *y_hot.shape))
    out["gateway.decode_reply_us"] = 1e6 * time_calls(
        lambda: proto.decode_multiply_reply(proto.decode_reply(reply)))
    with ShmRing(slots=2) as ring:
        slot = ring.acquire()

        def copy_through():
            ring.write(slot, x_hot)
            ring.read(slot, x_hot.nbytes)
        out["gateway.shm_write_read_us"] = 1e6 * time_calls(copy_through)
        ring.release(slot)
    process, address = spawn_gateway()
    client = None
    try:
        client = GatewayClient(*address)
        handle = client.register(hot)
        client.multiply(handle, x_hot)
        out["gateway.rtt_unloaded_p50_ms"] = 1e3 * time_calls(
            lambda: client.multiply(handle, x_hot), budget_s=0.3)
    finally:
        stop_gateway(process, client)
    out["gateway.transport_overhead_ms"] = (
        out["gateway.rtt_unloaded_p50_ms"]
        - 1e-3 * out["serve.multiply_unloaded_us"])

    # -- obs: the cost every instrumented call pays with tracing off ----
    def thousand_spans():
        for _ in range(1000):
            with span("ladder"):
                pass
    out["obs.disabled_span_ns"] = 1e9 * time_calls(thousand_spans) / 1000
    return out, failed


def reassemble(program) -> bytes:
    """Push a generated program back through the assembler and encoder."""
    labels: dict[int, list[str]] = {}
    for name, index in program.labels.items():
        labels.setdefault(index, []).append(name)
    asm = Assembler("ladder")
    for index, insn in enumerate(program.instructions):
        for name in labels.get(index, ()):
            asm.label(name)
        asm.emit(insn.mnemonic, *insn.operands, lock=insn.lock)
    for name in labels.get(len(program.instructions), ()):
        asm.label(name)
    return asm.finish().encode()

"""Quickstart: multiply, profile, and compare against an AOT baseline.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro
from repro import CsrMatrix, JitSpMM, spmm_reference


def main() -> None:
    rng = np.random.default_rng(42)

    # Build a sparse matrix (20% fill) and a tall-skinny dense operand --
    # the GNN-style workload the paper targets (n >> d, §II-A).
    dense = np.where(rng.random((400, 400)) < 0.05,
                     rng.standard_normal((400, 400)), 0.0)
    matrix = CsrMatrix.from_dense(dense.astype(np.float32), name="demo")
    x = rng.random((400, 16), dtype=np.float32).astype(np.float32)
    print(f"A = {matrix}")
    print(f"X = {x.shape[0]}x{x.shape[1]} dense\n")

    # 1. Fast path: compute Y = A @ X with the numpy execution backend.
    engine = JitSpMM(split="merge", threads=8)
    y = engine.multiply(matrix, x)
    assert np.allclose(y, spmm_reference(matrix, x), atol=1e-4)
    print(f"multiply(): Y = {y.shape[0]}x{y.shape[1]}, "
          f"||Y||_F = {np.linalg.norm(y):.3f}  (matches reference)\n")

    # 2. Profiled path: generate real x86 machine code specialized to this
    #    (A, X) pair and execute it on the simulated multi-core machine.
    result = engine.profile(matrix, x)
    counters = result.counters
    print("profile() on the simulated machine:")
    print(f"  generated code     : {result.code_bytes} bytes "
          f"({len(result.program.instructions)} instructions)")
    print(f"  codegen wall time  : {result.codegen_seconds * 1e3:.3f} ms")
    print(f"  instructions       : {counters.instructions:,}")
    print(f"  memory loads       : {counters.memory_loads:,}")
    print(f"  branches           : {counters.branches:,} "
          f"({counters.branch_misses:,} mispredicted)")
    print(f"  modeled time       : {result.modeled_seconds() * 1e3:.3f} ms "
          f"at 3.7 GHz\n")

    # 2b. Same kernel on the "counts" backend: no cache or pipeline
    #     model — identical results and event counters, faster still,
    #     cycles left at 0.
    counted = engine.profile(matrix, x, backend="counts")
    assert counted.counters.instructions == counters.instructions
    assert np.array_equal(counted.y, result.y)
    print(f"  counts backend     : {counted.counters.instructions:,} "
          "instructions retired bit-identically, no cycle model\n")

    # 3. Compare with the auto-vectorized AOT baseline on the same
    #    machine — any registered system runs through the same one-call
    #    pipeline (repro.available_systems() lists them all).
    baseline = repro.run(matrix, x, system="aot:icc-avx512", split="merge",
                         threads=8)
    speedup = baseline.counters.cycles / counters.cycles
    print(f"icc-avx512 baseline: {baseline.counters.instructions:,} "
          f"instructions, {baseline.counters.memory_loads:,} loads")
    print(f"JITSPMM speedup over auto-vectorization: {speedup:.2f}x\n")

    # 4. The staged pipeline: prepare once (codegen, cached), bind per
    #    problem, execute per request — the serving subsystem's shape.
    artifact = repro.get_system("jit").prepare(
        repro.ExecutionConfig(split="merge", threads=8,
                              cache=repro.KernelCache()))
    plan = artifact.bind(matrix, x)             # generates the kernel
    first = plan.execute()
    rerun = artifact.bind(matrix, x).execute()  # same shape: cache hit
    print(f"prepare/bind/execute: first bind cache_hit={first.cache_hit}, "
          f"re-bind cache_hit={rerun.cache_hit} "
          f"(codegen {rerun.codegen_seconds * 1e3:.3f} ms the second time)")


if __name__ == "__main__":
    main()

"""Serving demo: replay a request mix against SpmmService.

Three "models" (sparse matrices of different shapes and skew) are
registered with one service; a stream of mixed requests is replayed
against them.  Each matrix pays autotuning + JIT code generation once,
on its first request; everything after is a kernel-cache hit, so the
amortized codegen overhead — the live version of the paper's Table IV
metric — falls toward zero as traffic accumulates.

The service is system-agnostic since the `repro.api` redesign: a later
section serves the same traffic from the MKL-like baseline
(``system="mkl"``) to compare amortization across systems.  The
closing sections replay a *concurrent* burst: every request runs alone
on its caller's thread and the host kernel releases the GIL, so
simultaneous requests for one matrix overlap on as many cores as they
have callers and none waits on another — and then replay it once more
with :mod:`repro.obs` tracing on, writing ``serving_trace.json`` for
https://ui.perfetto.dev.

Run:  python examples/serving_traffic.py
"""

import threading
import time

import numpy as np

import repro.obs as obs
from repro import CsrMatrix
from repro.serve import SpmmService


def random_sparse(rng, nrows, ncols, density, name):
    mask = rng.random((nrows, ncols)) < density
    dense = np.where(mask, rng.standard_normal((nrows, ncols)), 0.0)
    return CsrMatrix.from_dense(dense.astype(np.float32), name=name)


def skewed_sparse(rng, nrows, name):
    """A power-law-ish matrix: a few heavy rows, many light ones."""
    dense = np.zeros((nrows, nrows), dtype=np.float32)
    heavy = rng.integers(0, nrows, size=nrows // 8)
    for row in heavy:
        cols = rng.integers(0, nrows, size=nrows // 4)
        dense[row, cols] = rng.standard_normal(cols.size)
    dense[np.arange(nrows), rng.integers(0, nrows, size=nrows)] = 1.0
    return CsrMatrix.from_dense(dense, name=name)


def main() -> None:
    rng = np.random.default_rng(7)
    service = SpmmService(threads=8, split="auto", timing=False)

    models = [
        service.register(random_sparse(rng, 600, 500, 0.02, "uniform-600")),
        service.register(random_sparse(rng, 300, 300, 0.10, "dense-ish-300")),
        service.register(skewed_sparse(rng, 400, "skewed-400")),
    ]
    widths = {models[0]: 16, models[1]: 32, models[2]: 16}

    # A request mix: model popularity 60/25/15, 200 requests total.
    stream = rng.choice(len(models), size=200, p=[0.60, 0.25, 0.15])
    print("replaying 200 requests against 3 registered matrices...\n")
    for model_index in stream:
        handle = models[model_index]
        d = widths[handle]
        x = rng.random((handle.matrix.ncols, d), dtype=np.float32)
        service.multiply(handle, x)

    # One simulated profile request per model: reuses the cached kernel
    # and reports the machine's perf counters.
    for handle in models:
        d = widths[handle]
        x = rng.random((handle.matrix.ncols, d), dtype=np.float32)
        result = service.profile(handle, x)
        choice = service.choice(handle, d)
        print(f"{handle.name}: tuned split={result.split}"
              f"{' (dynamic)' if choice and choice.dynamic else ''}, "
              f"cache_hit={result.cache_hit}, "
              f"{result.counters.instructions:,} simulated instructions")

    print()
    print(service.report())

    # -- the same traffic, served by a different registered system ------
    mkl_service = SpmmService(threads=8, split="row", system="mkl",
                              timing=False)
    mkl_handles = {handle: mkl_service.register(handle.matrix, handle.name)
                   for handle in models}
    for model_index in stream[:60]:
        handle = models[model_index]
        x = rng.random((handle.matrix.ncols, widths[handle]),
                       dtype=np.float32)
        mkl_service.multiply(mkl_handles[handle], x)
    print()
    print("same stream on the MKL-like system (one template, "
          "compiled once, shared by every handle):")
    print(mkl_service.report())

    # -- a concurrent burst: every request on its caller's thread -------
    print()
    print("concurrent burst on one warm handle, by client count:")
    # large enough that the GIL-free kernel, not the Python around it,
    # is most of a request: that is the part extra callers overlap
    big = random_sparse(rng, 2000, 2000, 0.02, "burst-2000")
    burst = SpmmService(threads=8, split="auto", timing=False)
    handle = burst.register(big)
    burst.multiply(handle, rng.random((2000, 32), dtype=np.float32))
    for clients in (1, 2, 8):
        requests = 200 // clients
        barrier = threading.Barrier(clients + 1)
        # operands come from the main thread: Generator is not
        # thread-safe, so clients only ever read their own array
        operands = [rng.random((2000, 32), dtype=np.float32)
                    for _ in range(clients)]

        def client(x):
            barrier.wait()
            for _ in range(requests):
                burst.multiply(handle, x)

        workers = [threading.Thread(target=client, args=(x,))
                   for x in operands]
        for worker in workers:
            worker.start()
        barrier.wait()
        started = time.perf_counter()
        for worker in workers:
            worker.join()
        wall = time.perf_counter() - started
        print(f"  {clients} clients: {clients * requests / wall:7.0f} req/s")
    print(f"  {burst.lock_stats().render()}")

    # -- a cold burst: first requests vs warm ones -----------------------
    # A wave of never-seen matrices arrives while the service is busy.
    # Each one's first request pays autotune + JIT codegen on the
    # request path; the second runs the kernel the first generated.
    print()
    print("cold burst: first vs second request latency per arrival:")
    cold = SpmmService(threads=8, split="auto", timing=False)
    firsts, seconds = [], []
    for index in range(6):
        arrival = random_sparse(rng, 280 + 7 * index, 240 + 3 * index,
                                0.03, f"cold-{index}")
        handle = cold.register(arrival)
        x = rng.random((arrival.ncols, 8), dtype=np.float32)
        for latencies in (firsts, seconds):
            started = time.perf_counter()
            cold.multiply(handle, x)
            latencies.append(time.perf_counter() - started)
    for label, latencies in (("first ", firsts), ("second", seconds)):
        print(f"  {label}: "
              + " ".join(f"{1e3 * value:6.2f}ms" for value in latencies))
    cold.close()

    # -- the same burst, traced: one Perfetto-loadable artifact ---------
    # Spans cover the whole lifecycle (one serve.multiply root per
    # request, on its caller's thread track; serve.bind, autotune and
    # serve.codegen under the cold ones), so the trace shows the eight
    # clients' requests overlapping.
    print()
    print("tracing one concurrent burst (repro.obs)...")
    matrix = random_sparse(rng, 300, 300, 0.03, "burst-300")
    obs.enable_tracing()
    traced = SpmmService(threads=8, split="auto")
    handle = traced.register(matrix, "traced-burst")
    operands = [rng.random((300, 8), dtype=np.float32)
                for _ in range(8)]
    barrier = threading.Barrier(len(operands))

    def traced_client(x):
        barrier.wait()
        for _ in range(20):
            traced.multiply(handle, x)

    workers = [threading.Thread(target=traced_client, args=(x,))
               for x in operands]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    path = obs.write_chrome_trace("serving_trace.json")
    spans = obs.get_tracer().spans()
    multiplies = [s for s in spans if s.name == "serve.multiply"]
    print(f"  {len(spans)} spans recorded ({len(multiplies)} requests on "
          f"{len({s.tid for s in multiplies})} threads); trace written "
          f"to {path}")
    print("  load it at https://ui.perfetto.dev (or chrome://tracing)")
    print("  unified metrics for the burst service:")
    snapshot = obs.get_registry().snapshot()
    for name in ("serve_requests_total", "serve_cache_hits_total",
                 "serve_lock_waits_total"):
        value = snapshot.value(name, service=traced.obs_label)
        print(f"    {name}{{service={traced.obs_label!r}}} = {value:.0f}")
    obs.disable_tracing()


if __name__ == "__main__":
    main()

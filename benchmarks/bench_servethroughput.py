"""Benchmark target for the serving-throughput grid."""

import os

from repro.bench.servethroughput import run_servethroughput


def test_servethroughput(benchmark, bench_config, record_result):
    result = benchmark.pedantic(
        run_servethroughput, args=(bench_config,), rounds=1, iterations=1)
    record_result("servethroughput", result.render())
    # networked target (cells measured with REPRO_BENCH_SERVE_NETWORKED=1):
    # two workers plus the gateway process need three cores to scale
    scaling = result.scaling_networked()
    if scaling is not None and (os.cpu_count() or 1) >= 3:
        assert scaling >= 1.0
    # every fresh handle's first request — autotune and codegen inline —
    # answers with the reference's exact bits
    assert result.coldstart["bit_identical"]

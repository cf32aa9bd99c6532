"""Benchmark target for the observability-overhead measurement."""

from repro.bench.obsoverhead import (
    DISABLED_SPAN_NS_LIMIT,
    OVERHEAD_US_LIMIT,
    run_obsoverhead,
)


def test_obsoverhead(benchmark, bench_config, record_result):
    result = benchmark.pedantic(
        run_obsoverhead, args=(bench_config,), rounds=1, iterations=1)
    record_result("obsoverhead", result.render())
    # the acceptance targets: the disabled span() path stays a cheap
    # no-op, and recording spans adds < 20us of wall time to a request
    assert result.disabled_span_ns < DISABLED_SPAN_NS_LIMIT
    assert result.overhead_us() < OVERHEAD_US_LIMIT

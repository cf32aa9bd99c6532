"""Benchmark target for the hardware table (generated code on the host)."""

from repro.bench.hw import run_hw


def test_hw(benchmark, bench_config, record_result):
    result = benchmark.pedantic(
        run_hw, args=(bench_config,), rounds=1, iterations=1)
    record_result("hw", result.render())
    measured = [row for row in result.rows if "median_us" in row]
    assert all(row["correct"] for row in measured)
    # what is served is exact wherever it ran
    assert all(row["bit_identical"] for row in measured
               if row["system"] in ("jit-exact", "scipy"))

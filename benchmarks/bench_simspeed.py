"""Benchmark target for the per-backend simulated-instructions/sec grid."""

from repro.bench.simspeed import run_simspeed


def test_simspeed(benchmark, bench_config, record_result):
    result = benchmark.pedantic(
        run_simspeed, args=(bench_config,), rounds=1, iterations=1)
    record_result("simspeed", result.render())
    # the simulators retire identical instruction streams
    for dataset in result.datasets():
        counts = {backend: result.rows[(dataset, backend)]["instructions"]
                  for backend in ("counts", "sim-ref", "sim")}
        assert len(set(counts.values())) == 1, (dataset, counts)
    # the acceptance target: the record/replay timing engine (plus
    # superblock compilation) buys >= 3x the cycle-accurate instruction
    # throughput of the per-access sim-ref path
    assert result.speedup_vs_sim("sim") >= 3.0

"""Tests for the ``python -m repro.bench`` command-line interface."""

import pytest

from repro.bench.__main__ import EXPERIMENTS, main


class TestCli:
    def test_experiments_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "table2", "table4", "fig9", "fig10", "fig11", "ablations",
            "serving", "simspeed", "servethroughput", "obsoverhead",
            "passsearch", "chaos", "hw"}

    def test_runs_simspeed_experiment(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_DATASETS", "uk-2005")
        monkeypatch.setenv("REPRO_BENCH_THREADS", "2")
        json_path = tmp_path / "BENCH_simspeed.json"
        monkeypatch.setenv("REPRO_BENCH_SIMSPEED_JSON", str(json_path))
        exit_code = main(["simspeed", "--scale", str(2.0 ** -22)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Simspeed" in out
        assert "sim-ref" in out
        import json
        payload = json.loads(json_path.read_text())
        assert payload["experiment"] == "simspeed"
        backends = {row["backend"] for row in payload["rows"]}
        assert backends == {"native", "counts", "sim-ref", "sim"}
        # the instruction streams must agree between the simulators
        counts = {row["backend"]: row["instructions"]
                  for row in payload["rows"]}
        assert counts["counts"] == counts["sim"] == counts["sim-ref"]
        assert set(payload["speedup_vs_sim"]) == {"counts", "sim"}

    def test_runs_passsearch_experiment(self, capsys, monkeypatch,
                                        tmp_path):
        monkeypatch.setenv("REPRO_BENCH_DATASETS", "uk-2005")
        monkeypatch.setenv("REPRO_BENCH_THREADS", "1")
        monkeypatch.setenv("REPRO_BENCH_PASSSEARCH_BUDGET", "4")
        json_path = tmp_path / "BENCH_passsearch.json"
        monkeypatch.setenv("REPRO_BENCH_PASSSEARCH_JSON", str(json_path))
        exit_code = main(["passsearch", "--scale", str(2.0 ** -22)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Passsearch" in out
        import json
        payload = json.loads(json_path.read_text())
        assert payload["experiment"] == "passsearch"
        personalities = {row["personality"] for row in payload["rows"]}
        assert personalities == {"gcc", "clang", "icc", "icc-avx512"}
        for row in payload["rows"]:
            assert row["cycles_searched"] <= row["cycles_fixed"]
            assert row["bit_identical"]
        assert payload["summary"]["never_regressed"]

    def test_runs_servethroughput_experiment(self, capsys, monkeypatch,
                                             tmp_path):
        monkeypatch.setenv("REPRO_BENCH_DATASETS", "uk-2005")
        monkeypatch.setenv("REPRO_BENCH_THREADS", "2")
        monkeypatch.setenv("REPRO_BENCH_SERVE_CLIENTS", "2")
        monkeypatch.setenv("REPRO_BENCH_SERVE_REQUESTS", "8")
        json_path = tmp_path / "BENCH_servethroughput.json"
        monkeypatch.setenv("REPRO_BENCH_SERVETHROUGHPUT_JSON",
                           str(json_path))
        exit_code = main(["servethroughput", "--scale", str(2.0 ** -22)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Serve throughput" in out
        import json
        payload = json.loads(json_path.read_text())
        assert payload["experiment"] == "servethroughput"
        assert {row["backend"] for row in payload["rows"]} == {
            "native", "counts"}
        for row in payload["rows"]:
            assert row["rps"] > 0
            assert row["p99_ms"] >= row["p50_ms"]
        assert "speedup_coalesced" not in payload

    def test_runs_obsoverhead_experiment(self, capsys, monkeypatch,
                                         tmp_path):
        monkeypatch.setenv("REPRO_BENCH_DATASETS", "uk-2005")
        monkeypatch.setenv("REPRO_BENCH_THREADS", "2")
        monkeypatch.setenv("REPRO_BENCH_OBS_REQUESTS", "8")
        json_path = tmp_path / "BENCH_obsoverhead.json"
        trace_path = tmp_path / "BENCH_obsoverhead_trace.json"
        monkeypatch.setenv("REPRO_BENCH_OBSOVERHEAD_JSON", str(json_path))
        monkeypatch.setenv("REPRO_BENCH_OBS_TRACE_JSON", str(trace_path))
        exit_code = main(["obsoverhead", "--scale", str(2.0 ** -22)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Observability overhead" in out
        import json
        payload = json.loads(json_path.read_text())
        assert payload["experiment"] == "obsoverhead"
        assert payload["clients"] == 1      # the gate prices a lone client
        assert {row["mode"] for row in payload["rows"]} == {
            "tracing off", "tracing on"}
        assert payload["disabled_span_ns"] > 0
        assert payload["overhead_pct"] >= 0
        # the archived trace is loadable Chrome-trace JSON with real
        # serving spans in it
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"]
                 if e["ph"] == "X"}
        assert "serve.multiply" in names
        # the bench must not leave the process-wide tracer enabled
        import repro.obs as obs
        assert not obs.tracing_enabled()

    def test_runs_hw_experiment(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_DATASETS", "uk-2005")
        monkeypatch.chdir(tmp_path)         # BENCH_hw.json lands in cwd
        exit_code = main(["hw", "--scale", str(2.0 ** -21)])
        assert exit_code == 0
        assert "jit-exact" in capsys.readouterr().out
        import json
        payload = json.loads((tmp_path / "BENCH_hw.json").read_text())
        assert payload["experiment"] == "hw"
        assert payload["repeats"] >= 5
        assert {"cpu", "isa", "nproc", "commit"} <= set(payload["env"])
        rows = {(row["d"], row["system"]): row for row in payload["rows"]}
        assert {d for d, _ in rows} == {1, 8, 16, 64}
        for (d, system), row in rows.items():
            # every cell either ran and verified, or names why it did not
            assert ("skipped" in row) != ("median_us" in row), row
            if "median_us" in row:
                assert row["correct"], row
                assert row["q1_us"] <= row["median_us"] <= row["q3_us"]
        assert rows[(16, "scipy")]["bit_identical"]
        supported = not payload["env"]["isa"].startswith("unsupported")
        if supported:
            assert rows[(16, "jit-exact")]["bit_identical"]
            assert "vgatherdps" in rows[(16, "aot:icc-avx512")]["skipped"]
            assert rows[(16, "jit")]["simulated_cycles"] > 0
            assert "uk-2005" in payload["rank_agreement"]
            assert (payload["gil"].get("skipped")
                    or payload["gil"]["threshold_ns"] > 0)
        else:
            assert "skipped" in rows[(16, "jit-exact")]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure42"])

    def test_runs_selected_experiment(self, capsys, monkeypatch):
        # tiny configuration so the CLI test stays fast
        monkeypatch.setenv("REPRO_BENCH_DATASETS", "uk-2005")
        monkeypatch.setenv("REPRO_BENCH_THREADS", "2")
        exit_code = main(["table2", "--scale", str(2.0 ** -22)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert "Table II" in out

    def test_runs_serving_experiment(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DATASETS", "uk-2005")
        monkeypatch.setenv("REPRO_BENCH_THREADS", "2")
        exit_code = main(["serving", "--scale", str(2.0 ** -22)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Serving amortization" in out
        assert "kernel cache" in out

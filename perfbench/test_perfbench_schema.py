"""Schema check for the benchmark registry: no runs, well under a second.

Keeps ``perfbench/spec.py`` (what the code measures) and ``BENCHMARK.json``
(what the driver reads) in agreement and inside the driver's limits.
"""

from __future__ import annotations

import json
import os
import re

from perfbench import spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: layers whose numbers move no end-to-end metric: the benchmark's own
#: costs and the bounds on how far a traced number can be trusted
MOVES_NOTHING = {"bench", "obs", "sparse"}


def test_limits_and_names():
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    assert 1 <= spec.RUN_SECONDS <= 60
    names = [m.name for m in (*spec.WORKLOADS, *spec.END_TO_END,
                              *spec.PER_LAYER)]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


def test_workloads_say_why():
    for workload in spec.WORKLOADS:
        assert workload.why and "\n" not in workload.why
        assert len(workload.why) <= 200


def test_end_to_end_metrics_are_complete():
    for metric in spec.END_TO_END:
        assert UNIT.fullmatch(metric.unit)
        assert metric.better in ("lower", "higher")
        assert 0 < metric.bound <= 0.25
        assert metric.meaning
    setup = spec.E2E_BY_NAME["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)


def test_per_layer_metrics_name_a_layer_and_what_they_move():
    package = os.path.join(ROOT, "src", "repro")
    # the repo's modules, the gateway inside serve, and "bench" for the
    # benchmark's own spans
    layers = {"bench", *os.listdir(package),
              *os.listdir(os.path.join(package, "serve"))}
    for metric in spec.PER_LAYER:
        assert UNIT.fullmatch(metric.unit)
        assert metric.better in ("lower", "higher")
        assert metric.source in ("trace", "counter", "ladder")
        assert metric.layer in layers, metric.name
        assert metric.moves or metric.layer in MOVES_NOTHING, metric.name
        for move in metric.moves:
            moved, _, workload = move.partition("@")
            assert moved in spec.E2E_BY_NAME, move
            assert workload in spec.WORKLOAD_NAMES, move


def test_registry_and_benchmark_json_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        document = json.load(handle)
    assert document == spec.benchmark_json()
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 << 10

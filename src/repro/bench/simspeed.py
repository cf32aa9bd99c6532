"""Simspeed: simulated instructions/sec per execution backend.

The tentpole claim of the simulator stack is that specialization beats
interpretation twice over: generated-block execution plus the
record/replay timing engine (``"sim"``) retires the Fig-9
workloads' instruction streams — *with* cycle-accurate timing — several
times faster than the per-access reference path (``"sim-ref"``, the
engine ``sim`` used before trace replay) while staying bit-identical on
every counter.  This micro-benchmark measures it: for each dataset
twin, one JIT kernel is generated and bound once, then executed under
every backend on the same plan, timing pure execution (codegen and
operand mapping excluded).  Rows are emitted both as a rendered table
and as ``BENCH_simspeed.json`` (path overridable via
``REPRO_BENCH_SIMSPEED_JSON``), which CI regenerates at tiny scale so
the simulator's performance trajectory is tracked per commit; the CI
step fails the build when the replay-backed ``sim`` drops below the 3x
acceptance target over ``sim-ref``.

``native`` rows report wall time only — the host backend retires no
simulated instructions, so instructions/sec is not defined for it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from repro.api import ExecutionConfig, get_system
from repro.bench.harness import (
    BENCH_L1,
    BENCH_L2,
    BenchConfig,
    geometric_mean,
    render_table,
)

__all__ = ["SimspeedResult", "run_simspeed"]

#: the Fig-9 operating point: row split, d = 16 (the paper's common
#: column count), the harness's thread count
_D = 16

#: measured backends, slowest-fidelity first; ``sim-ref`` — the
#: per-access timing path — is the speedup baseline the acceptance
#: target (>= 3x for the replay-backed ``sim``) is against
BACKENDS = ("native", "counts", "sim-ref", "sim")

#: the speedup denominator (the pre-replay ``sim`` implementation)
BASELINE = "sim-ref"

DEFAULT_JSON_PATH = "BENCH_simspeed.json"

#: each cell reports the best of this many runs (single runs on the
#: tiny twins are noisy); override via REPRO_BENCH_SIMSPEED_REPEATS
DEFAULT_REPEATS = 3


@dataclass
class SimspeedResult:
    config: BenchConfig
    #: (dataset, backend) -> row dict (seconds, instructions, ips)
    rows: dict[tuple[str, str], dict]
    json_path: str

    def ips(self, dataset: str, backend: str) -> float | None:
        return self.rows[(dataset, backend)]["ips"]

    def speedup_vs_sim(self, backend: str) -> float:
        """Geometric-mean instructions/sec ratio over the per-access
        reference (:data:`BASELINE` — the engine ``sim`` ran before the
        record/replay split, so the trajectory stays comparable)."""
        ratios = []
        for dataset in self.datasets():
            base = self.ips(dataset, BASELINE)
            other = self.ips(dataset, backend)
            if base and other:
                ratios.append(other / base)
        return geometric_mean(ratios)

    def datasets(self) -> list[str]:
        return sorted({dataset for dataset, _ in self.rows},
                      key=list(self.config.datasets).index)

    # ------------------------------------------------------------------
    def as_payload(self) -> dict:
        """The JSON document CI archives (one row per backend cell)."""
        return {
            "experiment": "simspeed",
            "scale": self.config.scale,
            "threads": self.config.threads,
            "d": _D,
            "split": "row",
            "baseline": BASELINE,
            "rows": [
                {"dataset": dataset, "backend": backend, **row}
                for (dataset, backend), row in sorted(self.rows.items())
            ],
            "speedup_vs_sim": {
                backend: self.speedup_vs_sim(backend)
                for backend in BACKENDS
                if backend not in ("native", BASELINE)
            },
        }

    def render(self) -> str:
        headers = ["dataset", *[f"{b} Mi/s" for b in BACKENDS]]
        table_rows = []
        for dataset in self.datasets():
            cells = [dataset]
            for backend in BACKENDS:
                ips = self.ips(dataset, backend)
                cells.append("-" if ips is None else f"{ips / 1e6:.3f}")
            table_rows.append(cells)
        table_rows.append([f"(speedup vs {BASELINE})", "-"] + [
            "1.00x" if b == BASELINE else f"{self.speedup_vs_sim(b):.2f}x"
            for b in BACKENDS if b != "native"])
        title = (
            "Simspeed — simulated instructions/sec per execution backend "
            f"(jit, row split, d={_D}, {self.config.threads} threads).\n"
            "sim runs generated blocks under the record/replay timing "
            "engine: bit-identical\n"
            "counters — cycles included — to the per-access sim-ref path.\n"
            f"JSON written to {self.json_path}"
        )
        return render_table(headers, table_rows, title)


def run_simspeed(config: BenchConfig | None = None) -> SimspeedResult:
    """Measure every backend on every dataset twin; write the JSON."""
    config = config or BenchConfig()
    repeats = max(1, int(os.environ.get("REPRO_BENCH_SIMSPEED_REPEATS",
                                        DEFAULT_REPEATS)))
    rows: dict[tuple[str, str], dict] = {}
    for dataset in config.datasets:
        matrix = config.matrix(dataset)
        x = config.dense(dataset, _D)
        # one plan per dataset: codegen and operand mapping are paid
        # once, outside every timed region, so rows measure execution
        plan = get_system("jit").prepare(ExecutionConfig(
            split="row", threads=config.threads, timing=False,
            l1=BENCH_L1, l2=BENCH_L2,
        )).bind(matrix, x)
        for backend in BACKENDS:
            seconds = float("inf")
            for _ in range(repeats):
                plan.refresh(x)  # zero Y, re-arm the dynamic dispatcher
                started = time.perf_counter()
                result = plan.execute(backend=backend)
                seconds = min(seconds, time.perf_counter() - started)
            instructions = result.counters.instructions
            rows[(dataset, backend)] = {
                "seconds": seconds,
                "instructions": instructions,
                "ips": instructions / seconds if instructions else None,
            }
    json_path = os.environ.get("REPRO_BENCH_SIMSPEED_JSON",
                               DEFAULT_JSON_PATH)
    result = SimspeedResult(config=config, rows=rows, json_path=json_path)
    with open(json_path, "w") as handle:
        json.dump(result.as_payload(), handle, indent=2)
        handle.write("\n")
    return result

"""Passsearch: feedback-directed AOT search vs fixed-function lowering.

The AOT personalities historically lowered Algorithm 1 with a
hard-coded unroll factor and no cleanup passes — the fixed-function
baseline.  :func:`repro.aot.search.search_passes` instead treats the
replay simulator as a cost oracle: it coordinate-descends over the
:class:`~repro.aot.passes.PassConfig` lattice (unroll factor x pass
set), scoring candidates by simulated cycles on a downsampled operand
sample and rejecting anything that is not bit-identical to the
baseline.  This benchmark closes the loop at full scale: for every
personality x dataset cell it measures whole-matrix simulated cycles
under the fixed-function config (``opt_level=0``) and under the
searched winner, plus the search's own wall-clock cost.

Rows land in ``BENCH_passsearch.json`` (path overridable via
``REPRO_BENCH_PASSSEARCH_JSON``); CI regenerates the document at tiny
scale and fails the build if a searched cell ever regresses past its
fixed-function baseline — the search's never-regress contract, checked
on the full matrix rather than the sample it optimized against.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.api import get_system
from repro.aot.compiler import PERSONALITIES
from repro.aot.search import search_passes
from repro.bench.harness import (
    BENCH_L1,
    BENCH_L2,
    BenchConfig,
    render_table,
)

__all__ = ["PasssearchResult", "run_passsearch"]

#: the paper's common column count — also what the search samples at
_D = 16

DEFAULT_JSON_PATH = "BENCH_passsearch.json"

#: candidate compilations per search; override via
#: REPRO_BENCH_PASSSEARCH_BUDGET
DEFAULT_BUDGET = 12


@dataclass
class PasssearchResult:
    config: BenchConfig
    #: (personality, dataset) -> row dict
    rows: dict[tuple[str, str], dict]
    json_path: str

    def reduction_pct(self, personality: str, dataset: str) -> float:
        return self.rows[(personality, dataset)]["reduction_pct"]

    def max_reduction_pct(self) -> float:
        return max(row["reduction_pct"] for row in self.rows.values())

    def never_regressed(self) -> bool:
        """True iff no searched cell is slower than its fixed baseline."""
        return all(row["cycles_searched"] <= row["cycles_fixed"]
                   for row in self.rows.values())

    # ------------------------------------------------------------------
    def as_payload(self) -> dict:
        """The JSON document CI archives (one row per cell)."""
        return {
            "experiment": "passsearch",
            "scale": self.config.scale,
            "threads": self.config.threads,
            "d": _D,
            "split": "row",
            "rows": [
                {"personality": personality, "dataset": dataset, **row}
                for (personality, dataset), row in sorted(self.rows.items())
            ],
            "summary": {
                "max_reduction_pct": self.max_reduction_pct(),
                "never_regressed": self.never_regressed(),
            },
        }

    def render(self) -> str:
        headers = ["personality", "dataset", "fixed Mcyc", "searched Mcyc",
                   "reduction", "winner", "search s"]
        table_rows = []
        for (personality, dataset), row in sorted(self.rows.items()):
            table_rows.append([
                personality, dataset,
                f"{row['cycles_fixed'] / 1e6:.3f}",
                f"{row['cycles_searched'] / 1e6:.3f}",
                f"{row['reduction_pct']:+.1f}%",
                row["config"],
                f"{row['search_seconds']:.2f}",
            ])
        title = (
            "Passsearch — whole-matrix simulated cycles, fixed-function "
            f"lowering vs searched pass pipeline (d={_D}, row split, "
            f"{self.config.threads} threads).\n"
            "Every winner is bit-identical to its personality's baseline "
            "output; ties keep the baseline (never-regress).\n"
            f"best cell: {self.max_reduction_pct():+.1f}% — "
            f"JSON written to {self.json_path}"
        )
        return render_table(headers, table_rows, title)


def _full_cycles(personality: str, matrix, x, config: BenchConfig,
                 opt_level: int, budget: int):
    """Whole-matrix simulated cycles at one opt level; returns
    ``(cycles, y)`` so callers can cross-check bit-identity."""
    artifact = get_system(f"aot:{personality}").prepare(
        split="row", threads=config.threads, dynamic=False,
        backend="sim", l1=BENCH_L1, l2=BENCH_L2,
        opt_level=opt_level, search_budget=budget)
    plan = artifact.bind(matrix, x)
    result = plan.execute()
    return int(result.counters.cycles), result.y


def run_passsearch(config: BenchConfig | None = None) -> PasssearchResult:
    """Search every personality on every dataset twin; write the JSON."""
    config = config or BenchConfig()
    budget = max(1, int(os.environ.get("REPRO_BENCH_PASSSEARCH_BUDGET",
                                       DEFAULT_BUDGET)))
    rows: dict[tuple[str, str], dict] = {}
    for dataset in config.datasets:
        matrix = config.matrix(dataset)
        x = config.dense(dataset, _D)
        for personality in PERSONALITIES:
            cycles_fixed, y_fixed = _full_cycles(
                personality, matrix, x, config, 0, budget)
            started = time.perf_counter()
            choice = search_passes(personality, matrix, _D, budget=budget,
                                   l1=BENCH_L1, l2=BENCH_L2)
            search_seconds = time.perf_counter() - started
            # opt 3 resolves to the memoized verdict searched above, so
            # this measures the winner at full scale without re-searching
            cycles_searched, y_searched = _full_cycles(
                personality, matrix, x, config, 3, budget)
            rows[(personality, dataset)] = {
                "cycles_fixed": cycles_fixed,
                "cycles_searched": cycles_searched,
                "reduction_pct": 100.0 * (1.0 - cycles_searched
                                          / cycles_fixed),
                "config": choice.config.ident(),
                "sample_cycles": choice.cycles,
                "sample_baseline_cycles": choice.baseline_cycles,
                "candidates": choice.evaluated,
                "rejected": choice.rejected,
                "search_seconds": search_seconds,
                "bit_identical": bool(np.array_equal(
                    y_searched, y_fixed, equal_nan=True)),
            }
    json_path = os.environ.get("REPRO_BENCH_PASSSEARCH_JSON",
                               DEFAULT_JSON_PATH)
    result = PasssearchResult(config=config, rows=rows, json_path=json_path)
    with open(json_path, "w") as handle:
        json.dump(result.as_payload(), handle, indent=2)
        handle.write("\n")
    return result

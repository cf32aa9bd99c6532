"""CLI for the experiment harnesses: ``python -m repro.bench [names...]``.

Runs the requested experiments (default: all) and prints their rendered
tables.  Honors the same environment knobs as the pytest benchmarks
(``REPRO_BENCH_SCALE``, ``REPRO_BENCH_THREADS``, ``REPRO_BENCH_DATASETS``).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.ablations import run_ablations
from repro.bench.chaos import run_chaos
from repro.bench.fig9 import run_fig9
from repro.bench.fig10 import run_fig10
from repro.bench.fig11 import run_fig11
from repro.bench.harness import BenchConfig
from repro.bench.hw import run_hw
from repro.bench.obsoverhead import run_obsoverhead
from repro.bench.passsearch import run_passsearch
from repro.bench.servethroughput import run_servethroughput
from repro.bench.serving import run_serving
from repro.bench.simspeed import run_simspeed
from repro.bench.table2 import run_table2
from repro.bench.table4 import run_table4

EXPERIMENTS = {
    "table2": run_table2,
    "table4": run_table4,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "ablations": run_ablations,
    "serving": run_serving,
    "simspeed": run_simspeed,
    "servethroughput": run_servethroughput,
    "obsoverhead": run_obsoverhead,
    "passsearch": run_passsearch,
    "chaos": run_chaos,
    "hw": run_hw,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiments", nargs="*", default=list(EXPERIMENTS),
                        help=f"subset of: {', '.join(EXPERIMENTS)}")
    parser.add_argument("--scale", type=float, default=None,
                        help="dataset scale relative to Table III")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--networked", action="store_true",
                        help="servethroughput only: also measure "
                        "closed-loop clients over the real socket "
                        "protocol against a local worker-pool gateway")
    args = parser.parse_args(argv)
    if args.networked:
        import os

        os.environ["REPRO_BENCH_SERVE_NETWORKED"] = "1"

    names = args.experiments or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")

    overrides = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.threads is not None:
        overrides["threads"] = args.threads
    config = BenchConfig(**overrides)

    for name in names:
        started = time.perf_counter()
        result = EXPERIMENTS[name](config)
        elapsed = time.perf_counter() - started
        print()
        print("=" * 78)
        print(f"{name}  (ran in {elapsed:.1f}s)")
        print("=" * 78)
        print(result.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())

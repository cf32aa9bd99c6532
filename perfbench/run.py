"""perfbench entry point.

    python3 perfbench/run.py [--workload NAME]... [--seed N] [--seconds S]
                             [--trace 0|1] [--out PATH]
    python3 perfbench/run.py compare OLD.json NEW.json

One ``--workload`` runs in this process and prints, as the last line of
standard output, the JSON object the driver reads.  Several (or none:
all six) run one fresh subprocess each, so no workload inherits another's
autotune memo, kernel cache or import warm-up.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` records spans, runs the per-layer
ladder and reports the per-layer metrics.  Exits non-zero when any output
was wrong.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from itertools import chain

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import spec  # noqa: E402  (needs ROOT on sys.path)
from perfbench.compare import compare, relative_spread  # noqa: E402

OUT_DIR = os.path.join(ROOT, "perfbench", "out")
#: set-ups per untraced run; ``setup_s`` reports their median
SETUP_REPEATS = 3

#: per-layer metrics read off the traced workload's spans:
#: metric -> (span name, unit scale)
SPAN_METRICS = {
    "bench.request_span_ms": ("bench.request", 1e3),
    "bench.verify_span_us": ("bench.verify", 1e6),
    "serve.multiply_span_ms": ("serve.multiply", 1e3),
    "gateway.encode_span_us": ("gateway.encode", 1e6),
    "gateway.send_span_us": ("gateway.send", 1e6),
    "gateway.wait_span_ms": ("gateway.wait", 1e3),
    "gateway.decode_span_us": ("gateway.decode", 1e6),
    "api.prepare_span_ms": ("api.prepare", 1e3),
    "api.bind_span_ms": ("api.bind", 1e3),
    "exec.execute_span_ms": ("exec.execute", 1e3),
}


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload in this process; returns its result document."""
    started = time.perf_counter()
    # imported here because the imports are the first part of set-up
    from perfbench import harness, ladder, workloads
    import_s = time.perf_counter() - started

    load_1m = os.getloadavg()[0]
    workload = workloads.WORKLOADS[name](seed)
    setups = []
    try:
        for repeat in range(1 if traced else SETUP_REPEATS):
            if repeat:
                workload.close()
            t0 = harness.now()
            workload.build()
            setups.append(harness.now() - t0)
        workload.offclock()
        trace = harness.Trace() if traced else None
        t0 = harness.now()
        slices, attempted, failed = workload.run(seconds, trace)
        window_s = harness.now() - t0
        counters = workload.counters() if traced else {}
        peak_rss_mb = harness.tree_peak_rss_mb()
    finally:
        workload.close()

    timing = harness.summarize(slices)
    if traced:
        metrics = dict.fromkeys((m.name for m in spec.PER_LAYER), 0.0)
        metrics.update(counters)
        metrics.update(span_metrics(harness, trace, slices))
        rungs, inexact = ladder.run_ladder(seed)
        metrics.update(rungs)
        failed += inexact
        trace.write_chrome(os.path.join(OUT_DIR, f"trace_{name}.json"))
        document_metrics = {
            key: {"value": float(value),
                  "unit": spec.PER_LAYER_BY_NAME[key].unit}
            for key, value in metrics.items()}
    else:
        document_metrics = {
            "setup_s": {"value": import_s + statistics.median(setups)},
            **timing,
            "peak_rss_mb": {"value": peak_rss_mb},
        }
        for key, metric in document_metrics.items():
            metric["unit"] = spec.E2E_BY_NAME[key].unit
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(traced),
        "env": {**harness.environment(ROOT), "load_1m": load_1m},
        "durations": {"import_s": import_s, "setups_s": setups,
                      "window_s": window_s,
                      "total_s": time.perf_counter() - started},
        "slices": [
            {"seconds": s.seconds, "completed": s.completed,
             "traced": s.traced,
             "p50_ms": 1e3 * harness.percentile(s.latencies, 0.5)
             if s.latencies else None}
            for s in slices],
        # the untraced slices' reading, for the shares a traced run prints
        "latency_p50_ms": timing["latency_p50_ms"]["value"],
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": document_metrics,
    }


def span_metrics(harness, trace, slices) -> dict:
    """The per-layer metrics a traced window yields by itself."""
    medians = trace.medians()
    latencies = list(chain.from_iterable(
        s.latencies for s in slices if not s.traced))
    return {
        **{metric: scale * medians[span]
           for metric, (span, scale) in SPAN_METRICS.items()
           if span in medians},
        "bench.trace_overhead_pct": harness.trace_overhead_pct(slices),
        "bench.latency_p99_ms": 1e3 * harness.percentile(latencies, 0.99),
        "bench.latency_max_ms": 1e3 * max(latencies),
    }


def render(result: dict) -> str:
    """Every metric by name with its unit; a metric whose slice spread
    exceeds its bound reads ``unresolved``."""
    env = result["env"]
    lines = [
        f"== {result['workload']} (seed {result['seed']}, "
        f"{result['seconds']:g} s, trace {result['trace']}) ==",
        f"   {env['cpu']}, nproc {env['nproc']}, clients {env['clients']}, "
        f"python {env['python']}, numpy {env['numpy']}, "
        f"commit {env['commit']}, load {env['load_1m']:.2f}",
        f"   correct {result['correct']}, attempted {result['attempted']}, "
        f"failed {result['failed']}, "
        f"total {result['durations']['total_s']:.1f} s",
    ]
    for name, metric in result["metrics"].items():
        line = f"   {name:36s} {metric['value']:14.6g} {metric['unit']}"
        if "q1" in metric:
            line += (f"   slices q1 {metric['q1']:.6g} q3 {metric['q3']:.6g} "
                     f"n {metric['n']}")
            if relative_spread(metric) > spec.E2E_BY_NAME[name].bound:
                line += "   unresolved"
        lines.append(line)
    if result["trace"]:
        lines.extend(shares(result))
    return "\n".join(lines)


def shares(result: dict) -> list[str]:
    """The interaction table checked against data: what share of the
    median request the layer predicted to dominate really is."""
    value = {k: m["value"] for k, m in result["metrics"].items()}
    p50 = result["latency_p50_ms"]
    rows = {
        "serve_hot": [("serve.overhead_us", 1e-3)],
        "serve_wide": [("exec.native_execute_ms.wide", 1.0)],
        "gateway_hot": [("gateway.transport_overhead_ms", 1.0)],
    }.get(result["workload"], [])
    lines = [f"   {name} / latency_p50_ms = "
             f"{scale * value[name]:.4g} ms / {p50:.4g} ms = "
             f"{scale * value[name] / p50:.3f}" for name, scale in rows]
    jit = value["machine.sim_cycles.jit"]
    if jit:
        lines.extend(
            f"   jit_speedup_vs_{other} = {value[f'machine.sim_cycles.{other}']:.6g}"
            f" / {jit:.6g} cycles = "
            f"{value[f'machine.sim_cycles.{other}'] / jit:.3f}x"
            for other in ("aot", "mkl"))
    return lines


def driver_line(result: dict) -> str:
    """The one JSON object the driver reads: exactly these keys."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    })


def write_results(path: str, results: list[dict]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"results": results}, handle, indent=1)
        handle.write("\n")


def adopt_orphans() -> None:
    """Make this process the reaper of its whole process tree (Linux
    ``PR_SET_CHILD_SUBREAPER``): a grandchild that outlives its parent —
    the gateway's shared-memory resource tracker does, by a moment — is
    handed to this process instead of init, so ``reap_descendants`` can
    wait for it."""
    ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)


def reap_descendants(grace_s: float = 10.0) -> None:
    """Wait until every process this run started has ended; whatever is
    still alive after ``grace_s`` is killed and then waited for.  Call it
    last: it collects every child's exit status."""
    try:
        # this process's own resource tracker (the ladder's ShmRing
        # starts one) ends when its pipe closes
        from multiprocessing import resource_tracker
        resource_tracker._resource_tracker._stop()
    except (ImportError, AttributeError, OSError):
        pass
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:            # no child left
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            # again on every round: killing a child hands us its children
            for child in children_of(os.getpid()):
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


def children_of(parent: int) -> list[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:                      # exited while we looked
            continue
        if int(fields[1]) == parent:
            pids.append(int(entry))
    return pids


def main(argv: list[str] | None = None) -> int:
    adopt_orphans()
    try:
        return run(sys.argv[1:] if argv is None else argv)
    finally:
        reap_descendants()


def run(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("old")
        parser.add_argument("new")
        args = parser.parse_args(argv[1:])
        return compare(args.old, args.new)

    parser = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=spec.WORKLOAD_NAMES, default=None)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out",
                        default=os.path.join(OUT_DIR, "results.json"))
    args = parser.parse_args(argv)
    names = args.workload or list(spec.WORKLOAD_NAMES)

    if len(names) == 1:
        result = measure(names[0], args.seed, args.seconds, bool(args.trace))
        write_results(args.out, [result])
        print(render(result))
        print(driver_line(result))
        return 0 if result["correct"] else 1

    results = []
    status = 0
    for name in names:
        part = os.path.join(OUT_DIR, f"part_{name}.json")
        code = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", part]).returncode
        status = status or code
        if not os.path.exists(part):     # the child died before reporting
            continue
        with open(part) as handle:
            results.extend(json.load(handle)["results"])
        os.remove(part)
    write_results(args.out, results)
    return status


if __name__ == "__main__":
    raise SystemExit(main())

"""hw: the generated kernels timed on the host CPU, next to the simulator.

The paper's claim is a hardware one — a JIT kernel with ``d``, the
register plan and the operand addresses baked into the instruction
stream beats AOT code and MKL on a real AVX-512 core — and until the
host loader (:mod:`repro.exec.host`) existed this repo could only
reproduce it in simulation.  This experiment is the table that decides
what ``backend="native"`` is: for every dataset twin and ``d`` in
{1, 8, 16, 64} it times, on one thread over ``[0, m)``:

* ``jit`` — the paper's kernel: FMA, all five operand addresses baked;
* ``jit-exact`` — the served kernel: same code with ``X``/``Y`` as
  arguments and unfused multiply/add (bit-identical to
  ``spmm_reference``; see :mod:`repro.exec.host`);
* ``aot:gcc`` / ``aot:clang`` / ``aot:icc`` / ``mkl`` — the address-free
  templates through the same loader, reading a parameter block of real
  addresses;
* ``scipy`` — the ``csr_matvecs`` call plans without a host kernel
  answer with;
* anything the loader refuses (``aot:icc-avx512``: ``vgatherdps`` with
  an implicit mask) or this host cannot run, as ``skipped: <reason>``.

Every cell is the median and quartiles of at least five repeats, each
repeat a batch of calls long enough to time, and is checked against
``spmm_reference`` (``jit-exact`` and scipy to the bit, the fused
kernels to a tolerance, with the fused JIT's largest ulp distance
recorded).  Next to each hardware cell sits the simulated cycle count
of the same system on the same cell (one simulated thread), and per
matrix the Spearman rank agreement between the two: does the simulator
order (system, d) cells the way the silicon does?

The ``gil`` section is where :data:`repro.exec.host.GIL_RELEASE_NS`
comes from: every ``jit-exact`` cell is hammered by two closed-loop
threads with the GIL held and with it released, ordered by estimated
kernel time, so the crossover — and the least-squares fit behind
:func:`repro.exec.host.estimate_ns` — can be read off the artifact.

Writes ``BENCH_hw.json`` in the working directory.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.aot import abi
from repro.aot.mkl import MklKernel
from repro.bench.harness import BenchConfig, geometric_mean, render_table
from repro.core.codegen import JitCodegen
from repro.errors import HostUnsupported
from repro.exec import host
from repro.sparse.ops import spmm_reference

__all__ = ["HwResult", "load_paper_kernel", "run_hw"]

JSON_PATH = "BENCH_hw.json"
WIDTHS = (1, 8, 16, 64)
REPEATS = 5
#: one repeat is a batch of calls at least this long (or one call)
BATCH_SECONDS = 2e-3
#: closed-loop window per (cell, flavour) in the GIL section
GIL_WINDOW_SECONDS = 0.25

AOT_PERSONALITIES = ("gcc", "clang", "icc", "icc-avx512")
SYSTEMS = ("jit", "jit-exact", *(f"aot:{p}" for p in AOT_PERSONALITIES),
           "mkl", "scipy")
#: hardware system -> the registry system whose simulated cycles sit
#: next to it (``jit-exact`` and scipy have no simulated twin)
SIMULATED = {"jit": "jit", "mkl": "mkl",
             **{f"aot:{p}": f"aot:{p}" for p in AOT_PERSONALITIES}}


def _spread(samples: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                      if len(samples) > 1 else [samples[0]] * 3)
    return {"median_us": 1e6 * median, "q1_us": 1e6 * q1,
            "q3_us": 1e6 * q3, "repeats": len(samples)}


def _time(call) -> dict:
    """Per-call seconds over :data:`REPEATS` batches of ``call``."""
    call()                                          # warm caches, pages
    started = time.perf_counter()
    call()
    once = max(time.perf_counter() - started, 1e-7)
    batch = max(1, min(1000, int(BATCH_SECONDS / once)))
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(batch):
            call()
        samples.append((time.perf_counter() - started) / batch)
    return {**_spread(samples), "batch": batch}


def _max_ulp(y: np.ndarray, expected: np.ndarray) -> int:
    if not y.size:
        return 0
    return int(np.abs(y.view(np.int32).astype(np.int64)
                      - expected.view(np.int32).astype(np.int64)).max())


def _spearman(a: list[float], b: list[float]) -> float | None:
    """Spearman rank correlation (average ranks for ties)."""
    if len(a) < 3:
        return None

    def ranks(values):
        values = np.asarray(values, dtype=float)
        order = np.argsort(values, kind="stable")
        rank = np.empty(len(values))
        rank[order] = np.arange(len(values), dtype=float)
        for value in np.unique(values):
            tied = values == value
            rank[tied] = rank[tied].mean()
        return rank

    ra, rb = ranks(a), ranks(b)
    if ra.std() == 0 or rb.std() == 0:
        return None
    return float(np.corrcoef(ra, rb)[0, 1])


# ----------------------------------------------------------------------
# One cell's callables
# ----------------------------------------------------------------------
def load_paper_kernel(matrix, x, y) -> host.HostCode:
    """The paper's fully specialized kernel on this CPU: FMA, all five
    array addresses baked (``x`` / ``y`` pinned for the code's life).
    Run it with ``code.run(None, 0, m, None, None)``; it is ``allclose``
    to the reference, not bit-equal — hardware FMA rounds once."""
    spec, keep = host.jit_spec(
        matrix, x.shape[1], fused=True,
        x_addr=host._address(x), y_addr=host._address(y))
    return host.HostCode(JitCodegen(spec).build_range_kernel(),
                         keep=keep + (x, y))


def _param_block_call(program, spill_bytes: int, matrix, x, y):
    """Load an address-free template and bind it to real addresses."""
    indices = host._indices32(matrix)
    block = np.zeros(abi.PARAM_BLOCK_BYTES // 8, dtype=np.int64)
    next_row = np.zeros(1, dtype=np.int64)
    spill = np.zeros(max(spill_bytes, 8), dtype=np.uint8)
    code = host.HostCode(program, keep=(matrix, indices, x, y, block,
                                        next_row, spill))
    address = host._address
    for offset, value in (
            (abi.PARAM_ROW_PTR, address(matrix.row_ptr)),
            (abi.PARAM_COL_INDICES, address(indices)),
            (abi.PARAM_VALS, address(matrix.vals)),
            (abi.PARAM_X, address(x)), (abi.PARAM_Y, address(y)),
            (abi.PARAM_D, x.shape[1]), (abi.PARAM_M, matrix.nrows),
            (abi.PARAM_NEXT, address(next_row)),
            (abi.PARAM_BATCH, matrix.nrows or 1)):
        block[offset // 8] = value
    block_address, spill_address = address(block), address(spill)
    rows = matrix.nrows
    return lambda: code.run(block_address, 0, rows, None, spill_address)


def _templates(config: BenchConfig) -> dict:
    """system -> ``(program, spill_bytes)`` of every address-free
    template, compiled once for the whole grid."""
    out = {"mkl": (MklKernel(lanes=16).build(), 0)}
    for personality in AOT_PERSONALITIES:
        kernel = config.aot_kernel(personality)
        out[f"aot:{personality}"] = (kernel.program, kernel.spill_bytes)
    return out


def _cell_calls(templates: dict, matrix, x) -> dict:
    """system -> ``(call, result)`` or a :class:`HostUnsupported`.
    ``result()`` returns the array the last ``call()`` produced."""
    d = x.shape[1]
    rows = matrix.nrows
    out: dict = {}

    def attempt(system, build):
        try:
            out[system] = build()
        except HostUnsupported as error:
            out[system] = error

    def fused_jit():
        y = np.empty((rows, d), dtype=np.float32)
        code = load_paper_kernel(matrix, x, y)
        return (lambda: code.run(None, 0, rows, None, None)), (lambda: y)

    def served_jit():
        kernel = host.build_host_kernel(matrix, d)
        last = []

        def call():
            last[:] = [kernel(x)]
        return call, (lambda: last[0])

    def template(program, spill_bytes):
        def build():
            y = np.empty((rows, d), dtype=np.float32)
            return (_param_block_call(program, spill_bytes, matrix, x, y),
                    (lambda: y))
        return build

    attempt("jit", fused_jit)
    attempt("jit-exact", served_jit)
    for system, (program, spill_bytes) in templates.items():
        attempt(system, template(program, spill_bytes))
    handle = matrix.to_scipy()
    last = []

    def scipy_call():
        last[:] = [handle @ x]
    out["scipy"] = (scipy_call, (lambda: last[0]))
    return out


# ----------------------------------------------------------------------
# The GIL section
# ----------------------------------------------------------------------
def _closed_loop(kernel, x, threads: int) -> float:
    """Calls/s of ``threads`` closed-loop callers of one kernel."""
    stop = time.perf_counter() + GIL_WINDOW_SECONDS
    counts = [0] * threads

    def body(index: int) -> None:
        done = 0
        while time.perf_counter() < stop:
            kernel(x)
            done += 1
        counts[index] = done

    workers = [threading.Thread(target=body, args=(index,))
               for index in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return sum(counts) / GIL_WINDOW_SECONDS


def _gil_section(cells: list[tuple], medians: dict) -> dict:
    """Both calling flavours under two closed-loop threads, per cell."""
    threads = min(2, os.cpu_count() or 1)
    if threads < 2:
        return {"skipped": "one core: no thread can overlap a kernel"}
    rows = []
    for dataset, matrix, x in cells:
        d = x.shape[1]
        estimate = host.estimate_ns(matrix.nnz, d)
        ops = {}
        for flavour, release in (("held", False), ("released", True)):
            spec, keep = host.jit_spec(matrix, d)
            kernel = host.HostKernel(
                JitCodegen(spec).build_range_kernel(), shape=matrix.shape,
                d=d, keep=keep, release_gil=release, codegen_seconds=0.0)
            ops[flavour] = _closed_loop(kernel, x, threads)
        rows.append({
            "dataset": dataset, "d": d, "nnz": matrix.nnz,
            "estimate_ns": estimate,
            "kernel_us": medians[(dataset, d)],
            "held_ops_s": ops["held"], "released_ops_s": ops["released"],
            "released_over_held": ops["released"] / ops["held"],
            "releases": estimate > host.GIL_RELEASE_NS,
        })
    rows.sort(key=lambda row: row["estimate_ns"])
    # smallest estimate from which releasing never loses again
    crossover = None
    for row in reversed(rows):
        if row["released_over_held"] < 1.0:
            break
        crossover = row["estimate_ns"]
    # kernel time ~ a * nnz + b * nnz * d, the fit behind estimate_ns
    design = np.array([[row["nnz"], row["nnz"] * row["d"]] for row in rows],
                      dtype=float)
    observed = np.array([1e3 * row["kernel_us"] for row in rows])
    (per_nnz, per_madd), *_ = np.linalg.lstsq(design, observed, rcond=None)
    return {
        "threads": threads,
        "window_s": GIL_WINDOW_SECONDS,
        "threshold_ns": host.GIL_RELEASE_NS,
        "crossover_estimate_ns": crossover,
        # cells where the estimate picks the flavour that measured faster
        "estimate_picks_faster": sum(
            row["releases"] == (row["released_over_held"] > 1.0)
            for row in rows),
        "cells": len(rows),
        "fit_ns_per_nnz": float(per_nnz),
        "fit_ns_per_madd": float(per_madd),
        "estimate_ns_per_nnz": host.estimate_ns(1 << 20, 0) / (1 << 20),
        "estimate_ns_per_madd": (host.estimate_ns(1 << 20, 16)
                                 - host.estimate_ns(1 << 20, 0)) / (16 << 20),
        "rows": rows,
    }


# ----------------------------------------------------------------------
def _environment() -> dict:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], capture_output=True,
                              text=True, timeout=10).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD") or None
        if commit and git("status", "--porcelain", "--untracked-files=no"):
            commit += "+uncommitted"
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        isa = host.probe_isa().value
    except HostUnsupported as error:
        isa = f"unsupported: {error.reason}"
    import scipy

    return {"cpu": cpu, "isa": isa, "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "commit": commit}


@dataclass
class HwResult:
    config: BenchConfig
    env: dict
    #: one dict per (dataset, d, system)
    rows: list[dict]
    #: dataset -> Spearman(simulated cycles, hardware median) or None
    rank_agreement: dict
    gil: dict

    def _ratios(self, system: str, widths) -> list[tuple[float, float]]:
        """``(median ratio, pessimistic ratio)`` of scipy over
        ``system`` per cell — the pessimistic one puts scipy at its
        fastest quartile and ``system`` at its slowest."""
        by_cell = {(r["dataset"], r["d"], r["system"]): r
                   for r in self.rows if "median_us" in r}
        out = []
        for (dataset, d, name), row in by_cell.items():
            base = by_cell.get((dataset, d, "scipy"))
            if name == system and d in widths and base:
                out.append((base["median_us"] / row["median_us"],
                            base["q1_us"] / row["q3_us"]))
        return out

    def speedup_vs_scipy(self, system: str, widths=WIDTHS) -> dict:
        ratios = self._ratios(system, widths)
        return {"cells": len(ratios),
                "geomean": geometric_mean(r for r, _ in ratios),
                "geomean_pessimistic": geometric_mean(p for _, p in ratios)}

    def as_payload(self) -> dict:
        wide = tuple(d for d in WIDTHS if d >= 16)
        return {
            "experiment": "hw",
            "scale": self.config.scale,
            "widths": list(WIDTHS),
            "repeats": REPEATS,
            "env": self.env,
            "simulated": {"backend": "sim", "threads": 1, "split": "row",
                          "isa": "avx512"},
            "rows": self.rows,
            "rank_agreement": self.rank_agreement,
            "summary": {
                "speedup_vs_scipy": {
                    system: {f"d={d}": self.speedup_vs_scipy(system, (d,))
                             for d in WIDTHS}
                    for system in SYSTEMS
                    if system != "scipy" and self._ratios(system, WIDTHS)},
                "jit_exact_vs_scipy_d_ge_16": self.speedup_vs_scipy(
                    "jit-exact", wide),
                "jit_fused_max_ulp": max(
                    (r["max_ulp"] for r in self.rows
                     if r["system"] == "jit" and "max_ulp" in r), default=0),
                "rank_agreement_median": (
                    statistics.median(agreements)
                    if (agreements := [v for v in
                                       self.rank_agreement.values()
                                       if v is not None]) else None),
            },
            "gil": self.gil,
        }

    def render(self) -> str:
        cells: dict = {}
        for row in self.rows:
            cells.setdefault((row["dataset"], row["d"]), {})[
                row["system"]] = row
        table = []
        for (dataset, d), systems in cells.items():
            line = [dataset, str(d)]
            for system in SYSTEMS:
                row = systems.get(system, {})
                line.append(f"{row['median_us']:.1f}" if "median_us" in row
                            else "skip")
            table.append(line)
        wide = self.speedup_vs_scipy("jit-exact",
                                     tuple(d for d in WIDTHS if d >= 16))
        agreements = [f"{name}={value:.2f}" for name, value
                      in self.rank_agreement.items() if value is not None]
        title = (
            f"hw — median us per call on {self.env['cpu']} "
            f"({self.env['isa']}), one thread, {REPEATS} repeats.\n"
            f"jit-exact vs scipy at d>=16: {wide['geomean']:.2f}x "
            f"(pessimistic {wide['geomean_pessimistic']:.2f}x, "
            f"{wide['cells']} cells)\n"
            f"Spearman(simulated cycles, hardware): "
            f"{' '.join(agreements) or 'n/a'}\n"
            f"JSON written to {JSON_PATH}")
        return render_table(["dataset", "d", *SYSTEMS], table, title)


def run_hw(config: BenchConfig | None = None) -> HwResult:
    """Time every system on every (twin, d) cell; write the JSON."""
    config = config or BenchConfig()
    rows: list[dict] = []
    rank_agreement: dict = {}
    gil_cells = []
    served_medians: dict = {}
    templates = _templates(config)
    for dataset in config.datasets:
        matrix = config.matrix(dataset)
        simulated, measured = [], []
        for d in WIDTHS:
            x = config.dense(dataset, d)
            expected = spmm_reference(matrix, x)
            for system, built in _cell_calls(templates, matrix, x).items():
                row = {"dataset": dataset, "d": d, "system": system,
                       "nnz": matrix.nnz, "rows": matrix.nrows}
                rows.append(row)
                if isinstance(built, HostUnsupported):
                    row["skipped"] = f"{built.reason}: {built}"
                    continue
                call, result = built
                row.update(_time(call))
                y = result()
                exact = bool(np.array_equal(y, expected))
                row["bit_identical"] = exact
                row["correct"] = exact or bool(
                    np.allclose(y, expected, rtol=1e-4, atol=1e-4))
                if system == "jit":
                    row["max_ulp"] = _max_ulp(y, expected)
                if system == "jit-exact":
                    served_medians[(dataset, d)] = row["median_us"]
                    gil_cells.append((dataset, matrix, x))
                if system in SIMULATED:
                    cycles = config.run(
                        SIMULATED[system], dataset, d, split="row",
                        threads=1, backend="sim").counters.cycles
                    row["simulated_cycles"] = cycles
                    simulated.append(cycles)
                    measured.append(row["median_us"])
        rank_agreement[dataset] = _spearman(simulated, measured)
    gil = (_gil_section(gil_cells, served_medians) if gil_cells
           else {"skipped": "no cell ran generated code on this host"})
    result = HwResult(config=config, env=_environment(), rows=rows,
                      rank_agreement=rank_agreement, gil=gil)
    with open(JSON_PATH, "w") as handle:
        json.dump(result.as_payload(), handle, indent=2)
        handle.write("\n")
    return result

"""Feedback-directed search over the AOT optimization-pass lattice.

The replay simulator is fast enough (post record/replay vectorization)
to graduate from validation artifact to *cost oracle*: this module
closes the loop by compiling candidate :class:`~repro.aot.passes
.PassConfig` points, scoring each by simulated cycles on a downsampled
operand sample (:func:`repro.machine.replay.replay_cost`), and
returning the cheapest configuration that is *bit-identical* to the
personality's fixed-function baseline — an optimization that changes
f32 accumulation order is rejected outright, never special-cased.

Search shape: coordinate descent over three axes — the unroll factor
(register-pressure-filtered candidates), the cleanup passes
(fold/strength/dce as one coordinate), and the scheduler — starting
from the personality's level-2 default.  The fixed-function baseline
is always evaluated first and wins ties, so a search can never regress
below the personality's historical lowering on the sample.  Everything
is deterministic: a pinned sample seed, deterministic simulation, and
stable tie-breaks, so the same matrix and budget always produce the
same winning config.

Winning verdicts persist in the process-wide autotune memo
(:func:`repro.core.autotune.record_pass_verdict`), namespaced under
``("aot-passes", ...)`` keys — they therefore ride the existing
``export_autotune_memo`` / ``seed_autotune_memo`` gateway broadcast,
and a matrix searched by one serving worker is never re-searched by
its peers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.aot.compiler import (
    AotCompiler,
    CompilerPersonality,
    register_pools_for,
)
from repro.aot.passes import PassConfig, max_register_pressure
from repro.errors import CompileError
from repro.machine.replay import replay_cost
from repro.obs.metrics import get_registry
from repro.obs.trace import span as _span
from repro.sparse.csr import CsrMatrix

__all__ = ["PassChoice", "sample_operands", "search_passes",
           "unroll_candidates"]

#: downsample target: enough non-zeros for the cost ranking to transfer
#: to the full workload, small enough that a 16-candidate search costs
#: a fraction of one full-matrix simulated run
_SAMPLE_TARGET_NNZ = 4096
_SAMPLE_SEED = 0xA07
#: dense columns simulated per sample evaluation (capped: cycles scale
#: ~linearly in d, so ranking at a small d ranks the full problem)
_SAMPLE_MAX_D = 16
#: unroll factors the search may consider, before pressure filtering
_UNROLL_LATTICE = (1, 2, 4, 8)
#: estimated live values beyond the allocatable pool a candidate may
#: need before the pressure filter drops it (a few spills are routine —
#: the personalities' own defaults spill — but runaway pressure is not)
_SPILL_HEADROOM = 8


@dataclass(frozen=True)
class PassChoice:
    """One search's verdict (picklable — it rides the autotune memo).

    ``scores`` records every evaluated candidate in evaluation order as
    ``(ident, cycles)`` pairs; rejected candidates (compile failure or
    a bit-identity mismatch against the baseline) carry cycles -1.
    """

    personality: str
    config: PassConfig
    cycles: int
    baseline_cycles: int
    evaluated: int
    rejected: int
    scores: tuple = ()

    @property
    def reduction_pct(self) -> float:
        """Simulated-cycle reduction vs the fixed-function baseline."""
        if not self.baseline_cycles:
            return 0.0
        return 100.0 * (1.0 - self.cycles / self.baseline_cycles)

    def describe(self) -> str:
        lines = [f"{self.personality}: {self.config.ident()} "
                 f"({self.cycles:,} cycles on sample, "
                 f"{self.reduction_pct:+.1f}% vs fixed-function, "
                 f"{self.evaluated} candidates, {self.rejected} rejected)"]
        for ident, cycles in sorted(
                (s for s in self.scores if s[1] >= 0), key=lambda s: s[1]):
            lines.append(f"  {ident:28s} {cycles:12,} cycles")
        return "\n".join(lines)


def _resolve(personality: CompilerPersonality | str) -> CompilerPersonality:
    if isinstance(personality, str):
        return AotCompiler(personality).personality
    return personality


def unroll_candidates(
        personality: CompilerPersonality | str) -> tuple[int, ...]:
    """Register-pressure-aware unroll factors for one personality.

    Each lattice point's kernel is built and its peak live-value count
    per register class (:func:`~repro.aot.passes.max_register_pressure`)
    compared against the personality's allocatable pools plus a small
    spill headroom; factors that would drown the allocator in spills
    are dropped.  The personality's own default always survives.
    """
    personality = _resolve(personality)
    pools = register_pools_for(personality.isa)
    budget = {"int": len(pools.int_pool) + _SPILL_HEADROOM,
              "vec": len(pools.vec_pool) + _SPILL_HEADROOM}
    candidates = []
    for factor in _UNROLL_LATTICE:
        pressure = max_register_pressure(
            personality.kernel(PassConfig(unroll=factor)))
        if factor == personality.unroll or (
                pressure["int"] <= budget["int"]
                and pressure["vec"] <= budget["vec"]):
            candidates.append(factor)
    return tuple(candidates)


def sample_operands(matrix: CsrMatrix, d: int,
                    target_nnz: int = _SAMPLE_TARGET_NNZ):
    """A downsampled ``(matrix, x)`` pair for candidate scoring.

    Rows are taken at a fixed stride (preserving the row-length mix a
    contiguous prefix would bias), keeping the full column space so
    gather/cache behavior stays representative; ``d`` is capped at
    ``_SAMPLE_MAX_D``.  The dense operand is seeded deterministically —
    sample identity is a pure function of the matrix and ``d``.
    """
    d = max(1, min(int(d), _SAMPLE_MAX_D))
    row_ptr = matrix.row_ptr
    if matrix.nnz > target_nnz and matrix.nrows > 1:
        stride = max(1, -(-matrix.nnz // target_nnz))  # ceil div
        rows = np.arange(0, matrix.nrows, stride, dtype=np.int64)
        counts = row_ptr[rows + 1] - row_ptr[rows]
        new_row_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=new_row_ptr[1:])
        take = np.concatenate(
            [np.arange(row_ptr[r], row_ptr[r + 1]) for r in rows]
        ) if len(rows) else np.zeros(0, dtype=np.int64)
        sampled = CsrMatrix.from_arrays(
            len(rows), matrix.ncols, new_row_ptr,
            matrix.col_indices[take], matrix.vals[take],
            name=f"{matrix.name or 'matrix'}-sample")
    else:
        sampled = matrix
    rng = np.random.default_rng(_SAMPLE_SEED)
    x = rng.standard_normal((matrix.ncols, d), dtype=np.float32)
    return sampled, x


def _evaluate(personality: CompilerPersonality, config: PassConfig,
              sampled: CsrMatrix, x, l1, l2):
    """Compile one candidate and run it on the sample; returns
    ``(cycles, y)``.  Import of the pipeline is local: the api package
    imports this module's siblings at registry time."""
    from repro.api import get_system

    compiled = AotCompiler(personality).compile_spmm(passes=config)
    artifact = get_system(f"aot:{personality.name}").prepare(
        split="row", threads=1, dynamic=False, backend="sim",
        l1=l1, l2=l2, kernel=compiled)
    plan = artifact.bind(sampled, x)
    counters = replay_cost(plan.operands.memory, plan._thread_specs(),
                           l1=l1, l2=l2)
    return int(counters.cycles), plan.y_host.copy()


def search_passes(personality: CompilerPersonality | str,
                  matrix: CsrMatrix, d: int, *, budget: int = 16,
                  l1=None, l2=None, memo: bool = True) -> PassChoice:
    """Find the cheapest bit-identical :class:`PassConfig` for
    ``(personality, matrix, d)`` within ``budget`` compilations.

    Deterministic and never-regressing: the fixed-function baseline is
    candidate #0 and wins ties, so the returned config's sample cycles
    are always <= the baseline's.  With ``memo`` (default), verdicts
    are keyed by the matrix *content* fingerprint plus the cache
    geometry and reused process-wide (and fleet-wide, via the autotune
    memo broadcast).
    """
    # local import: repro.core.runner imports repro.aot, so a module-
    # level import of repro.core.autotune here would cycle
    from repro.core.autotune import lookup_pass_verdict, record_pass_verdict

    personality = _resolve(personality)
    if budget < 1:
        raise CompileError(f"search budget must be >= 1, got {budget}")
    key = (personality.name, matrix.fingerprint(), int(d),
           _geometry(l1), _geometry(l2))
    if memo:
        cached = lookup_pass_verdict(key)
        if cached is not None:
            return cached
    registry = get_registry()
    with _span("aot.search", personality=personality.name, d=int(d),
               budget=budget):
        sampled, x = sample_operands(matrix, d)
        order: list[tuple[str, int]] = []
        seen: dict[PassConfig, int | None] = {}
        state = {"baseline_y": None, "rejected": 0}

        def evaluate(config: PassConfig):
            if config in seen:
                return seen[config]
            if len(seen) >= budget:
                return None
            registry.counter("aot_search_iterations_total",
                             personality=personality.name).inc()
            with _span("aot.search.candidate", config=config.ident()):
                try:
                    cycles, y = _evaluate(personality, config, sampled, x,
                                          l1, l2)
                except CompileError:
                    cycles = y = None
                if y is not None and state["baseline_y"] is None:
                    state["baseline_y"] = y
                elif y is not None and not np.array_equal(
                        y, state["baseline_y"], equal_nan=True):
                    # bit-identity conformance gate: accumulation-order
                    # (or worse) changes are rejected, not tolerated
                    cycles = None
                if cycles is None:
                    state["rejected"] += 1
                seen[config] = cycles
                order.append((config.ident(),
                              -1 if cycles is None else cycles))
            return cycles

        baseline = personality.pass_config(0)
        baseline_cycles = evaluate(baseline)
        if baseline_cycles is None:
            raise CompileError(
                f"fixed-function baseline failed to compile or run for "
                f"personality {personality.name!r}")
        current = personality.pass_config(2)
        evaluate(current)
        improved = True
        while improved and len(seen) < budget:
            improved = False
            for axis in range(2):
                best_cfg = current
                best = seen.get(current)
                for candidate in _axis_points(current, axis, personality):
                    score = evaluate(candidate)
                    if score is not None and (best is None or score < best):
                        best, best_cfg = score, candidate
                if best_cfg != current:
                    current, improved = best_cfg, True
        # the winner is the cheapest *valid* candidate; ties go to the
        # earliest-evaluated (the baseline, then the level-2 default)
        winner_cfg, winner_cycles = baseline, baseline_cycles
        for config, cycles in seen.items():
            if cycles is not None and cycles < winner_cycles:
                winner_cfg, winner_cycles = config, cycles
        choice = PassChoice(
            personality=personality.name, config=winner_cfg,
            cycles=winner_cycles, baseline_cycles=baseline_cycles,
            evaluated=len(seen), rejected=state["rejected"],
            scores=tuple(order))
    if memo:
        record_pass_verdict(key, choice)
    return choice


def _axis_points(current: PassConfig, axis: int,
                 personality: CompilerPersonality):
    """Candidate configs along one coordinate-descent axis."""
    if axis == 0:
        return tuple(replace(current, unroll=u)
                     for u in unroll_candidates(personality)
                     if u != current.unroll)
    points = []
    for level in (0, 1, 2):
        candidate = current.at_level(level)
        if candidate != current:
            points.append(candidate)
    return tuple(points)


def _geometry(cache_config) -> tuple | None:
    """A hashable identity for a cache-geometry override (or None)."""
    if cache_config is None:
        return None
    return (getattr(cache_config, "size_bytes", None),
            getattr(cache_config, "line_bytes", None),
            getattr(cache_config, "ways", None))

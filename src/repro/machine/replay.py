"""Record/replay timing engine for the cycle-accurate simulator.

The per-access reference path (``sim-ref``) interleaves *functional*
execution with *timing* interpretation: every retired instruction pays
an ``OrderedDict`` LRU touch per memory line, a predictor table update
per branch, and a ``PipelineModel.issue`` call.  That per-event Python
dispatch dominates cycle-accurate runs — exactly the interpretation
overhead the paper's specialize-don't-interpret thesis removes from
SpMM itself.

This module applies the same split to the timing half of the machine:

* **record** — execution emits a compact columnar trace: contiguous pc
  ranges (*units*, one per superblock chunk or stepped instruction),
  effective addresses in event order, and packed conditional-branch
  outcomes.  Recording is a handful of list appends per unit/event; no
  model code runs in the hot loop.
* **replay** — :meth:`ReplayEngine.flush` consumes the columns in
  batch: the address vector is classified by the array-based LRU
  engine (:class:`~repro.machine.cache.VectorCacheHierarchy`), branch
  outcomes run through the inlined predictor sweep
  (:func:`~repro.machine.branch.replay_outcomes`), and the dependency
  scoreboard replays each unit through a compiled straight-line
  function (:class:`~repro.machine.pipeline.ScoreboardReplay`).

Fidelity contract: every :class:`~repro.machine.counters.Counters`
field — hits, misses, branch misses, cycles — is bit-identical to the
reference models, because the cache/predictor state machines are exact
and the scoreboard replay performs the reference's float operations in
the reference's order.  Flushes may happen at any instruction boundary
(quantum turns, buffer pressure, faults) without changing results; on
a fault mid-trace the completed prefix is replayed before the error
propagates, leaving counter state identical to stepping.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import MachineError
from repro.machine.branch import BranchPredictor, replay_outcomes
from repro.machine.cache import (
    CacheConfig,
    L1_DEFAULT,
    L2_DEFAULT,
    VectorCacheHierarchy,
)
from repro.machine.counters import Counters
from repro.machine.pipeline import PipelineSpec, ReplayInsn, ScoreboardReplay

__all__ = ["ReplayEngine", "ReplayMeta", "TraceRecorder",
           "clear_flush_stats", "flush_stats", "replay_cost"]

#: replay (and clear) the trace once any column buffers this many
#: entries, bounding recorder memory for long runs — memory events and
#: units are checked separately, so a load/store-free instruction
#: stream (which grows ``units`` but never ``addrs``) is bounded too
FLUSH_EVENT_LIMIT = 1 << 20

#: process-wide per-unit statics, keyed by
#: ``(program fingerprint, pipeline spec, start, stop)``: the event-size
#: column and the compiled scoreboard builder.  Every execute builds
#: fresh CPUs (cold caches, the measurement contract), so without this
#: cache each run would re-emit and re-hash the generated source for
#: every distinct trace-unit shape.  Fingerprint-keyed entries would
#: otherwise accumulate forever in a long-lived serving process that
#: profiles a stream of distinct kernels, so the cache is dropped
#: wholesale past a cap — regeneration is cheap and correctness-free.
_UNIT_STATICS: dict = {}
_UNIT_STATICS_CAP = 65536

# process-wide flush accounting, exported through repro.obs as
# ``sim_replay_*_total``: how many record/replay flushes ran and how
# much trace volume (merged units, memory events, branches) they
# replayed.  One dict + one lock; flushes are rare relative to the
# instructions they cover, so the lock is off every hot path.
_FLUSH_LOCK = threading.Lock()
_FLUSH_STATS = {"flushes": 0, "replayed_units": 0,
                "replayed_events": 0, "replayed_branches": 0}


def flush_stats() -> dict:
    """A consistent snapshot of the process-wide flush counters."""
    with _FLUSH_LOCK:
        return dict(_FLUSH_STATS)


def clear_flush_stats() -> None:
    """Reset the flush counters (test isolation)."""
    with _FLUSH_LOCK:
        for key in _FLUSH_STATS:
            _FLUSH_STATS[key] = 0


def _count_flush(units: int, events: int, branches: int) -> None:
    with _FLUSH_LOCK:
        _FLUSH_STATS["flushes"] += 1
        _FLUSH_STATS["replayed_units"] += units
        _FLUSH_STATS["replayed_events"] += events
        _FLUSH_STATS["replayed_branches"] += branches


class TraceRecorder:
    """Columnar trace buffers for one simulated hardware thread.

    ``units`` holds ``(start, stop)`` pc ranges in execution order,
    ``addrs`` effective addresses in event order, and ``branches`` one
    ``(pc << 1) | taken`` word per executed conditional branch.  The
    recording closures capture the bound ``append`` methods, so the
    lists are cleared in place, never replaced.
    """

    __slots__ = ("units", "addrs", "branches", "meta")

    def __init__(self) -> None:
        self.units: list[tuple[int, int]] = []
        self.addrs: list[int] = []
        self.branches: list[int] = []
        self.meta: ReplayMeta | None = None

    def pending(self) -> bool:
        return bool(self.units or self.addrs or self.branches)

    def clear(self) -> None:
        del self.units[:]
        del self.addrs[:]
        del self.branches[:]


class _UnitStatics:
    """Process-wide artifacts for one trace-unit shape."""

    __slots__ = ("sizes", "ev_count", "builder")

    def __init__(self, sizes: np.ndarray) -> None:
        self.sizes = sizes
        self.ev_count = int(sizes.size)
        self.builder = None  # scoreboard builder, compiled on first use


class _UnitInfo:
    """Per-CPU replay state for one trace unit: the shared statics plus
    the scoreboard function bound to this CPU's scoreboard state."""

    __slots__ = ("statics", "sizes", "ev_count", "fn")

    def __init__(self, statics: _UnitStatics) -> None:
        self.statics = statics
        self.sizes = statics.sizes
        self.ev_count = statics.ev_count
        self.fn = None


class ReplayMeta:
    """Per-(CPU, program) replay metadata: static :class:`ReplayInsn`
    records plus per-unit artifacts cached by pc range.  Event-size
    columns and compiled scoreboard builders are shared process-wide
    through :data:`_UNIT_STATICS`; only the binding of a builder to this
    CPU's scoreboard state is per instance."""

    def __init__(self, replay_insns: list[ReplayInsn],
                 scoreboard: ScoreboardReplay, fingerprint: str) -> None:
        self.replay_insns = replay_insns
        self.scoreboard = scoreboard
        self._statics_key = (fingerprint, scoreboard.spec)
        self._units: dict[tuple[int, int], _UnitInfo] = {}

    def unit(self, key: tuple[int, int]) -> _UnitInfo:
        info = self._units.get(key)
        if info is None:
            global_key = (self._statics_key, key)
            statics = _UNIT_STATICS.get(global_key)
            if statics is None:
                if len(_UNIT_STATICS) >= _UNIT_STATICS_CAP:
                    _UNIT_STATICS.clear()
                start, stop = key
                sizes = [size for insn in self.replay_insns[start:stop]
                         for size in insn.ev_sizes]
                statics = _UnitStatics(np.array(sizes, dtype=np.int64))
                _UNIT_STATICS[global_key] = statics
            info = _UnitInfo(statics)
            self._units[key] = info
        return info

    def unit_fn(self, key: tuple[int, int], info: _UnitInfo):
        fn = info.fn
        if fn is None:
            builder = info.statics.builder
            if builder is None:
                start, stop = key
                builder = info.statics.builder = (
                    self.scoreboard.unit_builder(
                        self.replay_insns[start:stop]))
            fn = info.fn = self.scoreboard.bind_unit(builder)
        return fn


class ReplayEngine:
    """Record/replay timing state for one :class:`~repro.machine.Cpu`.

    Owns the trace recorder, the vectorized cache hierarchy, the
    scoreboard replayer, and references to the CPU's counters and
    branch predictor (whose state the replay advances exactly as
    per-instruction interpretation would).
    """

    def __init__(
        self,
        counters: Counters,
        predictor: BranchPredictor,
        spec: PipelineSpec | None = None,
        l1: CacheConfig | None = None,
        l2: CacheConfig | None = None,
    ) -> None:
        self.counters = counters
        self.predictor = predictor
        self.hierarchy = VectorCacheHierarchy(l1 or L1_DEFAULT,
                                              l2 or L2_DEFAULT)
        self.scoreboard = ScoreboardReplay(spec)
        self.scoreboard_enabled = True
        self.recorder = TraceRecorder()
        self._metas: dict[str, ReplayMeta] = {}

    # ------------------------------------------------------------------
    def begin(self, program, semantics) -> None:
        """Bind the recorder to ``program`` (flushing any pending trace
        recorded under a previously bound program)."""
        key = program.fingerprint()
        meta = self._metas.get(key)
        if meta is None:
            replay_insns = [sem.replay for sem in semantics.insns]
            if any(replay_insn is None for replay_insn in replay_insns):
                raise MachineError(
                    "program was compiled without replay metadata; "
                    "replay recording needs record-mode semantics")
            meta = ReplayMeta(replay_insns, self.scoreboard, key)
            self._metas[key] = meta
        if self.recorder.meta is not meta:
            if self.recorder.pending():
                self.flush()
            self.recorder.meta = meta

    def should_flush(self) -> bool:
        recorder = self.recorder
        return (len(recorder.addrs) >= FLUSH_EVENT_LIMIT
                or len(recorder.units) >= FLUSH_EVENT_LIMIT)

    @property
    def cycles(self) -> float:
        return self.scoreboard.cycles

    def reset_scoreboard(self) -> None:
        """Fresh pipeline clock (the replay analogue of building a new
        :class:`PipelineModel`); caches and predictor state stay warm."""
        self.scoreboard.reset()
        self.scoreboard_enabled = True

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Replay and clear the recorded trace.

        Safe at any instruction boundary: cache, predictor and
        scoreboard state carry over, counters accumulate.  Leftover
        addresses beyond the retired units' events are the completed
        lanes of a gather that faulted mid-instruction — the reference
        path touches the cache and level counters for those lanes but
        never retires the instruction, and the replay does the same.
        """
        recorder = self.recorder
        if not recorder.pending():
            return
        meta = recorder.meta
        units = recorder.units
        addrs = recorder.addrs
        counters = self.counters
        if units:
            # coalesce pc-adjacent units: a block and the next chunk (or
            # stepped residue) that followed it replay as one longer
            # straight-line function — replaying (a, b) then (b, c) is
            # definitionally the same per-instruction sequence as
            # (a, c), so merging is always safe and amortizes the
            # per-unit dispatch over real superblock lengths
            merged: list[tuple[int, int]] = []
            append = merged.append
            run_start, run_stop = units[0]
            for start, stop in units[1:]:
                if start == run_stop:
                    run_stop = stop
                else:
                    append((run_start, run_stop))
                    run_start, run_stop = start, stop
            append((run_start, run_stop))
            units = merged
        infos = [meta.unit(key) for key in units]
        sized = [info.sizes for info in infos if info.ev_count]
        expected = sum(info.ev_count for info in infos)
        levels_list: list = []
        lines_list: list = []
        if expected:
            sizes = np.concatenate(sized)
            addr_arr = np.array(addrs[:expected], dtype=np.int64)
            levels, tri = self.hierarchy.classify(addr_arr, sizes)
            self._count_levels(tri)
            levels_list = levels.tolist()
            lines_list = (addr_arr >> 6).tolist()
        if len(addrs) > expected:
            # completed lanes of a faulting gather: cache state and
            # level counters advance, nothing retires
            extra = np.array(addrs[expected:], dtype=np.int64)
            _, tri = self.hierarchy.classify(
                extra, np.full(extra.size, 4, dtype=np.int64))
            self._count_levels(tri)
        misses: list = []
        if recorder.branches:
            misses = replay_outcomes(self.predictor, recorder.branches)
            counters.branch_misses += sum(misses)
        if self.scoreboard_enabled and units:
            ei = bi = 0
            unit_fn = meta.unit_fn
            for key, info in zip(units, infos):
                fn = info.fn
                if fn is None:
                    fn = unit_fn(key, info)
                ei, bi = fn(levels_list, lines_list, misses, ei, bi)
            if ei != expected or bi != len(misses):
                raise MachineError(
                    "replay cursor mismatch: the trace columns do not "
                    "line up with the recorded units")
        _count_flush(len(units), len(addrs), len(recorder.branches))
        recorder.clear()

    def _count_levels(self, tri: np.ndarray) -> None:
        counters = self.counters
        counters.l1_hits += int(tri[0])
        counters.l1_misses += int(tri[1] + tri[2])
        counters.l2_hits += int(tri[1])
        counters.l2_misses += int(tri[2])


# ----------------------------------------------------------------------
# Cost-oracle entry point
# ----------------------------------------------------------------------
def replay_cost(memory, thread_specs, *, l1=None, l2=None,
                max_instructions=None):
    """Score one instruction stream by simulated cycles (cost oracle).

    The feedback-directed codegen search (:mod:`repro.aot.search`)
    compiles many candidate kernels and needs a cheap, deterministic
    fitness function; this is it: one cold-state run of
    ``thread_specs`` against ``memory`` on the record/replay engine,
    returning the merged :class:`~repro.machine.counters.Counters`
    (``.cycles`` is the score; the functional results land in the
    mapped operand segments for conformance checking).  Imports stay
    local — :mod:`repro.machine.cpu` imports this module, so a
    module-level import would cycle.
    """
    from repro.machine.cpu import CpuConfig
    from repro.machine.smp import Machine

    overrides = {}
    if max_instructions is not None:
        overrides["max_instructions"] = max_instructions
    machine = Machine(memory, CpuConfig(timing=True, engine="replay",
                                        l1=l1, l2=l2, **overrides))
    merged, _ = machine.run(list(thread_specs))
    return merged

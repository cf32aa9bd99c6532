"""Tests for the execution-backend layer (`repro.exec`).

The heart of this file is the simulator conformance contract: the
trace-replay backend (``sim``, alias ``sim-fused``) must be bit-identical to
the per-access reference (``sim-ref``) on *every* counter field —
cycles and cache levels included — across every registered system,
across dynamic-dispatch races, per thread — while the backend axis
stays selectable from every entry point (``repro.run``, ``JitSpMM``,
``SpmmService``, ``run_jit``/``run_aot``/``run_mkl``).
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core.runner import run_aot, run_jit, run_mkl
from repro.datasets import load
from repro.errors import ExecutionLimitExceeded, RegistryError, ShapeError
from repro.exec import (Executor, backend_capabilities, canonical_name,
                        get_backend)
from repro.serve import SpmmService

_TWINS = ("uk-2005", "GAP-urand")

#: aliases resolve to the same instances; test canonical spellings once
_CANONICAL = [name for name in repro.available_systems()
              if repro.get_system(name).name == name]


@pytest.fixture(scope="module")
def twins():
    return {name: load(name, scale=2.0 ** -21, seed=7) for name in _TWINS}


def _dense(matrix, d=16, seed=99):
    rng = np.random.default_rng(seed)
    return rng.random((matrix.ncols, d), dtype=np.float32)


def _counter_dicts(result):
    return (result.counters.as_dict(),
            [c.as_dict() for c in result.per_thread])


class TestRegistry:
    def test_builtin_backends_available(self):
        names = repro.available_backends()
        for required in ("native", "counts", "sim", "sim-fused", "sim-ref"):
            assert required in names

    def test_aliases_resolve_to_canonical(self):
        assert (canonical_name("sim-fused") == canonical_name("fused")
                == "sim")
        assert get_backend("fused") is get_backend("sim")
        assert get_backend("numpy").name == "native"

    def test_unknown_backend_raises(self):
        with pytest.raises(RegistryError, match="unknown execution backend"):
            get_backend("gpu")

    def test_capability_matrix(self):
        matrix = backend_capabilities()
        assert matrix["native"] == {"result": True, "counters": False,
                                    "cycles": False}
        assert matrix["counts"] == {"result": True, "counters": True,
                                    "cycles": False}
        assert matrix["sim"] == {"result": True, "counters": True,
                                 "cycles": True}
        assert matrix["sim-ref"] == {"result": True, "counters": True,
                                     "cycles": True}
        # aliases are spellings, not backends
        assert set(matrix) == {"native", "counts", "sim", "sim-ref"}

    def test_first_resolution_racing_another_sees_the_builtins(self):
        """Regression: the load flag was raised before the built-ins'
        import finished, so a second thread resolving a name during the
        first one's import found an empty registry."""
        script = """
import threading
from repro.exec.backend import canonical_name
barrier = threading.Barrier(8)
names = []
def first_use():
    barrier.wait(timeout=30)
    names.append(canonical_name("counts"))
threads = [threading.Thread(target=first_use) for _ in range(8)]
for thread in threads: thread.start()
for thread in threads: thread.join(timeout=60)
assert names == ["counts"] * 8, names
print("ok")
"""
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"

    def test_native_needs_no_kernel(self):
        assert get_backend("native").requires_kernel is False
        assert get_backend("sim").requires_kernel is True

    def test_alias_cannot_shadow_a_canonical_backend(self):
        """Regression: an alias colliding with a builtin name used to
        silently hijack it for every resolver."""
        class Hijack(Executor):
            def execute(self, plan):
                raise NotImplementedError

        with pytest.raises(RegistryError, match="shadow"):
            repro.register_backend("turbo", Hijack(), aliases=("sim",))
        # the builtin is untouched either way
        assert get_backend("sim").provides_cycles

    def test_nameless_third_party_backend_gets_its_registry_name(self):
        """An executor that never sets `name` is still addressable and
        normalizes correctly through ExecutionConfig (regression: the
        config once normalized via executor.name, collapsing to '')."""
        class Anonymous(Executor):
            requires_kernel = False

            def execute(self, plan):
                raise NotImplementedError

        repro.register_backend("anon", Anonymous(), aliases=("anon-alias",))
        try:
            assert get_backend("anon").name == "anon"
            config = repro.ExecutionConfig(backend="anon-alias")
            assert config.backend == "anon"
        finally:
            from repro.exec import unregister_backend
            assert unregister_backend("anon")

    def test_third_party_backend_plugs_in(self, twins):
        class Recording(Executor):
            name = "recording"
            requires_kernel = False

            def execute(self, plan):
                result = get_backend("native").execute(plan)
                return dataclasses.replace(result, backend=self.name)

        repro.register_backend("recording", Recording())
        try:
            matrix = twins["uk-2005"]
            x = _dense(matrix)
            result = repro.run(matrix, x, system="jit", threads=2,
                               backend="recording")
            assert result.backend == "recording"
            assert np.array_equal(result.y, repro.spmm_reference(matrix, x))
        finally:
            from repro.exec import unregister_backend
            assert unregister_backend("recording")


class TestExecutionConfig:
    def test_backend_validated_and_normalized(self):
        config = repro.ExecutionConfig(backend="fused")
        assert config.backend == "sim"
        assert config.effective_backend == "sim"

    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(RegistryError):
            repro.ExecutionConfig(backend="warp-drive")

    def test_effective_backend_derives_from_timing(self):
        assert repro.ExecutionConfig(timing=True).effective_backend == "sim"
        assert repro.ExecutionConfig(
            timing=False).effective_backend == "counts"

    def test_explicit_backend_beats_timing(self):
        config = repro.ExecutionConfig(timing=True, backend="counts")
        assert config.effective_backend == "counts"

    def test_max_steps_validated(self):
        with pytest.raises(ShapeError, match="max_steps"):
            repro.ExecutionConfig(max_steps=0)


class TestBackendSelection:
    """Every backend, and the ``sim-fused`` alias of ``sim``, from every
    entry point (acceptance criterion)."""

    @pytest.mark.parametrize("backend", ["native", "counts", "sim",
                                         "sim-fused"])
    def test_repro_run(self, twins, backend):
        matrix = twins["uk-2005"]
        x = _dense(matrix)
        result = repro.run(matrix, x, system="jit", threads=3,
                           backend=backend)
        assert result.backend == canonical_name(backend)
        assert np.array_equal(result.y, repro.spmm_reference(matrix, x))
        if backend == "native":
            assert result.counters.instructions == 0
        else:
            assert result.counters.instructions > 0
        assert (result.counters.cycles > 0) == (backend in ("sim",
                                                            "sim-fused"))

    @pytest.mark.parametrize("backend", ["counts", "sim", "sim-fused"])
    def test_jitspmm(self, twins, backend):
        matrix = twins["GAP-urand"]
        x = _dense(matrix)
        engine = repro.JitSpMM(split="nnz", threads=2, backend=backend)
        result = engine.profile(matrix, x)
        assert result.backend == canonical_name(backend)
        assert np.array_equal(result.y, repro.spmm_reference(matrix, x))
        # multiply always serves on the native backend, no codegen
        assert np.array_equal(engine.multiply(matrix, x),
                              repro.spmm_reference(matrix, x))

    @pytest.mark.parametrize("backend", ["counts", "sim", "sim-fused"])
    def test_runner_shims(self, twins, backend):
        matrix = twins["uk-2005"]
        x = _dense(matrix)
        expected = repro.spmm_reference(matrix, x)
        for result in (
            run_jit(matrix, x, threads=2, backend=backend),
            run_aot(matrix, x, personality="gcc", threads=2,
                    backend=backend),
            run_mkl(matrix, x, threads=2, backend=backend),
        ):
            assert result.backend == canonical_name(backend)
            assert np.allclose(result.y, expected, atol=1e-4)

    @pytest.mark.parametrize("backend", ["counts", "sim", "sim-fused"])
    def test_service(self, twins, backend):
        matrix = twins["uk-2005"]
        x = _dense(matrix)
        service = SpmmService(threads=2, split="auto", backend=backend)
        handle = service.register(matrix, "t")
        result = service.profile(handle, x)
        assert result.backend == canonical_name(backend)
        assert np.array_equal(result.y, repro.spmm_reference(matrix, x))

    def test_bench_harness(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", str(2.0 ** -22))
        monkeypatch.setenv("REPRO_BENCH_DATASETS", "uk-2005")
        monkeypatch.setenv("REPRO_BENCH_THREADS", "2")
        from repro.bench.harness import BenchConfig

        config = BenchConfig()
        for backend in ("counts", "sim"):
            row = config.run("jit", "uk-2005", 16, backend=backend,
                             timing=backend == "sim")
            assert row.backend == backend
        # an alias spelling hits the canonical memo cell, not a rerun
        for alias in ("sim-fused", "fused"):
            assert config.run("jit", "uk-2005", 16, backend=alias,
                              timing=False) is row


class TestNativeAfterSimulatedRun:
    @pytest.mark.parametrize("system", _CANONICAL)
    def test_counts_then_native_on_one_plan(self, twins, system):
        # the simulated run attaches the system's kernel to the plan
        # (MKL's is a bare Program); the native run must still answer
        matrix = twins["uk-2005"]
        x = _dense(matrix, d=8)
        plan = repro.get_system(system).prepare(repro.ExecutionConfig(
            threads=2, split="row")).bind(matrix, x)
        plan.execute(backend="counts")
        result = plan.execute(backend="native")
        assert np.array_equal(result.y, repro.spmm_reference(matrix, x))
        assert result.program is not None

    @pytest.mark.parametrize("system", _CANONICAL)
    @pytest.mark.parametrize("backend", ["sim", "sim-ref"])
    def test_replay_then_native_on_one_plan(self, twins, system, backend):
        # the timing backends attach the same kernel the counts run does
        matrix = twins["GAP-urand"]
        x = _dense(matrix, d=8)
        plan = repro.get_system(system).prepare(repro.ExecutionConfig(
            threads=2, split="row")).bind(matrix, x)
        simulated = plan.execute(backend=backend)
        result = plan.execute(backend="native")
        assert np.array_equal(result.y, repro.spmm_reference(matrix, x))
        assert result.program is simulated.program

    @pytest.mark.parametrize("system", _CANONICAL)
    def test_native_then_counts_on_one_plan(self, twins, system):
        # the host run writes Y into the plan; a later simulated run on
        # the same plan must answer exactly as on a fresh one
        matrix = twins["uk-2005"]
        x = _dense(matrix, d=8)
        prepared = repro.get_system(system).prepare(repro.ExecutionConfig(
            threads=2, split="row"))
        plan = prepared.bind(matrix, x)
        native = plan.execute(backend="native")
        assert np.array_equal(native.y, repro.spmm_reference(matrix, x))
        counts = plan.execute(backend="counts")
        fresh = prepared.bind(matrix, x).execute(backend="counts")
        assert np.array_equal(counts.y, fresh.y)
        assert _counter_dicts(counts) == _counter_dicts(fresh)


class TestReplayConformance:
    """`sim` is bit-identical to the per-access reference (its alias
    spellings are swept in test_machine_replay's registry sweep)."""

    @pytest.mark.parametrize("dataset", _TWINS)
    @pytest.mark.parametrize("system", _CANONICAL)
    def test_bit_identical_to_ref_across_registry(self, twins, system,
                                                  dataset):
        matrix = twins[dataset]
        x = _dense(matrix)
        ref = repro.run(matrix, x, system=system, threads=3,
                        backend="sim-ref")
        replayed = repro.run(matrix, x, system=system, threads=3,
                             backend="sim")
        assert np.array_equal(ref.y, replayed.y)
        assert _counter_dicts(ref) == _counter_dicts(replayed)

    def test_event_counters_match_counts(self, twins):
        """Against the counts backend: every architectural event agrees;
        the timing model's own products (cycles, cache hit/miss levels)
        are extra on the replay side."""
        timing_model_fields = {"cycles", "l1_hits", "l1_misses",
                               "l2_hits", "l2_misses"}
        matrix = twins["uk-2005"]
        x = _dense(matrix)
        counts = repro.run(matrix, x, system="jit", threads=3,
                           backend="counts")
        sim = repro.run(matrix, x, system="jit", threads=3, backend="sim")
        assert np.array_equal(counts.y, sim.y)
        for merged_counts, merged_sim in zip(
                [counts.counters, *counts.per_thread],
                [sim.counters, *sim.per_thread]):
            a, b = merged_counts.as_dict(), merged_sim.as_dict()
            assert a["cycles"] == 0 and b["cycles"] > 0
            for name in timing_model_fields:
                a.pop(name), b.pop(name)
            assert a == b

    @pytest.mark.parametrize("split,dynamic", [("row", True),
                                               ("row", False),
                                               ("merge", None)])
    def test_dispatch_races_are_reproduced(self, twins, split, dynamic):
        """The lock-xadd batch race resolves identically per thread:
        superblock scheduling preserves the exact interleaving, and the
        replayed timing agrees with per-access interpretation of the
        same interleaving."""
        matrix = twins["GAP-urand"]
        x = _dense(matrix, d=8)
        kwargs = dict(split=split, dynamic=dynamic, threads=4)
        ref = run_jit(matrix, x, backend="sim-ref", **kwargs)
        sim = run_jit(matrix, x, backend="sim", **kwargs)
        assert np.array_equal(ref.y, sim.y)
        assert _counter_dicts(ref) == _counter_dicts(sim)

    def test_warmup_measures_the_warm_run(self, twins):
        """warmup=True warms caches/predictors through the replay
        engine exactly as the reference path does."""
        matrix = twins["uk-2005"]
        x = _dense(matrix)
        ref = run_jit(matrix, x, split="nnz", threads=2,
                      backend="sim-ref", warmup=True)
        warm = run_jit(matrix, x, split="nnz", threads=2,
                       backend="sim", warmup=True)
        assert _counter_dicts(ref) == _counter_dicts(warm)


class TestMaxSteps:
    def test_limit_threads_through_config(self, twins):
        matrix = twins["uk-2005"]
        x = _dense(matrix)
        with pytest.raises(ExecutionLimitExceeded) as excinfo:
            repro.run(matrix, x, system="jit", threads=2, timing=False,
                      max_steps=50)
        message = str(excinfo.value)
        assert "50" in message          # the limit
        assert "thread" in message      # the owning thread
        assert "jit" in message         # its name prefix

    @pytest.mark.parametrize("backend", ["counts", "sim-fused"])
    def test_limit_is_backend_independent(self, twins, backend):
        matrix = twins["uk-2005"]
        x = _dense(matrix)
        with pytest.raises(ExecutionLimitExceeded):
            repro.run(matrix, x, system="jit", threads=2, backend=backend,
                      max_steps=50)

    def test_generous_limit_passes(self, twins):
        matrix = twins["uk-2005"]
        x = _dense(matrix)
        result = repro.run(matrix, x, system="jit", threads=2,
                           backend="sim", max_steps=10_000_000)
        assert np.array_equal(result.y, repro.spmm_reference(matrix, x))


class TestServiceBackendTraffic:
    def test_traffic_is_attributed_per_backend(self, twins):
        matrix = twins["uk-2005"]
        x = _dense(matrix)
        service = SpmmService(threads=2, split="auto", timing=False)
        handle = service.register(matrix, "traffic")
        service.multiply(handle, x)
        service.multiply(handle, x)
        service.profile(handle, x)                        # counts default
        service.profile(handle, x, backend="sim")         # explicit
        service.profile(handle, x, backend="sim-fused")   # alias: same bucket
        service.profile(handle, x, timing=True)           # legacy boolean
        traffic = service.stats.backend_traffic
        assert traffic == {"native": 2, "counts": 1, "sim": 3}
        report = service.report()
        assert "traffic by backend" in report
        assert "sim=3" in report

    def test_profile_rejects_counterless_backends(self, twins):
        """profile() promises counters; a backend that produces none
        (native) is rejected rather than returning zeros."""
        matrix = twins["uk-2005"]
        x = _dense(matrix)
        service = SpmmService(threads=2, split="row", backend="native")
        handle = service.register(matrix)
        assert np.array_equal(service.multiply(handle, x),
                              repro.spmm_reference(matrix, x))
        with pytest.raises(ShapeError, match="counters"):
            service.profile(handle, x)
        other = SpmmService(threads=2, split="row")
        with pytest.raises(ShapeError, match="counters"):
            other.profile(other.register(matrix), x, backend="native")

    def test_constructor_backend_is_the_profile_default(self, twins):
        matrix = twins["uk-2005"]
        x = _dense(matrix)
        service = SpmmService(threads=2, split="row", backend="sim-ref")
        handle = service.register(matrix)
        result = service.profile(handle, x)
        assert result.backend == "sim-ref"
        assert service.stats.backend_traffic == {"sim-ref": 1}

"""Tests for the system registry and its built-in registrations."""

import numpy as np
import pytest

import repro
from repro.api import available_systems, get_system, register, unregister
from repro.api.pipeline import System
from repro.api.systems import AotSystem, JitSystem, MklSystem
from repro.errors import CompileError, RegistryError
from tests.conftest import random_csr


class TestBuiltins:
    def test_builtin_names_resolve(self):
        assert isinstance(get_system("jit"), JitSystem)
        assert isinstance(get_system("mkl"), MklSystem)
        for p in ("gcc", "clang", "icc", "icc-avx512"):
            assert isinstance(get_system(f"aot:{p}"), AotSystem)

    def test_aliases_share_the_instance(self):
        assert get_system("gcc") is get_system("aot:gcc")
        assert get_system("icc-avx512") is get_system("aot:icc-avx512")

    def test_resolution_is_singleton(self):
        assert get_system("jit") is get_system("jit")

    def test_available_systems_lists_builtins(self):
        names = available_systems()
        for expected in ("jit", "mkl", "aot:gcc", "aot:icc-avx512", "gcc"):
            assert expected in names

    def test_unknown_name_raises(self):
        with pytest.raises(RegistryError, match="unknown system"):
            get_system("fortran")

    def test_unknown_aot_personality_raises_compile_error(self):
        with pytest.raises(CompileError):
            get_system("aot:tcc")

    def test_lazy_mkl_lane_variant(self):
        system = get_system("mkl:8")
        assert isinstance(system, MklSystem) and system.lanes == 8
        assert system is get_system("mkl:8")  # registered after first use

    def test_system_flags(self):
        assert get_system("jit").supports_autotune
        assert not get_system("jit").address_free
        assert get_system("mkl").address_free
        assert get_system("aot:gcc").address_free


class _Doubler(System):
    """Toy system: Y = 2 * (A @ X), computed host-side (test-only)."""

    name = "test-doubler"
    address_free = True

    def prepare_key(self, config):
        from repro.serve.cache import KernelKey
        return KernelKey(kind="test", variant="doubler")

    def bind(self, artifact, matrix, x, name_prefix=None):
        from repro.api.pipeline import BoundPlan
        from repro.core.split import partition

        plan = BoundPlan(
            artifact, matrix, key=self.prepare_key(artifact.config),
            split=artifact.config.split,
            partitions=partition(matrix, artifact.config.threads,
                                 artifact.config.split),
            ranges=[(0, matrix.nrows)], name_prefix=name_prefix)
        plan.execute = lambda timing=None: self._run(plan, x)  # type: ignore
        return plan

    def _run(self, plan, x):
        from repro.core.runner import RunResult
        from repro.machine import Counters
        from repro.sparse.ops import spmm_reference

        return RunResult(
            y=2.0 * spmm_reference(plan.matrix, x), counters=Counters(),
            per_thread=[], program=None, system=self.name,
            split=plan.split, threads=plan.threads)

    def build_kernel(self, plan):
        return object(), 0.0

    def kernel_nbytes(self, kernel):
        return 0


class TestOpenRegistry:
    def test_register_and_run_custom_system(self, rng):
        register("test-doubler", _Doubler())
        try:
            matrix = random_csr(rng, 20, 15)
            x = rng.random((15, 4)).astype(np.float32)
            result = repro.run(matrix, x, system="test-doubler", threads=2)
            from repro.sparse.ops import spmm_reference
            assert np.allclose(result.y, 2.0 * spmm_reference(matrix, x),
                               atol=1e-5)
            assert result.system == "test-doubler"
        finally:
            unregister("test-doubler")
        with pytest.raises(RegistryError):
            get_system("test-doubler")

    def test_service_serves_a_plan_with_no_host_buffers(self, rng):
        # a third-party plan that keeps neither X nor Y host-side (so
        # ``plan.d`` is undefined): the service works from the request's
        # own width, and with no host kernel of its own the plan answers
        # through the scipy template
        from repro.serve import SpmmService
        from repro.sparse.ops import spmm_reference
        register("test-doubler", _Doubler())
        try:
            matrix = random_csr(rng, 20, 15)
            x = rng.random((15, 4)).astype(np.float32)
            with SpmmService(threads=2, split="row",
                             system="test-doubler") as service:
                handle = service.register(matrix)
                for _ in range(2):
                    assert np.array_equal(service.multiply(handle, x),
                                          spmm_reference(matrix, x))
                assert service.kernel(handle, 4) is not None
                assert service.stats.codegen_runs == 1
        finally:
            unregister("test-doubler")

    def test_reregistration_replaces(self):
        first, second = _Doubler(), _Doubler()
        register("test-doubler", first)
        register("test-doubler", second)
        try:
            assert get_system("test-doubler") is second
        finally:
            unregister("test-doubler")

    def test_register_rejects_empty_name(self):
        with pytest.raises(RegistryError):
            register("", _Doubler())

"""Lazy operand binding: native-backend plans never map simulated memory.

``System.bind`` validates operands and partitions work; the simulated
address space materializes only when something reads it — kernel
identity resolution (JIT kernels bake mapped addresses) or a simulated
machine backend.  ``Memory.map_events`` counts every segment mapping
process-wide, so "a native run maps nothing" is directly observable.
"""

import numpy as np
import pytest

import repro
from repro.api import ExecutionConfig, get_system
from repro.datasets.generators import uniform_random
from repro.machine import Memory


@pytest.fixture(scope="module")
def problem():
    matrix = uniform_random(120, 900, seed=13)
    rng = np.random.default_rng(0)
    return matrix, rng.random((matrix.ncols, 8), dtype=np.float32)


def _map_delta(fn):
    before = Memory.map_events
    result = fn()
    return result, Memory.map_events - before


class TestNativeNeverMaps:
    @pytest.mark.parametrize("system", ["jit", "aot:gcc", "mkl"])
    def test_native_run_performs_zero_mappings(self, problem, system):
        matrix, x = problem
        result, mapped = _map_delta(lambda: repro.run(
            matrix, x, system=system, threads=2, backend="native"))
        assert mapped == 0
        assert np.allclose(result.y, repro.spmm_reference(matrix, x),
                           atol=1e-4)

    def test_bind_alone_performs_zero_mappings(self, problem):
        matrix, x = problem
        plan, mapped = _map_delta(lambda: get_system("jit").prepare(
            ExecutionConfig(threads=2, backend="native")).bind(matrix, x))
        assert mapped == 0
        assert not plan.mapped
        assert plan.kernel is None

    def test_refresh_and_multiply_stay_unmapped(self, problem):
        matrix, x = problem
        plan = get_system("jit").prepare(
            ExecutionConfig(threads=2, backend="native")).bind(matrix, x)
        _, mapped = _map_delta(lambda: (plan.refresh(x),
                                        plan.execute(),
                                        plan.multiply(x)))
        assert mapped == 0
        assert not plan.mapped


class TestMaterialization:
    def test_simulated_backend_materializes_on_demand(self, problem):
        matrix, x = problem
        plan = get_system("jit").prepare(
            ExecutionConfig(threads=2, backend="native")).bind(matrix, x)
        assert not plan.mapped
        result, mapped = _map_delta(lambda: plan.execute(backend="counts"))
        assert mapped > 0
        assert plan.mapped
        assert result.counters.instructions > 0
        assert np.array_equal(result.y, repro.spmm_reference(matrix, x))

    def test_key_resolution_materializes_jit_addresses(self, problem):
        matrix, x = problem
        plan = get_system("jit").prepare(
            ExecutionConfig(threads=2, backend="native")).bind(matrix, x)
        key = plan.key  # identity bakes mapped base addresses
        assert plan.mapped
        assert key == plan.key  # stable afterwards

    def test_refresh_before_materialization_is_visible_after(self, problem):
        """X written pre-mapping aliases the mapped segment: a later
        simulated run reads the refreshed values."""
        matrix, x = problem
        plan = get_system("jit").prepare(
            ExecutionConfig(threads=2, backend="native")).bind(matrix, x)
        x2 = x * 3.0
        plan.refresh(x2)
        result = plan.execute(backend="counts")
        assert np.array_equal(result.y, repro.spmm_reference(matrix, x2))

    def test_native_result_bit_equal_to_premapped_path(self, problem):
        """Lazy binding changes when mapping happens, never the result:
        a simulated run on a lazily-bound plan matches one bound the
        eager way (execute once, then reuse)."""
        matrix, x = problem
        lazy = get_system("jit").prepare(
            ExecutionConfig(threads=2)).bind(matrix, x)
        eager = get_system("jit").prepare(
            ExecutionConfig(threads=2)).bind(matrix, x)
        eager.operands  # force the mapping up front
        a = lazy.execute(backend="counts")
        b = eager.execute(backend="counts")
        assert np.array_equal(a.y, b.y)
        assert a.counters.as_dict() == b.counters.as_dict()

    @pytest.mark.parametrize("system", ["jit", "aot:gcc"])
    def test_native_writes_y_once_on_either_side_of_the_mapping(
            self, problem, system):
        """Unmapped, the native product *becomes* ``Y`` (no second copy);
        once the simulated segment aliases ``Y`` it is filled in place,
        so native and simulated runs keep sharing one buffer."""
        matrix, x = problem
        expected = repro.spmm_reference(matrix, x)
        plan = get_system(system).prepare(
            ExecutionConfig(threads=2, backend="native")).bind(matrix, x)
        first = plan.execute(backend="native")
        assert first.y is plan.y_host and not plan.mapped
        assert np.array_equal(first.y, expected)
        simulated = plan.execute(backend="counts")
        buffer = plan.y_host
        assert simulated.y is buffer
        assert np.array_equal(buffer, expected)
        plan.refresh(x * 2.0)
        again = plan.execute(backend="native")
        assert again.y is buffer and plan.y_host is buffer
        assert np.array_equal(buffer, repro.spmm_reference(matrix, x * 2.0))
        assert np.array_equal(plan.execute(backend="counts").y, buffer)

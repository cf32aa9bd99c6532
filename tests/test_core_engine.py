"""Tests for the JitSpMM engine and the runner."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import JitSpMM, multiply_partitioned
from repro.core.runner import run_jit
from repro.core.split import partition
from repro.errors import ShapeError
from repro.sparse import CsrMatrix, spmm_reference
from tests.conftest import random_csr


class TestMultiplyFastPath:
    @pytest.mark.parametrize("split", ["row", "nnz", "merge"])
    def test_matches_reference(self, rng, split):
        matrix = random_csr(rng, 50, 40)
        x = rng.random((40, 9)).astype(np.float32)
        engine = JitSpMM(split=split, threads=4)
        assert np.allclose(engine.multiply(matrix, x),
                           spmm_reference(matrix, x), atol=1e-4)

    def test_shape_errors(self, rng):
        matrix = random_csr(rng, 10, 10)
        engine = JitSpMM()
        with pytest.raises(ShapeError):
            engine.multiply(matrix, rng.random((11, 3)).astype(np.float32))
        with pytest.raises(ShapeError):
            engine.multiply(matrix, rng.random(10).astype(np.float32))

    def test_bad_config(self):
        with pytest.raises(ShapeError):
            JitSpMM(threads=0)
        with pytest.raises(ShapeError):
            JitSpMM(split="nnz", dynamic=True)

    def test_empty_matrix(self):
        matrix = CsrMatrix.from_dense(np.zeros((8, 8), dtype=np.float32))
        x = np.ones((8, 4), dtype=np.float32)
        assert np.all(JitSpMM(threads=2).multiply(matrix, x) == 0)


class TestProfileSimulatedPath:
    @pytest.mark.parametrize("split,dynamic", [
        ("row", True), ("row", False), ("nnz", False), ("merge", False),
    ])
    def test_simulated_result_correct(self, rng, split, dynamic):
        matrix = random_csr(rng, 40, 30, density=0.15)
        x = rng.random((30, 16)).astype(np.float32)
        engine = JitSpMM(split=split, threads=3, dynamic=dynamic, timing=False)
        result = engine.profile(matrix, x)
        assert np.allclose(result.y, spmm_reference(matrix, x), atol=1e-3)
        assert result.counters.instructions > 0
        assert result.codegen_seconds > 0

    def test_result_independent_of_thread_count(self, rng):
        matrix = random_csr(rng, 30, 30, density=0.2)
        x = rng.random((30, 8)).astype(np.float32)
        outputs = []
        for threads in (1, 2, 5):
            engine = JitSpMM(threads=threads, timing=False)
            outputs.append(engine.profile(matrix, x).y.copy())
        assert np.array_equal(outputs[0], outputs[1])
        assert np.array_equal(outputs[1], outputs[2])

    def test_dynamic_processes_every_row_once(self, rng):
        # identity matrix: Y must equal X exactly; any double-processed
        # row would double its output values
        n = 70
        matrix = CsrMatrix.from_dense(np.eye(n, dtype=np.float32))
        x = rng.random((n, 4)).astype(np.float32)
        engine = JitSpMM(split="row", threads=4, batch=16, timing=False)
        result = engine.profile(matrix, x)
        assert np.allclose(result.y, x, atol=1e-6)
        assert result.counters.atomic_ops >= n // 16

    def test_per_thread_counters_sum(self, rng):
        matrix = random_csr(rng, 40, 30, density=0.15)
        x = rng.random((30, 8)).astype(np.float32)
        result = JitSpMM(threads=3, timing=False).profile(matrix, x)
        assert result.counters.instructions == sum(
            c.instructions for c in result.per_thread)

    def test_timing_mode_counts_match_counts_mode(self, rng):
        matrix = random_csr(rng, 25, 25, density=0.2)
        x = rng.random((25, 16)).astype(np.float32)
        fast = JitSpMM(threads=2, timing=False).profile(matrix, x).counters
        slow = JitSpMM(threads=2, timing=True).profile(matrix, x).counters
        for key in ("instructions", "memory_loads", "memory_stores",
                    "branches", "atomic_ops"):
            assert getattr(fast, key) == getattr(slow, key)
        assert slow.cycles > 0 and fast.cycles == 0

    def test_codegen_overhead_metric(self, rng):
        matrix = random_csr(rng, 30, 30, density=0.2)
        x = rng.random((30, 8)).astype(np.float32)
        result = JitSpMM(threads=2, timing=True).profile(matrix, x)
        assert 0 < result.codegen_overhead() < 1


class TestAutoSplit:
    def test_auto_multiply_matches_reference(self, rng):
        matrix = random_csr(rng, 50, 40)
        x = rng.random((40, 9)).astype(np.float32)
        engine = JitSpMM(split="auto", threads=4)
        assert np.allclose(engine.multiply(matrix, x),
                           spmm_reference(matrix, x), atol=1e-4)

    def test_auto_profile_matches_reference(self, rng):
        matrix = random_csr(rng, 40, 30, density=0.15)
        x = rng.random((30, 8)).astype(np.float32)
        result = JitSpMM(split="auto", threads=3, timing=False).profile(
            matrix, x)
        assert np.allclose(result.y, spmm_reference(matrix, x), atol=1e-3)

    def test_auto_resolves_via_tuner(self, rng):
        from repro.core.autotune import choose_split
        matrix = random_csr(rng, 40, 30)
        engine = JitSpMM(split="auto", threads=4)
        choice = choose_split(matrix, 8, 4, engine.isa)
        assert engine._resolve(matrix, 8) == (
            choice.split, choice.dynamic, choice.batch)

    def test_auto_rejects_explicit_dynamic(self):
        with pytest.raises(ShapeError):
            JitSpMM(split="auto", dynamic=True)
        with pytest.raises(ShapeError):
            JitSpMM(split="bogus")


class TestSharedCache:
    def test_profile_reuses_cached_kernel(self, rng):
        from repro.serve import KernelCache
        matrix = random_csr(rng, 30, 30, density=0.2)
        x = rng.random((30, 8)).astype(np.float32)
        engine = JitSpMM(threads=2, timing=False, cache=KernelCache())
        cold = engine.profile(matrix, x)
        warm = engine.profile(matrix, x)
        assert not cold.cache_hit and warm.cache_hit
        assert warm.program is cold.program
        assert warm.codegen_seconds == 0.0
        assert np.array_equal(cold.y, warm.y)


class TestInspection:
    def test_inspect_lists_assembly(self, rng):
        matrix = random_csr(rng, 10, 10)
        x = rng.random((10, 45)).astype(np.float32)
        listing = JitSpMM(threads=1).inspect(matrix, x)
        assert "vfmadd231ps" in listing
        assert "lock xadd" in listing  # row-split default is dynamic

    def test_plan_reports_tiles(self):
        engine = JitSpMM()
        tiles = engine.plan(45)
        assert len(tiles) == 1
        assert [p.lanes for p in tiles[0].layout.pieces] == [16, 16, 8, 4, 1]


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 3, 8, 16, 32, 45]),
    split=st.sampled_from(["row", "nnz", "merge"]),
)
def test_property_simulated_jit_equals_reference(seed, d, split):
    rng = np.random.default_rng(seed)
    matrix = random_csr(rng, 20, 15, density=0.25)
    x = rng.random((15, d)).astype(np.float32)
    result = run_jit(matrix, x, split=split, threads=2, timing=False)
    assert np.allclose(result.y, spmm_reference(matrix, x), atol=1e-3)


class TestFastCheckOperands:
    def test_wellformed_passthrough_no_copy(self, rng, small_csr):
        from repro.core.engine import fast_check_operands
        x = rng.random((small_csr.ncols, 8)).astype(np.float32)
        assert fast_check_operands(small_csr, x) is x

    def test_fallback_matches_full_check(self, rng, small_csr):
        from repro.core.engine import check_operands, fast_check_operands
        # float64 input: both paths coerce identically (fresh array)
        x64 = rng.random((small_csr.ncols, 8))
        assert np.array_equal(fast_check_operands(small_csr, x64),
                              check_operands(small_csr, x64))
        # non-contiguous input
        strided = np.asfortranarray(
            rng.random((small_csr.ncols, 8)).astype(np.float32))
        assert np.array_equal(fast_check_operands(small_csr, strided),
                              check_operands(small_csr, strided))

    def test_rejects_malformed_like_full_check(self, rng, small_csr):
        from repro.core.engine import fast_check_operands
        with pytest.raises(ShapeError):
            fast_check_operands(small_csr, rng.random((3, 3, 3)))
        with pytest.raises(ShapeError):
            fast_check_operands(
                small_csr,
                rng.random((small_csr.ncols + 1, 4)).astype(np.float32))
        with pytest.raises(ShapeError):
            fast_check_operands(
                small_csr, np.zeros((small_csr.ncols, 0), dtype=np.float32))

    def test_engine_multiply_accepts_lists(self, small_csr, rng):
        # the fallback keeps the legacy coercion behavior alive
        engine = JitSpMM(split="row", threads=2, timing=False)
        x = rng.random((small_csr.ncols, 4)).astype(np.float32)
        assert np.array_equal(engine.multiply(small_csr, x.tolist()),
                              engine.multiply(small_csr, x))


class TestRangeProductConformance:
    def test_scipy_and_numpy_paths_bit_identical(self, rng, monkeypatch):
        import repro.core.engine as engine_module
        if engine_module._scipy_sparse is None:
            pytest.skip("scipy unavailable; only one path exists")
        from repro.core.split import partition
        for trial in range(5):
            matrix = random_csr(rng, 30 + trial * 7, 25, density=0.3)
            x = (rng.standard_normal((25, 6)) * 100).astype(np.float32)
            ranges = partition(matrix, 3, "row")
            fast = multiply_partitioned(matrix, x, ranges)
            with monkeypatch.context() as patch:
                patch.setattr(engine_module, "_scipy_sparse", None)
                reference = multiply_partitioned(matrix, x, ranges)
            assert np.array_equal(fast, reference)

    def test_matches_spmm_reference(self, rng):
        from repro.sparse.ops import spmm_reference
        from repro.core.split import partition
        matrix = random_csr(rng, 40, 30, density=0.25)
        x = rng.random((30, 7)).astype(np.float32)
        full = [(0, matrix.nrows)]
        assert np.array_equal(multiply_partitioned(matrix, x, full),
                              spmm_reference(matrix, x))
        ranges = partition(matrix, 4, "merge")
        assert np.array_equal(multiply_partitioned(matrix, x, ranges),
                              spmm_reference(matrix, x))


KINDS = ("row", "nnz", "merge")


def _edge_matrix(kind: str) -> CsrMatrix:
    dense = {
        "0xn": np.zeros((0, 5)),
        "nx0": np.zeros((5, 0)),
        "empty-rows": np.zeros((6, 4)),
        "1x1": np.array([[2.5]]),
        "mixed": np.array([[0.0, 1.5, 0.0, -2.0],
                           [0.0, 0.0, 0.0, 0.0],
                           [3.0, 0.0, 1e-3, 0.0],
                           [0.0, 0.0, 0.0, 0.0],
                           [-1.0, 4.0, 0.5, 7.0]]),
    }[kind]
    return CsrMatrix.from_dense(dense.astype(np.float32), name=kind)


def _hostile_operand(rng, n: int, d: int) -> np.ndarray:
    """Finite noise salted with NaN, +/-Inf, a denormal and -0.0."""
    x = rng.standard_normal((n, d)).astype(np.float32)
    flat = x.reshape(-1)
    salt = np.array([np.nan, np.inf, -np.inf, 1e-42, -0.0],
                    dtype=np.float32)
    flat[:salt.size] = salt[:flat.size]
    rng.shuffle(flat)
    return x


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype == np.float32 and a.shape == b.shape
            and np.array_equal(np.ascontiguousarray(a).view(np.uint32),
                               np.ascontiguousarray(b).view(np.uint32)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestPreparedHostKernel:
    # d=1 is pinned on purpose: there scipy runs csr_matvec, a separate
    # routine from the csr_matvecs every other width takes
    @pytest.mark.parametrize("split", KINDS)
    @pytest.mark.parametrize("d", [1, 3, 16, 64])
    @pytest.mark.parametrize("kind", ["0xn", "nx0", "empty-rows", "1x1",
                                      "mixed"])
    def test_bits_match_reference_on_edge_shapes(self, rng, kind, d, split):
        matrix = _edge_matrix(kind)
        ranges = partition(matrix, 3, split)
        for x in (rng.standard_normal((matrix.ncols, d)).astype(np.float32),
                  _hostile_operand(rng, matrix.ncols, d)):
            assert _same_bits(multiply_partitioned(matrix, x, ranges),
                              spmm_reference(matrix, x))

    @pytest.mark.parametrize("d,count", [(1, 2), (1, 7), (3, 5), (16, 4)])
    def test_stacked_widths_bit_identical_per_request(self, rng, small_csr,
                                                      d, count):
        # columns accumulate independently, in the same non-zero order
        # whatever the operand width: a column block of one wide product
        # is the narrow product, bit for bit
        ranges = partition(small_csr, 3, "merge")
        xs = [_hostile_operand(rng, small_csr.ncols, d)
              for _ in range(count)]
        stacked = multiply_partitioned(small_csr, np.hstack(xs), ranges)
        for index, x in enumerate(xs):
            block = stacked[:, d * index:d * (index + 1)]
            assert _same_bits(block,
                              multiply_partitioned(small_csr, x, ranges))
            assert _same_bits(block, spmm_reference(small_csr, x))

    def test_one_scipy_handle_per_matrix(self, rng, monkeypatch):
        sp = pytest.importorskip("scipy.sparse")
        built = []
        real = sp.csr_matrix

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sp, "csr_matrix", counting)
        matrix = random_csr(rng, 30, 20)
        engine = JitSpMM(split="auto", threads=4)
        for d in (1, 3, 16, 64):
            x = rng.random((20, d)).astype(np.float32)
            for split in KINDS:
                ranges = partition(matrix, 4, split)
                for _ in range(3):
                    multiply_partitioned(matrix, x, ranges)
            assert _same_bits(engine.multiply(matrix, x),
                              spmm_reference(matrix, x))
        assert len(built) == 1
        assert matrix.to_scipy() is matrix.to_scipy()
        assert len(built) == 1

    def test_first_use_raced_from_eight_threads(self, rng):
        matrix = random_csr(rng, 60, 40)
        x = _hostile_operand(rng, 40, 8)
        ranges = partition(matrix, 8, "nnz")
        barrier = threading.Barrier(8)
        results = [None] * 8

        def worker(index: int) -> None:
            barrier.wait(timeout=30)
            results[index] = multiply_partitioned(matrix, x, ranges)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(index,))
                       for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = spmm_reference(matrix, x)
        assert all(_same_bits(y, expected) for y in results)

    @pytest.mark.parametrize("ranges", [
        [],                             # covers nothing
        [(0, 4), (4, 9)],               # stops short
        [(0, 4), (5, 10)],              # gap
        [(0, 6), (4, 10)],              # overlap
        [(4, 10), (0, 4)],              # out of order
        [(1, 10)],                      # does not start at row 0
        [(0, 4), (4, 11)],              # runs past the last row
        [(0, 12), (12, 10)],            # reversed range
    ])
    def test_ranges_that_do_not_tile_raise(self, rng, ranges):
        matrix = random_csr(rng, 10, 6)
        x = rng.random((6, 2)).astype(np.float32)
        with pytest.raises(ShapeError):
            multiply_partitioned(matrix, x, ranges)

    def test_empty_ranges_inside_a_tiling_are_fine(self, rng):
        matrix = random_csr(rng, 10, 6)
        x = rng.random((6, 2)).astype(np.float32)
        ranges = [(0, 0), (0, 7), (7, 7), (7, 10), (10, 10)]
        assert _same_bits(multiply_partitioned(matrix, x, ranges),
                          spmm_reference(matrix, x))

"""Tests for the feedback-directed pass search and its plumbing.

Covers: search determinism, the never-regress and bit-identity
contracts, memo persistence through the ``export_autotune_memo`` /
``seed_autotune_memo`` gateway path, the ``opt_level`` API surface end
to end, and the observability counters the search emits.
"""

import numpy as np
import pytest

from repro.aot.search import (
    sample_operands,
    search_passes,
    unroll_candidates,
)
from repro.api import ExecutionConfig, get_system
from repro.core.autotune import (
    clear_autotune_memo,
    export_autotune_memo,
    seed_autotune_memo,
    autotune_memo_stats,
)
from repro.errors import ShapeError
from repro.obs.metrics import get_registry
from tests.conftest import random_csr


@pytest.fixture(autouse=True)
def _clean_memo():
    clear_autotune_memo()
    yield
    clear_autotune_memo()


@pytest.fixture
def matrix(rng):
    return random_csr(rng, 80, 60, density=0.15, name="searchmat")


class TestUnrollCandidates:
    @pytest.mark.parametrize("name", ["gcc", "clang", "icc", "icc-avx512"])
    def test_lattice_filtered_by_pressure(self, name):
        candidates = unroll_candidates(name)
        assert candidates[0] == 1
        assert all(a < b for a, b in zip(candidates, candidates[1:]))

    def test_personality_default_always_survives(self):
        assert 4 in unroll_candidates("icc")  # icc's own default


class TestSampleOperands:
    def test_downsamples_large_matrices(self, rng):
        big = random_csr(rng, 2000, 100, density=0.1, name="big")
        sampled, x = sample_operands(big, 16)
        assert sampled.nnz < big.nnz
        assert sampled.ncols == big.ncols  # column space kept intact
        assert x.shape == (big.ncols, 16)

    def test_small_matrices_kept_whole(self, matrix):
        sampled, _ = sample_operands(matrix, 16)
        assert sampled is matrix

    def test_deterministic(self, rng):
        big = random_csr(rng, 2000, 100, density=0.1, name="big")
        one, x_one = sample_operands(big, 16)
        two, x_two = sample_operands(big, 16)
        assert one.fingerprint() == two.fingerprint()
        assert np.array_equal(x_one, x_two)

    def test_d_capped(self, matrix):
        _, x = sample_operands(matrix, 4096)
        assert x.shape[1] <= 16


class TestSearch:
    def test_never_regresses_and_is_deterministic(self, matrix):
        one = search_passes("gcc", matrix, 16, budget=8, memo=False)
        two = search_passes("gcc", matrix, 16, budget=8, memo=False)
        assert one.config == two.config
        assert one.scores == two.scores  # same candidates, same order
        assert one.cycles <= one.baseline_cycles

    def test_winner_is_bit_identical_end_to_end(self, matrix):
        choice = search_passes("gcc", matrix, 16, budget=8, memo=False)
        x = np.random.default_rng(5).standard_normal(
            (matrix.ncols, 16), dtype=np.float32)
        fixed = get_system("aot:gcc").prepare(
            split="row", threads=1, dynamic=False, backend="sim",
            opt_level=0).bind(matrix, x).execute().y
        searched = get_system("aot:gcc").prepare(
            split="row", threads=1, dynamic=False, backend="sim",
            opt_level=3, search_budget=8).bind(matrix, x).execute().y
        assert np.array_equal(fixed, searched, equal_nan=True)
        assert choice.cycles <= choice.baseline_cycles

    def test_budget_bounds_evaluations(self, matrix):
        choice = search_passes("gcc", matrix, 16, budget=3, memo=False)
        assert choice.evaluated <= 3

    def test_conformance_gate_rejects_reassociation(self, rng):
        # icc-avx512's unrolled vector strips shift nonzeros between
        # the vector main loop and the scalar remainder, changing f32
        # accumulation order — the gate must reject those candidates,
        # never accept-and-approximate
        skewed = random_csr(rng, 60, 80, density=0.35, name="skewed")
        choice = search_passes("icc-avx512", skewed, 16, budget=10,
                               memo=False)
        rejected = [ident for ident, cycles in choice.scores
                    if cycles < 0]
        assert rejected, "expected at least one rejected candidate"
        assert all(not ident.startswith("u1") for ident in rejected)
        assert choice.config.unroll == 1

    def test_scores_record_every_candidate(self, matrix):
        choice = search_passes("gcc", matrix, 16, budget=8, memo=False)
        assert len(choice.scores) == choice.evaluated
        assert choice.scores[0][1] == choice.baseline_cycles


class TestMemo:
    def test_verdict_memoized(self, matrix):
        first = search_passes("gcc", matrix, 16, budget=8)
        assert autotune_memo_stats()["pass_entries"] == 1
        second = search_passes("gcc", matrix, 16, budget=8)
        assert second is first  # memo hit returns the stored verdict

    def test_roundtrips_through_export_and_seed(self, matrix):
        first = search_passes("gcc", matrix, 16, budget=8)
        exported = export_autotune_memo()
        clear_autotune_memo()
        assert seed_autotune_memo(exported) >= 1
        counter = get_registry().counter("aot_search_iterations_total",
                                         personality="gcc")
        before = counter.value
        again = search_passes("gcc", matrix, 16, budget=8)
        assert counter.value == before  # no re-evaluation after seeding
        assert again.config == first.config
        assert again.scores == first.scores

    def test_geometry_is_part_of_the_key(self, matrix):
        from repro.machine.cache import CacheConfig
        search_passes("gcc", matrix, 16, budget=4)
        search_passes("gcc", matrix, 16, budget=4,
                      l1=CacheConfig(size_bytes=4096, ways=4))
        assert autotune_memo_stats()["pass_entries"] == 2


class TestConfigSurface:
    def test_opt_levels_accepted(self):
        for level in (0, 1, 2, 3):
            assert ExecutionConfig(opt_level=level).opt_level == level

    def test_bad_opt_level_rejected(self):
        with pytest.raises(ShapeError):
            ExecutionConfig(opt_level=4)
        with pytest.raises(ShapeError):
            ExecutionConfig(opt_level=-1)

    def test_bad_search_budget_rejected(self):
        with pytest.raises(ShapeError):
            ExecutionConfig(search_budget=0)

    @pytest.mark.parametrize("level", [1, 2])
    def test_static_opt_levels_bit_identical(self, matrix, level):
        x = np.random.default_rng(9).standard_normal(
            (matrix.ncols, 8), dtype=np.float32)
        base = get_system("aot:clang").prepare(
            split="row", threads=1, dynamic=False, backend="sim",
            opt_level=0).bind(matrix, x).execute().y
        opt = get_system("aot:clang").prepare(
            split="row", threads=1, dynamic=False, backend="sim",
            opt_level=level).bind(matrix, x).execute().y
        assert np.array_equal(base, opt, equal_nan=True)


class TestObservability:
    def test_counters_in_prometheus_exposition(self, matrix):
        from repro.aot.passes import PassConfig, run_passes
        from repro.aot.compiler import PERSONALITIES
        from repro.obs import prometheus_text

        run_passes(PERSONALITIES["gcc"].kernel(),
                   PassConfig(unroll=1, fold=True))
        search_passes("gcc", matrix, 16, budget=2, memo=False)
        text = prometheus_text()
        assert "aot_pass_runs_total" in text
        assert "aot_search_iterations_total" in text
        assert "autotune_memo_pass_entries" in text

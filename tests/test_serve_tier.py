"""Tests for tiered execution (repro.serve.tier + SpmmService tiering).

The contract under test: a tiered service serves a cold handle's first
request from the shared address-free template with *zero* per-matrix
codegen, promotes the workspace to its specialized plan in the
background once traffic crosses the threshold, computes bit-identical
results on both tiers, and degrades to the template tier — with a
typed, counted reason — when promotion fails.
"""

import threading

import numpy as np
import pytest

from repro.api import available_systems, get_system
from repro.api.systems import JitSystem
from repro.errors import CodegenError, ShapeError
from repro.serve import (
    PromotionExecutor,
    SpmmService,
    TIER_FAILED,
    TIER_INLINE,
    TIER_PROMOTED,
    TIER_TEMPLATE,
    TierStats,
)
from repro.sparse import spmm_reference
from tests.conftest import random_csr

_D = 8


def tiered_service(**kwargs):
    kwargs.setdefault("threads", 2)
    kwargs.setdefault("split", "auto")
    kwargs.setdefault("timing", False)
    kwargs.setdefault("tier_mode", "lazy")
    kwargs.setdefault("promote_after", 3)
    return SpmmService(**kwargs)


class TestTemplateTier:
    def test_first_request_serves_template_without_codegen(self, rng):
        service = tiered_service()
        matrix = random_csr(rng, 30, 25, name="cold")
        x = rng.random((25, _D)).astype(np.float32)
        handle = service.register(matrix)
        y = service.multiply(handle, x)
        assert np.array_equal(y, spmm_reference(matrix, x))
        assert service.tier_state(handle, _D) == TIER_TEMPLATE
        # the whole point: the first request generated no code at all
        assert service.handle_stats(handle).codegen_runs == 0
        assert service.tiered
        service.close()

    def test_tier_state_is_none_before_first_request(self, rng):
        service = tiered_service()
        handle = service.register(random_csr(rng, 20, 20))
        assert service.tier_state(handle, _D) is None
        service.close()

    def test_untiered_service_reports_inline(self, rng):
        service = SpmmService(threads=2, split="auto", timing=False)
        matrix = random_csr(rng, 20, 20)
        handle = service.register(matrix)
        service.multiply(handle, rng.random((20, _D)).astype(np.float32))
        assert not service.tiered
        assert service.tier_state(handle, _D) == TIER_INLINE
        service.close()

    def test_template_traffic_counted_per_tier(self, rng):
        service = tiered_service(promote_after=100)
        matrix = random_csr(rng, 25, 25, name="counted")
        x = rng.random((25, _D)).astype(np.float32)
        handle = service.register(matrix)
        for _ in range(5):
            service.multiply(handle, x)
        assert service.handle_stats(handle).tiers == {TIER_TEMPLATE: 5}
        assert service.stats.tier_traffic == {TIER_TEMPLATE: 5}
        service.close()


class TestPromotion:
    def test_threshold_promotion_is_bit_identical(self, rng):
        service = tiered_service(promote_after=3)
        matrix = random_csr(rng, 40, 30, name="hot")
        x = rng.random((30, _D)).astype(np.float32)
        expected = spmm_reference(matrix, x)
        handle = service.register(matrix)
        template_results = [service.multiply(handle, x) for _ in range(3)]
        assert service.drain_promotions(10.0)
        assert service.tier_state(handle, _D) == TIER_PROMOTED
        promoted = service.multiply(handle, x)
        for y in template_results + [promoted]:
            assert np.array_equal(y, expected)
        assert service.tier_stats.outcome("promoted") == 1
        assert service.tier_stats.pending == 0
        tiers = service.handle_stats(handle).tiers
        assert tiers[TIER_TEMPLATE] == 3 and tiers[TIER_PROMOTED] == 1
        service.close()

    def test_eager_mode_promotes_on_first_request(self, rng):
        service = tiered_service(tier_mode="eager", promote_after=1000)
        matrix = random_csr(rng, 30, 30)
        x = rng.random((30, _D)).astype(np.float32)
        handle = service.register(matrix)
        y = service.multiply(handle, x)
        assert np.array_equal(y, spmm_reference(matrix, x))
        assert service.drain_promotions(10.0)
        assert service.tier_state(handle, _D) == TIER_PROMOTED
        service.close()

    def test_promotion_happens_once_per_workspace(self, rng):
        service = tiered_service(promote_after=2)
        matrix = random_csr(rng, 25, 25)
        x = rng.random((25, _D)).astype(np.float32)
        handle = service.register(matrix)
        for _ in range(8):
            service.multiply(handle, x)
        assert service.drain_promotions(10.0)
        assert service.tier_stats.outcome("promoted") == 1
        service.close()

    def test_identity_state_drains_after_unregister(self, rng):
        service = tiered_service(promote_after=1)
        matrix = random_csr(rng, 30, 30)
        x = rng.random((30, _D)).astype(np.float32)
        handle = service.register(matrix)
        service.multiply(handle, x)
        assert service.drain_promotions(10.0)
        service.multiply(handle, x)
        service.unregister(handle)
        assert not service._workspaces
        assert service._key_refs == {}
        assert service._keylocks == {}
        service.close()

    def test_profile_serves_both_tiers(self, rng):
        service = tiered_service(promote_after=2)
        matrix = random_csr(rng, 20, 20, name="profiled")
        x = rng.random((20, _D)).astype(np.float32)
        handle = service.register(matrix)
        cold = service.profile(handle, x, backend="counts")
        assert np.array_equal(cold.y, spmm_reference(matrix, x))
        service.multiply(handle, x)
        assert service.drain_promotions(10.0)
        assert service.tier_state(handle, _D) == TIER_PROMOTED
        hot = service.profile(handle, x, backend="counts")
        assert np.array_equal(hot.y, cold.y)
        tiers = service.handle_stats(handle).tiers
        assert tiers[TIER_TEMPLATE] == 2 and tiers[TIER_PROMOTED] == 1
        service.close()


class TestFailedPromotion:
    def test_degrades_to_template_with_typed_reason(self, rng, monkeypatch):
        service = tiered_service(promote_after=2)

        def boom(self, plan):
            raise CodegenError("injected: no code for you")

        # promotion generates the code the promoted tier executes
        monkeypatch.setattr(JitSystem, "build_host_kernel", boom)
        matrix = random_csr(rng, 30, 30, name="degraded")
        x = rng.random((30, _D)).astype(np.float32)
        expected = spmm_reference(matrix, x)
        handle = service.register(matrix)
        service.multiply(handle, x)
        service.multiply(handle, x)
        assert service.drain_promotions(10.0)
        assert service.tier_state(handle, _D) == TIER_FAILED
        assert isinstance(service.promotion_error(handle, _D), CodegenError)
        assert service.tier_stats.outcome("failed") == 1
        snap = service.snapshot()
        assert snap.tier.failure_reasons == {"CodegenError": 1}
        # the handle keeps serving — template tier, bit-correct
        assert np.array_equal(service.multiply(handle, x), expected)
        # no second promotion is attempted for a failed workspace
        service.multiply(handle, x)
        assert service.drain_promotions(10.0)
        assert service.tier_stats.outcome("failed") == 1
        # the never-committed identity left no orphaned lock state
        service.unregister(handle)
        assert service._key_refs == {}
        assert service._keylocks == {}
        service.close()

    def test_unregister_before_promotion_lands_is_stale(self, rng):
        # a promotion job that starts after its handle died settles as
        # stale (checked via the outcome counter), never as promoted
        service = tiered_service(promote_after=1, promotion_workers=1)
        gate = threading.Event()
        original = SpmmService._promote

        def held(self, handle, ws, d):
            gate.wait(10.0)
            original(self, handle, ws, d)

        try:
            SpmmService._promote = held
            matrix = random_csr(rng, 25, 25)
            x = rng.random((25, _D)).astype(np.float32)
            handle = service.register(matrix)
            service.multiply(handle, x)
            service.unregister(handle)
        finally:
            SpmmService._promote = original
            gate.set()
        assert service.drain_promotions(10.0)
        assert service.tier_stats.outcome("stale") == 1
        assert service.tier_stats.outcome("promoted") == 0
        assert service._key_refs == {}
        assert service._keylocks == {}
        service.close()


class TestReporting:
    def test_snapshot_and_report_carry_tier_state(self, rng):
        service = tiered_service(promote_after=2)
        matrix = random_csr(rng, 30, 30, name="reported")
        x = rng.random((30, _D)).astype(np.float32)
        handle = service.register(matrix)
        service.multiply(handle, x)
        service.multiply(handle, x)
        assert service.drain_promotions(10.0)
        service.multiply(handle, x)
        snap = service.snapshot()
        assert snap.tier is not None
        assert snap.tier.mode == "lazy"
        assert snap.tier.template == "mkl"
        assert snap.tier.outcomes.get("promoted") == 1
        report = snap.render()
        assert "tier: mode=lazy template=mkl promote_after=2" in report
        assert "traffic by tier:" in report
        service.close()

    def test_metric_samples_emit_tier_series(self, rng):
        service = tiered_service(promote_after=2)
        matrix = random_csr(rng, 25, 25)
        x = rng.random((25, _D)).astype(np.float32)
        handle = service.register(matrix)
        service.multiply(handle, x)
        service.multiply(handle, x)
        assert service.drain_promotions(10.0)
        service.multiply(handle, x)
        samples = {(s.name, s.labels): s.value
                   for s in service.snapshot().metric_samples()}
        by_name = {}
        for (name, labels), value in samples.items():
            by_name.setdefault(name, []).append((labels, value))
        traffic = dict(by_name["serve_tier_traffic_total"])
        assert any(v == 2.0 for v in traffic.values())  # template tier
        outcomes = dict(by_name["serve_tier_promotions_total"])
        # all three outcome buckets are present, zeros included
        assert len(outcomes) == 3 and sum(outcomes.values()) == 1.0
        assert "serve_tier_promotions_pending" in by_name
        assert "serve_tier_codegen_seconds_total" in by_name
        service.close()

    def test_untiered_snapshot_emits_no_tier_series(self, rng):
        service = SpmmService(threads=2, split="row", timing=False)
        handle = service.register(random_csr(rng, 20, 20))
        service.multiply(handle, rng.random((20, _D)).astype(np.float32))
        snap = service.snapshot()
        assert snap.tier is None
        names = {s.name for s in snap.metric_samples()}
        assert not any(name.startswith("serve_tier_") for name in names)
        service.close()


class TestRegistryConformance:
    @pytest.mark.parametrize("system", available_systems())
    def test_every_system_is_bit_identical_across_tiers(self, rng, system):
        """Tiering must never change a bit, whatever the system — and
        systems with no cheaper template stay inert (inline tier)."""
        supports_auto = get_system(system).supports_autotune
        kwargs = dict(
            threads=2, split="auto" if supports_auto else "row",
            timing=False, tier_mode="eager", system=system)
        if system.startswith("aot:") or system in (
                "clang", "gcc", "icc", "icc-avx512"):
            kwargs.update(opt_level=3, search_budget=2)
        service = SpmmService(**kwargs)
        matrix = random_csr(rng, 25, 20, name=f"conform-{system}")
        x = rng.random((20, _D)).astype(np.float32)
        expected = spmm_reference(matrix, x)
        handle = service.register(matrix)
        first = service.multiply(handle, x)
        assert service.drain_promotions(30.0)
        second = service.multiply(handle, x)
        assert np.array_equal(first, expected)
        assert np.array_equal(second, expected)
        if service.tiered:
            assert service.tier_state(handle, _D) == TIER_PROMOTED
        else:
            assert service.tier_state(handle, _D) == TIER_INLINE
        service.close()


class TestTierPrimitives:
    def test_promotion_executor_runs_and_drains(self):
        executor = PromotionExecutor(workers=2)
        done = []
        for index in range(8):
            assert executor.submit(lambda i=index: done.append(i))
        assert executor.drain(5.0)
        assert sorted(done) == list(range(8))
        executor.close()
        assert not executor.submit(lambda: done.append(99))
        assert 99 not in done

    def test_promotion_executor_survives_raising_jobs(self):
        executor = PromotionExecutor(workers=1)
        done = []
        executor.submit(lambda: 1 / 0)
        executor.submit(lambda: done.append("after"))
        assert executor.drain(5.0)
        assert done == ["after"]
        executor.close()

    def test_promotion_executor_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            PromotionExecutor(workers=0)

    def test_tier_stats_accounting(self):
        stats = TierStats()
        stats.begin()
        stats.begin()
        assert stats.pending == 2
        stats.finish("promoted", codegen_seconds=0.25)
        stats.finish("failed", reason="CodegenError")
        snap = stats.snapshot(mode="lazy", template="mkl", promote_after=4)
        assert snap.pending == 0
        assert snap.outcomes == {"promoted": 1, "failed": 1}
        assert snap.failure_reasons == {"CodegenError": 1}
        assert snap.codegen_seconds == 0.25
        assert "promotions promoted=1 failed=1 stale=0 pending=0" in (
            snap.render())
        assert "failures CodegenError=1" in snap.render()

    def test_tier_stats_rejects_unknown_outcome(self):
        stats = TierStats()
        stats.begin()
        with pytest.raises(ValueError):
            stats.finish("eaten-by-grue")

    def test_service_rejects_bad_tier_knobs(self, rng):
        with pytest.raises(ShapeError):
            SpmmService(threads=2, tier_mode="sideways")
        with pytest.raises(ShapeError):
            SpmmService(threads=2, tier_mode="lazy", promote_after=0)
        with pytest.raises(ShapeError):
            SpmmService(threads=2, tier_mode="lazy", promotion_workers=0)

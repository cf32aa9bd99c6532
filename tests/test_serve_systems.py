"""Tests for system-agnostic serving and the workspace LRU cap."""

import numpy as np
import pytest

from repro.api import available_systems, get_system
from repro.api.systems import AotSystem
from repro.errors import ShapeError
from repro.serve import SpmmService
from repro.sparse import spmm_reference
from tests.conftest import random_csr


class TestServeTemplateSystems:
    @pytest.mark.parametrize("system", ["aot:icc-avx512", "aot:gcc", "mkl"])
    def test_multiply_matches_reference(self, rng, system):
        service = SpmmService(threads=3, split="row", system=system)
        matrix = random_csr(rng, 40, 30)
        x = rng.random((30, 8)).astype(np.float32)
        handle = service.register(matrix)
        assert np.allclose(service.multiply(handle, x),
                           spmm_reference(matrix, x), atol=1e-4)

    def test_aot_trace_amortizes_like_jit(self, rng):
        # the acceptance trace: two requests on an AOT system — the
        # second is a cache hit and the amortized overhead falls
        service = SpmmService(threads=2, split="row",
                              system="aot:icc-avx512", timing=False)
        matrix = random_csr(rng, 30, 30, density=0.2)
        x = rng.random((30, 8)).astype(np.float32)
        handle = service.register(matrix)
        cold = service.profile(handle, x)
        overhead_after_1 = service.handle_stats(handle).codegen_overhead()
        warm = service.profile(handle, x)
        overhead_after_2 = service.handle_stats(handle).codegen_overhead()
        assert not cold.cache_hit and warm.cache_hit
        assert cold.codegen_seconds > 0 and warm.codegen_seconds == 0.0
        assert warm.program is cold.program
        assert 0 < overhead_after_2 < overhead_after_1
        assert service.handle_stats(handle).codegen_runs == 1
        assert np.allclose(warm.y, spmm_reference(matrix, x), atol=1e-4)
        assert warm.system == "aot-icc-avx512-serve"

    def test_template_kernel_shared_across_handles_and_widths(self, rng):
        # address-free kernels have one identity: a second handle and a
        # second width both reuse it (unlike JIT, where each shape is a
        # new kernel)
        service = SpmmService(threads=2, split="row", system="mkl")
        a = service.register(random_csr(rng, 20, 20, name="a"))
        b = service.register(random_csr(rng, 35, 25, name="b"))
        service.profile(a, rng.random((20, 8)).astype(np.float32))
        service.profile(a, rng.random((20, 16)).astype(np.float32))
        service.profile(b, rng.random((25, 8)).astype(np.float32))
        assert len(service.cache) == 1
        assert service.stats.codegen_runs == 1

    def test_template_multiply_generates_nothing(self, rng):
        # an address-free template's native product is the scipy call:
        # multiply resolves no kernel and probes no cache
        service = SpmmService(threads=2, split="row", system="mkl")
        matrix = random_csr(rng, 20, 20)
        handle = service.register(matrix)
        x = rng.random((20, 8)).astype(np.float32)
        assert np.array_equal(service.multiply(handle, x),
                              spmm_reference(matrix, x))
        (ws,) = service._workspaces.values()
        assert ws.plan.host_kernel() is None
        assert service.stats.codegen_runs == 0
        assert service.cache.stats().requests == 0

    def test_profile_sees_fresh_x(self, rng):
        service = SpmmService(threads=2, split="row", system="mkl")
        matrix = random_csr(rng, 25, 25, density=0.2)
        handle = service.register(matrix)
        x1 = rng.random((25, 8)).astype(np.float32)
        x2 = rng.random((25, 8)).astype(np.float32)
        y1 = service.profile(handle, x1).y
        y2 = service.profile(handle, x2).y
        assert np.allclose(y1, spmm_reference(matrix, x1), atol=1e-3)
        assert np.allclose(y2, spmm_reference(matrix, x2), atol=1e-3)

    def test_auto_split_rejected_for_non_jit(self):
        with pytest.raises(ShapeError, match="auto"):
            SpmmService(threads=2, system="mkl")  # default split="auto"
        with pytest.raises(ShapeError, match="auto"):
            SpmmService(threads=2, split="auto", system="aot:gcc")


class TestRegistryConformance:
    @pytest.mark.parametrize("system", available_systems())
    def test_first_request_bit_identical(self, rng, system):
        """The cold request (autotune or pass search, then codegen
        inline) and a warm one both answer with the reference's bits,
        whatever the system; AOT personalities run at ``opt_level=3``,
        where binding searches a pass config per matrix."""
        kwargs = dict(
            threads=2, timing=False, system=system,
            split="auto" if get_system(system).supports_autotune
            else "row")
        if isinstance(get_system(system), AotSystem):
            kwargs.update(opt_level=3, search_budget=2)
        matrix = random_csr(rng, 25, 20, name=f"conform-{system}")
        x = rng.random((20, 8)).astype(np.float32)
        expected = spmm_reference(matrix, x)
        with SpmmService(**kwargs) as service:
            handle = service.register(matrix)
            assert np.array_equal(service.multiply(handle, x), expected)
            assert np.array_equal(service.multiply(handle, x), expected)


class TestOnePlanPerWorkspace:
    @pytest.mark.parametrize("system", available_systems())
    def test_workspace_keeps_its_plan(self, rng, system):
        """A (handle, d) workspace binds one plan on its first request
        and serves every later ``multiply`` and ``profile`` from it:
        once each request kind has run, nothing is generated again."""
        service = SpmmService(threads=2, split="row", timing=False,
                              system=system)
        matrix = random_csr(rng, 25, 20, name=f"one-plan-{system}")
        handle = service.register(matrix)
        xs = [rng.random((20, 8)).astype(np.float32) for _ in range(3)]
        assert np.array_equal(service.multiply(handle, xs[0]),
                              spmm_reference(matrix, xs[0]))
        service.profile(handle, xs[0])
        key = (handle.handle_id, 8)
        plan = service._workspaces[key].plan
        codegen_runs = service.handle_stats(handle).codegen_runs
        for x in xs[1:]:
            assert np.array_equal(service.multiply(handle, x),
                                  spmm_reference(matrix, x))
            assert np.allclose(service.profile(handle, x).y,
                               spmm_reference(matrix, x), atol=1e-4)
        assert service._workspaces[key].plan is plan
        stats = service.handle_stats(handle)
        assert stats.codegen_runs == codegen_runs
        assert stats.warm.count == 4
        service.close()


class TestWorkspaceLru:
    def test_cap_evicts_least_recently_used(self, rng):
        service = SpmmService(threads=2, split="row", max_workspaces=2)
        matrix = random_csr(rng, 30, 30)
        handle = service.register(matrix)
        for d in (4, 8, 16):
            service.multiply(handle, rng.random((30, d)).astype(np.float32))
        assert len(service._workspaces) == 2
        assert service._workspace_evictions == 1
        # d=4 was evicted; d=8 and d=16 survive
        assert set(service._workspaces) == {(handle.handle_id, 8),
                                            (handle.handle_id, 16)}

    def test_eviction_keeps_kernels_warm(self, rng):
        # a re-requested evicted shape re-maps operands but must not
        # re-generate code: the kernel cache is not coupled to the
        # workspace LRU
        service = SpmmService(threads=2, split="row", max_workspaces=1)
        matrix = random_csr(rng, 30, 30)
        handle = service.register(matrix)
        x8 = rng.random((30, 8)).astype(np.float32)
        x16 = rng.random((30, 16)).astype(np.float32)
        service.profile(handle, x8)
        service.profile(handle, x16)           # evicts the d=8 workspace
        y = service.profile(handle, x8).y      # recreates it
        assert np.allclose(y, spmm_reference(matrix, x8), atol=1e-4)
        assert service._workspace_evictions == 2
        assert service.handle_stats(handle).codegen_runs == 2  # d=8, d=16
        assert service.handle_stats(handle).cold.count == 3    # remapping

    def test_eviction_takes_the_host_kernel_with_the_plan(self, rng):
        # the code multiply runs belongs to the plan: an evicted shape
        # that comes back binds a new plan and generates its kernel again
        service = SpmmService(threads=2, split="row", max_workspaces=1)
        matrix = random_csr(rng, 30, 30)
        handle = service.register(matrix)
        x8 = rng.random((30, 8)).astype(np.float32)
        x16 = rng.random((30, 16)).astype(np.float32)
        service.multiply(handle, x8)
        service.multiply(handle, x16)          # evicts the d=8 workspace
        y = service.multiply(handle, x8)       # recreates it
        assert np.array_equal(y, spmm_reference(matrix, x8))
        assert service._workspace_evictions == 2
        stats = service.handle_stats(handle)
        assert stats.cold.count == 3
        (ws,) = service._workspaces.values()
        expected = 3 if ws.plan.host_kernel() is not None else 0
        assert stats.codegen_runs == expected

    def test_touch_refreshes_recency(self, rng):
        service = SpmmService(threads=2, split="row", max_workspaces=2)
        matrix = random_csr(rng, 20, 20)
        handle = service.register(matrix)
        x4 = rng.random((20, 4)).astype(np.float32)
        service.multiply(handle, x4)
        service.multiply(handle, rng.random((20, 8)).astype(np.float32))
        service.multiply(handle, x4)           # re-touch d=4
        service.multiply(handle, rng.random((20, 16)).astype(np.float32))
        assert set(service._workspaces) == {(handle.handle_id, 4),
                                            (handle.handle_id, 16)}

    def test_report_exposes_cap_and_evictions(self, rng):
        service = SpmmService(threads=2, split="row", max_workspaces=1)
        matrix = random_csr(rng, 20, 20)
        handle = service.register(matrix)
        service.multiply(handle, rng.random((20, 4)).astype(np.float32))
        service.multiply(handle, rng.random((20, 8)).astype(np.float32))
        report = service.report()
        assert "workspaces: 1 live (cap 1), 1 evicted" in report

    def test_eviction_drops_stale_keylocks(self, rng):
        # per-identity codegen locks must not outlive every workspace
        # carrying the identity, or shape churn grows them unboundedly
        service = SpmmService(threads=2, split="row", max_workspaces=1)
        matrix = random_csr(rng, 30, 30)
        handle = service.register(matrix)
        for d in (2, 4, 8, 16, 32):
            service.profile(handle, rng.random((30, d)).astype(np.float32))
        assert len(service._keylocks) == 1  # only the live workspace's

    def test_invalid_cap_rejected(self):
        with pytest.raises(ShapeError):
            SpmmService(threads=2, max_workspaces=0)

    def test_unbounded_cap(self, rng):
        service = SpmmService(threads=2, split="row", max_workspaces=None)
        matrix = random_csr(rng, 20, 20)
        handle = service.register(matrix)
        for d in (2, 4, 8, 16):
            service.multiply(handle, rng.random((20, d)).astype(np.float32))
        assert len(service._workspaces) == 4
        assert "cap unbounded" in service.report()


class TestCrossStripeCap:
    def test_cap_enforced_across_stripes(self, rng):
        # 8 handles land on 8 distinct stripes; the service-wide cap
        # must hold anyway (eviction reaches into idle stripes)
        service = SpmmService(threads=2, split="row", max_workspaces=4)
        x_by_handle = {}
        for index in range(8):
            matrix = random_csr(rng, 20 + index, 20)
            handle = service.register(matrix)
            x_by_handle[handle] = rng.random((20, 4)).astype(np.float32)
            service.multiply(handle, x_by_handle[handle])
        assert len(service._workspaces) == 4
        assert service._workspace_evictions == 4
        # the survivors are the four most recently used
        live_handles = {key[0] for key in service._workspaces}
        assert live_handles == {4, 5, 6, 7}

    def test_eviction_order_is_global_lru(self, rng):
        service = SpmmService(threads=2, split="row", max_workspaces=2)
        a = service.register(random_csr(rng, 20, 20))
        b = service.register(random_csr(rng, 21, 20))
        c = service.register(random_csr(rng, 22, 20))
        xa = rng.random((20, 4)).astype(np.float32)
        service.multiply(a, xa)
        service.multiply(b, rng.random((20, 4)).astype(np.float32))
        service.multiply(a, xa)                 # re-touch a: b is now LRU
        service.multiply(c, rng.random((20, 4)).astype(np.float32))
        live_handles = {key[0] for key in service._workspaces}
        assert live_handles == {a.handle_id, c.handle_id}

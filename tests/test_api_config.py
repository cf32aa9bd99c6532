"""Tests for the centralized ExecutionConfig contract."""

import dataclasses

import pytest

from repro.api import ExecutionConfig
from repro.errors import ShapeError
from repro.isa.isainfo import IsaLevel


class TestValidation:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.split == "row"
        assert config.threads == 1
        assert config.dynamic is None
        assert config.batch is None
        assert config.isa == IsaLevel.AVX512
        assert config.timing and not config.warmup
        assert config.cache is None

    def test_rejects_nonpositive_threads(self):
        with pytest.raises(ShapeError):
            ExecutionConfig(threads=0)
        with pytest.raises(ShapeError):
            ExecutionConfig(threads=-3)

    def test_rejects_unknown_split(self):
        with pytest.raises(ShapeError):
            ExecutionConfig(split="diagonal")

    def test_rejects_dynamic_with_non_row_split(self):
        with pytest.raises(ShapeError):
            ExecutionConfig(split="nnz", dynamic=True)
        with pytest.raises(ShapeError):
            ExecutionConfig(split="merge", dynamic=True)

    def test_auto_split_requires_dynamic_none(self):
        with pytest.raises(ShapeError):
            ExecutionConfig(split="auto", dynamic=True)
        with pytest.raises(ShapeError):
            ExecutionConfig(split="auto", dynamic=False)
        assert ExecutionConfig(split="auto").split == "auto"

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ShapeError):
            ExecutionConfig(batch=0)

    def test_explicit_dynamic_false_with_row_allowed(self):
        config = ExecutionConfig(split="row", dynamic=False)
        assert config.effective_dynamic is False


class TestNormalization:
    def test_isa_parsed_from_string(self):
        assert ExecutionConfig(isa="avx2").isa == IsaLevel.AVX2
        assert ExecutionConfig(isa="scalar").isa == IsaLevel.SCALAR

    def test_effective_dynamic_defaults_per_split(self):
        assert ExecutionConfig(split="row").effective_dynamic is True
        assert ExecutionConfig(split="nnz").effective_dynamic is False
        assert ExecutionConfig(split="merge").effective_dynamic is False

    def test_with_overrides_revalidates(self):
        config = ExecutionConfig(split="row", threads=4)
        merged = config.with_overrides(split="merge")
        assert merged.split == "merge" and merged.threads == 4
        assert config.split == "row"  # frozen original untouched
        with pytest.raises(ShapeError):
            config.with_overrides(threads=0)


class TestNoBatchingKnobs:
    def test_config_has_no_batching_fields(self):
        # request coalescing is gone: the config carries no knob for it
        # (SpmmService alone still accepts the two inert keywords)
        names = {f.name for f in dataclasses.fields(ExecutionConfig)}
        assert len(names) == 21
        assert not names & {"max_batch", "flush_us"}
        with pytest.raises(TypeError):
            ExecutionConfig(max_batch=8)
        with pytest.raises(TypeError):
            ExecutionConfig().with_overrides(flush_us=100.0)


class TestGatewayKnobs:
    def test_defaults_single_worker_unlimited_tenants(self):
        config = ExecutionConfig()
        assert config.workers == 1
        assert config.max_inflight == 64
        assert config.tenant_quota is None

    def test_accepts_valid_values(self):
        config = ExecutionConfig(workers=4, max_inflight=256,
                                 tenant_quota=16)
        assert config.workers == 4
        assert config.max_inflight == 256
        assert config.tenant_quota == 16

    def test_rejects_invalid_values(self):
        with pytest.raises(ShapeError):
            ExecutionConfig(workers=0)
        with pytest.raises(ShapeError):
            ExecutionConfig(max_inflight=0)
        with pytest.raises(ShapeError):
            ExecutionConfig(tenant_quota=0)
        with pytest.raises(ShapeError):
            ExecutionConfig(tenant_quota=-2)

    def test_with_overrides_revalidates_gateway_knobs(self):
        config = ExecutionConfig()
        assert config.with_overrides(workers=2).workers == 2
        with pytest.raises(ShapeError):
            config.with_overrides(max_inflight=-1)


class TestResilienceKnobs:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.deadline_ms is None
        assert config.hang_threshold_ms == 60_000.0
        assert config.max_retries == 2
        assert config.breaker_threshold == 3

    def test_accepts_valid_values(self):
        config = ExecutionConfig(deadline_ms=250.0, hang_threshold_ms=500.0,
                                 max_retries=0, breaker_threshold=1)
        assert config.deadline_ms == 250.0
        assert config.hang_threshold_ms == 500.0
        assert config.max_retries == 0
        assert config.breaker_threshold == 1

    @pytest.mark.parametrize("kwargs", [
        {"deadline_ms": 0.0}, {"deadline_ms": -5.0},
        {"hang_threshold_ms": 0.0}, {"hang_threshold_ms": -1.0},
        {"max_retries": -1},
        {"breaker_threshold": 0},
    ])
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ShapeError):
            ExecutionConfig(**kwargs)

    def test_with_overrides_revalidates_resilience_knobs(self):
        config = ExecutionConfig()
        assert config.with_overrides(deadline_ms=100.0).deadline_ms == 100.0
        with pytest.raises(ShapeError):
            config.with_overrides(breaker_threshold=-3)

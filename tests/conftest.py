"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import CpuConfig
from repro.sparse import CsrMatrix

#: the simulator's conformance oracle: the per-access reference engine
#: fuses nothing, so it retires one instruction per dispatch
REF_CPU = CpuConfig(timing=True, engine="ref")
#: the two fidelities the superblock driver serves
DRIVER_CPUS = (CpuConfig(timing=True, engine="replay"),
               CpuConfig(timing=False))


def comparable(counters, config: CpuConfig) -> dict:
    """``counters`` as a dict, minus what ``config`` does not model (the
    timing models' own products stay 0 in counts fidelity)."""
    out = counters.as_dict()
    if not config.timing:
        for name in ("cycles", "l1_hits", "l1_misses", "l2_hits",
                     "l2_misses"):
            del out[name]
    return out


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_csr(
    rng: np.random.Generator,
    nrows: int,
    ncols: int,
    density: float = 0.2,
    name: str = "random",
) -> CsrMatrix:
    """Build a random CSR matrix with about ``density`` fill."""
    mask = rng.random((nrows, ncols)) < density
    dense = np.where(mask, rng.standard_normal((nrows, ncols)), 0.0)
    return CsrMatrix.from_dense(dense.astype(np.float32), name=name)


@pytest.fixture
def small_csr(rng: np.random.Generator) -> CsrMatrix:
    return random_csr(rng, 40, 30, density=0.15)

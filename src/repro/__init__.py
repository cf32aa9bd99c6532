"""repro: a reproduction of JITSPMM (CGO 2024).

Fu, Rolinger, Huang — "JITSPMM: Just-in-Time Instruction Generation for
Accelerated Sparse Matrix-Matrix Multiplication", arXiv:2312.05639.

Public API highlights:

* :func:`repro.run` / :mod:`repro.api` — the unified entry point: a
  registry of systems (``"jit"``, ``"aot:<personality>"``, ``"mkl"``,
  plus anything you :func:`repro.register`) behind one prepare → bind →
  execute pipeline with a validated :class:`repro.ExecutionConfig`;
* :mod:`repro.exec` — execution backends: ``"native"`` (the host CPU:
  generated code called through ``ctypes``, scipy for template
  systems), ``"counts"`` (functional + event counters), ``"sim"``
  (cycle-accurate), ``"sim-ref"`` (its per-access conformance oracle),
  selected via ``ExecutionConfig.backend`` / ``repro.run(backend=...)``
  and extensible via :func:`repro.register_backend`;
* :class:`repro.JitSpMM` — the JIT SpMM engine (fast host product and
  simulator-backed profiling);
* :class:`repro.CsrMatrix` — CSR sparse matrices;
* :mod:`repro.datasets` — scaled synthetic twins of the paper's 14
  SuiteSparse matrices;
* :mod:`repro.core.runner` — compatibility shims (``run_jit`` /
  ``run_aot`` / ``run_mkl``) over the pipeline, with perf counters;
* :class:`repro.serve.SpmmService` / :class:`repro.serve.KernelCache` —
  the serving subsystem: cached, autotuned kernels over request traffic
  for any registered system;
* :mod:`repro.bench` — harnesses regenerating every table and figure of
  the paper's evaluation.
"""

from repro.api import (
    ExecutionConfig,
    available_systems,
    get_system,
    register,
    run,
)
from repro.core.engine import JitSpMM, SpmmResult
from repro.exec import (
    available_backends,
    backend_capabilities,
    get_backend,
    register_backend,
)
from repro.core.layout import plan_layout
from repro.core.split import merge_split, nnz_split, row_split
from repro.serve import KernelCache, SpmmService
from repro.sparse import CooMatrix, CsrMatrix, spmm_reference

__version__ = "1.2.0"

__all__ = [
    "CooMatrix",
    "CsrMatrix",
    "ExecutionConfig",
    "JitSpMM",
    "KernelCache",
    "SpmmResult",
    "SpmmService",
    "__version__",
    "available_systems",
    "get_system",
    "merge_split",
    "nnz_split",
    "plan_layout",
    "register",
    "row_split",
    "run",
    "spmm_reference",
]

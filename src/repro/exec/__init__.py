"""`repro.exec`: execution backends as a first-class layer.

The PR-2 pipeline (prepare → bind → execute) fixed *what* runs — a
system's kernel bound to a problem — but *how* it runs was smeared
across ad hoc booleans (``timing=``, ``JitSpMM.multiply`` vs
``.profile``).  This package names that axis: an
:class:`Executor` turns a bound plan into a
:class:`~repro.core.runner.RunResult`, and
``ExecutionConfig(backend=...)`` selects one by name everywhere —
``repro.run``, :class:`repro.core.engine.JitSpMM`,
:class:`repro.serve.SpmmService`, and the bench harness.

Built-ins (see :mod:`repro.exec.backends`): ``"native"`` (the host CPU:
a JIT plan's own generated kernel, loaded by :mod:`repro.exec.host`;
the scipy template otherwise), ``"counts"`` (functional + event
counters), ``"sim"`` (cycle-accurate) and ``"sim-ref"`` (its per-access
conformance oracle).

Example::

    import repro

    result = repro.run(A, X, system="jit", backend="sim")
    print(result.backend, result.counters.instructions)

    for name in repro.available_backends():
        print(name, repro.get_backend(name).capabilities())
"""

from repro.exec.backend import (
    Executor,
    available_backends,
    backend_capabilities,
    canonical_name,
    get_backend,
    register_backend,
    unregister_backend,
)

__all__ = [
    "Executor",
    "available_backends",
    "backend_capabilities",
    "canonical_name",
    "get_backend",
    "register_backend",
    "unregister_backend",
]

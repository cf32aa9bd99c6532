"""The :class:`Executor` contract and the backend registry.

An execution backend is one point on the speed/fidelity axis: given a
bound plan (stage-2 output of the :mod:`repro.api` pipeline), it
produces a :class:`~repro.core.runner.RunResult`.  What varies is what
the result can be trusted for — declared by three capability flags:

===========  ======  ========  ======
backend      result  counters  cycles
===========  ======  ========  ======
native        yes      no        no
counts        yes      yes       no
sim           yes      yes       yes
sim-ref       yes      yes       yes
===========  ======  ========  ======

``sim`` runs the record/replay timing engine
(:mod:`repro.machine.replay`); ``sim-ref`` is the per-access reference
implementation, bit-identical on every counter.

The registry mirrors :mod:`repro.api.registry` for systems: built-ins
load lazily, third-party executors plug in with
:func:`register_backend` and immediately work with
``ExecutionConfig(backend=...)``, ``repro.run``, ``JitSpMM``,
``SpmmService`` and the bench harness — a GPU or process-pool engine is
a registration away, with no caller changes.
"""

from __future__ import annotations

import abc
import threading

from repro.errors import RegistryError

__all__ = [
    "Executor",
    "available_backends",
    "backend_capabilities",
    "canonical_name",
    "get_backend",
    "register_backend",
    "unregister_backend",
]

_BACKENDS: dict = {}
_ALIASES: dict[str, str] = {}
_LOCK = threading.Lock()
_BUILTINS_LOADED = False
_LOAD_LOCK = threading.Lock()
#: ident of the thread importing the built-ins (None when none is)
_LOADER: int | None = None


class Executor(abc.ABC):
    """One execution backend (the backend registry's unit).

    Attributes:
        name: Registry name (``"native"``, ``"counts"``, ``"sim"``,
            ``"sim-ref"``).
        requires_kernel: False when the backend can serve a plan whose
            kernel was never resolved (the native backend runs the
            plan's host kernel or the scipy template, never the cached
            simulated-address program; the pipeline then skips that
            program's codegen and cache probes entirely).
        provides_result: The returned ``y`` is the product ``A @ X``.
        provides_counters: Event counters (instructions, loads,
            branches, ...) are populated.
        provides_cycles: The modeled-cycle estimate is populated
            (cache + pipeline simulation ran).
    """

    name: str = ""
    requires_kernel: bool = True
    provides_result: bool = True
    provides_counters: bool = False
    provides_cycles: bool = False

    @abc.abstractmethod
    def execute(self, plan):
        """Run ``plan`` and return a :class:`repro.core.runner.RunResult`
        with :attr:`RunResult.backend` set to this executor's name."""

    def capabilities(self) -> dict[str, bool]:
        """The capability row for this backend (README's matrix)."""
        return {
            "result": self.provides_result,
            "counters": self.provides_counters,
            "cycles": self.provides_cycles,
        }


def _ensure_builtins() -> None:
    """Load the built-in executors exactly once (they import the
    machine and core layers, which the registry itself must not).

    The built-ins register themselves while their module loads; those
    re-entrant ``register_backend`` calls run on the loading thread and
    return at once.  Any other thread waits on the lock until the whole
    module has loaded, so a first resolution racing another never sees a
    half-filled registry.
    """
    global _BUILTINS_LOADED, _LOADER
    if _BUILTINS_LOADED or _LOADER == threading.get_ident():
        return
    with _LOAD_LOCK:
        if _BUILTINS_LOADED:
            return
        _LOADER = threading.get_ident()
        try:
            import repro.exec.backends  # noqa: F401  (registers on import)
        finally:
            _LOADER = None
        _BUILTINS_LOADED = True


def register_backend(name: str, executor: Executor, *,
                     aliases: tuple[str, ...] = ()) -> None:
    """Register ``executor`` under ``name`` (and optional aliases).

    Re-registering a name replaces the previous entry (last wins), so
    reloading a module that registers at import stays idempotent.
    """
    if not name:
        raise RegistryError("backend name must be non-empty")
    # load the built-ins first so the alias-collision check below sees
    # them even when a third party registers before any resolution ran
    _ensure_builtins()
    if not executor.name:
        # a third-party executor that never set the class attribute
        # still reports the name it is reachable under (RunResult
        # attribution and capability listings rely on it)
        executor.name = name
    with _LOCK:
        for alias in aliases:
            if alias in _BACKENDS and alias != name:
                # an alias must never shadow another backend's canonical
                # name — config normalization, serving traffic buckets
                # and bench memo keys all resolve through canonical_name
                raise RegistryError(
                    f"alias {alias!r} would shadow the registered "
                    f"backend of that name")
        _BACKENDS[name] = executor
        # last-wins: a canonical registration reclaims its name from
        # any alias previously pointing elsewhere
        _ALIASES.pop(name, None)
        for alias in aliases:
            _ALIASES[alias] = name


def unregister_backend(name: str) -> bool:
    """Drop a registration (and any aliases pointing at it)."""
    with _LOCK:
        found = _BACKENDS.pop(name, None) is not None
        for alias in [a for a, target in _ALIASES.items() if target == name]:
            del _ALIASES[alias]
        return found


def canonical_name(name: str) -> str:
    """Resolve a backend name or alias to its canonical registry key.

    The canonical key — not ``executor.name`` — is the identity every
    layer stores (config normalization, serving traffic buckets, bench
    memo keys), so alias spellings can never fragment one backend into
    several. Raises :class:`RegistryError` for unknown names.
    """
    _ensure_builtins()
    with _LOCK:
        # canonical names take precedence over aliases (register_backend
        # also refuses alias registrations that would shadow one)
        if name in _BACKENDS:
            return name
        canonical = _ALIASES.get(name)
        if canonical is not None and canonical in _BACKENDS:
            return canonical
    raise RegistryError(
        f"unknown execution backend {name!r}; available: "
        f"{', '.join(available_backends())}")


def get_backend(name: str) -> Executor:
    """Resolve a backend name (or alias) to its registered executor."""
    canonical = canonical_name(name)
    with _LOCK:
        return _BACKENDS[canonical]


def available_backends() -> tuple[str, ...]:
    """Every resolvable name: canonical registrations plus aliases."""
    _ensure_builtins()
    with _LOCK:
        return tuple(sorted(set(_BACKENDS) | set(_ALIASES)))


def backend_capabilities() -> dict[str, dict[str, bool]]:
    """The full capability matrix, canonical name -> capability row."""
    _ensure_builtins()
    with _LOCK:
        executors = dict(_BACKENDS)
    return {name: executor.capabilities()
            for name, executor in sorted(executors.items())}

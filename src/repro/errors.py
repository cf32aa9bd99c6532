"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming errors
such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SparseFormatError(ReproError):
    """A sparse matrix is structurally invalid (bad row_ptr, indices, ...)."""


class ShapeError(ReproError):
    """Operand shapes are incompatible for the requested operation."""


class AssemblyError(ReproError):
    """A program could not be assembled (unknown label, bad operands, ...)."""


class EncodingError(AssemblyError):
    """An instruction has no machine-code encoding in the supported subset."""


class DisassemblyError(ReproError):
    """A byte sequence could not be decoded back into an instruction."""


class MachineError(ReproError):
    """The simulated machine entered an invalid state."""


class SegmentationFault(MachineError):
    """A simulated access touched unmapped memory."""


class ExecutionLimitExceeded(MachineError):
    """The simulator hit its dynamic instruction budget (likely a hang)."""


class CompileError(ReproError):
    """The AOT compiler substrate failed to compile a kernel."""


class RegisterPressureError(CompileError):
    """A code generator ran out of architectural registers."""


class CodegenError(ReproError):
    """The JIT code generator was asked for an unsupported configuration."""


class HostUnsupported(ReproError):
    """Generated code cannot run on this host (:mod:`repro.exec.host`).

    ``reason`` is a short machine-readable slug — ``"arch"``,
    ``"no-avx"``, ``"mmap"``, ``"mprotect"``, ``"vgatherdps"``, ... —
    that labels the ``exec_host_fallback_total`` counter when a caller
    answers with the address-free scipy template instead.
    """

    def __init__(self, message: str, reason: str = "unsupported"):
        super().__init__(message)
        self.reason = reason


class DatasetError(ReproError):
    """A dataset name is unknown or a generator was misconfigured."""


class RegistryError(ReproError):
    """A system name could not be resolved by :mod:`repro.api`."""


class ServiceClosed(ReproError):
    """A request reached a service after :meth:`SpmmService.close`."""


class GatewayError(ReproError):
    """Base class for serving-gateway failures (:mod:`repro.serve.gateway`).

    Raised client-side for transport problems, and used as the fallback
    for remote error names that do not map onto a known exception class.
    """


class ProtocolError(GatewayError):
    """A wire frame is malformed: bad magic, unknown op, truncated or
    inconsistent payload."""


class FrameTooLarge(ProtocolError):
    """A frame (or the shm slot it must fit) exceeds the size limit."""


class GatewayOverloaded(GatewayError):
    """The gateway rejected a request under backpressure.

    Emitted instead of unbounded buffering when the gateway-wide
    in-flight cap, a per-tenant quota, the shared-memory ring, or an
    open per-worker circuit breaker refuses a request; ``reason``
    names which limit fired.
    """

    def __init__(self, message: str = "", reason: str = "overloaded"):
        super().__init__(message or f"gateway overloaded ({reason})")
        self.reason = reason


class WorkerCrashed(GatewayError):
    """A gateway worker process died while a request was in flight."""


class WorkerHung(GatewayError):
    """A gateway worker exceeded the hang threshold and was killed.

    The watchdog declares a worker hung when its oldest in-flight
    request ages past ``hang_threshold_ms``; the worker's in-flight
    requests fail fast with this error while the process is killed and
    respawned through the crash-recovery path.
    """


class GatewayDisconnected(ProtocolError):
    """The gateway connection dropped mid-exchange.

    Raised client-side when the socket breaks before a complete reply
    arrives (EOF mid-frame, reset, timeout).  Normalizes the raw
    ``ConnectionError`` / ``struct.error`` surface into one typed,
    retryable signal — :class:`~repro.serve.gateway.GatewayClient`
    reconnects and retries idempotent requests on it.
    """


class DeadlineExceeded(GatewayError):
    """A request's deadline budget was exhausted before completion.

    ``deadline_ms`` rides the wire-protocol header; the gateway rejects
    already-expired requests at admission, workers refuse to start
    bind/codegen/multiply past the deadline, and the client raises this
    rather than retrying into a dead budget.
    """


class FaultConfigError(ReproError):
    """A :class:`repro.faults.FaultPlan` is malformed (unknown site,
    out-of-range probability, bad JSON)."""

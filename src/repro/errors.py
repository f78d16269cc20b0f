"""Exception hierarchy for the PHOS reproduction.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures with a single except clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly."""


class DeadlockError(SimulationError):
    """The engine ran out of events while processes were still waiting."""


class GpuError(ReproError):
    """Base class for simulated-GPU errors."""


class OutOfMemoryError(GpuError):
    """Device memory allocation failed (mirrors cudaErrorMemoryAllocation)."""


class InvalidAddressError(GpuError):
    """A kernel or DMA touched device memory outside any allocation."""


class InvalidValueError(GpuError):
    """An API argument was malformed (mirrors cudaErrorInvalidValue)."""


class KernelFault(GpuError):
    """A kernel program faulted during interpretation."""


class DmaError(GpuError):
    """A DMA transfer failed mid-flight (injected or hardware)."""


class ContextCreationError(GpuError):
    """Creating a GPU context failed (driver error, injected fault)."""


class IsaError(GpuError):
    """A kernel program is structurally invalid (bad register, label...)."""


class SignatureError(ReproError):
    """A kernel C declaration could not be parsed."""


class CheckpointError(ReproError):
    """A checkpoint or restore operation failed."""


class TornImageError(CheckpointError):
    """An image failed integrity validation (CRC mismatch, uncommitted)."""


class ProtocolCrashError(CheckpointError):
    """The checkpointer/restorer itself died mid-protocol (injected)."""


class ContextPoolError(ReproError):
    """The context pool could not satisfy a request."""

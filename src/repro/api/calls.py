"""GPU API call records and the §4.1 category taxonomy.

Every runtime entry point materializes an :class:`ApiCall` before doing
anything, and hands it to the installed interceptor (the PHOS
frontend).  The interceptor answers with a :class:`LaunchPlan` that can
swap in an instrumented twin program, attach a validation descriptor,
and prepend a ``pre_exec`` stage that runs on the GPU immediately
before the operation (where CoW stalls and restore waits live).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from repro.gpu.cost_model import KernelCost
from repro.gpu.interpreter import ValidationState
from repro.gpu.isa import Program
from repro.gpu.memory import Buffer

_call_ids = itertools.count(1)


class ApiCategory(enum.Enum):
    """The four §4.1 categories plus bookkeeping calls."""

    #: Type 1: memory move operations (cudaMemcpy and friends).
    MEMCPY_H2D = "memcpy-h2d"
    MEMCPY_D2H = "memcpy-d2h"
    MEMCPY_D2D = "memcpy-d2d"
    #: Type 2: communication kernels (NCCL collectives).
    COMM = "comm"
    #: Type 3: computation kernels with well-defined semantics (cuBLAS).
    LIB_COMPUTE = "lib-compute"
    #: Type 4: opaque kernels (user-written or JIT-compiled).
    OPAQUE_KERNEL = "opaque-kernel"
    #: Bookkeeping: not kernels, but still intercepted.
    MALLOC = "malloc"
    FREE = "free"
    SYNC = "sync"

    @property
    def has_declared_semantics(self) -> bool:
        """True for types 1-3: read/write sets come from specifications."""
        return self in DECLARED


#: Types 1-3: the categories whose read/write sets come from specifications.
DECLARED = (
    ApiCategory.MEMCPY_H2D,
    ApiCategory.MEMCPY_D2H,
    ApiCategory.MEMCPY_D2D,
    ApiCategory.COMM,
    ApiCategory.LIB_COMPUTE,
)


@dataclass
class ApiCall:
    """One intercepted GPU API invocation."""

    category: ApiCategory
    name: str
    gpu_index: int
    #: Buffers the specification declares as read (types 1-3).
    reads: list[Buffer] = field(default_factory=list)
    #: Buffers the specification declares as written (types 1-3).
    writes: list[Buffer] = field(default_factory=list)
    #: Opaque kernels: the program and its raw launch arguments.
    program: Optional[Program] = None
    args: list[int] = field(default_factory=list)
    n_threads: int = 0
    cost: KernelCost = KernelCost()  # frozen, so one default is shared
    #: Memory moves: logical transfer size.
    nbytes: int = 0
    id: int = field(default_factory=lambda: next(_call_ids))

    @property
    def is_opaque(self) -> bool:
        return self.category is ApiCategory.OPAQUE_KERNEL

    def __repr__(self) -> str:
        return f"<ApiCall #{self.id} {self.name} ({self.category.value})>"


PreExecFactory = Callable[[], Generator]


@dataclass
class LaunchPlan:
    """The interceptor's instructions for executing one call.

    ``program`` replaces the launched binary (the instrumented twin
    during an active checkpoint/restore); ``validation`` is the range
    descriptor + violation buffer for that twin; ``pre_exec`` runs
    in-stream before the operation (stalls, CoW copies, on-demand
    fetches); ``on_complete`` runs after the operation's functional
    effect, with the operation's result (``None`` if the effect raised):
    validator result handling, dirty-set updates.
    """

    program: Optional[Program] = None
    validation: Optional[ValidationState] = None
    pre_exec: Optional[PreExecFactory] = None
    on_complete: Optional[Callable[[ApiCall, object], None]] = None
    #: Extra CPU-side latency for this call (e.g. IPC to the daemon).
    frontend_overhead: float = 0.0


#: The plan used when no interceptor is installed.
PASSTHROUGH_PLAN = LaunchPlan()

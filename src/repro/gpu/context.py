"""GPU execution contexts and their creation cost.

Creating a context (CUcontext plus library handles) dominates restore
latency in stop-the-world systems: §2.3 measures 3.1 s of context
creation against 1.7 s of data copy for Llama2-13B inference.  The
:class:`GpuContext` here carries exactly the state the paper's context
pool (§6) pre-creates: the driver context itself, loaded kernel modules,
a cuBLAS handle, and optionally an NCCL communicator scope.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.gpu.cost_model import DEFAULT_CONTEXT_COSTS
from repro.sim.engine import Engine

_context_ids = itertools.count(1)


@dataclass
class ContextRequirements:
    """What a process needs from its execution context."""

    n_modules: int
    use_cublas: bool = True
    nccl_gpus: int = 0

    def satisfied_by(self, ctx: "GpuContext") -> bool:
        """True when a pooled context can serve these requirements.

        Pooled contexts pre-load common library modules but JIT user
        modules on first use; module loading is charged lazily either
        way, so only the cuBLAS handle and NCCL scope gate reuse.
        """
        if self.use_cublas and not ctx.has_cublas:
            return False
        if self.nccl_gpus > ctx.nccl_scope:
            return False
        return True


@dataclass
class GpuContext:
    """One created execution context on one GPU."""

    gpu_index: int
    has_cublas: bool = True
    #: Number of GPUs covered by the pre-created NCCL group communicator.
    nccl_scope: int = 0
    loaded_modules: set[str] = field(default_factory=set)
    pooled: bool = False
    id: int = field(default_factory=lambda: next(_context_ids))

    def load_module(self, name: str) -> None:
        """Record a kernel module as loaded (JIT or binary load)."""
        self.loaded_modules.add(name)


def create_context(
    engine: Engine,
    gpu_index: int,
    requirements: ContextRequirements,
):
    """A generator process that creates a context from scratch.

    Pays the full driver-init + module-load + library-handle cost
    (§2.3's restoration barrier).  Returns the new context.
    """
    from repro import chaos  # late import: context is a low-level leaf module

    if chaos._injector is not None:
        chaos._injector.trip("context-error")
    duration = DEFAULT_CONTEXT_COSTS.full_creation_time(
        n_modules=requirements.n_modules,
        use_cublas=requirements.use_cublas,
        nccl_gpus=requirements.nccl_gpus,
    )
    yield engine.timeout(duration)
    ctx = GpuContext(
        gpu_index=gpu_index,
        has_cublas=requirements.use_cublas,
        nccl_scope=requirements.nccl_gpus,
    )
    ctx.loaded_modules.update(f"module-{i}" for i in range(requirements.n_modules))
    return ctx

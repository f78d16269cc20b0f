"""Pool-worker side of the parallel experiment engine.

Each worker is a **spawned** interpreter: nothing leaks in from the
parent except the environment and the pickled chunks of
``(runner, cell)`` work that ``Executor.map`` ships.  :func:`init_worker`
runs once per worker process and marks it as a worker
(:data:`in_worker`) so a runner that itself calls
:func:`repro.parallel.run_cells` degrades to serial instead of nesting
pools.  Consecutive cells on the same worker rebuild identical kernel
binaries; the warm :class:`~repro.gpu.isa.Program` cache in
:mod:`repro.apps.base` shares them, so the compiled-plan cache stays
warm across cells.  This is purely a wall-clock effect — plans
prove their bind-time preconditions against the actual device memory
(a proof is reused only on that memory, until its layout changes), so
results stay bit-identical.
"""

from __future__ import annotations

#: True only inside a pool worker (set by :func:`init_worker` in the
#: spawned interpreter); ``run_cells`` reads it to refuse nested pools.
in_worker = False


def init_worker() -> None:
    global in_worker
    in_worker = True

"""Quiescing: regulate process state to a stop-the-world-equivalent point.

Quiesce (§4.2) first stops every involved process's CPU (so no new GPU
APIs are issued), then waits for all in-flight GPU kernels and
communications to complete.  For multi-process jobs the quiesce spans
all processes so the resulting cut is consistent (§7, fault tolerance).
The coordination cost is small — the paper measures ~10 ms total
because in-flight kernels are microsecond-scale and the cross-process
barrier runs over RDMA.
"""

from __future__ import annotations

from typing import Iterable

from repro import obs, units
from repro.api.runtime import GpuProcess
from repro.sim.engine import Engine

#: Fixed cost of coordinating a (possibly distributed) quiesce barrier.
QUIESCE_COORDINATION = 4 * units.MSEC


def quiesce(engine: Engine, processes: Iterable[GpuProcess]):
    """Generator: stop CPUs, then drain every GPU the processes touch."""
    processes = list(processes)
    with obs.span("quiesce", processes=len(processes)):
        for proc in processes:
            proc.runtime.stop_cpu()
        yield engine.timeout(QUIESCE_COORDINATION)
        # Drain in-flight work directly at the device level: the gated
        # API is closed, so the backend must not go through it.
        for proc in processes:
            for gpu_index in proc.gpu_indices:
                yield from proc.machine.gpu(gpu_index).synchronize()


def resume(processes: Iterable[GpuProcess]) -> None:
    """Reopen every process's API gate."""
    for proc in processes:
        proc.runtime.resume_cpu()

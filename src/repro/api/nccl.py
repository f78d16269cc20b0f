"""NCCL-equivalent collectives: type-2 communication kernels.

A collective is issued once by the process and materializes one stream
operation per participating GPU.  The per-rank operations rendezvous at
a barrier (a real NCCL collective cannot start until every rank has
joined): each rank's stream op waits on it ``after`` starting, then
the transfer runs at ring-collective cost over NVLink, and the
functional effect is applied exactly once, by the first rank to
complete.

Each rank's operation carries its own :class:`~repro.api.calls.ApiCall`
(the in-place all-reduce reads and writes that rank's buffer): the
read/write semantics of communication kernels are known from the
NCCL specification, so PHOS never instruments them (§4.1, type 2).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro import units
from repro.api.calls import ApiCall, ApiCategory
from repro.errors import InvalidValueError
from repro.gpu.memory import Buffer
from repro.sim.engine import Engine

_comm_ids = itertools.count(1)


class NcclCommunicator:
    """A communicator over a set of GPUs connected by NVLink."""

    def __init__(self, engine: Engine, gpu_indices: list[int],
                 nvlink_bw: float = units.NVLINK_BW) -> None:
        if len(gpu_indices) < 1:
            raise InvalidValueError("communicator needs at least one GPU")
        self.engine = engine
        self.id = next(_comm_ids)
        self.gpu_indices = list(gpu_indices)
        self.nvlink_bw = nvlink_bw

    @property
    def size(self) -> int:
        return len(self.gpu_indices)

    def allreduce_time(self, nbytes: int) -> float:
        """Ring all-reduce: 2(n-1)/n of the data crosses each link."""
        n = self.size
        if n == 1:
            return 0.0
        return (2 * (n - 1) / n) * nbytes / self.nvlink_bw


def nccl_allreduce(runtime, comm: NcclCommunicator,
                   buffers: dict[int, Buffer], sync: bool = False):
    """Generator: all-reduce ``buffers`` (one per GPU index) in place."""
    _check_ranks(comm, buffers)
    nbytes = next(iter(buffers.values())).size
    duration = comm.allreduce_time(nbytes)

    def apply() -> None:
        views = [buffers[i].data.view(np.uint64) for i in comm.gpu_indices]
        with np.errstate(over="ignore"):
            total = views[0].copy()
            for v in views[1:]:
                total += v
        for v in views:
            v[:] = total
        for i in comm.gpu_indices:
            buffers[i].touch()

    ops = yield from _issue(runtime, comm, "ncclAllReduce", buffers,
                            duration, apply)
    if sync:
        for op in ops:
            yield op.done
    return ops


def _check_ranks(comm: NcclCommunicator, buffers: dict[int, Buffer]) -> None:
    if set(buffers) != set(comm.gpu_indices):
        raise InvalidValueError(
            f"collective buffers {sorted(buffers)} do not match communicator "
            f"GPUs {sorted(comm.gpu_indices)}"
        )


def _issue(runtime, comm: NcclCommunicator, name: str,
           buffers: dict[int, Buffer], duration: float, apply):
    """Create the per-rank stream ops with a shared start barrier."""
    engine = runtime.engine
    yield from runtime._gate()
    everyone = engine.event(name=f"{name}-start")
    arrivals = {"count": 0}
    applied = {"done": False}
    n = comm.size

    def arrive() -> float:
        arrivals["count"] += 1
        if arrivals["count"] == n:
            everyone.succeed()
        return duration

    def effect() -> None:
        if not applied["done"]:
            applied["done"] = True
            apply()

    ops = []
    for gpu_index in comm.gpu_indices:
        runtime._require_context(gpu_index)
        buf = buffers[gpu_index]
        call = ApiCall(ApiCategory.COMM, name, gpu_index,
                       reads=[buf], writes=[buf], nbytes=buf.size)
        plan = runtime._frontend(call)
        yield from runtime._call_overhead(plan)
        ops.append(runtime._submit(gpu_index, None, name, arrive, effect,
                                   call, plan, after=everyone))
    return ops

"""NCCL-equivalent collectives: type-2 communication kernels.

A communicator's ranks are ``(runtime, gpu_index)`` pairs, which may
belong to different processes on different machines; a bare GPU index
names a GPU of the runtime that issues the collective.  A collective is
issued only at an instant when every rank's API gate is open, and then
materializes one stream operation per rank through that rank's own
runtime (frontend, call overhead, stream).  So a global quiesce either
stops every rank before the collective or drains it on every rank: no
rank waits on a peer the barrier has already stopped.

The per-rank operations rendezvous at a barrier (a real NCCL collective
cannot start until every rank has joined): each rank's stream op waits
on it ``after`` starting, then the transfer runs at ring-collective
cost, and the functional effect is applied exactly once, by the first
rank to complete.

Each rank's operation carries its own :class:`~repro.api.calls.ApiCall`
(the in-place all-reduce reads and writes that rank's buffer): the
read/write semantics of communication kernels are known from the
NCCL specification, so PHOS never instruments them (§4.1, type 2).
"""

from __future__ import annotations

from repro import units
from repro.api.calls import ApiCall, ApiCategory
from repro.cluster import Cluster
from repro.errors import InvalidValueError
from repro.sim.engine import Engine


class NcclCommunicator:
    """A ring over GPUs: NVLink between two ranks on one machine, the
    ``cluster``'s RDMA link between ranks on different machines."""

    def __init__(self, engine: Engine, ranks: list,
                 nvlink_bw: float = units.NVLINK_BW,
                 cluster: Cluster | None = None) -> None:
        if len(ranks) < 1:
            raise InvalidValueError("communicator needs at least one GPU")
        if len({isinstance(rank, tuple) for rank in ranks}) > 1:
            raise InvalidValueError(
                "communicator ranks are all GPU indices or all "
                "(runtime, gpu_index) pairs")
        self.engine = engine
        self.ranks = list(ranks)
        #: ``(bandwidth, latency)`` of each ring hop, rank i to rank i+1.
        self.hops = [
            _hop(a, b, nvlink_bw, cluster)
            for a, b in zip(self.ranks, self.ranks[1:] + self.ranks[:1])
        ]

    @property
    def size(self) -> int:
        return len(self.ranks)

    def allreduce_time(self, nbytes: int) -> float:
        """Ring all-reduce: 2(n-1) steps, each moving 1/n of the data
        over every hop at once, so a step costs its slowest hop."""
        n = self.size
        if n == 1:
            return 0.0
        return max((2 * (n - 1) / n) * nbytes / bandwidth
                   + 2 * (n - 1) * latency
                   for bandwidth, latency in self.hops)


def _hop(a, b, nvlink_bw: float,
         cluster: Cluster | None) -> tuple[float, float]:
    machines = [rank[0].machine if isinstance(rank, tuple) else None
                for rank in (a, b)]
    if machines[0] is machines[1]:
        return nvlink_bw, 0.0
    if cluster is None:
        raise InvalidValueError("ranks on two machines need their cluster")
    link = cluster.link(*machines)
    return link.bandwidth, link.latency


def nccl_allreduce(runtime, comm: NcclCommunicator, buffers: dict,
                   sync: bool = False):
    """Generator: all-reduce ``buffers`` (one per rank) in place.

    ``runtime`` issues the collective; bare GPU-index ranks are its GPUs.
    """
    if buffers.keys() != set(comm.ranks):
        raise InvalidValueError(
            "collective buffers do not match the communicator's ranks")
    duration = comm.allreduce_time(next(iter(buffers.values())).size)
    ranks = [rank if isinstance(rank, tuple) else (runtime, rank)
             for rank in comm.ranks]
    bufs = [buffers[rank] for rank in comm.ranks]
    # Issue only at an instant when every gate is open: a part submitted
    # before waiting at a peer's closed gate would hold its stream at the
    # barrier, and a quiesce draining that stream would never finish.
    closed = [rt for rt, _gpu in ranks if rt.cpu_stopped]
    while closed:
        yield from closed[0]._gate()
        closed = [rt for rt, _gpu in ranks if rt.cpu_stopped]
    everyone = runtime.engine.event(name="ncclAllReduce-start")
    arrivals = 0
    applied = False

    def arrive() -> float:
        nonlocal arrivals
        arrivals += 1
        if arrivals == len(bufs):
            everyone.succeed()
        return duration

    def apply() -> None:
        nonlocal applied
        if applied:
            return
        applied = True
        views = [buf.words for buf in bufs]
        total = views[0].copy()  # uint64 arrays wrap silently
        for v in views[1:]:
            total += v
        for v, buf in zip(views, bufs):
            v[:] = total
            buf.touch()

    ops = []
    for (rt, gpu_index), buf in zip(ranks, bufs):
        rt._require_context(gpu_index)
        call = ApiCall(ApiCategory.COMM, "ncclAllReduce", gpu_index,
                       reads=[buf], writes=[buf], nbytes=buf.size)
        plan = rt._frontend(call)
        yield from rt._call_overhead(plan)
        ops.append(rt._submit(gpu_index, None, "ncclAllReduce", arrive,
                              apply, call, plan, after=everyone))
    if sync:
        for op in ops:
            yield op.done
    return ops

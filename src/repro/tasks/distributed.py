"""Distributed (multi-machine) training jobs and consistent C/R (§7).

Fault tolerance for distributed computing is the paper's first
downstream task: "we need to ensure the checkpoint from all the
involved processes is consistent.  Thus, we extended the quiescing
phase across all involved processes.  After the quiesce, we can
checkpoint each process with CoW separately."  Fig. 16's breakdown
notes that "coordinating between threads with RDMA to reach a global
quiesce is extremely efficient".

:class:`DistributedJob` runs one data-parallel replica per machine
(each replica may itself span several GPUs), averages gradients every
step with :func:`~repro.api.nccl.nccl_allreduce` over the replicas (a
ring over the inter-machine RDMA links, issued through each replica's
runtime, so a cut taken mid-step guards it like any call), and offers:

* :meth:`checkpoint_all` — a globally-consistent CoW checkpoint of all
  replicas (one cross-machine quiesce barrier, then per-process CoW);
* :meth:`recover` — the paper's failure response: stop everything,
  restore every replica from the latest consistent cut, resume.
"""

from __future__ import annotations

from repro import units
from repro.api.nccl import NcclCommunicator, nccl_allreduce
from repro.apps.specs import AppSpec, get_spec
from repro.cluster import Cluster
from repro.core.daemon import collect_cut
from repro.core.protocols import ProtocolConfig
from repro.core.quiesce import quiesce
from repro.errors import CheckpointError, InvalidValueError
from repro.sim.engine import Engine
from repro.tasks.worker import Worker

#: One RDMA round-trip per machine joining the global quiesce barrier.
CROSS_MACHINE_BARRIER_RTT = 10 * units.USEC


class DistributedJob:
    """A data-parallel job: one replica process per machine."""

    def __init__(self, engine: Engine, cluster: Cluster, spec_name: str) -> None:
        self.engine = engine
        self.cluster = cluster
        self.spec: AppSpec = get_spec(spec_name)
        if self.spec.kind != "train":
            raise InvalidValueError("distributed jobs are training jobs")
        self.replicas: list[Worker] = []   # one per machine
        self.images: list = []     # latest consistent cut
        self.cut_steps = 0         # steps done at that cut
        self.steps_done = 0

    # -- lifecycle ---------------------------------------------------------------
    def setup(self):
        """Generator: provision and initialize one replica per machine."""
        for machine in self.cluster.machines:
            self.replicas.append(Worker(self.engine, machine).launch(
                self.spec, name=f"{self.spec.name}@{machine.name}"))
        for replica in self.replicas:
            yield from replica.workload.setup()

    @property
    def processes(self):
        return [replica.process for replica in self.replicas]

    # -- training ----------------------------------------------------------------
    def run_steps(self, n: int):
        """Generator: n data-parallel steps, each ending with an
        all-reduce of the first gradient buffer of every replica's first
        GPU (an elementwise sum, so replicas agree)."""
        ranks = [(replica.process.runtime, replica.process.gpu_indices[0])
                 for replica in self.replicas]
        comm = NcclCommunicator(self.engine, ranks, cluster=self.cluster)
        grads = {rank: replica.workload.groups[rank[1]]["grads"].buffers[0]
                 for rank, replica in zip(ranks, self.replicas)}
        for _ in range(n):
            step_procs = [
                self.engine.spawn(
                    replica.workload.run(1, start=self.steps_done),
                    name=f"step-{replica.machine.name}",
                )
                for replica in self.replicas
            ]
            yield self.engine.all_of(step_procs)
            yield from nccl_allreduce(ranks[0][0], comm, grads, sync=True)
            self.steps_done += 1

    # -- consistent checkpoint -----------------------------------------------------
    def checkpoint_all(self, name: str = "",
                       config: ProtocolConfig | None = None):
        """Generator: one globally-consistent CoW cut of every replica.

        Every replica is checkpointed with the same ``config`` (one
        :class:`ProtocolConfig` shared across machines, so the cut is
        tuned uniformly).  Returns the list of images (one per replica,
        same cut).
        """
        if not self.replicas:
            raise CheckpointError("job has no replicas to checkpoint")
        # The global quiesce barrier spans machines over RDMA.
        yield self.engine.timeout(
            CROSS_MACHINE_BARRIER_RTT * len(self.replicas)
        )
        yield from quiesce(self.engine, self.processes)
        steps = self.steps_done
        results = yield from collect_cut([
            (replica.process, replica.phos.medium, replica.checkpoint(
                "cow", config, name=f"{name or 'dist'}-{replica.machine.name}"))
            for replica in self.replicas
        ])
        self.images = [image for image, _session in results]
        self.cut_steps = steps
        return self.images

    # -- failure recovery ----------------------------------------------------------
    def recover(self):
        """Generator: stop everything, restore every replica from the
        latest consistent cut, and rebind the workloads (§7).  The job
        goes on from the cut's step count: progress past it is lost."""
        if not self.images:
            raise CheckpointError("no consistent checkpoint to recover from")
        # "PHOS stops all GPU processes" — the survivors quiesce, the
        # failed ones are gone; all device memory is reclaimed.
        for replica in self.replicas:
            replica.phos.kill(replica.process)
        restores = [
            self.engine.spawn(replica.restore(image, replica.workload),
                              name="dist-restore")
            for replica, image in zip(self.replicas, self.images)
        ]
        self.steps_done = self.cut_steps
        return (yield self.engine.all_of(restores))

    # -- introspection -------------------------------------------------------------
    def replica_states(self) -> list[dict[str, bytes]]:
        """Functional snapshot of each replica's GPU state, by tag."""
        out = []
        for replica in self.replicas:
            state = {}
            for gpu_index, bufs in replica.process.runtime.allocations.items():
                for buf in bufs:
                    state[buf.tag] = buf.snapshot()
            out.append(state)
        return out

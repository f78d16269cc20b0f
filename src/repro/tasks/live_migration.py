"""Live migration of GPU processes between machines (§7, Fig. 13).

PHOS implements pre-copy-style live migration: a soft-recopy checkpoint
streams state to the target over GPU-direct RDMA while the process runs
("the destination should resume exactly at the last execution state"),
then the final quiesce + recopy moves only the dirty delta, and the
process resumes on the target with a pooled context — no redundant
staging through host memory.

Baselines stop the world for the entire transfer: their downtime is the
full copy over 100 Gbps RDMA plus the context-creation barrier.

Downtime = (first step completed on target) - (source stopped for the
final time).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs, units
from repro.apps.specs import get_spec
from repro.baselines import get_system
from repro.cluster import Cluster
from repro.core.engine import EXPERIMENT_CHUNK
from repro.core.protocols import ProtocolConfig
from repro.errors import InvalidValueError
from repro.sim import DomainChannel, Engine
from repro.storage.media import Medium
from repro.tasks.worker import Worker, new_engine

#: Per-GPU RDMA NIC bandwidth (100 Gbps each, §8 testbed).
RDMA_PER_GPU = units.RDMA_100GBPS


@dataclass
class MigrationResult:
    system: str
    app: str
    #: Application downtime (seconds) — Fig. 13's metric.
    downtime: float
    #: Wall time of the whole migration (pre-copy included).
    total_time: float
    supported: bool = True


def _rdma_medium(engine: Engine, n_gpus: int) -> Medium:
    """The GPU-direct RDMA path into the target machine's GPU memory.

    One 100 Gbps NIC per GPU; flows from different GPUs ride different
    NICs, so the aggregate is n_gpus x 12.5 GBps.
    """
    bw = n_gpus * RDMA_PER_GPU
    return Medium(engine, name="gpu-direct-rdma", write_bw=bw, read_bw=bw,
                  latency=5 * units.USEC)


def migrate(system: str, spec_name: str,
            clock_domains: bool = False) -> MigrationResult:
    """Migrate one application between two machines; returns downtime.

    ``clock_domains=True`` puts source and target on separate
    homes (:class:`~repro.sim.domains.Home`) of one engine, which arms the
    affinity rule between them: the restore half runs as a server process
    *on the target*, started by a control message over an RDMA-latency
    channel and acknowledged with the target-side resume timestamp,
    instead of an inline call.  Only a concurrent system supports it (the
    baselines stop the world and run inline by construction); downtime
    matches the single-home run to within the control-message latency.
    """
    spec = get_spec(spec_name)
    row = get_system(system)
    if clock_domains and not row.concurrent:
        raise InvalidValueError(
            "clock_domains migration is only modelled for "
            "system='phos'; the baselines run inline on one engine"
        )
    if not row.supports(spec.n_gpus):
        return MigrationResult(system=system, app=spec_name, downtime=float("nan"),
                               total_time=float("nan"), supported=False)
    cluster = Cluster.testbed(
        new_engine(spec_name), n_machines=2, n_gpus=spec.n_gpus,
        clock_domains="per-machine" if clock_domains else "single")
    src, dst = cluster.machines
    eng = src.engine
    source = Worker(eng, src, system)
    target = Worker(dst.engine, dst, system, use_pool=True)
    workload = source.launch(spec).workload
    rdma = _rdma_medium(eng, spec.n_gpus)
    #: Per-GPU flows are NIC-bound: cap each at RDMA, not PCIe.
    scale = min(1.0, RDMA_PER_GPU / src.spec.pcie_bw)
    # GPU-direct already placed the data in target GPU memory.
    placed = ProtocolConfig(skip_data_copy=True)

    # The job keeps serving during the live pre-copy; run enough steps
    # to span the transfer window.
    steps_during = max(2, int(10.0 / spec.step_time))

    if not clock_domains:
        def resume_on_target(image):
            yield from target.restore(image, workload, config=placed)
            return eng.now
    else:
        ctrl = DomainChannel(eng, dst.engine, units.RDMA_LINK_LATENCY,
                             name="migrate-ctrl")
        ack = DomainChannel(dst.engine, eng, units.RDMA_LINK_LATENCY,
                            name="migrate-ack")

        def server():
            image = yield ctrl.recv()
            yield from target.restore(image, config=placed)
            ack.send(dst.engine.now)

        dst.engine.spawn(server(), name="migrate-server")

        def resume_on_target(image):
            ctrl.send(image)
            return (yield ack.recv())

    def driver():
        yield from workload.setup()
        yield from workload.run(2)
        t_start = stop_time = eng.now
        handle = source.checkpoint(
            "recopy", ProtocolConfig(keep_stopped=True, bandwidth_scale=scale,
                                     chunk_bytes=EXPERIMENT_CHUNK),
            medium=rdma)
        if row.concurrent:
            # The application keeps running through the pre-copy; it
            # blocks at the API gate when the final quiesce hits.
            eng.spawn(workload.run(steps_during), name="migrating-app")
        image, session = yield handle
        if session is not None:
            stop_time = session.final_quiesce_start
        # Downtime ends when the process can execute again.
        resumed = yield from resume_on_target(image)
        obs.record("task/migrate-downtime", stop_time, end=resumed,
                   system=system, app=spec_name)
        obs.record("task/migrate-total", t_start, end=resumed,
                   system=system, app=spec_name)
        if not clock_domains:
            # The step after merely validates that the process actually
            # executes.  Per-machine, it is skipped: it runs after the
            # downtime window closes, and the restored process lives on
            # a home the source-side workload driver must not touch.
            yield from workload.run(1)
        return resumed - stop_time, resumed - t_start

    downtime, total = eng.run_process(driver(), name="migrate-driver")
    eng.run()
    return MigrationResult(system=system, app=spec_name,
                           downtime=downtime, total_time=total)

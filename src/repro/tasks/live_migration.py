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

from repro import baselines, obs, units
from repro.apps.base import provision
from repro.apps.specs import get_spec
from repro.cluster import Cluster
from repro.core.daemon import Phos
from repro.core.protocols import ProtocolConfig
from repro.errors import InvalidValueError
from repro.sim import Engine
from repro.sim.domains import World
from repro.storage.media import Medium
from repro.tasks.fault_tolerance import EXPERIMENT_CHUNK

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


def migrate(system: str, spec_name: str, warm_steps: int = 2,
            chunk_bytes: int = EXPERIMENT_CHUNK,
            clock_domains: bool = False) -> MigrationResult:
    """Migrate one application between two machines; returns downtime.

    ``clock_domains=True`` shards source and target into separate
    :class:`~repro.sim.domains.ClockDomain` machines: the restore runs
    in the target domain, driven by control messages over RDMA-latency
    channels instead of an inline call.  Only ``system="phos"`` supports
    it (the baselines stop the world and run inline by construction);
    downtime matches the single-domain run to within the control-message
    latency.
    """
    spec = get_spec(spec_name)
    if clock_domains:
        if system != "phos":
            raise InvalidValueError(
                "clock_domains migration is only modelled for "
                "system='phos'; the baselines run inline on one engine"
            )
        return _migrate_phos_domains(spec_name, spec, warm_steps, chunk_bytes)
    if not baselines.supports(system, spec.n_gpus):
        return MigrationResult(system=system, app=spec_name, downtime=float("nan"),
                               total_time=float("nan"), supported=False)
    eng = Engine()
    cluster = Cluster.testbed(eng, n_machines=2, n_gpus=spec.n_gpus)
    src, dst = cluster.machines
    phos_src = Phos(eng, src, use_context_pool=False)
    phos_dst = Phos(eng, dst, use_context_pool=(system == "phos"))
    if system == "phos":
        eng.run_process(phos_dst.boot())
    process, workload = provision(eng, src, spec)
    phos_src.attach(process)
    rdma = _rdma_medium(eng, spec.n_gpus)
    #: Per-GPU flows are NIC-bound: cap each at RDMA, not PCIe.
    scale = min(1.0, RDMA_PER_GPU / src.spec.pcie_bw)

    # The job keeps serving during the live pre-copy; run enough steps
    # to span the transfer window.
    steps_during = max(2, int(10.0 / spec.step_time))

    def driver(eng):
        yield from workload.setup()
        yield from workload.run(warm_steps)
        t_start = eng.now
        if system == "phos":
            handle = phos_src.checkpoint(
                process, mode="recopy", medium=rdma,
                config=ProtocolConfig(keep_stopped=True, bandwidth_scale=scale,
                                      chunk_bytes=chunk_bytes),
            )
            # The application keeps running through the pre-copy; it
            # blocks at the API gate when the final quiesce hits.
            eng.spawn(workload.run(steps_during), name="migrating-app")
            image, session = yield handle
            stop_time = session.final_quiesce_start
            # GPU-direct already placed the data in target GPU memory.
            result = yield from phos_dst.restore(
                image, gpu_indices=list(range(spec.n_gpus)),
                machine=dst, skip_data_copy=True,
            )
            new_process = result[0]
        else:
            stop_time = eng.now
            image = yield from baselines.checkpoint(
                system, eng, process, rdma, phos_src.criu, keep_stopped=True,
            )
            new_process = yield from baselines.restore(
                system, eng, image, dst, list(range(spec.n_gpus)),
                dst.dram, phos_dst.criu,
            )
        workload.bind_restored(new_process)
        # Downtime ends when the process can execute again; the step
        # after merely validates that it actually does.
        resumed = eng.now
        obs.record("task/migrate-downtime", stop_time, end=resumed,
                   system=system, app=spec_name)
        obs.record("task/migrate-total", t_start, end=resumed,
                   system=system, app=spec_name)
        yield from workload.run(1)
        return resumed - stop_time, resumed - t_start

    downtime, total = eng.run_process(driver(eng))
    eng.run()
    return MigrationResult(system=system, app=spec_name,
                           downtime=downtime, total_time=total)


def _migrate_phos_domains(spec_name: str, spec, warm_steps: int,
                          chunk_bytes: int) -> MigrationResult:
    """PHOS migration with source and target in separate clock domains.

    The source-side driver is unchanged up to the final quiesce; the
    restore half runs as a server process *in the target domain*,
    started by a control message and acknowledged with the target-side
    resume timestamp.  The post-restore validation step of the
    single-domain path is skipped — it runs after the downtime window
    closes and only validates, and the restored process lives in a
    domain the source-side workload driver must not touch.
    """
    world = World()
    cluster = Cluster.testbed(world, n_machines=2, n_gpus=spec.n_gpus)
    src, dst = cluster.machines
    eng_src, eng_dst = src.engine, dst.engine
    ctrl = world.channel(eng_src, eng_dst, units.RDMA_LINK_LATENCY,
                         name="migrate-ctrl", kind="control")
    ack = world.channel(eng_dst, eng_src, units.RDMA_LINK_LATENCY,
                        name="migrate-ack", kind="control")
    phos_src = Phos(eng_src, src, use_context_pool=False)
    phos_dst = Phos(eng_dst, dst, use_context_pool=True)
    # Boot the target daemon to completion before provisioning; the
    # full drain re-joins both domain clocks at the frontier, so the
    # source-side driver starts at the same timestamp as in the
    # single-engine run (where boot advances the one shared clock).
    eng_dst.spawn(phos_dst.boot(), name="boot")
    world.run()
    process, workload = provision(eng_src, src, spec)
    phos_src.attach(process)
    rdma = _rdma_medium(eng_src, spec.n_gpus)
    scale = min(1.0, RDMA_PER_GPU / src.spec.pcie_bw)
    steps_during = max(2, int(10.0 / spec.step_time))

    def server():
        cmd, image, n_gpus = yield ctrl.recv()
        assert cmd == "restore"
        yield from phos_dst.restore(
            image, gpu_indices=list(range(n_gpus)),
            machine=dst, skip_data_copy=True,
        )
        ack.send(("restored", eng_dst.now))

    def driver():
        yield from workload.setup()
        yield from workload.run(warm_steps)
        t_start = eng_src.now
        handle = phos_src.checkpoint(
            process, mode="recopy", medium=rdma,
            config=ProtocolConfig(keep_stopped=True, bandwidth_scale=scale,
                                  chunk_bytes=chunk_bytes),
        )
        eng_src.spawn(workload.run(steps_during), name="migrating-app")
        image, session = yield handle
        stop_time = session.final_quiesce_start
        ctrl.send(("restore", image, spec.n_gpus))
        _, resumed = yield ack.recv()
        obs.record("task/migrate-downtime", stop_time, end=resumed,
                   system="phos", app=spec_name)
        obs.record("task/migrate-total", t_start, end=resumed,
                   system="phos", app=spec_name)
        return resumed - stop_time, resumed - t_start

    eng_dst.spawn(server(), name="migrate-server")
    downtime, total = world.run(
        eng_src.spawn(driver(), name="migrate-driver"))
    world.run()
    return MigrationResult(system="phos", app=spec_name,
                           downtime=downtime, total_time=total)

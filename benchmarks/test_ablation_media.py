"""Ablation: checkpoint medium choice (host DRAM vs SSD vs remote DRAM).

§3: "PHOS can read and write checkpoints to local SSD, CPU DRAM and
even the DRAM of another machine via RDMA"; §8.1 stores fault-tolerance
checkpoints in host memory "to avoid slow storage".  This bench
quantifies that choice: the CoW checkpoint's completion time (and hence
the minimum checkpoint interval) as a function of the medium.
"""

import pytest

from repro.core.engine import EXPERIMENT_CHUNK
from repro.core.protocols import ProtocolConfig
from repro.experiments.harness import ExperimentResult, build_world, setup_app
from repro.storage.media import DramMedia, RemoteDramMedia, SsdMedia

APP = "ppo-train"


def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="ablation-media",
        title="CoW checkpoint completion time by checkpoint medium",
        columns=["medium", "completion_s", "stall_s"],
        notes="the paper stores hot checkpoints in host DRAM (§8.1)",
    )
    for name, medium_cls in (("host-dram", DramMedia), ("local-ssd", SsdMedia),
                             ("remote-dram-rdma", RemoteDramMedia)):
        world = build_world(APP)
        eng, phos = world.engine, world.phos
        medium = medium_cls(eng)
        setup_app(world, warm=1)

        def driver(eng):
            t0 = eng.now
            yield from world.workload.run(2)
            base = (eng.now - t0) / 2
            handle = phos.checkpoint(
                world.process, mode="cow", medium=medium,
                config=ProtocolConfig(chunk_bytes=EXPERIMENT_CHUNK))
            t1 = eng.now
            yield from world.workload.run(4)
            stall = (eng.now - t1) - 4 * base
            image, session = yield handle
            completion = eng.now - t1
            return completion, max(0.0, stall)

        completion, stall = eng.run_process(driver(eng))
        eng.run()
        result.add(medium=name, completion_s=completion, stall_s=stall)
    return result


def test_ablation_media(experiment):
    result = experiment(run)
    rows = {r["medium"]: r for r in result.rows}
    # DRAM finishes fastest; SSD is the slow medium the paper avoids.
    assert rows["host-dram"]["completion_s"] < rows["remote-dram-rdma"]["completion_s"]
    assert rows["remote-dram-rdma"]["completion_s"] < rows["local-ssd"]["completion_s"]
    # Concurrency keeps the *stall* small on every medium — the medium
    # bounds checkpoint frequency, not application progress.
    for row in result.rows:
        assert row["stall_s"] < 0.5 * row["completion_s"]

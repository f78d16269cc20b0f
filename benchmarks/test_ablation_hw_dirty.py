"""Ablation: validated speculation vs hypothetical hardware dirty bits.

§9 discusses what a GPU dirty-bit extension (as GPU snapshot [37]
simulated — no real hardware has one) would change: it removes the
validator overhead and the over-tracing of buffer-granular speculation,
but only for the recopy protocol — CoW and the restore-side read set
still need the speculative interception.  This bench quantifies the
recopy-side difference.
"""

import pytest

from repro import units
from repro.core.engine import EXPERIMENT_CHUNK
from repro.core.protocols import ProtocolConfig, registry
from repro.core.quiesce import resume
from repro.experiments.harness import ExperimentResult, build_world, setup_app

APP = "sd-infer"
STEPS_DURING = 60


def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="ablation-hw-dirty",
        title="Soft (speculated) vs hardware-dirty-bit recopy",
        columns=["tracker", "recopied_gb", "downtime_s", "supports_cow"],
        notes="§9: a hardware dirty bit alone cannot support soft CoW or "
              "on-demand restore",
    )
    # --- soft recopy (validated speculation) ---------------------------------
    world = build_world(APP)
    eng, phos = world.engine, world.phos
    setup_app(world, warm=1)

    def soft_driver(eng):
        handle = phos.checkpoint(
            world.process, mode="recopy",
            config=ProtocolConfig(keep_stopped=True,
                                  chunk_bytes=EXPERIMENT_CHUNK))
        eng.spawn(world.workload.run(STEPS_DURING))
        image, session = yield handle
        downtime = eng.now - session.final_quiesce_start
        resume([world.process])
        return session.stats.bytes_recopied, downtime

    soft_bytes, soft_down = eng.run_process(soft_driver(eng))
    result.add(tracker="soft-speculation", recopied_gb=soft_bytes / units.GB,
               downtime_s=soft_down, supports_cow=True)
    # --- hardware dirty bits --------------------------------------------------
    world = build_world(APP)
    eng, phos = world.engine, world.phos
    setup_app(world, warm=1)

    def hw_driver(eng):
        protocol = registry.create(
            "hw-dirty",
            config=ProtocolConfig(keep_stopped=True,
                                  chunk_bytes=EXPERIMENT_CHUNK))
        handle = eng.spawn(protocol.checkpoint(
            eng, process=world.process, medium=phos.medium, criu=phos.criu,
        ))
        eng.spawn(world.workload.run(STEPS_DURING))
        _image, session = yield handle
        downtime = eng.now - session.final_quiesce_start
        resume([world.process])
        return session.stats.bytes_recopied, downtime

    hw_bytes, hw_down = eng.run_process(hw_driver(eng))
    result.add(tracker="hw-dirty-bits", recopied_gb=hw_bytes / units.GB,
               downtime_s=hw_down, supports_cow=False)
    return result


def test_ablation_hw_dirty(experiment):
    result = experiment(run)
    rows = {r["tracker"]: r for r in result.rows}
    soft = rows["soft-speculation"]
    hw = rows["hw-dirty-bits"]
    # Both identify a real, same-scale dirty set.
    assert soft["recopied_gb"] > 0 and hw["recopied_gb"] > 0
    assert 0.3 <= soft["recopied_gb"] / hw["recopied_gb"] <= 3.0
    # Only the speculative tracker generalizes to CoW (§9).
    assert soft["supports_cow"] and not hw["supports_cow"]

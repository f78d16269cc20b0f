"""Fig. 19 — impact of checkpoint timing on CoW performance.

Llama2-13B training, checkpoint requested either (1) at the beginning
of an iteration — before the forward pass, when only activations will
be written soon — or (2) right before the optimizer update, which
writes most buffers.  §8.3: timing (1) meets few CoW stalls because
the checkpoint finishes before the write-heavy update phase.
"""

from __future__ import annotations

from repro import units
from repro.experiments.harness import (
    ExperimentResult,
    experiment_config,
    setup_app,
)
from repro.tasks.worker import new_world

APP = "llama2-13b-train"


def _measure(timing: str, steps: int = 2):
    world = new_world(APP)
    eng, phos = world.engine, world.phos
    setup_app(world, warm=2)
    workload = world.workload

    def driver(eng):
        t0 = eng.now
        yield from workload.run(steps)
        base = (eng.now - t0) / steps
        start = workload.steps_done
        if timing == "iteration-start":
            handle = phos.checkpoint(world.process, mode="cow",
                                     config=experiment_config())
            t1 = eng.now
            yield from workload.run(steps, start=start)
        else:  # at the update phase: run most of an iteration first
            t1 = eng.now
            # Issue the checkpoint right before the optimizer of the
            # next iteration by interleaving: run one partial step.
            handle = None

            def late_checkpoint(eng):
                # Wait until ~75% through the iteration (backward done,
                # optimizer about to start).
                yield eng.timeout(0.76 * base)
                return phos.checkpoint(world.process, mode="cow",
                                       config=experiment_config())

            starter = eng.spawn(late_checkpoint(eng))
            yield from workload.run(steps, start=start)
            handle = starter.result
        elapsed = eng.now - t1
        image, session = yield handle
        return base, elapsed - steps * base, session

    base, stall, session = eng.run_process(driver(eng))
    eng.run()
    return base, max(0.0, stall), session


def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig19",
        title="Checkpoint-timing impact on CoW (Llama2-13B training)",
        columns=["timing", "iter_s", "stall_s", "cow_copies",
                 "cow_bytes_gb"],
        notes="paper: at iteration start only ~2.3 GB of activations CoW "
              "(185 ms); at the update phase most buffers CoW",
    )
    for timing in ("iteration-start", "update-phase"):
        base, stall, session = _measure(timing)
        result.add(
            timing=timing, iter_s=base, stall_s=stall,
            cow_copies=session.stats.cow_shadow_copies,
            cow_bytes_gb=session.stats.cow_shadow_bytes / units.GB / 8,
        )
    return result

"""Continuation oracle: a checkpointed and restored run goes on as if it
had never stopped.

``resnet152-train`` runs one step and is checkpointed, either between
steps or with the next step overlapping the checkpoint.  The image is
restored onto a second machine, which runs two more steps.  Its GPU
state must then equal, buffer for buffer, a run that took the same
three steps and was never checkpointed.
"""

from __future__ import annotations

import pytest

from repro.cluster import Machine
from repro.experiments.harness import run_steps, setup_app
from repro.tasks.worker import Worker, new_world

APP = "resnet152-train"
N_BUFFERS = 205


def gpu_state(process) -> dict[str, bytes]:
    return {buf.tag: buf.snapshot()
            for bufs in process.runtime.allocations.values()
            for buf in bufs}


def uninterrupted(steps: int) -> dict[str, bytes]:
    """GPU state after ``steps`` steps of a never-checkpointed run."""
    world = new_world(APP)
    setup_app(world, warm=1)
    if steps > 1:
        run_steps(world, steps - 1)
    world.engine.run()
    return gpu_state(world.process)


@pytest.fixture(scope="module")
def three_steps():
    return uninterrupted(3)


def test_the_oracle_tells_step_counts_apart(three_steps):
    two_steps = uninterrupted(2)
    assert len(three_steps) == len(two_steps) == N_BUFFERS
    differing = [tag for tag in three_steps
                 if three_steps[tag] != two_steps[tag]]
    assert len(differing) > N_BUFFERS // 2


@pytest.mark.parametrize("restore_mode", ["concurrent", "stop-world"])
@pytest.mark.parametrize("overlap", [False, True],
                         ids=["between-steps", "step-overlaps"])
@pytest.mark.parametrize("mode", ["cow", "recopy", "stop-world"])
def test_restored_run_continues_like_the_uninterrupted_one(
        three_steps, mode, overlap, restore_mode):
    world = new_world(APP)
    setup_app(world, warm=1)
    engine, workload = world.engine, world.workload
    target = Worker(engine, Machine(engine, name="worker", n_gpus=1),
                    use_pool=True)

    def driver(engine):
        handle = world.checkpoint(mode)
        if overlap:
            yield from workload.run(1)
        image, _ = yield handle
        yield from target.restore(image, workload, mode=restore_mode)
        yield from workload.run(2, start=1)

    engine.run_process(driver(engine))
    engine.run()
    restored = gpu_state(target.process)
    assert restored.keys() == three_steps.keys()
    differing = [tag for tag in three_steps
                 if restored[tag] != three_steps[tag]]
    assert not differing

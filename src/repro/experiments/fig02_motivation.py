"""Fig. 2 — what stalls applications during stop-the-world C/R.

Breakdown of Singularity's checkpoint and restore of a Llama2-13B
inference process: data copy dominates the checkpoint; restore adds the
context-creation barrier, which is *larger* than its data copy (the
paper measures 3.1 s of context creation vs ~1.7-2.2 s of copy).
"""

from __future__ import annotations

from repro import obs
from repro.cluster import Machine
from repro.experiments.harness import ExperimentResult, setup_app
from repro.tasks.worker import Worker, new_world

APP = "llama2-13b-infer"


def run() -> ExperimentResult:
    world = new_world(APP, system="singularity")
    eng = world.engine
    setup_app(world)
    result = ExperimentResult(
        exp_id="fig02",
        title="Stop-the-world C/R overhead breakdown (Llama2-13B inference)",
        columns=["phase", "seconds", "paper_seconds"],
        notes="paper: checkpoint/restore copies >2.1 s each; context 3.1 s",
    )

    def driver(eng):
        t0 = eng.now
        image, _ = yield world.checkpoint()
        ckpt = eng.now - t0
        t1 = eng.now
        target = Worker(eng, Machine(eng, name="target",
                                     n_gpus=world.spec.n_gpus), "singularity")
        yield from target.restore(image)
        restore = eng.now - t1
        return ckpt, restore

    with obs.timeline(eng) as spans:
        ckpt, restore = eng.run_process(driver(eng))
    context_s = spans.total("context-create")
    restore_copy_s = spans.total("restore/stop-world/copy")
    ckpt_copy_s = spans.total("checkpoint/stop-world/copy")
    quiesce_s = spans.total("quiesce")
    result.add(phase="checkpoint: quiesce", seconds=quiesce_s,
               paper_seconds=0.01)
    result.add(phase="checkpoint: copy GPU+CPU data", seconds=ckpt_copy_s,
               paper_seconds=2.1)
    result.add(phase="restore: create GPU context", seconds=context_s,
               paper_seconds=3.1)
    result.add(phase="restore: copy data", seconds=restore_copy_s,
               paper_seconds=1.7)
    result.add(phase="total checkpoint", seconds=ckpt, paper_seconds=2.2)
    result.add(phase="total restore", seconds=restore, paper_seconds=4.8)
    return result

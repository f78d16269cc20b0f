"""Fig. 18 — concurrent restore breakdown (Llama2-13B inference).

PHOS's improvement over stop-the-world restore comes from (1) the
eliminated context creation (pooled contexts arrive in ~10 ms) and
(2) overlapping the data copy with kernel execution — while the first
layers run, later layers' buffers stream in the background.
"""

from __future__ import annotations

from repro import baselines, obs
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.experiments.harness import (
    ExperimentResult,
    build_world,
    experiment_config,
    run_cells,
    setup_app,
)
from repro.parallel import Cell

APP = "llama2-13b-infer"
TOKENS = 8


def _prepare_image():
    world = build_world(APP)
    eng, phos = world.engine, world.phos
    setup_app(world, warm=1)

    def driver(eng):
        image, session = yield phos.checkpoint(
            world.process, mode="cow", config=experiment_config()
        )
        return image

    image = eng.run_process(driver(eng))
    eng.run()
    return world, image


def _measure_phos() -> dict:
    """PHOS concurrent restore (pooled contexts, copy overlaps decode)."""
    world, image = _prepare_image()
    eng = world.engine
    worker = Machine(eng, name="worker", n_gpus=world.spec.n_gpus)
    phos2 = Phos(eng, worker, use_context_pool=True)
    eng.run_process(phos2.boot())

    def phos_driver(eng):
        t0 = eng.now
        process, frontend, session = yield from phos2.restore(
            image, gpu_indices=list(range(world.spec.n_gpus)),
            concurrent=True, machine=worker,
        )
        resume_at = eng.now
        world.workload.bind_restored(process)
        yield from world.workload.run(1)
        first_tok = eng.now
        yield from world.workload.run(TOKENS - 1)
        done = eng.now
        yield session.done
        return (resume_at - t0, first_tok - t0, done - t0,
                session.stall_time)

    with obs.timeline(eng) as spans:
        resume_s, first_s, total_s, stall_s = eng.run_process(phos_driver(eng))
        eng.run()
    ctx_s = spans.total("context-setup")
    return dict(variant="phos-concurrent", context_s=ctx_s,
                time_to_resume_s=resume_s, first_token_s=first_s,
                n_tokens_total_s=total_s, restore_stall_s=stall_s)


def _measure_singularity() -> dict:
    """Stop-the-world restore: contexts from scratch, full copy upfront."""
    world, image = _prepare_image()
    eng = world.engine
    worker = Machine(eng, name="worker", n_gpus=world.spec.n_gpus)
    phos2 = Phos(eng, worker, use_context_pool=False)

    def sing_driver(eng):
        t0 = eng.now
        process = yield from baselines.restore(
            "singularity", eng, image, worker, list(range(world.spec.n_gpus)),
            phos2.medium, phos2.criu,
        )
        resume_at = eng.now
        world.workload.bind_restored(process)
        yield from world.workload.run(1)
        first_tok = eng.now
        yield from world.workload.run(TOKENS - 1)
        return resume_at - t0, first_tok - t0, eng.now - t0

    with obs.timeline(eng) as spans:
        resume_s, first_s, total_s = eng.run_process(sing_driver(eng))
        eng.run()
    return dict(variant="singularity-stop-world",
                context_s=spans.total("context-create"),
                time_to_resume_s=resume_s, first_token_s=first_s,
                n_tokens_total_s=total_s, restore_stall_s=None)


def cells() -> list[Cell]:
    return [Cell("fig18", ("phos-concurrent",)),
            Cell("fig18", ("singularity-stop-world",))]


def run_cell(cell: Cell) -> list[dict]:
    (variant,) = cell.key
    if variant == "phos-concurrent":
        return [_measure_phos()]
    return [_measure_singularity()]


def run(jobs=None) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig18",
        title="Concurrent-restore breakdown (Llama2-13B inference)",
        columns=["variant", "context_s", "time_to_resume_s",
                 "first_token_s", "n_tokens_total_s", "restore_stall_s"],
        notes="paper: PHOS removes the 3.1 s context barrier and overlaps "
              "copy with execution",
    )
    for rows in run_cells(run_cell, cells(), jobs=jobs, label="fig18"):
        for row in rows:
            result.add(**row)
    return result

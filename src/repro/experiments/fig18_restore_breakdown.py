"""Fig. 18 — concurrent restore breakdown (Llama2-13B inference).

PHOS's improvement over stop-the-world restore comes from (1) the
eliminated context creation (pooled contexts arrive in ~10 ms) and
(2) overlapping the data copy with kernel execution — while the first
layers run, later layers' buffers stream in the background.
"""

from __future__ import annotations

from repro import obs
from repro.cluster import Machine
from repro.experiments.harness import (
    ExperimentResult,
    build_world,
    experiment_config,
    run_cells,
    setup_app,
)
from repro.parallel import Cell
from repro.tasks.worker import Worker

APP = "llama2-13b-infer"
TOKENS = 8

#: ``{variant: system}`` — PHOS restores concurrently (pooled contexts,
#: copy overlaps decode); Singularity stops the world (contexts from
#: scratch, full copy upfront).
VARIANTS = {"phos-concurrent": "phos",
            "singularity-stop-world": "singularity"}


def _prepare_image():
    world = build_world(APP)
    eng = world.engine
    setup_app(world, warm=1)

    def driver(eng):
        image, _session = yield world.checkpoint("cow", experiment_config())
        return image

    image = eng.run_process(driver(eng))
    eng.run()
    return world, image


def _measure(variant: str, system: str) -> dict:
    world, image = _prepare_image()
    eng = world.engine
    target = Worker(eng, Machine(eng, name="worker",
                                 n_gpus=world.spec.n_gpus),
                    system, use_pool=True)

    def driver(eng):
        t0 = eng.now
        session = yield from target.restore(image, world.workload)
        resume_at = eng.now
        yield from world.workload.run(1)
        first_tok = eng.now
        yield from world.workload.run(TOKENS - 1)
        done = eng.now
        stall_s = None
        if session is not None:
            yield session.done
            stall_s = session.stall_time
        return resume_at - t0, first_tok - t0, done - t0, stall_s

    with obs.timeline(eng) as spans:
        resume_s, first_s, total_s, stall_s = eng.run_process(driver(eng))
        eng.run()
    ctx_s = spans.total("context-setup" if target.system.concurrent
                        else "context-create")
    return dict(variant=variant, context_s=ctx_s,
                time_to_resume_s=resume_s, first_token_s=first_s,
                n_tokens_total_s=total_s, restore_stall_s=stall_s)


def cells() -> list[Cell]:
    return [Cell("fig18", (variant,)) for variant in VARIANTS]


def run_cell(cell: Cell) -> list[dict]:
    (variant,) = cell.key
    return [_measure(variant, VARIANTS[variant])]


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

"""Fig. 17 — recopy breakdown + coordinated CPU/GPU checkpoint ablation.

Llama2-70B inference (8 GPUs).  The recopy protocol's downtime is the
final quiesce + recopy of the dirty delta; with the coordinated
CPU-then-GPU ordering (§5, Fig. 9) the GPU copy runs later and without
medium contention, so fewer buffers are dirtied after their copy — the
paper measures the recopied volume dropping from 50 to 27 GB per GPU
(47% less recopy time).
"""

from __future__ import annotations

from repro import obs, units
from repro.core.engine import EXPERIMENT_CHUNK
from repro.experiments.harness import (
    ExperimentResult,
    build_world,
    experiment_config,
    run_cells,
    setup_app,
)
from repro.parallel import Cell

APP = "llama3-70b-infer"


def _measure_recopy(coordinated: bool, steps_during: int = 80):
    world = build_world(APP)
    eng = world.engine
    setup_app(world, warm=2)

    def driver(eng):
        handle = world.checkpoint(
            "recopy", experiment_config(coordinated=coordinated,
                                        chunk_bytes=2 * EXPERIMENT_CHUNK))
        runner = eng.spawn(world.workload.run(steps_during))
        image, session = yield handle
        yield runner
        return session

    with obs.timeline(eng) as spans:
        session = eng.run_process(driver(eng))
        eng.run()
    recopy_s = spans.total("gpu-recopy") / world.spec.n_gpus
    quiesce_s = spans.total("quiesce")
    recopied_gb_per_gpu = (
        session.stats.bytes_recopied / world.spec.n_gpus / units.GB
    )
    return quiesce_s, recopy_s, recopied_gb_per_gpu


def _measure_singularity():
    world = build_world(APP, system="singularity")
    eng = world.engine
    setup_app(world, warm=1)

    def driver(eng):
        t0 = eng.now
        yield world.checkpoint()
        return eng.now - t0

    return eng.run_process(driver(eng))


def cells() -> list[Cell]:
    return [
        Cell("fig17", ("phos-recopy",), {"coordinated": True}),
        Cell("fig17", ("phos-recopy-uncoordinated",), {"coordinated": False}),
        Cell("fig17", ("singularity",)),
    ]


def run_cell(cell: Cell) -> list[dict]:
    (variant,) = cell.key
    if variant == "singularity":
        return [dict(variant=variant, quiesce_s=None, recopy_s_per_gpu=None,
                     recopied_gb_per_gpu=None,
                     stop_world_s=_measure_singularity())]
    quiesce_s, recopy_s, gb = _measure_recopy(cell.config["coordinated"])
    return [dict(variant=variant, quiesce_s=quiesce_s,
                 recopy_s_per_gpu=recopy_s, recopied_gb_per_gpu=gb,
                 stop_world_s=None)]


def run(jobs=None) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig17",
        title="Recopy checkpoint breakdown (Llama3-70B inference, 8 GPUs)",
        columns=["variant", "quiesce_s", "recopy_s_per_gpu",
                 "recopied_gb_per_gpu", "stop_world_s"],
        notes="paper: coordinated ordering cuts the recopied data 50->27 GB "
              "per GPU (47% less recopy time); recopy downtime 2.1 s vs "
              "9.7 s stop-the-world",
    )
    for rows in run_cells(run_cell, cells(), jobs=jobs, label="fig17"):
        for row in rows:
            result.add(**row)
    return result

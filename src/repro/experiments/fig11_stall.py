"""Fig. 11 — application stall time per OS-level C/R system.

(a) checkpoint stall on the training workloads, checkpointing at the
beginning of an iteration; (b) restore stall (time the application is
unavailable during restore).  PHOS reduces checkpoint stall by 70-160%
vs Singularity and restore stall by eliminating the context barrier and
overlapping the copy; cuda-checkpoint is orders of magnitude slower.
"""

from __future__ import annotations

from repro.baselines import SYSTEMS
from repro.experiments.harness import (
    ExperimentResult,
    experiment_config,
    run_cells,
)
from repro.parallel import Cell
from repro.tasks.worker import checkpoint_stall, new_world, restore_stall

#: Paper headline: PHOS ~185 ms vs Singularity 3.2 s on Llama2-13B train.
CHECKPOINT_APPS = ("resnet152-train", "ppo-train", "sd-train",
                   "llama2-13b-train")
RESTORE_APPS = ("resnet152-infer", "llama2-13b-infer")


def cells(checkpoint_apps=CHECKPOINT_APPS,
          restore_apps=RESTORE_APPS) -> list[Cell]:
    """One cell per (direction, app, system) — each an isolated world."""
    out = [Cell("fig11", ("checkpoint", app, system))
           for app in checkpoint_apps for system in SYSTEMS]
    out += [Cell("fig11", ("restore", app, system))
            for app in restore_apps for system in SYSTEMS]
    return out


def run_cell(cell: Cell) -> list[dict]:
    direction, app, system = cell.key
    if direction == "checkpoint":
        m = checkpoint_stall(new_world(app, system), "cow",
                             experiment_config())
        return [dict(direction="checkpoint", app=app, system=system,
                     stall_s=m.checkpoint_stall if m.supported else None,
                     supported=m.supported)]
    r = restore_stall(new_world(app), system)
    return [dict(direction="restore", app=app, system=system,
                 stall_s=r.end_to_end, supported=r.supported)]


def run(checkpoint_apps=CHECKPOINT_APPS,
        restore_apps=RESTORE_APPS, jobs=None) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig11",
        title="Application stall time by C/R system",
        columns=["direction", "app", "system", "stall_s", "supported"],
        notes="paper: L13B-train ckpt stall PHOS 0.185 s vs Singularity 3.2 s",
    )
    for rows in run_cells(run_cell, cells(checkpoint_apps, restore_apps),
                          jobs=jobs, label="fig11"):
        for row in rows:
            result.add(**row)
    return result

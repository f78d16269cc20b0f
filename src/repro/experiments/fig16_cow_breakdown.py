"""Fig. 16 — CoW checkpoint breakdown + prioritized-PCIe ablation.

Llama2-13B training.  Three variants:

(a) PHOS CoW — stall is quiesce (~10 ms) plus small aggregated CoW
    stalls;
(b) PHOS CoW *without* the prioritized application PCIe transfer — the
    bulk checkpoint load holds the DMA engine for whole buffers, so the
    application's batch loads starve behind it;
(c) Singularity — the full stop-the-world copy is the stall.
"""

from __future__ import annotations

from repro.experiments.harness import (
    ExperimentResult,
    build_world,
    experiment_config,
    run_cells,
)
from repro.obs.export import app_stall_components
from repro.parallel import Cell
from repro.tasks.worker import checkpoint_stall

APP = "llama2-13b-train"

#: (variant, system, prioritized) — one isolated world each.
VARIANTS = (
    ("phos-cow", "phos", True),
    ("phos-cow-no-prioritized-pcie", "phos", False),
    ("singularity", "singularity", True),
)


def cells() -> list[Cell]:
    return [Cell("fig16", key) for key in VARIANTS]


def run_cell(cell: Cell) -> list[dict]:
    variant, system, prioritized = cell.key
    world = build_world(APP, system)
    m = checkpoint_stall(world, "cow",
                         experiment_config(prioritized=prioritized))
    attributed = None
    if world.observer is not None and m.session is not None:
        # GPUs run in lockstep; the stall is the slowest per-GPU chain.
        attributed = max(
            sum(app_stall_components(world.observer, i).values())
            for i in world.process.gpu_indices
        )
    return [dict(variant=variant, iter_s=m.iter_time,
                 total_stall_s=m.checkpoint_stall,
                 quiesce_s=m.spans.total("quiesce"),
                 cow_stall_s=(m.session.stats.cow_stall_time
                              if m.session else 0.0),
                 attributed_s=attributed)]


def run(jobs=None) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig16",
        title="CoW checkpoint stall breakdown (Llama2-13B training)",
        columns=["variant", "iter_s", "total_stall_s", "quiesce_s",
                 "cow_stall_s", "attributed_s"],
        notes="paper: quiesce ~10 ms; w/o prioritized PCIe the app stalls "
              "on starved batch loads; Singularity stalls for the full copy"
              " (attributed_s needs --obs: gate + guard + DMA wait + twin)",
    )
    for rows in run_cells(run_cell, cells(), jobs=jobs, label="fig16"):
        for row in rows:
            result.add(**row)
    return result

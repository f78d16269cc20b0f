"""Fig. 18 — concurrent restore breakdown (Llama2-13B inference).

PHOS's improvement over stop-the-world restore comes from (1) the
eliminated context creation (pooled contexts arrive in ~10 ms) and
(2) overlapping the data copy with kernel execution — while the first
layers run, later layers' buffers stream in the background.
"""

from __future__ import annotations

from repro.baselines import get_system
from repro.experiments.harness import ExperimentResult, run_cells
from repro.parallel import Cell
from repro.tasks.worker import new_world, restore_stall

APP = "llama2-13b-infer"
TOKENS = 8

#: ``{variant: system}`` — PHOS restores concurrently (pooled contexts,
#: copy overlaps decode); Singularity stops the world (contexts from
#: scratch, full copy upfront).
VARIANTS = {"phos-concurrent": "phos",
            "singularity-stop-world": "singularity"}


def cells() -> list[Cell]:
    return [Cell("fig18", (variant,)) for variant in VARIANTS]


def run_cell(cell: Cell) -> list[dict]:
    (variant,) = cell.key
    system = VARIANTS[variant]
    r = restore_stall(new_world(APP), system, TOKENS)
    ctx_s = r.spans.total("context-setup" if get_system(system).concurrent
                          else "context-create")
    return [dict(variant=variant, context_s=ctx_s,
                 time_to_resume_s=r.restore_s, first_token_s=r.first_step_s,
                 n_tokens_total_s=r.end_to_end,
                 restore_stall_s=(r.session.stall_time
                                  if r.session is not None else None))]


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

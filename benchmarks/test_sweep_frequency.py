"""Sweep: wasted GPU time vs checkpoint frequency (§A.1's curve).

Evaluates the published waste model across a frequency range using a
*measured* checkpoint overhead, verifying that the analytic optimum
f* = sqrt(NF/2O) actually sits at the curve's minimum — the property
PHOS's frequency controller relies on.
"""

import pytest

from repro import units
from repro.core.frequency import optimal_frequency, wasted_gpu_hours
from repro.experiments.harness import (
    ExperimentResult,
    experiment_config,
    run_cells,
)
from repro.parallel import Cell
from repro.tasks.worker import checkpoint_stall, new_world

APP = "ppo-train"
FAILURES = 1.0


def run_cell(cell: Cell) -> list[dict]:
    """The one measured cell: per-checkpoint stall on the real workload.

    The §A.1 curve evaluation is pure arithmetic over this measurement,
    so only the world build-and-measure fans out.
    """
    m = checkpoint_stall(new_world(cell.config["app"]), "cow",
                         experiment_config())
    return [dict(checkpoint_stall=m.checkpoint_stall)]


def run(jobs=None) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="sweep-frequency",
        title=f"Wasted GPU fraction vs checkpoint frequency ({APP})",
        columns=["ckpt_per_hour", "wasted_frac", "is_optimum"],
    )
    (rows,) = run_cells(run_cell, [Cell("sweep-frequency", ("measure", APP),
                                        {"app": APP})],
                        jobs=jobs, label="sweep-frequency")
    overhead_h = rows[0]["checkpoint_stall"] / units.HOUR
    restore_h = 30.0 / units.HOUR
    f_star = optimal_frequency(1, FAILURES, overhead_h)
    for factor in (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0):
        f = f_star * factor
        waste = wasted_gpu_hours(1, FAILURES, 1.0, overhead_h, restore_h, f)
        result.add(ckpt_per_hour=f, wasted_frac=waste,
                   is_optimum=(factor == 1.0))
    return result


def test_sweep_frequency(experiment):
    result = experiment(run)
    rows = result.rows
    optimum = next(r for r in rows if r["is_optimum"])
    for row in rows:
        assert optimum["wasted_frac"] <= row["wasted_frac"] + 1e-12
    # The curve is convex-ish: both extremes are clearly worse.
    assert rows[0]["wasted_frac"] > 1.5 * optimum["wasted_frac"]
    assert rows[-1]["wasted_frac"] > 1.5 * optimum["wasted_frac"]

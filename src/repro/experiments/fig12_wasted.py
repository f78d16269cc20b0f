"""Fig. 12 — wasted GPU time under fault tolerance at optimal frequency.

For each training workload and each system, the checkpoint overhead O
and restore time R are measured, the §A.1 optimal frequency f* is
computed (F = 1 failure per GPU-hour), and the wasted-GPU-time fraction
is evaluated and normalized to the worst system — exactly the paper's
presentation.  cuda-checkpoint cannot checkpoint distributed jobs.
"""

from __future__ import annotations

from repro.baselines import SYSTEMS
from repro.experiments.harness import ExperimentResult, experiment_config
from repro.tasks.fault_tolerance import wasted_fraction
from repro.tasks.worker import checkpoint_stall, new_world, restore_stall

APPS = ("resnet152-train", "ppo-train", "sd-train", "llama2-13b-train")
FAILURES_PER_GPU_HOUR = 1.0


def run(apps=APPS) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig12",
        title="Normalized wasted GPU time for fault tolerance (F=1/GPU-hour)",
        columns=["app", "system", "ckpt_per_hour", "wasted_frac",
                 "normalized", "supported"],
        notes="paper: PHOS saves 22-86% GPU-hours; L13B f*=279/h vs 67/h",
    )
    for app in apps:
        rows = []
        for system in SYSTEMS:
            m = checkpoint_stall(new_world(app, system), "cow",
                                 experiment_config())
            if not m.supported:
                rows.append((system, None, None))
                continue
            restore = restore_stall(new_world(app), system).end_to_end
            frac, f_star = wasted_fraction(
                m, restore, failures_per_gpu_hour=FAILURES_PER_GPU_HOUR
            )
            rows.append((system, f_star, frac))
        worst = max((frac for _, _, frac in rows if frac is not None),
                    default=1.0)
        for system, f_star, frac in rows:
            result.add(
                app=app, system=system, ckpt_per_hour=f_star,
                wasted_frac=frac,
                normalized=(frac / worst) if frac is not None else None,
                supported=frac is not None,
            )
    return result

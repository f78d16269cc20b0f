"""Fig. 15 — runtime overhead of the validator, and instrumented ratio.

(a)/(b): slowdown of training and inference workloads when every opaque
kernel runs as its instrumented twin (the validator is only active
during C/R windows in production; this measures its worst-case cost).
The paper reports 1-12%.

(c): the fraction of kernels that get instrumented at all — opaque
kernels are a minority next to library/communication kernels, which is
one of the two reasons the overhead stays small.
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult, run_steps, setup_app
from repro.tasks.worker import new_world

APPS = ("resnet152-train", "ppo-train", "resnet152-infer", "llama2-13b-infer")


def measure_overhead(app: str, steps: int = 3) -> tuple[float, float, float]:
    """(baseline step, instrumented step, instrumented kernel ratio)."""
    plain = new_world(app, always_instrument=False)
    setup_app(plain)
    base = run_steps(plain, steps) / steps
    inst = new_world(app, always_instrument=True)
    setup_app(inst)
    timed = run_steps(inst, steps) / steps
    frontend = inst.phos.frontend_of(inst.process)
    ratio = frontend.twins.stats.instrumented_launch_ratio
    return base, timed, ratio


def run(apps=APPS) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig15",
        title="Runtime validator overhead and instrumented-kernel ratio",
        columns=["app", "base_step_s", "validated_step_s", "overhead_pct",
                 "instrumented_launch_ratio"],
        notes="paper: 1-12% slowdown; instrumented kernels are a small share",
    )
    for app in apps:
        base, timed, ratio = measure_overhead(app)
        result.add(
            app=app, base_step_s=base, validated_step_s=timed,
            overhead_pct=100.0 * (timed - base) / base,
            instrumented_launch_ratio=ratio,
        )
    return result

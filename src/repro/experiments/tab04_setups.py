"""Table 4 — the evaluated application setups.

Reports, per application: GPU count, total GPU memory per GPU, buffer
count per GPU, and active kernel count — the spec values alongside what
the workload models actually allocate, as a fidelity check.
"""

from __future__ import annotations

from repro import units
from repro.experiments.harness import ExperimentResult, run_steps, setup_app
from repro.apps.specs import APP_SPECS
from repro.tasks.worker import new_world


def run(apps=None) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="tab04",
        title="Application setups: spec vs materialized",
        columns=["app", "n_gpus", "mem_per_gpu_gib", "alloc_gib",
                 "buffers_spec", "buffers_alloc", "kernels_spec",
                 "kernels_seen", "step_s"],
    )
    for name in (apps or APP_SPECS):
        spec = APP_SPECS[name]
        world = new_world(name)
        setup_app(world, warm=1)
        step = run_steps(world, 1)
        gpu0 = world.process.gpu_indices[0]
        allocs = world.process.runtime.allocations[gpu0]
        frontend = world.phos.frontend_of(world.process)
        result.add(
            app=name, n_gpus=spec.n_gpus,
            mem_per_gpu_gib=spec.mem_per_gpu / units.GIB,
            alloc_gib=sum(b.size for b in allocs) / units.GIB,
            buffers_spec=spec.n_buffers, buffers_alloc=len(allocs),
            kernels_spec=spec.n_kernels,
            kernels_seen=len(frontend.twins.stats.kernels_seen),
            step_s=step,
        )
    return result

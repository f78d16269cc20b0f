"""Fig. 13 — downtime of live migration between machines.

PHOS's recopy protocol keeps the source running through the bulk
transfer (GPU-direct RDMA), stopping only for the dirty delta;
stop-the-world baselines are down for the whole copy plus the target's
context creation.  Paper: Llama2-13B training migrates with 3.3 s
downtime under PHOS vs 10.2 s under Singularity.
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult
from repro.baselines import SYSTEMS
from repro.tasks.live_migration import migrate

APPS = ("resnet152-train", "llama2-13b-infer", "llama2-13b-train",
        "llama3-70b-infer")


def run(apps=APPS) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig13",
        title="Live-migration downtime between machines (100 Gbps RDMA)",
        columns=["app", "system", "downtime_s", "total_s", "supported"],
        notes="paper: L13B-train 3.3 s vs 10.2 s; L70B-infer 3.7 s vs 12.35 s",
    )
    for app in apps:
        for system in SYSTEMS:
            r = migrate(system, app)
            result.add(app=app, system=system,
                       downtime_s=r.downtime if r.supported else None,
                       total_s=r.total_time if r.supported else None,
                       supported=r.supported)
    return result

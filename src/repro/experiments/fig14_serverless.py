"""Fig. 14 — serverless function cold-start execution time.

End-to-end time (restore + function execution) for inference workloads
restored from a DRAM checkpoint.  PHOS skips context creation via the
pool and overlaps the data copy with the first tokens; the paper
reports 622 ms for Llama2-13B and average improvements of 16x over
Singularity and 24x over cuda-checkpoint.

The per-system ``mean`` rows reproduce those headline averages.  An
unsupported (system, app) pair — cuda-checkpoint on a multi-GPU model —
carries NaN timings, and its row must be *excluded* from the average,
not folded in: one NaN would silently poison the whole mean (the
:mod:`repro.stats` helpers refuse NaN outright for exactly that
reason).
"""

from __future__ import annotations

from repro import stats
from repro.experiments.harness import ExperimentResult
from repro.baselines import SYSTEMS
from repro.tasks.serverless import cold_start

APPS = ("resnet152-infer", "sd-infer", "llama2-13b-infer",
        "llama3-70b-infer")


def run(apps=APPS, n_requests: int = 8) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig14",
        title="Serverless cold-start end-to-end execution time",
        columns=["app", "system", "end_to_end_s", "exec_s", "speedup_vs_phos",
                 "supported"],
        notes="paper: L13B 622 ms under PHOS; avg 16x/24x vs baselines; "
              "mean rows average supported apps only",
    )
    speedups: dict[str, list[dict]] = {system: [] for system in SYSTEMS}
    for app in apps:
        measurements = {}
        for system in SYSTEMS:
            measurements[system] = cold_start(system, app, n_requests=n_requests)
        phos_t = measurements["phos"].end_to_end
        for system in SYSTEMS:
            m = measurements[system]
            result.add(
                app=app, system=system,
                end_to_end_s=m.end_to_end if m.supported else None,
                exec_s=m.exec_time if m.supported else None,
                speedup_vs_phos=(m.end_to_end / phos_t) if m.supported else None,
                supported=m.supported,
            )
            speedups[system].append(
                {"supported": m.supported,
                 "speedup": m.end_to_end / phos_t,
                 "end_to_end": m.end_to_end})
    for system in SYSTEMS:
        rows = speedups[system]
        sup = stats.supported_samples(rows, "speedup")
        e2e = stats.supported_samples(rows, "end_to_end")
        result.add(app="mean", system=system,
                   end_to_end_s=stats.mean(e2e),
                   exec_s=None,
                   speedup_vs_phos=stats.mean(sup),
                   supported=f"{len(sup)}/{len(rows)}")
    return result

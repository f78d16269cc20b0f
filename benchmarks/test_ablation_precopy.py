"""Ablation: iterative pre-copy rounds before the final recopy.

§4.3 notes that the concurrent recopy "can also iteratively" run,
as CPU pre-copy live migration does.  This bench measures the trade:
extra background copy volume buys a smaller final (stopped) delta for
workloads whose write rate is below the copy bandwidth.
"""

import pytest

from repro import units
from repro.core.engine import EXPERIMENT_CHUNK
from repro.core.protocols import ProtocolConfig
from repro.experiments.harness import ExperimentResult, setup_app
from repro.tasks.worker import new_world

APP = "resnet152-infer"


def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="ablation-precopy",
        title="Iterative pre-copy rounds vs final recopy volume",
        columns=["precopy_rounds", "downtime_s", "total_recopied_gb"],
    )
    for rounds in (0, 1, 3):
        world = new_world(APP)
        eng, phos = world.engine, world.phos
        setup_app(world, warm=1)

        def driver(eng):
            handle = phos.checkpoint(
                world.process, mode="recopy",
                config=ProtocolConfig(keep_stopped=True,
                                      precopy_rounds=rounds,
                                      chunk_bytes=EXPERIMENT_CHUNK))
            eng.spawn(world.workload.run(100))
            image, session = yield handle
            downtime = eng.now - session.final_quiesce_start
            return downtime, session.stats.bytes_recopied

        downtime, recopied = eng.run_process(driver(eng))
        result.add(precopy_rounds=rounds, downtime_s=downtime,
                   total_recopied_gb=recopied / units.GB)
    return result


def test_ablation_precopy(experiment):
    result = experiment(run)
    rows = {r["precopy_rounds"]: r for r in result.rows}
    # For a write-light workload the rounds converge: the stopped
    # downtime does not grow (and typically shrinks).
    assert rows[3]["downtime_s"] <= rows[0]["downtime_s"] * 1.25
    # The rounds cost additional background copy volume when they run.
    assert rows[3]["total_recopied_gb"] >= rows[0]["total_recopied_gb"]
    for row in result.rows:
        assert row["downtime_s"] > 0

"""Sweep: CoW stall vs on-device shadow pool size (§4.2's 2 GB choice).

PHOS reserves "a small GPU memory (2 GB)" for copy-on-write and blocks
writers when it runs out (K2 in Fig. 7).  The sweep shows the knee:
below the working set of concurrently-shadowed buffers, pool waits
appear; at the paper's 2 GB, stalls are negligible for a
training-iteration write pattern.
"""

import pytest

from repro import units
from repro.core.engine import EXPERIMENT_CHUNK
from repro.core.protocols import ProtocolConfig
from repro.experiments.harness import (
    ExperimentResult,
    build_world,
    run_cells,
    setup_app,
)
from repro.parallel import Cell

APP = "llama2-13b-train"
POOL_SIZES = (256 * units.MIB, 1 * units.GIB, 2 * units.GIB)


def run_cell(cell: Cell) -> list[dict]:
    pool = cell.config["cow_pool_bytes"]
    world = build_world(APP)
    eng, phos = world.engine, world.phos
    setup_app(world, warm=2)

    def driver(eng):
        # Checkpoint uncoordinated so hot buffers are NOT drained
        # first — the shadow path gets exercised.
        handle = phos.checkpoint(
            world.process, mode="cow",
            config=ProtocolConfig(coordinated=False,
                                  cow_pool_bytes=pool,
                                  chunk_bytes=EXPERIMENT_CHUNK))
        yield from world.workload.run(2)
        image, session = yield handle
        return session

    session = eng.run_process(driver(eng))
    eng.run()
    return [dict(pool_gib=pool / units.GIB,
                 cow_stall_s=session.stats.cow_stall_time,
                 pool_waits=session.stats.cow_pool_waits,
                 shadows=session.stats.cow_shadow_copies)]


def run(jobs=None) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="sweep-pool-size",
        title="CoW shadow-pool size vs stall (Llama2-13B training)",
        columns=["pool_gib", "cow_stall_s", "pool_waits", "shadows"],
        notes="the paper reserves 2 GB per GPU (§4.2)",
    )
    cells = [Cell("sweep-pool-size", (f"{p // units.MIB}MiB",),
                  {"cow_pool_bytes": p}) for p in POOL_SIZES]
    for rows in run_cells(run_cell, cells, jobs=jobs,
                          label="sweep-pool-size"):
        for row in rows:
            result.add(**row)
    return result


def test_sweep_pool_size(experiment):
    result = experiment(run)
    rows = {round(r["pool_gib"], 2): r for r in result.rows}
    # Stall decreases (weakly) with pool size.
    stalls = [r["cow_stall_s"] for r in result.rows]
    assert stalls[0] >= stalls[-1]
    # The paper's 2 GB choice leaves no pool waits for this workload.
    assert rows[2.0]["pool_waits"] == 0
    # A severely undersized pool forces waits.
    assert rows[0.25]["pool_waits"] > 0

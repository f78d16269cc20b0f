"""Sweep: application stall vs checkpoint copy chunk size (§5's 4 MB).

The prioritized transfer re-arbitrates the DMA engine at chunk
boundaries, so the chunk size is the application's worst-case wait for
the engine.  The sweep shows stall growing with chunk size toward the
monolithic (Fig. 16b) regime.
"""

import pytest

from repro import units
from repro.core.protocols import ProtocolConfig
from repro.experiments.harness import (
    ExperimentResult,
    run_cells,
    setup_app,
)
from repro.parallel import Cell
from repro.tasks.worker import new_world

APP = "llama2-13b-train"
CHUNKS = (4 * units.MIB, 64 * units.MIB, 1 * units.GIB)


def run_cell(cell: Cell) -> list[dict]:
    chunk = cell.config["chunk_bytes"]
    world = new_world(APP)
    eng, phos = world.engine, world.phos
    setup_app(world, warm=2)

    def driver(eng):
        t0 = eng.now
        yield from world.workload.run(2)
        base = (eng.now - t0) / 2
        handle = phos.checkpoint(
            world.process, mode="cow",
            config=ProtocolConfig(chunk_bytes=chunk))
        t1 = eng.now
        yield from world.workload.run(2)
        stall = (eng.now - t1) - 2 * base
        yield handle
        return max(0.0, stall)

    stall = eng.run_process(driver(eng))
    eng.run()
    return [dict(chunk_mib=chunk / units.MIB, stall_s=stall)]


def run(jobs=None) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="sweep-chunk-size",
        title="Copy chunk size vs application stall (Llama2-13B training)",
        columns=["chunk_mib", "stall_s"],
        notes="the paper copies in 4 MB chunks (§5)",
    )
    cells = [Cell("sweep-chunk-size", (f"{c // units.MIB}MiB",),
                  {"chunk_bytes": c}) for c in CHUNKS]
    for rows in run_cells(run_cell, cells, jobs=jobs,
                          label="sweep-chunk-size"):
        for row in rows:
            result.add(**row)
    return result


def test_sweep_chunk_size(experiment):
    result = experiment(run)
    stalls = result.column("stall_s")
    # Stall grows (weakly) with chunk size ...
    assert stalls[0] <= stalls[-1] + 1e-6
    # ... and the 1 GiB chunks cost visibly more than the 4 MiB ones.
    assert stalls[-1] > stalls[0]

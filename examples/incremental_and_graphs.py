#!/usr/bin/env python3
"""Extensions tour: incremental checkpoints, CUDA graphs, on-disk images.

1. record a decode step as a CUDA graph (§9) and serve tokens by
   replaying it — each replayed node still flows through PHOS's
   interception, so checkpoints during graph execution stay correct;
2. take a base CoW checkpoint, then *incremental* CoW checkpoints with
   the previous image as ``parent``: each is a delta image that
   references every buffer unwritten since its parent (the GPU analog
   of CRIU's incremental dump) — note the shrinking copy volume;
3. materialize the last delta into a full image, persist it to disk in
   the PHOS container format and restore the loaded copy on a second
   machine, whose catalog holds none of the parents.

Run:  python examples/incremental_and_graphs.py
"""

import tempfile
from pathlib import Path

from repro import units
from repro.api.graph import CudaGraph
from repro.apps.base import provision
from repro.apps.specs import get_spec
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.protocols import ProtocolConfig
from repro.gpu.cost_model import KernelCost
from repro.gpu.program import build_inplace_add
from repro.sim import Engine
from repro.storage.delta import materialize
from repro.storage.serial import load_image, save_image


def main() -> None:
    engine = Engine()
    spec = get_spec("resnet152-infer")
    machine = Machine(engine, n_gpus=1)
    phos = Phos(engine, machine, use_context_pool=False)
    process, workload = provision(engine, machine, spec)
    phos.attach(process)
    rt = process.runtime

    def driver(engine):
        yield from workload.setup()
        yield from workload.run(2)
        # --- a CUDA graph for a small recurring update --------------------------
        state_buf = yield from rt.malloc(0, 4096, tag="graph-state")
        graph = CudaGraph("per-request-bump")
        graph.add_kernel_node(build_inplace_add(), [state_buf.addr, 8], 8,
                              cost=KernelCost(flops=1e9))
        graph.instantiate()
        # --- base checkpoint ------------------------------------------------------
        image, session = yield phos.checkpoint(process, mode="cow", name="base")
        print(f"base checkpoint : {image.total_bytes() / units.GB:6.2f} GB copied")
        # --- serve requests; checkpoint incrementally every few ---------------------
        for round_no in range(3):
            yield from workload.run(2)
            yield from rt.graph_launch(0, graph, sync=True)  # intercepted replay
            image, session = yield phos.checkpoint(
                process, mode="cow", name=f"inc-{round_no}",
                config=ProtocolConfig(parent=image))
            skipped = session.stats.bytes_skipped_incremental
            copied = session.stats.bytes_copied
            print(f"incremental #{round_no}  : "
                  f"{copied / units.GB:6.2f} GB copied, "
                  f"{skipped / units.GB:6.2f} GB inherited from parent")
        return image, state_buf.load_word(state_buf.addr)

    image, counter = engine.run_process(driver(engine))
    engine.run()
    print(f"graph replays visible in state: counter word = {counter}")

    # --- persist and restore from disk ------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "final.phos"
        size = save_image(materialize(image), path)
        print(f"image persisted : {size / units.MB:.1f} MB on disk "
              f"({path.name}, CRC-protected)")
        loaded = load_image(path)
        worker = Machine(engine, name="worker", n_gpus=1)
        phos_w = Phos(engine, worker, use_context_pool=True)
        engine.run_process(phos_w.boot())

        def restore(engine):
            t0 = engine.now
            process2, _, session = yield from phos_w.restore(
                loaded, gpu_indices=[0], machine=worker
            )
            workload.bind_restored(process2)
            yield from workload.run(2)
            yield session.done
            return engine.now - t0

        elapsed = engine.run_process(restore(engine))
        engine.run()
        print(f"restored from disk and served 2 requests in "
              f"{units.fmt_seconds(elapsed)}")


if __name__ == "__main__":
    main()

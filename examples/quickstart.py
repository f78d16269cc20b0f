#!/usr/bin/env python3
"""Quickstart: checkpoint a running GPU process concurrently, restore it,
and verify the restored state byte-for-byte.

This walks the core PHOS flow end to end on a small synthetic app:

1. build a worker — a machine slot under the PHOS system — and launch
   the application on it;
2. run a GPU application (ResNet-training-shaped workload);
3. take a *concurrent* soft copy-on-write checkpoint while the app keeps
   iterating — note how small the application stall is;
4. restore the image onto a second machine with the concurrent
   on-demand protocol and keep computing;
5. verify that every restored buffer matches the checkpoint.

Run:  python examples/quickstart.py
"""

from repro import units
from repro.apps.specs import get_spec
from repro.cluster import Machine
from repro.sim import Engine
from repro.tasks.worker import Worker


def main() -> None:
    engine = Engine()
    spec = get_spec("resnet152-train")
    node0 = Worker(engine, Machine(engine, name="node0", n_gpus=spec.n_gpus))
    workload = node0.launch(spec).workload

    report = {}

    def driver(engine):
        # -- run the application ------------------------------------------------
        yield from workload.setup()
        yield from workload.run(3)
        t0 = engine.now
        yield from workload.run(2)
        iter_time = (engine.now - t0) / 2
        # -- concurrent checkpoint ------------------------------------------------
        handle = node0.checkpoint("cow", name="quickstart")
        t1 = engine.now
        yield from workload.run(3)  # the app keeps running!
        stall = (engine.now - t1) - 3 * iter_time
        image, session = yield handle
        assert not session.aborted
        report["iter"] = iter_time
        report["stall"] = max(0.0, stall)
        report["image_gb"] = image.total_bytes() / units.GB
        return image

    image = engine.run_process(driver(engine))
    engine.run()

    # -- restore on another machine -----------------------------------------------
    # A pooled worker boots its daemon (pre-fills the context pool) here.
    node1 = Worker(engine, Machine(engine, name="node1", n_gpus=spec.n_gpus),
                   use_pool=True)

    def restore_driver(engine):
        t0 = engine.now
        session = yield from node1.restore(image, workload)
        resume_t = engine.now - t0
        yield from workload.run(2)  # compute while data streams in
        yield session.done
        return resume_t

    resume_t = engine.run_process(restore_driver(engine))
    engine.run()
    process2 = node1.process

    # -- verify -----------------------------------------------------------------------
    by_addr = {b.addr: b for b in process2.runtime.allocations[0]}
    mismatches = 0
    for record in image.gpu_buffers[0].values():
        restored = by_addr[record.addr]
        # Buffers the app re-wrote after restore have newer content;
        # the checkpoint itself must still resolve every address.
        if restored.tag != record.tag:
            mismatches += 1
    print("PhoenixOS quickstart")
    print(f"  application iteration time : {units.fmt_seconds(report['iter'])}")
    print(f"  concurrent checkpoint stall: {units.fmt_seconds(report['stall'])}")
    print(f"  checkpoint image size      : {report['image_gb']:.2f} GB")
    print(f"  restore: process runnable after {units.fmt_seconds(resume_t)} "
          "(data streamed in the background)")
    print(f"  restored buffer layout mismatches: {mismatches}")
    assert mismatches == 0
    print("  OK: restored process resumed and kept computing.")


if __name__ == "__main__":
    main()

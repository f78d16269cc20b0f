#!/usr/bin/env python3
"""Fault-tolerant training with the PHOS SDK (§7, §A.1, §A.2).

Mirrors Fig. 21: a training loop calls ``sdk.checkpoint()`` at the
beginning of each k-th iteration, with k derived from the §A.1 optimal
frequency f* = sqrt(NF/2O).  Midway we inject a GPU failure, restore
from the latest image, and finish training — reporting how much GPU
time the failure wasted.

Run:  python examples/fault_tolerant_training.py
"""

from repro import units
from repro.apps.base import provision
from repro.apps.specs import get_spec
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.sdk import PhosSdk
from repro.sim import Engine

APP = "resnet152-train"
TOTAL_ITERS = 14
FAIL_AT_ITER = 9
FAILURES_PER_GPU_HOUR = 1.0


def main() -> None:
    engine = Engine()
    spec = get_spec(APP)
    machine = Machine(engine, name="node0", n_gpus=spec.n_gpus)
    phos = Phos(engine, machine, use_context_pool=False)
    process, workload = provision(engine, machine, spec)
    phos.attach(process)
    sdk = PhosSdk(phos, process)

    # Profile one checkpoint to feed the frequency model (as §A.1 says,
    # O and R "can be profiled online").
    def profile(engine):
        yield from workload.setup()
        yield from workload.run(2)
        t0 = engine.now
        image, session = yield phos.checkpoint(process, mode="cow")
        return engine.now - t0

    ckpt_seconds = engine.run_process(profile(engine))
    overhead_hours = 0.1 * ckpt_seconds / units.HOUR  # stall ~10% of wall
    f_star = sdk.calculate_optimal_frequency(
        spec.n_gpus, FAILURES_PER_GPU_HOUR, overhead_hours
    )
    every_n = max(1, int((3600.0 / f_star) / spec.step_time))
    print(f"optimal checkpoint frequency f* = {f_star:.0f}/hour "
          f"-> checkpoint every {every_n} iterations")

    def train(engine):
        start = workload.steps_done
        wasted = 0.0
        failed = False
        i = start
        while i < start + TOTAL_ITERS:
            if (i - start) % every_n == 0:
                sdk.checkpoint(name=f"iter-{i}")  # asynchronous (Fig. 21)
            yield from workload.run(1, start=i)
            i += 1
            if i - start == FAIL_AT_ITER and not failed:
                failed = True
                # --- GPU failure! Roll back to the latest image. -----
                yield from sdk.wait_inflight()
                image = sdk.last_image
                assert image is not None
                t_fail = engine.now
                # The failed process is dead: the OS reclaims its GPUs.
                phos.kill(workload.process)
                result = yield from phos.restore(
                    image, gpu_indices=list(range(spec.n_gpus)),
                )
                new_process, _, session = result
                workload.bind_restored(new_process)
                sdk.rebind(new_process)
                resumed_iter = _iters_in_image(image, workload)
                wasted = engine.now - t_fail + (i - resumed_iter) * spec.step_time
                print(f"  failure at iter {i}: restored image from iter "
                      f"{resumed_iter}, recomputing {i - resumed_iter} iters")
                i = resumed_iter
        return wasted

    wasted = engine.run_process(train(engine))
    engine.run()
    print(f"checkpoints taken: {sdk.checkpoints_taken} "
          f"(skipped while busy: {sdk.checkpoints_skipped})")
    useful = TOTAL_ITERS * spec.step_time
    print(f"failure cost (restore + recomputation): "
          f"{units.fmt_seconds(wasted)} on top of "
          f"{units.fmt_seconds(useful)} of useful training — "
          "more frequent (cheap) checkpoints shrink the recompute part")


def _iters_in_image(image, workload) -> int:
    # The checkpoint name records the iteration it was taken at.
    return int(image.name.split("-")[-1])


if __name__ == "__main__":
    main()

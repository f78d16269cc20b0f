"""Integration tests: concurrent on-demand restore (§6).

The correctness claim: an application restored concurrently and resumed
immediately computes exactly the same final state as one restored
stop-the-world — on-demand fetches and guard stalls must make partially
restored data invisible.
"""

import pytest

from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.quiesce import quiesce, resume
from repro.gpu.context import GpuContext
from repro.gpu.cost_model import KernelCost
from repro.gpu.program import build_global_reader
from repro.sim import Engine
from repro.units import MIB

from tests.toyapp import ToyApp


WARM_ITERS = 3
POST_ITERS = 5


def make_world(buf_size=256 * MIB, use_pool=False):
    eng = Engine()
    machine = Machine(eng, n_gpus=1)
    phos = Phos(eng, machine, use_context_pool=use_pool)
    process = GpuProcess(eng, machine, name="app", gpu_indices=[0], cpu_pages=8)
    process.runtime.adopt_context(0, GpuContext(gpu_index=0))
    phos.attach(process)
    app = ToyApp(process, buf_size=buf_size, kernel_flops=1e9)
    return eng, machine, phos, process, app


def checkpoint_image(eng, phos, process, app, warm_iters=WARM_ITERS):
    """Run warm iterations and take a clean (quiesced) checkpoint."""

    def driver(eng):
        yield from app.setup()
        yield from app.run(warm_iters)
        handle = phos.checkpoint(process, mode="cow")
        image, session = yield handle
        assert not session.aborted
        return image

    image = eng.run_process(driver(eng))
    eng.run()
    return image


def rebind_app(app_template, process):
    """A ToyApp continuing on a restored process (buffers found by tag)."""
    app = ToyApp(process, buf_size=app_template.buf_size,
                 kernel_flops=1e9)
    by_tag = {b.tag: b for b in process.runtime.allocations[0]}
    app.bufs = {name: by_tag[name] for name in
                ("input", "act", "weight", "grad", "idx", "out")}
    return app


def reference_final_state(buf_size=256 * MIB, total_iters=WARM_ITERS + POST_ITERS):
    """The no-checkpoint ground truth: run straight through."""
    eng, machine, phos, process, app = make_world(buf_size=buf_size)

    def driver(eng):
        yield from app.setup()
        yield from app.run(total_iters)

    eng.run_process(driver(eng))
    return {b.tag: b.snapshot() for b in process.runtime.allocations[0]}


def restored_final_state(mode="concurrent", buf_size=256 * MIB,
                         use_pool=False):
    eng, machine, phos, process, app = make_world(buf_size=buf_size,
                                                  use_pool=use_pool)
    if use_pool:
        eng.run_process(phos.boot())
    image = checkpoint_image(eng, phos, process, app)
    # Restore onto a fresh machine (as after a failure).
    machine2 = Machine(eng, name="node1", n_gpus=1)
    phos2 = Phos(eng, machine2, use_context_pool=use_pool)
    if use_pool:
        eng.run_process(phos2.boot())

    def driver(eng):
        result = yield from phos2.restore(
            image, gpu_indices=[0], mode=mode, machine=machine2
        )
        new_process, frontend, session = result
        new_app = rebind_app(app, new_process)
        t_resume = eng.now
        yield from new_app.run(POST_ITERS, start=WARM_ITERS)
        t_done = eng.now
        if session is not None:
            yield session.done
        return new_process, session, t_done - t_resume

    new_process, session, run_time = eng.run_process(driver(eng))
    eng.run()
    state = {b.tag: b.snapshot() for b in new_process.runtime.allocations[0]}
    return state, session, run_time


def test_stop_world_restore_reproduces_reference():
    ref = reference_final_state()
    got, session, _ = restored_final_state(mode="stop-world")
    assert session is None
    assert got == ref


def test_concurrent_restore_reproduces_reference():
    ref = reference_final_state()
    got, session, _ = restored_final_state()
    assert session is not None and not session.aborted
    assert got == ref


def test_concurrent_restore_uses_on_demand_fetches():
    _, session, _ = restored_final_state()
    # The app touches buffers before the background loader reaches them.
    assert session.demand_fetches > 0
    assert session.stall_time > 0
    assert session.all_restored()


def test_concurrent_restore_overlaps_copy_with_execution():
    """The app's first iterations run while data is still streaming —
    it must not wait for the full image."""
    eng, machine, phos, process, app = make_world()

    def prepare(eng):
        yield from app.setup()
        # A cold region the iteration never touches (think: optimizer
        # state during inference) — it restores purely in background.
        cold = yield from process.runtime.malloc(0, 1024 * MIB, tag="cold")
        yield from process.runtime.memcpy_h2d(0, cold, payload=77, sync=True)
        yield from app.run(WARM_ITERS)
        image, session = yield phos.checkpoint(process, mode="cow")
        assert not session.aborted
        return image

    image = eng.run_process(prepare(eng))
    eng.run()
    machine2 = Machine(eng, name="node1", n_gpus=1)
    phos2 = Phos(eng, machine2, use_context_pool=False)

    def driver(eng):
        result = yield from phos2.restore(
            image, gpu_indices=[0], machine=machine2
        )
        new_process, frontend, session = result
        resumed_at = eng.now
        assert not session.all_restored()  # resumed before data complete
        new_app = rebind_app(app, new_process)
        yield from new_app.one_iteration(WARM_ITERS)
        first_iter_at = eng.now
        yield session.done
        all_data_at = eng.now
        return resumed_at, first_iter_at, all_data_at

    resumed_at, first_iter_at, all_data_at = eng.run_process(driver(eng))
    eng.run()
    assert first_iter_at < all_data_at  # genuine overlap


def test_restore_mis_speculation_rolls_back_to_image():
    """A kernel reading via a module-global pointer defeats read
    speculation; the validator fires and PHOS rolls back to the image
    then finishes stop-the-world (§6)."""
    eng, machine, phos, process, app = make_world()
    image = checkpoint_image(eng, phos, process, app)
    machine2 = Machine(eng, name="node1", n_gpus=1)
    phos2 = Phos(eng, machine2, use_context_pool=False)

    def driver(eng):
        result = yield from phos2.restore(
            image, gpu_indices=[0], machine=machine2
        )
        new_process, frontend, session = result
        by_tag = {b.tag: b for b in new_process.runtime.allocations[0]}
        # Read `out` (restored last) through a hidden global pointer.
        sneak = build_global_reader("sneak", "hidden_in", by_tag["out"].addr)
        yield from new_process.runtime.launch_kernel(
            0, sneak, [by_tag["act"].addr, 8], 8,
            cost=KernelCost(flops=1e9), sync=True,
        )
        yield session.done
        return new_process, session

    new_process, session = eng.run_process(driver(eng))
    eng.run()
    assert session.aborted and session.rolled_back
    # After rollback, every buffer matches the image exactly.
    by_tag = {b.tag: b for b in new_process.runtime.allocations[0]}
    for record in image.gpu_buffers[0].values():
        assert by_tag[record.tag].snapshot() == record.data


def test_restore_with_pool_skips_context_creation_barrier():
    """The context pool turns a multi-second barrier into ~10 ms."""

    def time_to_resume(use_pool):
        eng, machine, phos, process, app = make_world(use_pool=use_pool)
        if use_pool:
            eng.run_process(phos.boot())
        image = checkpoint_image(eng, phos, process, app)
        machine2 = Machine(eng, name="node1", n_gpus=1)
        phos2 = Phos(eng, machine2, use_context_pool=use_pool)
        if use_pool:
            eng.run_process(phos2.boot())

        def driver(eng):
            t0 = eng.now
            yield from phos2.restore(image, gpu_indices=[0], machine=machine2)
            return eng.now - t0

        elapsed = eng.run_process(driver(eng))
        eng.run()
        return elapsed

    with_pool = time_to_resume(True)
    without = time_to_resume(False)
    assert with_pool < 0.1  # milliseconds, not seconds
    assert without > 1.0    # the §2.3 barrier
    assert with_pool < without / 10


def test_restore_requires_finalized_image():
    from repro.errors import CheckpointError
    from repro.storage.image import CheckpointImage

    eng = Engine()
    machine = Machine(eng, n_gpus=1)
    phos = Phos(eng, machine, use_context_pool=False)

    def driver(eng):
        yield from phos.restore(CheckpointImage(), gpu_indices=[0])

    with pytest.raises(CheckpointError):
        eng.run_process(driver(eng))

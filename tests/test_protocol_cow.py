"""Integration tests: the soft copy-on-write checkpoint protocol.

The central claim of §4.2 is tested literally: the CoW image must be
byte-identical to the process state at the quiesce point t1, no matter
what the concurrently-running application does during the copy phase.
"""

from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.protocols import ProtocolConfig
from repro.core.quiesce import quiesce, resume
from repro.gpu.context import GpuContext
from repro.gpu.cost_model import KernelCost
from repro.gpu.program import build_global_writer
from repro.sim import Engine
from repro.units import MIB

from tests.toyapp import ToyApp, image_gpu_state, snapshot_process


def make_world(n_gpus=1, cow_process_gpus=(0,)):
    eng = Engine()
    machine = Machine(eng, n_gpus=n_gpus)
    phos = Phos(eng, machine, use_context_pool=False)
    process = GpuProcess(eng, machine, name="app", gpu_indices=list(cow_process_gpus),
                         cpu_pages=8)
    for i in cow_process_gpus:
        process.runtime.adopt_context(i, GpuContext(gpu_index=i))
    phos.attach(process)
    return eng, machine, phos, process


def checkpoint_at_known_state(eng, phos, process, app, warm_iters, post_iters,
                              mode="cow", **ckpt_kwargs):
    """Run the app, quiesce, snapshot (the expected t1 state), then start
    the checkpoint while the app keeps running.  Returns
    (expected_gpu, expected_cpu, image, session)."""
    state = {}

    def driver(eng):
        yield from app.setup()
        yield from app.run(warm_iters)
        # Hold the process quiesced while we snapshot: the checkpoint's
        # own quiesce then captures exactly this state as t1.
        yield from quiesce(eng, [process])
        state["gpu"], state["cpu"] = snapshot_process(process)
        handle = phos.checkpoint(process, mode=mode,
                                 config=ProtocolConfig(**ckpt_kwargs))
        # The protocol resumes the process; continue running meanwhile.
        yield from app.run(post_iters, start=warm_iters)
        image, session = yield handle
        return image, session

    image, session = eng.run_process(driver(eng))
    eng.run()
    return state["gpu"], state["cpu"], image, session


def test_cow_image_equals_t1_state():
    eng, machine, phos, process = make_world()
    app = ToyApp(process)
    exp_gpu, exp_cpu, image, session = checkpoint_at_known_state(
        eng, phos, process, app, warm_iters=3, post_iters=8
    )
    assert not session.aborted
    assert image.finalized
    got = image_gpu_state(image)
    assert set(got) == set(exp_gpu)
    for key in exp_gpu:
        assert got[key] == exp_gpu[key], f"buffer at {key} diverged from t1"
    # CPU pages too (CRIU CoW dump).
    for idx, data in enumerate(exp_cpu):
        assert image.cpu_pages[idx] == data
    # The app genuinely ran concurrently and wrote: live state differs.
    live_gpu, _ = snapshot_process(process)
    assert any(live_gpu[k] != exp_gpu[k] for k in exp_gpu)


def test_cow_triggers_shadow_copies():
    eng, machine, phos, process = make_world()
    # Large buffers: the copy window (~60 ms over PCIe) spans many fast
    # iterations, so concurrent writes hit not-yet-checkpointed buffers.
    app = ToyApp(process, buf_size=256 * MIB, kernel_flops=1e9)
    _, _, image, session = checkpoint_at_known_state(
        eng, phos, process, app, warm_iters=2, post_iters=10
    )
    assert not session.aborted
    assert session.stats.cow_shadow_copies > 0
    # Shadows were released afterwards.
    assert session.shadows == {}
    assert session.pool_free(0) == session.cow_pool_bytes


def test_cow_without_concurrent_writes_has_no_shadows():
    eng, machine, phos, process = make_world()
    app = ToyApp(process)
    _, _, image, session = checkpoint_at_known_state(
        eng, phos, process, app, warm_iters=2, post_iters=0
    )
    assert not session.aborted
    assert session.stats.cow_shadow_copies == 0
    assert session.stats.cow_stall_time == 0.0


def test_cow_image_includes_buffer_freed_during_window():
    """A buffer alive at t1 but freed during the copy must appear in the
    image with its t1 content (PHOS defers the physical free)."""
    eng, machine, phos, process = make_world()
    app = ToyApp(process)
    state = {}

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        doomed = app.bufs["out"]
        yield from quiesce(eng, [process])
        state["expected"] = doomed.snapshot()
        state["addr"] = doomed.addr
        handle = phos.checkpoint(process, mode="cow")
        # Free the buffer while the checkpoint is copying.
        yield from process.runtime.free(0, doomed)
        del app.bufs["out"]
        image, session = yield handle
        return image, session

    image, session = eng.run_process(driver(eng))
    assert not session.aborted
    records = image.gpu_buffers[0]
    by_addr = {r.addr: r for r in records.values()}
    assert by_addr[state["addr"]].data == state["expected"]
    # And the device memory was actually released afterwards.
    assert all(b.addr != state["addr"] for b in machine.gpu(0).memory.buffers())


def test_cow_excludes_buffers_allocated_after_t1():
    eng, machine, phos, process = make_world()
    app = ToyApp(process)

    def driver(eng):
        yield from app.setup()
        yield from quiesce(eng, [process])
        handle = phos.checkpoint(process, mode="cow")
        newbuf = yield from process.runtime.malloc(0, 1 * MIB, tag="late")
        yield from process.runtime.memcpy_h2d(0, newbuf, payload=9, sync=True)
        image, session = yield handle
        return image, session, newbuf

    image, session, newbuf = eng.run_process(driver(eng))
    assert not session.aborted
    addrs = {r.addr for r in image.gpu_buffers[0].values()}
    assert newbuf.addr not in addrs


def test_cow_mis_speculation_aborts_and_retries_stop_world():
    """A kernel writing through a module-global pointer defeats
    speculation; the validator catches it and PHOS falls back to a
    stop-the-world retry whose image is consistent."""
    eng, machine, phos, process = make_world()
    # Large buffers keep `out` (copied last) uncheckpointed long enough
    # for the sneaky kernel to hit it mid-copy.
    app = ToyApp(process, buf_size=256 * MIB, kernel_flops=1e9)

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        hidden = app.bufs["out"]
        sneaky = build_global_writer("sneaky", "hidden_out", hidden.addr)
        yield from quiesce(eng, [process])
        handle = phos.checkpoint(process, mode="cow")
        # While the checkpoint runs, write `hidden` via the global ptr:
        # the argument list only shows a const read of `input`.
        yield from process.runtime.launch_kernel(
            0, sneaky, [app.bufs["input"].addr, 8], 8,
            cost=KernelCost(flops=1e9), sync=True,
        )
        image, session = yield handle
        return image, session

    image, session = eng.run_process(driver(eng))
    eng.run()
    assert session.aborted
    assert "mis-speculated" in session.abort_reason
    assert session.stats.violations_handled > 0
    # The fallback image reflects a consistent (post-write) state.
    assert image.finalized
    got = image_gpu_state(image)
    live_gpu, _ = snapshot_process(process)
    for key in got:
        assert got[key] == live_gpu[key]


def test_cow_pool_exhaustion_blocks_then_proceeds():
    """With a tiny CoW pool, concurrent writers block (K2 in Fig. 7)
    until shadow memory frees up — and the checkpoint stays correct."""
    eng, machine, phos, process = make_world()
    app = ToyApp(process, buf_size=128 * MIB, kernel_flops=1e9)
    exp_gpu, _, image, session = checkpoint_at_known_state(
        eng, phos, process, app, warm_iters=2, post_iters=10,
        cow_pool_bytes=128 * MIB,  # exactly one shadow at a time
    )
    assert not session.aborted
    got = image_gpu_state(image)
    for key in exp_gpu:
        assert got[key] == exp_gpu[key]
    assert session.stats.cow_pool_waits > 0


def test_cow_checkpoint_stall_much_smaller_than_stop_world():
    """The headline property: CoW keeps the app running."""

    def run_with(mode):
        eng, machine, phos, process = make_world()
        app = ToyApp(process, buf_size=64 * MIB, kernel_flops=2e12)

        def driver(eng):
            yield from app.setup()
            t0 = eng.now
            yield from app.run(3)
            baseline_iter = (eng.now - t0) / 3
            handle = phos.checkpoint(process, mode=mode)
            t1 = eng.now
            yield from app.run(6, start=3)
            elapsed = eng.now - t1
            yield handle
            return elapsed - 6 * baseline_iter  # extra time = stall

        stall = eng.run_process(driver(eng))
        eng.run()
        return stall

    cow_stall = run_with("cow")
    stop_stall = run_with("stop-world")
    assert cow_stall < stop_stall / 3


def test_multi_gpu_cow_checkpoint():
    eng, machine, phos, process = make_world(n_gpus=2, cow_process_gpus=(0, 1))
    apps = [ToyApp(process, gpu_index=0), ToyApp(process, gpu_index=1)]
    state = {}

    def driver(eng):
        for app in apps:
            yield from app.setup()
        for app in apps:
            yield from app.run(2)
        yield from quiesce(eng, [process])
        state["gpu"], _ = snapshot_process(process)
        handle = phos.checkpoint(process, mode="cow")
        for app in apps:
            yield from app.run(3, start=2)
        image, session = yield handle
        return image, session

    image, session = eng.run_process(driver(eng))
    assert not session.aborted
    got = image_gpu_state(image)
    assert set(got) == set(state["gpu"])
    for key in state["gpu"]:
        assert got[key] == state["gpu"][key]
    assert set(image.gpu_buffers) == {0, 1}

"""Integration tests: the soft recopy checkpoint protocol.

§4.3's claim, tested literally: the recopy image must equal the live
process state at t2 — the moment the final recopy completes, while the
process is quiesced.
"""

import pytest

from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.protocols import ProtocolConfig
from repro.core.quiesce import resume
from repro.gpu.context import GpuContext
from repro.gpu.cost_model import KernelCost
from repro.gpu.program import build_global_writer, build_scale
from repro.sim import Engine
from repro.units import GIB, MIB

from tests.toyapp import ToyApp, image_gpu_state, snapshot_process


def make_world(buf_size=256 * MIB, kernel_flops=1e9):
    eng = Engine()
    machine = Machine(eng, n_gpus=1)
    phos = Phos(eng, machine, use_context_pool=False)
    process = GpuProcess(eng, machine, name="app", gpu_indices=[0], cpu_pages=8)
    process.runtime.adopt_context(0, GpuContext(gpu_index=0))
    phos.attach(process)
    app = ToyApp(process, buf_size=buf_size, kernel_flops=kernel_flops)
    return eng, machine, phos, process, app


def run_recopy(eng, phos, process, app, warm_iters=2, post_iters=10,
               extra=None, **kwargs):
    """Recopy while the app runs; capture live state at t2 (kept stopped)."""
    result = {}

    def driver(eng):
        yield from app.setup()
        yield from app.run(warm_iters)
        handle = phos.checkpoint(
            process, mode="recopy",
            config=ProtocolConfig(keep_stopped=True, **kwargs))
        runner = eng.spawn(app.run(post_iters, start=warm_iters))
        if extra is not None:
            eng.spawn(extra(eng))
        image, session = yield handle
        # t2: the process is quiesced; this is the stop-world-at-t2 state.
        result["gpu"], result["cpu"] = snapshot_process(process)
        resume([process])
        yield runner
        return image, session

    image, session = eng.run_process(driver(eng))
    eng.run()
    return result["gpu"], result["cpu"], image, session


def test_recopy_image_equals_t2_state():
    eng, machine, phos, process, app = make_world()
    t2_gpu, t2_cpu, image, session = run_recopy(eng, phos, process, app)
    assert image.finalized
    got = image_gpu_state(image)
    assert set(got) == set(t2_gpu)
    for key in t2_gpu:
        assert got[key] == t2_gpu[key], f"buffer at {key} diverged from t2"
    for idx, data in enumerate(t2_cpu):
        assert image.cpu_pages[idx] == data


def test_same_named_kernels_in_the_window_keep_their_results():
    """``build_scale(3)`` and ``build_scale(5)`` share a name.  Launched
    inside a recopy window, each runs its own twin: the application's
    result is the one the same run gets without a checkpoint."""
    by3, by5 = build_scale(factor=3), build_scale(factor=5)

    def run(checkpoint):
        eng, machine, phos, process, _ = make_world()
        rt = process.runtime

        def driver(eng):
            x = yield from rt.malloc(0, 1 * GIB, tag="x")
            y = yield from rt.malloc(0, 1 * GIB, tag="y")
            yield from rt.memcpy_h2d(0, x, payload=7, sync=True)
            handle = None
            if checkpoint:
                handle = phos.checkpoint(process, mode="recopy")
                while frontend.ckpt_session is None:
                    yield eng.timeout(1e-4)
            for prog in (by3, by5):
                yield from rt.launch_kernel(0, prog, [x.addr, y.addr, 4], 4,
                                            sync=True)
            if handle is not None:
                image, session = yield handle
                assert not session.aborted
            return [y.load_word(y.addr + 8 * i) for i in range(4)]

        frontend = phos.frontend_of(process)
        words = eng.run_process(driver(eng))
        eng.run()
        assert frontend.twins.stats.launches_instrumented == \
            (2 if checkpoint else 0)
        return words

    assert run(checkpoint=False) == [35] * 4
    assert run(checkpoint=True) == [35] * 4


def test_recopy_marks_dirty_buffers():
    eng, machine, phos, process, app = make_world()
    _, _, image, session = run_recopy(eng, phos, process, app)
    assert session.stats.dirty_marks > 0
    assert session.stats.bytes_recopied > 0


def test_recopy_never_stalls_the_app():
    eng, machine, phos, process, app = make_world()
    _, _, image, session = run_recopy(eng, phos, process, app)
    assert session.stats.cow_stall_time == 0.0
    assert session.stats.cow_shadow_copies == 0


def test_recopy_recopied_less_than_total():
    """The whole point: the final (stopped) pass only moves the delta."""
    eng, machine, phos, process, app = make_world()
    _, _, image, session = run_recopy(eng, phos, process, app)
    assert 0 < session.stats.bytes_recopied < session.stats.bytes_copied


def test_recopy_handles_mis_speculation_via_dirty_set():
    """A hidden global-pointer write is caught by the validator and simply
    added to the dirty set — the image still matches t2 (§4.3)."""
    eng, machine, phos, process, app = make_world()
    state = {}

    def extra(eng):
        # Launch the sneaky kernel mid-checkpoint.
        yield eng.timeout(1e-3)
        hidden = app.bufs["out"]
        sneaky = build_global_writer("sneaky", "hidden_out", hidden.addr)
        yield from process.runtime.launch_kernel(
            0, sneaky, [app.bufs["input"].addr, 8], 8,
            cost=KernelCost(flops=1e9), sync=True,
        )
        state["launched"] = True

    t2_gpu, _, image, session = run_recopy(
        eng, phos, process, app, extra=extra
    )
    assert state.get("launched")
    got = image_gpu_state(image)
    for key in t2_gpu:
        assert got[key] == t2_gpu[key]


def test_recopy_drops_buffers_freed_during_window():
    eng, machine, phos, process, app = make_world(buf_size=64 * MIB)
    state = {}

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        doomed = app.bufs.pop("out")
        state["addr"] = doomed.addr
        handle = phos.checkpoint(
            process, mode="recopy",
            config=ProtocolConfig(keep_stopped=True))
        yield from process.runtime.free(0, doomed)
        image, session = yield handle
        resume([process])
        return image, session

    image, session = eng.run_process(driver(eng))
    eng.run()
    addrs = {r.addr for r in image.gpu_buffers[0].values()}
    assert state["addr"] not in addrs  # freed buffers don't exist at t2


@pytest.mark.parametrize("mode", ["recopy", "incremental", "continuous"])
def test_t2_image_holds_buffers_allocated_during_window(mode):
    """A buffer malloc'ed and written inside the concurrent window exists
    at t2, so every t2-cut image holds it (and not ``out``, freed in the
    window).  The app is idle after the churn, so the process state at
    the end is the state at every round's t2."""
    eng, machine, phos, process, app = make_world(buf_size=64 * MIB)
    if mode == "continuous":
        config = ProtocolConfig(rounds=2)
    else:
        config = ProtocolConfig(keep_stopped=True)
    rt = process.runtime

    def churn(eng):
        yield eng.timeout(1e-4)
        yield from rt.free(0, app.bufs.pop("out"))
        late = yield from rt.malloc(0, 64 * MIB, tag="late")
        yield from rt.memcpy_h2d(0, late, payload=77, sync=True)

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        handle = phos.checkpoint(process, mode=mode, config=config)
        eng.spawn(churn(eng))
        image, result = yield handle
        state, _ = snapshot_process(process)
        if mode == "continuous":
            return result.images, state
        resume([process])
        return [image], state

    images, state = eng.run_process(driver(eng))
    eng.run()
    assert len(state) == 6 and len(images) == (2 if mode == "continuous" else 1)
    for image in images:
        assert image_gpu_state(image) == state


def test_coordinated_checkpoint_reduces_recopy_volume():
    """Fig. 17's ablation: CPU-first ordering shrinks the dirty set."""

    def volume(coordinated):
        eng, machine, phos, process, app = make_world(
            buf_size=256 * MIB, kernel_flops=1e9
        )
        # Give the process a large CPU side so CPU copy time matters.
        process.host.memory.__init__(2048)
        _, _, image, session = run_recopy(
            eng, phos, process, app, post_iters=30, coordinated=coordinated
        )
        return session.stats.bytes_recopied

    assert volume(True) <= volume(False)

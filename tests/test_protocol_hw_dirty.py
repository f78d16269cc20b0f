"""Integration tests: the hypothetical hardware-dirty-bit recopy (§9)."""

import pytest

from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.core.protocols import ProtocolConfig, registry
from repro.core.quiesce import resume
from repro.cpu.criu import CriuEngine
from repro.gpu.context import GpuContext
from repro.sim import Engine
from repro.units import MIB

from tests.toyapp import ToyApp, image_gpu_state, snapshot_process


def make_world(buf_size=64 * MIB):
    eng = Engine()
    machine = Machine(eng, n_gpus=1)
    criu = CriuEngine(eng)
    process = GpuProcess(eng, machine, name="app", gpu_indices=[0], cpu_pages=8)
    process.runtime.adopt_context(0, GpuContext(gpu_index=0))
    app = ToyApp(process, buf_size=buf_size, kernel_flops=1e9)
    return eng, machine, criu, process, app


def test_hw_dirty_bits_set_by_all_write_paths():
    eng, machine, criu, process, app = make_world(buf_size=4096)

    def driver(eng):
        yield from app.setup()
        for buf in app.bufs.values():
            buf.hw_dirty = False
        yield from app.run(1)

    eng.run_process(driver(eng))
    # The iteration writes act (kernel), grad (lib), out (kernel),
    # weight (kernel), input (memcpy) — all must be marked.
    for name in ("act", "grad", "out", "weight", "input"):
        assert app.bufs[name].hw_dirty, name
    # idx is read-only in the loop.
    assert not app.bufs["idx"].hw_dirty


def test_hw_recopy_image_equals_t2_state():
    eng, machine, criu, process, app = make_world()
    state = {}

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        protocol = registry.create(
            "hw-dirty",
            config=ProtocolConfig(keep_stopped=True))
        handle = eng.spawn(protocol.checkpoint(
            eng, process=process, medium=machine.dram, criu=criu,
        ))
        runner = eng.spawn(app.run(8, start=2))
        image, _session = yield handle
        state["gpu"], _ = snapshot_process(process)
        resume([process])
        yield runner
        return image

    image = eng.run_process(driver(eng))
    eng.run()
    got = image_gpu_state(image)
    assert set(got) == set(state["gpu"])
    for key in state["gpu"]:
        assert got[key] == state["gpu"][key]


def test_hw_recopy_needs_no_frontend():
    """The hypothetical hardware path runs without any PHOS attachment
    (no speculation, no twins) — §9's simplification claim."""
    eng, machine, criu, process, app = make_world()
    assert process.runtime.interceptor is None

    def driver(eng):
        yield from app.setup()
        handle = eng.spawn(registry.create("hw-dirty").checkpoint(
            eng, process=process, medium=machine.dram, criu=criu,
        ))
        runner = eng.spawn(app.run(8))
        image, session = yield handle
        yield runner
        return image, session

    image, session = eng.run_process(driver(eng))
    assert image.finalized
    # Nothing was intercepted, so no twin could launch and no write was
    # speculated: the recopied set came from the hardware bits alone.
    assert process.runtime.interceptor is None
    assert not session.aborted
    assert session.stats.dirty_marks == 0
    assert session.stats.violations_handled == 0
    assert session.stats.bytes_recopied > 0


def test_hw_and_soft_recopy_agree_on_dirty_volume():
    """Hardware bits and validated speculation must identify dirty sets
    of the same scale for the same workload window."""
    from repro.core.daemon import Phos

    def soft():
        eng, machine, criu, process, app = make_world()
        phos = Phos(eng, machine, use_context_pool=False)
        phos.attach(process)

        def driver(eng):
            yield from app.setup()
            yield from app.run(2)
            handle = phos.checkpoint(
                process, mode="recopy",
                config=ProtocolConfig(keep_stopped=True))
            runner = eng.spawn(app.run(8, start=2))
            image, session = yield handle
            resume([process])
            yield runner
            return session.stats.bytes_recopied

        result = eng.run_process(driver(eng))
        eng.run()
        return result

    def hw():
        eng, machine, criu, process, app = make_world()

        def driver(eng):
            yield from app.setup()
            yield from app.run(2)
            protocol = registry.create(
                "hw-dirty",
                config=ProtocolConfig(keep_stopped=True))
            handle = eng.spawn(protocol.checkpoint(
                eng, process=process, medium=machine.dram, criu=criu,
            ))
            runner = eng.spawn(app.run(8, start=2))
            _image, session = yield handle
            resume([process])
            yield runner
            return session.stats.bytes_recopied

        result = eng.run_process(driver(eng))
        eng.run()
        return result

    soft_bytes, hw_bytes = soft(), hw()
    # Pinned exactly: two of the 64 MiB buffers are written after their
    # copy starts.  The dirty set is what §9 compares, so restructuring
    # the protocol must not move it.
    assert hw_bytes == 2 * 64 * MIB
    # Speculation is buffer-granular and over-approximate; hardware bits
    # are exact.  They may differ, but not by orders of magnitude.
    assert 0.3 <= (soft_bytes / hw_bytes) <= 3.0


@pytest.mark.parametrize("free_at", [1e-4, 5e-3, 10e-3, 20e-3])
def test_hw_recopy_drops_buffer_freed_during_window(free_at):
    """A buffer freed inside the concurrent window does not exist at t2,
    so the image must not hold it — wherever the free lands relative to
    the first copy pass (a stale record would claim an address a later
    ``malloc`` may reuse)."""
    from tests.test_protocol_recopy import make_world as make_phos_world

    eng, machine, phos, process, app = make_phos_world(buf_size=64 * MIB)

    def side(eng):
        yield eng.timeout(free_at)
        yield from process.runtime.free(0, app.bufs.pop("out"))

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        handle = phos.checkpoint(process, mode="hw-dirty",
                                 config=ProtocolConfig(keep_stopped=True))
        eng.spawn(side(eng))
        image, _session = yield handle
        state, _ = snapshot_process(process)
        resume([process])
        return image, state

    image, state = eng.run_process(driver(eng))
    eng.run()
    assert len(state) == 5
    assert image_gpu_state(image) == state


@pytest.mark.parametrize("malloc_at", [1e-4, 5e-3, 20e-3],
                         ids=["0.1ms", "5ms", "20ms"])
def test_hw_recopy_keeps_buffer_malloced_during_window(malloc_at):
    """A buffer allocated inside the concurrent window and never written
    exists at t2 (zero-filled), so the image must hold it: its hardware
    bit is clear, which must not hide it from the t2 cut."""
    from tests.test_protocol_recopy import make_world as make_phos_world

    eng, machine, phos, process, app = make_phos_world(buf_size=64 * MIB)

    def side(eng):
        yield eng.timeout(malloc_at)
        yield from process.runtime.malloc(0, 64 * MIB, tag="late")

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        handle = phos.checkpoint(process, mode="hw-dirty",
                                 config=ProtocolConfig(keep_stopped=True))
        eng.spawn(side(eng))
        image, _session = yield handle
        state, _ = snapshot_process(process)
        resume([process])
        return image, state

    image, state = eng.run_process(driver(eng))
    eng.run()
    assert len(state) == 7
    assert image_gpu_state(image) == state

"""Unit tests for the PHOS daemon and the application SDK."""

import pytest

from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.sdk import PhosSdk
from repro.errors import CheckpointError
from repro.gpu.context import GpuContext
from repro.sim import Engine

from tests.toyapp import ToyApp, image_gpu_state, snapshot_process


def make_world(n_gpus=1):
    eng = Engine()
    machine = Machine(eng, n_gpus=n_gpus)
    phos = Phos(eng, machine, use_context_pool=False)
    return eng, machine, phos


def attach_app(eng, machine, phos, name="app", gpus=(0,)):
    process = GpuProcess(eng, machine, name=name, gpu_indices=list(gpus),
                         cpu_pages=8)
    for i in gpus:
        process.runtime.adopt_context(i, GpuContext(gpu_index=i))
    phos.attach(process)
    app = ToyApp(process)
    return process, app


def test_checkpoint_requires_attachment():
    eng, machine, phos = make_world()
    process = GpuProcess(eng, machine, name="stranger", gpu_indices=[0])
    with pytest.raises(CheckpointError, match="not attached"):
        phos.checkpoint(process)


def test_unknown_mode_rejected():
    eng, machine, phos = make_world()
    process, app = attach_app(eng, machine, phos)
    with pytest.raises(CheckpointError, match="unknown checkpoint mode"):
        phos.checkpoint(process, mode="quantum")


def test_stop_world_mode_through_daemon():
    eng, machine, phos = make_world()
    process, app = attach_app(eng, machine, phos)

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        image, session = yield phos.checkpoint(process, mode="stop-world")
        return image, session

    image, session = eng.run_process(driver(eng))
    assert session is None
    assert image.finalized


def test_consistent_multi_process_checkpoint():
    """§7: one global quiesce, then per-process CoW — images of both
    processes reflect the same consistent cut."""
    eng, machine, phos = make_world(n_gpus=2)
    p1, app1 = attach_app(eng, machine, phos, name="p1", gpus=(0,))
    p2, app2 = attach_app(eng, machine, phos, name="p2", gpus=(1,))
    p2.runtime.adopt_context(1, GpuContext(gpu_index=1))
    app2.gpu_index = 1

    def driver(eng):
        yield from app1.setup()
        yield from app2.setup()
        yield from app1.run(2)
        yield from app2.run(2)
        handle = phos.checkpoint_consistent([p1, p2])
        yield from app1.run(2, start=2)
        results = yield handle
        return results

    results = eng.run_process(driver(eng))
    eng.run()
    assert len(results) == 2
    for image, session in results:
        assert image.finalized
        assert not session.aborted
    # The two checkpoints were cut at the same quiesce point.
    t1s = [image.checkpoint_time for image, _ in results]
    assert max(t1s) - min(t1s) < 0.05


def test_kill_releases_device_memory():
    eng, machine, phos = make_world()
    process, app = attach_app(eng, machine, phos)

    def driver(eng):
        yield from app.setup()

    eng.run_process(driver(eng))
    used_before = machine.gpu(0).memory.used
    assert used_before > 0
    phos.kill(process)
    assert machine.gpu(0).memory.used == 0
    with pytest.raises(CheckpointError):
        phos.frontend_of(process)


def test_sdk_checkpoint_is_asynchronous():
    eng, machine, phos = make_world()
    process, app = attach_app(eng, machine, phos)
    sdk = PhosSdk(phos, process)

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        t0 = eng.now
        started = sdk.checkpoint(name="sdk-test")
        issued_instantly = (eng.now - t0) < 1e-9
        yield from app.run(2, start=1)
        yield from sdk.wait_inflight()
        return started, issued_instantly

    started, instant = eng.run_process(driver(eng))
    eng.run()
    assert started and instant
    assert sdk.checkpoints_taken == 1
    assert sdk.last_image is not None
    assert sdk.last_image.name == "sdk-test"


def test_sdk_skips_when_previous_inflight():
    eng, machine, phos = make_world()
    # Big buffers: the first checkpoint is still copying when the
    # second request arrives.
    from repro.units import MIB

    process, _ = attach_app(eng, machine, phos)
    app = ToyApp(process, buf_size=256 * MIB, kernel_flops=1e9)
    sdk = PhosSdk(phos, process)

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        first = sdk.checkpoint()
        second = sdk.checkpoint()  # previous one still running
        yield from sdk.wait_inflight()
        third = sdk.checkpoint()
        yield from sdk.wait_inflight()
        return first, second, third

    first, second, third = eng.run_process(driver(eng))
    eng.run()
    assert first and not second and third
    assert sdk.checkpoints_taken == 2
    assert sdk.checkpoints_skipped == 1


def test_restore_from_daemon_image_roundtrip():
    eng, machine, phos = make_world()
    process, app = attach_app(eng, machine, phos)

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        image, session = yield phos.checkpoint(process, mode="cow")
        expected = image_gpu_state(image)
        machine2 = Machine(eng, name="m2", n_gpus=1)
        phos2 = Phos(eng, machine2, use_context_pool=False)
        result = yield from phos2.restore(
            image, gpu_indices=[0], machine=machine2
        )
        new_process, frontend, rsession = result
        yield rsession.done
        got, _ = snapshot_process(new_process)
        return expected, got

    expected, got = eng.run_process(driver(eng))
    eng.run()
    assert expected == got

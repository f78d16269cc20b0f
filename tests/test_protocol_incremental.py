"""Integration tests: incremental CoW checkpoints (parent images).

A CoW child is a :class:`~repro.storage.delta.DeltaImage` cut at t1:
buffers unwritten since the parent are pure references, the rest store
their changed chunks.
"""

import struct

from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.protocols import ProtocolConfig
from repro.core.quiesce import quiesce
from repro.gpu.context import GpuContext
from repro.gpu.cost_model import KernelCost
from repro.gpu.program import build_fill
from repro.sim import Engine
from repro.storage.delta import DeltaImage, materialize
from repro.storage.serial import (
    DELTA_FORMAT_VERSION,
    FORMAT_VERSION,
    load_image,
    save_image,
)
from repro.units import MIB

from tests.toyapp import ToyApp, image_gpu_state, snapshot_process


def make_world(buf_size=4096):
    eng = Engine()
    machine = Machine(eng, n_gpus=1)
    phos = Phos(eng, machine, use_context_pool=False)
    process = GpuProcess(eng, machine, name="app", gpu_indices=[0], cpu_pages=8)
    process.runtime.adopt_context(0, GpuContext(gpu_index=0))
    phos.attach(process)
    app = ToyApp(process, buf_size=buf_size)
    return eng, machine, phos, process, app


def test_incremental_image_equals_full_image():
    """The child image is byte-identical to a from-scratch checkpoint."""
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        parent, s0 = yield phos.checkpoint(process, mode="cow", name="base")
        yield from app.run(3, start=2)
        # Quiesce so both checkpoints capture the same t1.
        yield from quiesce(eng, [process])
        expected, _ = snapshot_process(process)
        child, s1 = yield phos.checkpoint(
            process, mode="cow", name="inc",
            config=ProtocolConfig(parent=parent))
        return expected, child, s1

    expected, child, session = eng.run_process(driver(eng))
    eng.run()
    assert not session.aborted
    assert image_gpu_state(child) == expected


def test_incremental_skips_unwritten_buffers():
    """The never-written `idx` buffer inherits the parent record."""
    eng, machine, phos, process, app = make_world(buf_size=64 * MIB)

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        parent, _ = yield phos.checkpoint(process, mode="cow")
        yield from app.run(2, start=1)
        child, session = yield phos.checkpoint(
            process, mode="cow",
            config=ProtocolConfig(parent=parent))
        return parent, child, session

    parent, child, session = eng.run_process(driver(eng))
    eng.run()
    assert session.stats.bytes_skipped_incremental > 0
    # The inherited record is a pure reference: no local chunk, no byte.
    assert isinstance(child, DeltaImage) and child.parent_id == parent.id
    idx_parent = next(r for r in parent.gpu_buffers[0].values()
                      if r.tag == "idx")
    idx_child = next(r for r in child.delta_gpu[0].values()
                     if r.tag == "idx")
    assert idx_child.buffer_id == idx_parent.buffer_id
    assert idx_child.index == () and idx_child.payload == b""
    assert materialize(child).gpu_buffers[0][idx_parent.buffer_id].data \
        == idx_parent.data


def test_incremental_faster_than_full():
    eng, machine, phos, process, app = make_world(buf_size=128 * MIB)

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        t0 = eng.now
        parent, _ = yield phos.checkpoint(process, mode="cow")
        full_time = eng.now - t0
        # Touch only one buffer before the incremental checkpoint.
        yield from process.runtime.launch_kernel(
            0, build_fill(), [app.bufs["act"].addr, 4, 5], 4,
            cost=KernelCost(flops=1e9), sync=True,
        )
        t1 = eng.now
        child, session = yield phos.checkpoint(
            process, mode="cow",
            config=ProtocolConfig(parent=parent))
        inc_time = eng.now - t1
        return full_time, inc_time, session

    full_time, inc_time, session = eng.run_process(driver(eng))
    eng.run()
    assert inc_time < 0.6 * full_time
    assert session.stats.bytes_skipped_incremental > 0


def test_written_buffers_are_recaptured():
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        parent, _ = yield phos.checkpoint(process, mode="cow")
        # Write `act` with new content via the API.
        yield from process.runtime.memcpy_h2d(0, app.bufs["act"], payload=77,
                                              sync=True)
        child, session = yield phos.checkpoint(
            process, mode="cow",
            config=ProtocolConfig(parent=parent))
        return parent, child

    parent, child = eng.run_process(driver(eng))
    eng.run()
    act_parent = next(r for r in parent.gpu_buffers[0].values()
                      if r.tag == "act")
    assert child.delta_gpu[0][act_parent.buffer_id].index  # stored locally
    act_child = materialize(child).gpu_buffers[0][act_parent.buffer_id]
    assert act_child.data != act_parent.data
    assert act_child.data[:8] == (77).to_bytes(8, "little")


def test_layout_change_falls_back_to_full_copy():
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        parent, _ = yield phos.checkpoint(process, mode="cow")
        # Replace a buffer: same tag, different allocation.
        old = app.bufs.pop("out")
        yield from process.runtime.free(0, old)
        app.bufs["out"] = yield from process.runtime.malloc(0, 8192, tag="out")
        yield from process.runtime.memcpy_h2d(0, app.bufs["out"], payload=3,
                                              sync=True)
        child, session = yield phos.checkpoint(
            process, mode="cow",
            config=ProtocolConfig(parent=parent))
        yield from quiesce(eng, [process])
        expected, _ = snapshot_process(process)
        return expected, child

    expected, child = eng.run_process(driver(eng))
    eng.run()
    assert image_gpu_state(child) == expected


def test_chain_of_incrementals_stays_correct():
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        image, _ = yield phos.checkpoint(process, mode="cow")
        for i in range(3):
            yield from app.run(1, start=i)
            image, session = yield phos.checkpoint(
                process, mode="cow",
                config=ProtocolConfig(parent=image))
            assert not session.aborted
        yield from quiesce(eng, [process])
        expected, _ = snapshot_process(process)
        return expected, image

    expected, image = eng.run_process(driver(eng))
    eng.run()
    assert image_gpu_state(image) == expected


def test_cow_child_round_trips_as_v2(tmp_path):
    """A CoW child saves in the v2 delta format and, loaded back beside
    its parent, materializes to the stop-the-world state at its t1."""
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        parent, _ = yield phos.checkpoint(process, mode="cow", name="base")
        yield from app.run(2, start=2)
        yield from quiesce(eng, [process])
        expected = snapshot_process(process)
        handle = phos.checkpoint(process, mode="cow", name="child",
                                 config=ProtocolConfig(parent=parent))
        yield from app.run(2, start=4)  # beside the copy: after t1
        child, session = yield handle
        assert not session.aborted
        return expected, parent, child

    (gpu_state, cpu_state), parent, child = eng.run_process(driver(eng))
    eng.run()
    loaded = {}
    for image, version in ((parent, FORMAT_VERSION),
                           (child, DELTA_FORMAT_VERSION)):
        path = tmp_path / f"{image.name}.phos"
        save_image(image, path)
        assert struct.unpack_from("<8sII", path.read_bytes())[1] == version
        loaded[image.id] = load_image(path)
    full = materialize(loaded[child.id], resolve=loaded.get)
    assert image_gpu_state(full) == gpu_state
    for idx, page in enumerate(cpu_state):
        assert full.cpu_pages[idx] == page

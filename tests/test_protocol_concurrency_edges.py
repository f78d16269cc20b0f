"""Concurrency edge cases: collectives and multi-stream races under CoW."""

from repro.api.nccl import NcclCommunicator, nccl_allreduce
from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.protocols import ProtocolConfig
from repro.core.quiesce import quiesce
from repro.gpu.context import GpuContext
from repro.gpu.cost_model import KernelCost
from repro.gpu.program import build_fill, build_inplace_add
from repro.sim import Engine
from repro.units import MIB


def make_world(n_gpus=2):
    eng = Engine()
    machine = Machine(eng, n_gpus=n_gpus)
    phos = Phos(eng, machine, use_context_pool=False)
    process = GpuProcess(eng, machine, name="app",
                         gpu_indices=list(range(n_gpus)), cpu_pages=4)
    for i in range(n_gpus):
        process.runtime.adopt_context(i, GpuContext(gpu_index=i, nccl_scope=n_gpus))
    phos.attach(process)
    return eng, machine, phos, process


def test_collective_during_cow_is_isolated():
    """An all-reduce writing recv buffers mid-checkpoint must not leak
    post-t1 content into the image (type-2 calls are guarded too)."""
    eng, machine, phos, process = make_world()
    rt = process.runtime
    comm = NcclCommunicator(eng, [0, 1])

    def driver(eng):
        b0 = yield from rt.malloc(0, 128 * MIB, tag="g0")
        b1 = yield from rt.malloc(1, 128 * MIB, tag="g1")
        yield from rt.memcpy_h2d(0, b0, payload=10, sync=True)
        yield from rt.memcpy_h2d(1, b1, payload=32, sync=True)
        yield from quiesce(eng, [process])
        expected0, expected1 = b0.snapshot(), b1.snapshot()
        handle = phos.checkpoint(process, mode="cow")
        # All-reduce mutates both recv buffers while the copy runs.
        yield from nccl_allreduce(rt, comm, {0: b0, 1: b1}, sync=True)
        image, session = yield handle
        return image, session, b0, b1, expected0, expected1

    image, session, b0, b1, exp0, exp1 = eng.run_process(driver(eng))
    eng.run()
    assert not session.aborted
    assert image.gpu_buffers[0][b0.id].data == exp0
    assert image.gpu_buffers[1][b1.id].data == exp1
    # And the live buffers really did get the reduced value.
    assert b0.load_word(b0.addr) == 42


def test_two_streams_racing_on_one_buffer_under_cow():
    """Kernels on different streams writing the same uncheckpointed
    buffer: the first guard shadows, the second waits for the shadow."""
    eng, machine, phos, process = make_world(n_gpus=1)
    rt = process.runtime

    def driver(eng):
        # pad is allocated (and therefore copied) first; the kernels hit
        # `victim` while it is still NOT_STARTED.
        yield from rt.malloc(0, 512 * MIB, tag="pad")
        victim = yield from rt.malloc(0, 256 * MIB, tag="victim")
        yield from rt.memcpy_h2d(0, victim, payload=5, sync=True)
        yield from quiesce(eng, [process])
        expected = victim.snapshot()
        handle = phos.checkpoint(
            process, mode="cow",
            config=ProtocolConfig(coordinated=False))
        s1 = process.default_stream(0)
        s2 = machine.gpu(0).create_stream("second")
        cost = KernelCost(flops=1e9)
        op1 = yield from rt.launch_kernel(
            0, build_fill(), [victim.addr, 4, 99], 4, cost=cost, stream=s1,
        )
        op2 = yield from rt.launch_kernel(
            0, build_inplace_add(), [victim.addr, 4], 4, cost=cost, stream=s2,
        )
        yield op1.done
        yield op2.done
        image, session = yield handle
        return image, session, victim, expected

    image, session, victim, expected = eng.run_process(driver(eng))
    eng.run()
    assert not session.aborted
    assert session.stats.cow_shadow_copies == 1  # only one shadow made
    assert image.gpu_buffers[0][victim.id].data == expected
    # Both kernels executed on the live buffer (fill then +1, in some
    # serialized order across streams).
    assert victim.load_word(victim.addr) in (100, 99)


def test_checkpoint_with_second_stream_in_flight():
    """Quiesce drains *all* streams on the device, not just the default."""
    eng, machine, phos, process = make_world(n_gpus=1)
    rt = process.runtime

    def driver(eng):
        buf = yield from rt.malloc(0, 4096, tag="b")
        side = machine.gpu(0).create_stream("side")
        op = yield from rt.launch_kernel(
            0, build_fill(), [buf.addr, 4, 8], 4,
            cost=KernelCost(flops=5e13), stream=side,  # ~0.2 s kernel
        )
        image, session = yield phos.checkpoint(process, mode="cow")
        assert op.done.triggered  # quiesce waited for the side stream
        return image, buf

    image, buf = eng.run_process(driver(eng))
    eng.run()
    # The kernel ran before t1, so its effect IS in the image.
    assert image.gpu_buffers[0][buf.id].data[:8] == (8).to_bytes(8, "little")

"""Multi-GPU concurrent restore: correctness across devices."""

import pytest

from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.errors import InvalidValueError
from repro.gpu.context import GpuContext
from repro.sim import Engine
from repro.units import MIB

from tests.toyapp import ToyApp


def make_world(n_gpus=2):
    eng = Engine()
    machine = Machine(eng, n_gpus=n_gpus)
    phos = Phos(eng, machine, use_context_pool=False)
    process = GpuProcess(eng, machine, name="mg", gpu_indices=list(range(n_gpus)),
                         cpu_pages=8)
    for i in range(n_gpus):
        process.runtime.adopt_context(i, GpuContext(gpu_index=i))
    phos.attach(process)
    apps = [ToyApp(process, gpu_index=i, buf_size=64 * MIB, kernel_flops=1e9)
            for i in range(n_gpus)]
    return eng, machine, phos, process, apps


def checkpoint(eng, phos, process, apps, warm=2):
    def driver(eng):
        for app in apps:
            yield from app.setup()
        for app in apps:
            yield from app.run(warm)
        image, session = yield phos.checkpoint(process, mode="cow")
        assert not session.aborted
        return image

    image = eng.run_process(driver(eng))
    eng.run()
    return image


def test_multigpu_concurrent_restore_loads_every_device():
    eng, machine, phos, process, apps = make_world()
    image = checkpoint(eng, phos, process, apps)
    target = Machine(eng, name="t", n_gpus=2)
    phos2 = Phos(eng, target, use_context_pool=False)

    def driver(eng):
        result = yield from phos2.restore(
            image, gpu_indices=[0, 1], machine=target
        )
        process2, frontend, session = result
        yield session.done
        return process2, session

    process2, session = eng.run_process(driver(eng))
    eng.run()
    assert session.all_restored()
    # Every GPU's buffers match the image, device by device.
    for gpu_index in (0, 1):
        by_addr = {b.addr: b for b in process2.runtime.allocations[gpu_index]}
        records = image.gpu_buffers[gpu_index]
        assert len(by_addr) == len(records)
        for rec in records.values():
            assert by_addr[rec.addr].snapshot() == rec.data


def test_multigpu_restore_loaders_run_in_parallel():
    """Two GPUs restore over two PCIe links: wall time ~= one GPU's."""

    def timed(n_gpus):
        eng, machine, phos, process, apps = make_world(n_gpus=n_gpus)
        image = checkpoint(eng, phos, process, apps)
        target = Machine(eng, name="t", n_gpus=n_gpus)
        phos2 = Phos(eng, target, use_context_pool=False)

        def driver(eng):
            t0 = eng.now
            result = yield from phos2.restore(
                image, gpu_indices=list(range(n_gpus)), machine=target,
            )
            yield result[2].done
            return eng.now - t0

        elapsed = eng.run_process(driver(eng))
        eng.run()
        return elapsed

    one = timed(1)
    two = timed(2)
    assert two < 1.5 * one  # parallel, not serialized


def test_multigpu_on_demand_touches_only_the_needed_device():
    eng, machine, phos, process, apps = make_world()
    image = checkpoint(eng, phos, process, apps)
    target = Machine(eng, name="t", n_gpus=2)
    phos2 = Phos(eng, target, use_context_pool=False)

    def driver(eng):
        result = yield from phos2.restore(
            image, gpu_indices=[0, 1], machine=target
        )
        process2, frontend, session = result
        # Run one iteration on GPU 1 only: its buffers must be served
        # on demand without waiting for GPU 0's plan.
        apps[1].bind_restored(process2)
        t0 = eng.now
        yield from apps[1].one_iteration(2)
        elapsed = eng.now - t0
        yield session.done
        return elapsed, session

    elapsed, session = eng.run_process(driver(eng))
    eng.run()
    assert session.demand_fetches > 0
    assert session.all_restored()


@pytest.mark.parametrize("gpus", [[0], [1], [0, 1, 2]])
@pytest.mark.parametrize("mode", ["concurrent", "stop-world"])
def test_restore_onto_other_gpu_set_raises_before_touching_state(mode, gpus):
    """A two-GPU image restored onto fewer (or more) GPUs would come
    back with state missing; the daemon refuses it up front."""
    eng, machine, phos, process, apps = make_world()
    image = checkpoint(eng, phos, process, apps)
    target = Machine(eng, name="t", n_gpus=3)
    phos2 = Phos(eng, target, use_context_pool=False)

    with pytest.raises(InvalidValueError, match=r"\[0, 1\]") as err:
        next(iter(phos2.restore(image, gpu_indices=gpus, machine=target,
                                mode=mode)))
    assert str(gpus) in str(err.value)
    assert all(target.gpu(i).memory.used == 0 for i in range(3))

"""Soak tests: repeated C/R cycles and checkpoint-during-restore."""

from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.quiesce import quiesce
from repro.gpu.context import GpuContext
from repro.sim import Engine
from repro.units import MIB

from tests.toyapp import ToyApp, image_gpu_state, snapshot_process


def make_world(buf_size=4096):
    eng = Engine()
    machine = Machine(eng, n_gpus=1)
    phos = Phos(eng, machine, use_context_pool=False)
    process = GpuProcess(eng, machine, name="app", gpu_indices=[0], cpu_pages=8)
    process.runtime.adopt_context(0, GpuContext(gpu_index=0))
    phos.attach(process)
    return eng, machine, phos, process


def test_many_checkpoint_cycles_stay_correct():
    """12 alternating CoW/recopy checkpoints of a continuously-running
    app, each validated against a quiesced reference snapshot."""
    eng, machine, phos, process = make_world()
    app = ToyApp(process)

    def driver(eng):
        yield from app.setup()
        for cycle in range(12):
            yield from app.run(1, start=cycle)
            mode = "cow" if cycle % 2 == 0 else "recopy"
            yield from quiesce(eng, [process])
            expected, _ = snapshot_process(process)
            image, session = yield phos.checkpoint(process, mode=mode)
            assert not session.aborted, cycle
            if mode == "cow":
                assert image_gpu_state(image) == expected, (cycle, mode)
        return True

    assert eng.run_process(driver(eng))
    eng.run()
    # No leaked shadows or deferred frees across all cycles.
    gpu = machine.gpu(0)
    assert len(gpu.memory) == len(process.runtime.allocations[0])


def test_checkpoint_during_restore_waits_for_completion():
    """A checkpoint requested while the process is still restoring must
    not capture unloaded buffers — it waits for restore completion."""
    eng, machine, phos, process = make_world(buf_size=256 * MIB)
    app = ToyApp(process, buf_size=256 * MIB, kernel_flops=1e9)

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        image, _ = yield phos.checkpoint(process, mode="cow")
        machine2 = Machine(eng, name="m2", n_gpus=1)
        phos2 = Phos(eng, machine2, use_context_pool=False)
        result = yield from phos2.restore(
            image, gpu_indices=[0], machine=machine2
        )
        process2, frontend2, session = result
        assert not session.all_restored()
        # Immediately checkpoint the still-restoring process.
        image2, session2 = yield phos2.checkpoint(process2, mode="cow")
        assert not session2.aborted
        return image, image2

    image, image2 = eng.run_process(driver(eng))
    eng.run()
    # The second image matches the first: no stale zero-buffers leaked.
    assert image_gpu_state(image2) == image_gpu_state(image)


def test_restore_chain_three_generations():
    """checkpoint -> restore -> run -> checkpoint -> restore -> run."""
    eng, machine, phos, process = make_world()
    app = ToyApp(process)

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        image, _ = yield phos.checkpoint(process, mode="cow")
        for gen in range(2):
            m = Machine(eng, name=f"gen{gen}", n_gpus=1)
            p = Phos(eng, m, use_context_pool=False)
            result = yield from p.restore(image, gpu_indices=[0], machine=m)
            proc, _, session = result
            yield session.done
            app.bind_restored(proc)
            yield from app.run(2, start=2 + 2 * gen)
            image, s = yield p.checkpoint(proc, mode="cow")
            assert not s.aborted
        return image

    image = eng.run_process(driver(eng))
    eng.run()
    assert image.finalized
    assert image.buffer_count(0) == 6

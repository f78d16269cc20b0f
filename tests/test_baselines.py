"""Unit tests for the baseline systems (Singularity / cuda-checkpoint)."""

import pytest

from repro import baselines
from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.cpu.criu import CriuEngine
from repro.errors import CheckpointError
from repro.gpu.context import GpuContext
from repro.sim import Engine

from tests.toyapp import ToyApp, image_gpu_state, snapshot_process


def make_world(n_gpus=1):
    eng = Engine()
    machine = Machine(eng, n_gpus=n_gpus)
    criu = CriuEngine(eng)
    process = GpuProcess(eng, machine, name="app", gpu_indices=[0], cpu_pages=8)
    process.runtime.adopt_context(0, GpuContext(gpu_index=0))
    app = ToyApp(process)
    return eng, machine, criu, process, app


def test_singularity_checkpoint_is_consistent():
    eng, machine, criu, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        image = yield from baselines.checkpoint(
            "singularity", eng, process, machine.dram, criu
        )
        # Quiesced for the whole copy: image == state at completion.
        expected, _ = snapshot_process(process)
        return image, expected

    image, expected = eng.run_process(driver(eng))
    assert image_gpu_state(image) == expected
    assert image.finalized


def test_singularity_roundtrip():
    eng, machine, criu, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        image = yield from baselines.checkpoint(
            "singularity", eng, process, machine.dram, criu
        )
        target = Machine(eng, name="t", n_gpus=1)
        restored = yield from baselines.restore(
            "singularity", eng, image, target, [0], machine.dram, criu
        )
        return image, restored

    image, restored = eng.run_process(driver(eng))
    got, _ = snapshot_process(restored)
    assert image_gpu_state(image) == got
    assert restored.registers if hasattr(restored, "registers") else True


def test_cuda_checkpoint_slower_than_singularity():
    from repro.units import MIB

    def timed(system):
        eng, machine, criu, process, _ = make_world()
        app = ToyApp(process, buf_size=64 * MIB)  # data-path bound

        def driver(eng):
            yield from app.setup()
            yield from app.run(1)
            t0 = eng.now
            yield from baselines.checkpoint(system, eng, process,
                                            machine.dram, criu)
            return eng.now - t0

        return eng.run_process(driver(eng))

    sing = timed("singularity")
    cuda = timed("cuda-checkpoint")
    assert cuda > 3 * sing  # orders-of-magnitude data-path gap


def test_cuda_checkpoint_rejects_multi_gpu():
    eng = Engine()
    machine = Machine(eng, n_gpus=2)
    criu = CriuEngine(eng)
    process = GpuProcess(eng, machine, name="multi", gpu_indices=[0, 1])

    def driver(eng):
        yield from baselines.checkpoint("cuda-checkpoint", eng, process,
                                        machine.dram, criu)

    with pytest.raises(CheckpointError, match="distributed"):
        eng.run_process(driver(eng))

    def driver2(eng):
        from repro.storage.image import CheckpointImage

        image = CheckpointImage()
        image.finalize(0.0)
        yield from baselines.restore("cuda-checkpoint", eng, image, machine,
                                     [0, 1], machine.dram, criu)

    with pytest.raises(CheckpointError, match="distributed"):
        eng.run_process(driver2(eng))


def test_restore_pays_context_creation():
    eng, machine, criu, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        image = yield from baselines.checkpoint(
            "singularity", eng, process, machine.dram, criu
        )
        target = Machine(eng, name="t", n_gpus=1)
        t0 = eng.now
        yield from baselines.restore("singularity", eng, image, target, [0],
                                     machine.dram, criu)
        return eng.now - t0

    elapsed = eng.run_process(driver(eng))
    assert elapsed > 1.0  # the §2.3 restoration barrier

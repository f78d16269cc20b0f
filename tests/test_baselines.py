"""Unit tests for the baseline systems (Singularity / cuda-checkpoint),
driven the way every task drives them: a :class:`Worker` under the
system's ``SYSTEMS`` row."""

import pytest

from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.errors import CheckpointError
from repro.gpu.context import GpuContext
from repro.sim import Engine
from repro.storage.image import CheckpointImage
from repro.tasks.worker import Worker

from tests.toyapp import ToyApp, image_gpu_state, snapshot_process


def make_world(system, gpu_indices=(0,), **app_kwargs):
    """A worker under ``system`` that adopted a toy process."""
    eng = Engine()
    worker = Worker(eng, Machine(eng, n_gpus=len(gpu_indices)), system)
    worker.process = GpuProcess(eng, worker.machine, name="app",
                                gpu_indices=list(gpu_indices), cpu_pages=8)
    worker.process.runtime.adopt_context(0, GpuContext(gpu_index=0))
    return eng, worker, ToyApp(worker.process, **app_kwargs)


def target_of(eng, system):
    return Worker(eng, Machine(eng, name="t", n_gpus=1), system)


def test_singularity_checkpoint_is_consistent():
    eng, worker, app = make_world("singularity")

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        image, session = yield worker.checkpoint()
        assert session is None
        # Quiesced for the whole copy: image == state at completion.
        expected, _ = snapshot_process(worker.process)
        return image, expected

    image, expected = eng.run_process(driver(eng))
    assert image_gpu_state(image) == expected
    assert image.finalized
    assert worker.machine.dram.images.is_committed(image)


def test_singularity_roundtrip():
    eng, worker, app = make_world("singularity")
    target = target_of(eng, "singularity")

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        image, _ = yield worker.checkpoint()
        session = yield from target.restore(image, app)
        assert session is None
        return image

    image = eng.run_process(driver(eng))
    assert target.process is not worker.process
    assert app.process is target.process
    got, _ = snapshot_process(target.process)
    assert image_gpu_state(image) == got
    restored = target.process
    assert restored.registers if hasattr(restored, "registers") else True


def test_cuda_checkpoint_slower_than_singularity():
    from repro.units import MIB

    def timed(system):
        # data-path bound
        eng, worker, app = make_world(system, buf_size=64 * MIB)

        def driver(eng):
            yield from app.setup()
            yield from app.run(1)
            t0 = eng.now
            yield worker.checkpoint()
            return eng.now - t0

        return eng.run_process(driver(eng))

    sing = timed("singularity")
    cuda = timed("cuda-checkpoint")
    assert cuda > 3 * sing  # orders-of-magnitude data-path gap


def test_cuda_checkpoint_rejects_multi_gpu():
    eng, worker, _app = make_world("cuda-checkpoint", gpu_indices=(0, 1))

    with pytest.raises(CheckpointError, match="distributed"):
        worker.checkpoint()

    image = CheckpointImage()
    image.context_meta = {"gpu_indices": [0, 1]}
    image.finalize(0.0)
    with pytest.raises(CheckpointError, match="distributed"):
        eng.run_process(worker.restore(image))
    # Singularity takes the same job.
    _eng, sing, _app = make_world("singularity", gpu_indices=(0, 1))
    assert sing.system.supports(2)


def test_restore_pays_context_creation():
    eng, worker, app = make_world("singularity")
    target = target_of(eng, "singularity")

    def driver(eng):
        yield from app.setup()
        image, _ = yield worker.checkpoint()
        t0 = eng.now
        yield from target.restore(image)
        return eng.now - t0

    elapsed = eng.run_process(driver(eng))
    assert elapsed > 1.0  # the §2.3 restoration barrier

"""The worker contract: every ``SYSTEMS`` row behind one set of shapes."""

import pytest

from repro.apps.specs import get_spec
from repro.baselines import SYSTEMS, get_system
from repro.cluster import Machine
from repro.core.protocols import ProtocolConfig
from repro.errors import InvalidValueError
from repro.sim import Engine
from repro.tasks.worker import Worker

from tests.toyapp import image_gpu_state, snapshot_process

APP = "resnet152-infer"


def machine(eng, name="node0"):
    return Machine(eng, name=name, n_gpus=get_spec(APP).n_gpus)


def test_the_table_has_one_concurrent_row_and_one_single_gpu_row():
    assert list(SYSTEMS) == ["phos", "singularity", "cuda-checkpoint"]
    assert [row.concurrent for row in SYSTEMS.values()] == [True, False, False]
    assert [row.supports(8) for row in SYSTEMS.values()] == [True, True, False]
    assert all(row.supports(1) for row in SYSTEMS.values())
    assert all(name == row.name == row.cost.name
               for name, row in SYSTEMS.items())
    with pytest.raises(InvalidValueError, match="unknown system 'criu'"):
        get_system("criu")
    with pytest.raises(InvalidValueError, match="unknown system"):
        Worker(Engine(), machine(Engine()), "criu")


@pytest.mark.parametrize("system", SYSTEMS)
def test_launch_checkpoint_restore_has_one_shape_for_every_row(system):
    eng = Engine()
    source = Worker(eng, machine(eng), system).launch(get_spec(APP))
    target = Worker(eng, machine(eng, "node1"), system, use_pool=True)
    workload = source.workload
    assert source.spec is get_spec(APP)
    assert workload.process is source.process
    assert target.process is None and target.workload is None

    def driver(eng):
        yield from workload.setup()
        yield from workload.run(1)
        result = yield source.checkpoint()
        image, ckpt_session = result
        restore_session = yield from target.restore(image, workload)
        if restore_session is not None:
            yield restore_session.done
        return result, restore_session

    (image, ckpt_session), restore_session = eng.run_process(driver(eng))
    eng.run()
    row = SYSTEMS[system]
    # (image, session-or-None) / session-or-None, by the row's kind.
    assert image.finalized and image.committed
    assert (ckpt_session is not None) == row.concurrent
    assert (restore_session is not None) == row.concurrent
    assert (target.phos.pool is not None) == row.concurrent
    # The workload now drives the restored process on the target...
    assert target.process is not source.process
    assert target.workload is workload
    assert workload.process is target.process
    assert target.process.machine is target.machine
    # ...whose bytes are the image's.
    restored, _cpu = snapshot_process(target.process)
    assert restored == image_gpu_state(image)


def test_pooled_worker_boots_its_daemon_in_the_constructor():
    eng = Engine()
    worker = Worker(eng, machine(eng), use_pool=True)
    assert worker.phos.pool.prefilled
    assert eng.now > 0  # boot spent virtual time creating contexts
    # Asking a stop-the-world system for a pool gets none, at no cost.
    eng = Engine()
    worker = Worker(eng, machine(eng), "singularity", use_pool=True)
    assert worker.phos.pool is None
    assert eng.now == 0


def test_stop_world_row_maps_every_mode_and_keeps_only_keep_stopped():
    eng = Engine()
    worker = Worker(eng, machine(eng), "singularity").launch(get_spec(APP))

    def driver(eng):
        yield from worker.workload.setup()
        image, session = yield worker.checkpoint(
            "recopy", ProtocolConfig(keep_stopped=True, precopy_rounds=3,
                                     chunk_bytes=1 << 20))
        return image, session

    image, session = eng.run_process(driver(eng))
    assert session is None
    assert image.name == f"singularity-{worker.process.name}"
    # keep_stopped survived the mapping: the process is still quiesced.
    assert worker.process.host.stopped

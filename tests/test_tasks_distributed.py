"""Integration tests: distributed jobs and consistent cross-machine C/R."""

import pytest

from repro.cluster import Cluster
from repro.errors import CheckpointError, InvalidValueError
from repro.sim import Engine
from repro.tasks.distributed import DistributedJob


def make_job(n_machines=2, spec="resnet152-train"):
    eng = Engine()
    cluster = Cluster.testbed(eng, n_machines=n_machines, n_gpus=1)
    job = DistributedJob(eng, cluster, spec)
    return eng, job


def test_rejects_inference_specs():
    eng = Engine()
    cluster = Cluster.testbed(eng, n_machines=2, n_gpus=1)
    with pytest.raises(InvalidValueError):
        DistributedJob(eng, cluster, "resnet152-infer")


def test_replicas_agree_after_allreduce():
    eng, job = make_job()

    def driver(eng):
        yield from job.setup()
        yield from job.run_steps(2)

    eng.run_process(driver(eng))
    eng.run()
    states = job.replica_states()
    # Gradient buffer 0 was averaged: identical across replicas.
    assert states[0]["g0:grads:0"] == states[1]["g0:grads:0"]


def test_consistent_checkpoint_cuts_at_the_same_instant():
    eng, job = make_job()

    def driver(eng):
        yield from job.setup()
        yield from job.run_steps(1)
        images = yield from job.checkpoint_all(name="cut")
        return images

    images = eng.run_process(driver(eng))
    eng.run()
    assert len(images) == 2
    t1s = [img.checkpoint_time for img in images]
    assert max(t1s) - min(t1s) < 0.05  # one global cut
    for img in images:
        assert img.finalized


def test_checkpoint_images_match_replica_states_at_cut():
    eng, job = make_job()

    def driver(eng):
        yield from job.setup()
        yield from job.run_steps(1)
        images = yield from job.checkpoint_all()
        # No execution after the cut: live state == image state.
        return images

    images = eng.run_process(driver(eng))
    eng.run()

    for image, state in zip(images, job.replica_states()):
        by_tag = {}
        for records in image.gpu_buffers.values():
            for rec in records.values():
                by_tag[rec.tag] = rec.data
        for tag, data in by_tag.items():
            assert state[tag] == data, tag


def test_recover_restores_all_replicas_and_training_continues():
    eng, job = make_job()

    def driver(eng):
        yield from job.setup()
        yield from job.run_steps(2)
        yield from job.checkpoint_all()
        yield from job.run_steps(1)  # progress lost to the failure
        # --- failure: recover from the consistent cut -------------------
        sessions = yield from job.recover()
        for s in sessions:
            yield s.done
        yield from job.run_steps(2)  # resumes and keeps training
        return sessions

    eng.run_process(driver(eng))
    eng.run()
    states = job.replica_states()
    # Replicas still agree after recovery + further training.
    assert states[0]["g0:grads:0"] == states[1]["g0:grads:0"]


def test_recover_without_checkpoint_rejected():
    eng, job = make_job()

    def driver(eng):
        yield from job.setup()
        yield from job.recover()

    with pytest.raises(CheckpointError, match="no consistent checkpoint"):
        eng.run_process(driver(eng))


def test_three_machine_job():
    eng, job = make_job(n_machines=3)

    def driver(eng):
        yield from job.setup()
        yield from job.run_steps(1)
        images = yield from job.checkpoint_all()
        return images

    images = eng.run_process(driver(eng))
    eng.run()
    assert len(images) == 3
    states = job.replica_states()
    assert states[0]["g0:grads:0"] == states[1]["g0:grads:0"]
    assert states[1]["g0:grads:0"] == states[2]["g0:grads:0"]


def test_aborted_replica_fails_the_cut_and_revokes_its_sibling():
    """One replica mis-speculates during a cut: its CoW run aborts into
    a stop-the-world retry taken later than the sibling's image.  The
    cut fails as a whole — no image of it stays committed on any
    machine — and the job keeps its previous consistent cut."""
    from repro.core.quiesce import quiesce
    from repro.gpu.cost_model import KernelCost
    from repro.gpu.program import build_global_writer

    eng, job = make_job()

    def driver(eng):
        yield from job.setup()
        yield from job.run_steps(1)
        good = list((yield from job.checkpoint_all(name="good")))
        victim = job.replicas[1]
        grads = victim.workload.groups[0]["grads"].buffers
        sneaky = build_global_writer("sneaky", "hidden_out", grads[0].addr)
        # Hold the job quiesced so the launch blocks at the API gate
        # until the victim's CoW run resumes it, then writes a gradient
        # buffer through a pointer the argument list hides.
        yield from quiesce(eng, job.processes)
        cut = eng.spawn(job.checkpoint_all(name="bad"))
        yield from victim.process.runtime.launch_kernel(
            0, sneaky, [grads[1].addr, 8], 8,
            cost=KernelCost(flops=1e9), sync=True,
        )
        try:
            yield cut
        except CheckpointError as err:
            return good, err
        return good, None

    good, err = eng.run_process(driver(eng))
    eng.run()
    assert err is not None
    assert job.replicas[1].process.name in str(err)
    assert job.replicas[0].process.name not in str(err)
    assert job.images == good
    for replica, image in zip(job.replicas, good):
        assert replica.phos.medium.images.committed_images() == [image]
        assert replica.phos.medium.images.staged_images() == []

"""Integration tests: distributed jobs and consistent cross-machine C/R."""

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.nccl import NcclCommunicator, nccl_allreduce
from repro.api.runtime import CudaRuntime
from repro.apps.specs import get_spec
from repro.cluster import Cluster
from repro.core.quiesce import quiesce
from repro.errors import CheckpointError, InvalidValueError
from repro.sim import Engine
from repro.tasks import distributed
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


# -- cuts taken while the job runs --------------------------------------------------

STEP = get_spec("resnet152-train").step_time


def cut_during_steps(offset, n_machines=2, steps=1):
    """Start ``checkpoint_all`` ``offset`` seconds into ``steps`` steps.

    Returns the cut's images (None when it aborted) and every replica's
    GPU state at the end of the cut's global quiesce, the instant the
    cut stands for.
    """
    eng, job = make_job(n_machines)

    def cut(eng):
        yield eng.timeout(offset)
        return (yield from job.checkpoint_all())

    def driver(eng):
        yield from job.setup()
        handle = eng.spawn(cut(eng))
        yield from job.run_steps(steps)
        try:
            return (yield handle)
        except CheckpointError:
            return None

    with watching_quiesce(job) as quiesced:
        images = eng.run_process(driver(eng))
        eng.run()
    return images, quiesced[0][1]


@contextlib.contextmanager
def watching_quiesce(job):
    """Record ``(time, replica states)`` at the end of every global
    quiesce of ``job``."""
    seen = []

    def snapshot_after(engine, processes):
        yield from quiesce(engine, processes)
        seen.append((engine.now, job.replica_states()))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distributed, "quiesce", snapshot_after)
        yield seen


def wrong_buffers(images, states):
    """(replica, tag) of every image record unequal to the live state."""
    return [
        (i, rec.tag)
        for i, (image, state) in enumerate(zip(images, states))
        for records in image.gpu_buffers.values()
        for rec in records.values()
        if rec.data != state[rec.tag]
    ]


def test_mid_step_cuts_commit_the_state_at_the_global_quiesce():
    """A cut may land anywhere in a step, including while the gradient
    average lands during the CoW copy: every image must hold the GPU
    state at the end of the global quiesce, on every replica."""
    wrong = {}
    for k in range(24):  # 12.5 ms apart over one 0.30 s step
        offset = k * 0.0125
        images, states = cut_during_steps(offset)
        assert images is not None, offset
        bad = wrong_buffers(images, states)
        if bad:
            wrong[offset] = bad
    assert wrong == {}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n_machines=st.integers(2, 3),
       offset=st.floats(0.0, 2 * STEP, allow_nan=False))
def test_every_committed_cut_equals_the_job_at_its_quiesce(n_machines,
                                                            offset):
    images, states = cut_during_steps(offset, n_machines, steps=2)
    if images is not None:
        assert wrong_buffers(images, states) == []


def test_recover_then_more_steps_equals_the_never_checkpointed_job():
    """A between-steps cut, a step lost to a failure, ``recover`` and
    two more steps: byte for byte the job that never stopped."""

    def final_states(fail):
        eng, job = make_job()

        def driver(eng):
            yield from job.setup()
            yield from job.run_steps(1)
            if fail:
                yield from job.checkpoint_all()
                yield from job.run_steps(1)  # progress lost to the failure
                for session in (yield from job.recover()):
                    yield session.done
            yield from job.run_steps(2)

        eng.run_process(driver(eng))
        eng.run()
        return job.replica_states()

    recovered, uninterrupted = final_states(True), final_states(False)
    assert recovered[0].keys() == uninterrupted[0].keys()
    assert recovered == uninterrupted


# -- a global quiesce racing the collective -----------------------------------------

def replica_collective(job):
    """A communicator over the replicas' first GPUs, and the first
    gradient buffer of each."""
    ranks = [(p.runtime, p.gpu_indices[0]) for p in job.processes]
    grads = {rank: replica.workload.groups[rank[1]]["grads"].buffers[0]
             for rank, replica in zip(ranks, job.replicas)}
    return NcclCommunicator(job.engine, ranks, cluster=job.cluster), grads


def image_data(image, tag):
    return next(rec.data for records in image.gpu_buffers.values()
                for rec in records.values() if rec.tag == tag)


@pytest.fixture
def submissions(monkeypatch):
    """``(time, process, CPU stopped)`` of every all-reduce submission."""
    seen = []
    submit = CudaRuntime._submit

    def spy(rt, gpu_index, stream, kind, *args, **kwargs):
        if kind == "ncclAllReduce":
            seen.append((rt.engine.now, rt.name, rt.cpu_stopped))
        return submit(rt, gpu_index, stream, kind, *args, **kwargs)

    monkeypatch.setattr(CudaRuntime, "_submit", spy)
    return seen


def test_a_cut_while_the_issuer_waits_at_a_closed_gate_precedes_the_collective(
        submissions):
    """Replica 1 alone is stopped, so the collective waits at its gate
    and submits nothing; a global cut lands meanwhile.  The cut holds
    neither rank's part, and the collective runs once the cut resumes
    the job, never submitting on a stopped CPU."""
    eng, job = make_job()

    def driver(eng):
        yield from job.setup()
        yield from job.run_steps(1)
        comm, grads = replica_collective(job)
        before = [buf.snapshot() for buf in grads.values()]
        submissions.clear()  # the step's own all-reduce
        job.processes[1].runtime.stop_cpu()
        collective = eng.spawn(nccl_allreduce(
            job.processes[0].runtime, comm, grads, sync=True))
        yield eng.timeout(1e-3)
        assert submissions == []
        images = yield from job.checkpoint_all()
        yield collective
        return images, before, grads

    images, before, grads = eng.run_process(driver(eng))
    eng.run()
    assert [image_data(image, "g0:grads:0") for image in images] == before
    assert [(name, stopped) for _t, name, stopped in submissions] == [
        (p.name, False) for p in job.processes]
    after = {buf.snapshot() for buf in grads.values()}
    assert len(after) == 1 and after.isdisjoint(before)


def test_a_cut_landing_between_two_rank_submissions_drains_the_collective(
        submissions, monkeypatch):
    """The global quiesce stops both CPUs after rank 0 has submitted and
    before rank 1 has.  Rank 1's part was issued while every gate was
    open, so it goes out inside the quiesce window, as any call caught
    in its call overhead does, and the quiesce drains the collective on
    both ranks: the cut holds the sum on both, nothing deadlocks, and
    nothing is submitted between the quiesce and the resume."""
    eng, job = make_job()
    monkeypatch.setattr(distributed, "CROSS_MACHINE_BARRIER_RTT", 0.0)
    spy = CudaRuntime._submit
    cut = []

    def submit_then_cut(rt, gpu_index, stream, kind, *args, **kwargs):
        op = spy(rt, gpu_index, stream, kind, *args, **kwargs)
        if kind == "ncclAllReduce" and cut == [None]:
            cut[0] = eng.spawn(job.checkpoint_all())
        return op

    monkeypatch.setattr(CudaRuntime, "_submit", submit_then_cut)

    def driver(eng):
        yield from job.setup()
        yield from job.run_steps(1)
        comm, grads = replica_collective(job)
        submissions.clear()  # the step's own all-reduce
        cut.append(None)  # cut at the next rank submission
        yield from nccl_allreduce(job.processes[0].runtime, comm, grads,
                                  sync=True)
        return (yield cut[0]), grads

    with watching_quiesce(job) as quiesced:
        images, grads = eng.run_process(driver(eng))
        eng.run()
    (t_quiesced, states), = quiesced
    (t0, _, stopped0), (t1, _, stopped1) = submissions
    assert not stopped0 and stopped1  # the quiesce landed in between
    assert t0 <= t1 < t_quiesced
    summed = grads[next(iter(grads))].snapshot()
    assert [image_data(image, "g0:grads:0") for image in images] == \
        [summed, summed]
    assert wrong_buffers(images, states) == []

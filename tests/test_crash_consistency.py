"""Crash-consistency hardening: chaos injection, atomic commit, retries.

The matrix itself (`repro.chaos.matrix`) asserts the two-outcome
contract — committed-and-bit-identical or cleanly-aborted — for every
(protocol, fault) cell; the sweep tests here run it end to end at two
seeds.  The unit tests around it pin the individual mechanisms: the
two-phase image commit, the torn-image detection, capped retry with
surfaced counters, mid-flight kill teardown, graceful context-pool
degradation, and the daemon API fixes (``gpu_indices=[]``,
``checkpoint_consistent`` failure naming).
"""

import io
from contextlib import redirect_stdout

import pytest

from repro import chaos, obs, units
from repro.api.runtime import GpuProcess
from repro.chaos import FaultPlan, FaultSpec
from repro.chaos.matrix import sweep
from repro.cluster import Machine
from repro.core.cli import main as cli_main
from repro.core.context_pool import ContextPool
from repro.core.daemon import Phos
from repro.core.quiesce import quiesce
from repro.core.retry import RetryPolicy
from repro.errors import (
    CheckpointError,
    DmaError,
    InvalidValueError,
    TornImageError,
)
from repro.gpu.context import GpuContext
from repro.sim import Engine
from repro.units import MIB

from tests.toyapp import ToyApp, image_gpu_state, snapshot_process


@pytest.fixture(autouse=True)
def _chaos_clean():
    """No fault plan leaks between tests, whatever a test does."""
    chaos.uninstall()
    yield
    chaos.uninstall()


def make_world(n_gpus=1, **toyapp_kwargs):
    eng = Engine()
    machine = Machine(eng, n_gpus=n_gpus)
    phos = Phos(eng, machine, use_context_pool=False)
    process = GpuProcess(eng, machine, name="app", gpu_indices=[0],
                         cpu_pages=8)
    process.runtime.adopt_context(0, GpuContext(gpu_index=0))
    phos.attach(process)
    app = ToyApp(process, **toyapp_kwargs)
    return eng, machine, phos, process, app


def assert_no_dma_leaks(machine):
    for gpu in machine.gpus:
        assert list(gpu.dma.iter_users()) == []
        assert list(gpu.dma.iter_waiting()) == []


# -- the matrix, end to end --------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2])
def test_crash_consistency_matrix(seed):
    """Kill-at-every-phase × every protocol: two outcomes only."""
    result = sweep(seed=seed)
    assert result.cells, "sweep produced no cells"
    assert result.ok, "\n" + result.render()
    # Every fault actually fired: no cell is silently vacuous, and a
    # seed-sampled occurrence lies within the visits a cell makes.
    for cell in result.cells:
        assert cell.injected >= 1, cell.label


def test_matrix_fails_a_checkpoint_that_leaves_the_app_paused(monkeypatch):
    """Liveness is part of the verdict: a failed checkpoint whose
    recovery forgets to reopen the API gate must fail matrix cells."""
    from repro.core.protocols import base

    recover = base.Protocol._recover_failed_checkpoint

    def recover_without_resume(self, ctx, err):
        # The mutant: every teardown step except the final resume.
        real_resume = base.resume
        base.resume = lambda processes: None
        try:
            recover(self, ctx, err)
        finally:
            base.resume = real_resume

    monkeypatch.setattr(base.Protocol, "_recover_failed_checkpoint",
                        recover_without_resume)
    result = sweep(seed=1, protocols=["cow"], restore_protocols=[])
    assert result.failures, "\n" + result.render()


def test_cli_chaos_subcommand_smoke():
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main([
            "chaos", "--quiet", "--seed", "1",
            "--checkpoint-protocol", "cow",
            "--restore-protocol", "concurrent",
        ])
    assert rc == 0
    assert "cells ok" in buf.getvalue()


# -- atomic image commit -----------------------------------------------------------

def test_aborted_checkpoint_never_commits_its_image():
    """Two-phase commit: a crash before phase_commit leaves the staged
    image revoked — invisible to the catalog and unrestorable."""
    eng, machine, phos, process, app = make_world()
    from repro.core.protocols import registry

    protocol = registry.create("cow")
    chaos.install(FaultPlan(faults=(
        FaultSpec(kind="crash-checkpointer", protocol="cow",
                  phase="transfer"),
    )), killer=phos.kill)

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        gen = protocol.checkpoint(
            eng, process=process, frontend=phos.frontend_of(process),
            medium=phos.medium, criu=phos.criu, name="doomed",
        )
        try:
            yield from gen
        except CheckpointError as err:
            return err
        return None

    err = eng.run_process(driver(eng))
    eng.run()
    chaos.uninstall()
    assert err is not None and "chaos" in str(err)
    catalog = phos.medium.images
    assert catalog.committed_images() == []
    assert catalog.staged_images() == []
    doomed = protocol.last_context.image
    assert doomed.revoked
    assert not catalog.is_committed(doomed)
    with pytest.raises(TornImageError):
        doomed.require_finalized()
    assert_no_dma_leaks(machine)
    # The frontend is back in pass-through mode and the app still runs.
    assert phos.frontend_of(process).ckpt_session is None

    def epilogue(eng):
        yield from app.run(1, start=2)
        image, _ = yield phos.checkpoint(process, mode="cow", name="clean")
        return image

    image = eng.run_process(epilogue(eng))
    eng.run()
    assert image.finalized
    assert catalog.is_committed(image)


def test_committed_image_visible_and_restorable():
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        image, _ = yield phos.checkpoint(process, mode="cow", name="ok")
        expected = image_gpu_state(image)
        phos.kill(process)
        new_process, _f, session = yield from phos.restore(
            image, gpu_indices=[0],
        )
        yield session.done
        got, _ = snapshot_process(new_process)
        return image, expected, got

    image, expected, got = eng.run_process(driver(eng))
    eng.run()
    assert phos.medium.images.is_committed(image)
    assert expected == got


def test_revoked_image_refuses_restore():
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        image, _ = yield phos.checkpoint(process, mode="cow", name="r")
        return image

    image = eng.run_process(driver(eng))
    eng.run()
    image.revoke("test: torn")
    with pytest.raises(TornImageError, match="torn"):
        eng.run_process(phos.restore(image, gpu_indices=[0]))


# -- retry with capped backoff -----------------------------------------------------

def test_transient_dma_error_is_retried_and_counted():
    eng, machine, phos, process, app = make_world()
    observer = obs.install(eng)
    try:
        chaos.install(FaultPlan(faults=(
            FaultSpec(kind="dma-error", occurrence=1, count=1),
        )))

        def driver(eng):
            yield from app.setup()
            yield from app.run(2)
            image, session = yield phos.checkpoint(process, mode="cow")
            return image, session

        image, session = eng.run_process(driver(eng))
        eng.run()
        chaos.uninstall()
        assert image.finalized
        assert session is None or not session.aborted
        retries = sum(c.value for c in observer.metrics.find(
            "protocol/retries"))
        injected = sum(c.value for c in observer.metrics.find(
            "chaos/injected"))
        assert retries >= 1
        assert injected >= 1
        assert_no_dma_leaks(machine)
    finally:
        obs.uninstall()


def test_retry_exhaustion_aborts_cleanly():
    eng, machine, phos, process, app = make_world()
    observer = obs.install(eng)
    try:
        # More consecutive failures than max_retries allows attempts.
        chaos.install(FaultPlan(faults=(
            FaultSpec(kind="dma-error", occurrence=1, count=20),
        )))

        def driver(eng):
            yield from app.setup()
            yield from app.run(2)
            try:
                yield phos.checkpoint(process, mode="cow")
            except DmaError as err:
                return err
            return None

        err = eng.run_process(driver(eng))
        eng.run()
        chaos.uninstall()
        assert isinstance(err, DmaError)
        aborts = sum(c.value for c in observer.metrics.find(
            "protocol/aborts"))
        assert aborts >= 1
        assert phos.medium.images.committed_images() == []
        assert_no_dma_leaks(machine)
        assert phos.frontend_of(process).ckpt_session is None
    finally:
        obs.uninstall()


def test_retry_backoff_is_capped_exponential():
    eng = Engine()
    calls = {"n": 0}

    def make_gen():
        def attempt():
            calls["n"] += 1
            if calls["n"] <= 8:
                raise DmaError("transient")
            return "done"
            yield  # pragma: no cover - makes this a generator

        return attempt()

    policy = RetryPolicy(max_retries=8)

    def driver(eng):
        result = yield from policy.run(eng, make_gen, site="test")
        return result

    t0 = eng.now
    result = eng.run_process(driver(eng))
    eng.run()
    assert result == "done"
    # 8 failures with base 1 ms and cap factor 32: the total backoff is
    # 1+2+4+8+16+32+32+32 = 127 ms, not 1+2+...+128 = 255 ms.
    assert eng.now - t0 == pytest.approx(127 * units.MSEC)


# -- kill mid-flight (satellite: Phos.kill leaks in-flight work) ------------------

def test_kill_cancels_inflight_checkpoint():
    eng, machine, phos, process, _ = make_world()
    # Big buffers: the checkpoint is guaranteed still in flight.
    app = ToyApp(process, buf_size=256 * MIB, kernel_flops=1e9)

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        handle = phos.checkpoint(process, mode="cow", name="doomed")
        # Let the protocol get into its transfer phase.
        yield eng.timeout(1 * units.MSEC)
        assert not handle.triggered
        phos.kill(process)
        failed = None
        try:
            yield handle
        except CheckpointError as err:
            failed = err
        return handle, failed

    handle, failed = eng.run_process(driver(eng))
    eng.run()
    assert handle.triggered
    assert failed is not None and "killed" in str(failed)
    assert phos._inflight == {}
    assert machine.gpu(0).memory.used == 0
    assert_no_dma_leaks(machine)
    assert phos.medium.images.committed_images() == []


def test_kill_without_inflight_work_still_works():
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()

    eng.run_process(driver(eng))
    phos.kill(process)
    assert machine.gpu(0).memory.used == 0


def test_kill_during_concurrent_restore_aborts_session_and_workers():
    """Killing a process whose restore is still streaming aborts the
    restore session (same ``abort(reason)`` signature as a checkpoint
    session) and cancels its background loader and watches."""
    eng, machine, phos, process, _ = make_world()
    app = ToyApp(process, buf_size=256 * MIB, kernel_flops=1e9)

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        image, _ = yield phos.checkpoint(process, mode="cow")
        machine2 = Machine(eng, name="m2", n_gpus=1)
        phos2 = Phos(eng, machine2, use_context_pool=False)
        restored, _frontend, session = yield from phos2.restore(
            image, machine=machine2)
        assert not session.done.triggered  # data still streaming in
        (_handle, protocol), = phos2._inflight[restored.id]
        workers = list(protocol.last_context.workers)
        assert any(not w.triggered for w in workers)
        phos2.kill(restored)
        return machine2, phos2, session, workers

    machine2, phos2, session, workers = eng.run_process(driver(eng))
    eng.run()
    assert session.aborted
    assert "killed" in session.abort_reason
    assert all(w.triggered for w in workers)
    assert phos2._inflight == {}
    assert machine2.gpu(0).memory.used == 0
    assert_no_dma_leaks(machine2)


# -- daemon API fixes --------------------------------------------------------------

def test_restore_rejects_explicit_empty_gpu_indices():
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        image, _ = yield phos.checkpoint(process, mode="cow")
        return image

    image = eng.run_process(driver(eng))
    eng.run()
    with pytest.raises(InvalidValueError, match=r"gpu_indices=\[\]"):
        next(iter(phos.restore(image, gpu_indices=[])))
    # None still means "from the image metadata".
    phos.kill(process)
    new_process, _f, session = eng.run_process(
        phos.restore(image, gpu_indices=None))
    eng.run()
    assert new_process.gpu_indices == [0]


def test_checkpoint_consistent_rejects_blank_name_and_empty_set():
    eng, machine, phos, process, app = make_world()
    with pytest.raises(InvalidValueError, match="at least one process"):
        phos.checkpoint_consistent([])
    with pytest.raises(InvalidValueError, match="whitespace-only"):
        phos.checkpoint_consistent([process], name="   ")


def test_consistent_checkpoint_failure_names_process_and_revokes_siblings():
    eng = Engine()
    machine = Machine(eng, n_gpus=2)
    phos = Phos(eng, machine, use_context_pool=False)
    apps = []
    procs = []
    for idx, name in enumerate(["alpha", "beta"]):
        p = GpuProcess(eng, machine, name=name, gpu_indices=[idx],
                       cpu_pages=8)
        p.runtime.adopt_context(idx, GpuContext(gpu_index=idx))
        phos.attach(p)
        app = ToyApp(p, gpu_index=idx)
        procs.append(p)
        apps.append(app)

    # Crash exactly one of the per-process CoW runs.
    chaos.install(FaultPlan(faults=(
        FaultSpec(kind="crash-checkpointer", protocol="cow",
                  phase="transfer", occurrence=1),
    )), killer=phos.kill)

    def driver(eng):
        for app in apps:
            yield from app.setup()
            yield from app.run(1)
        handle = phos.checkpoint_consistent(procs, name="group")
        try:
            yield handle
        except CheckpointError as err:
            return err
        return None

    err = eng.run_process(driver(eng))
    eng.run()
    chaos.uninstall()
    assert err is not None
    assert "consistent checkpoint failed for process(es)" in str(err)
    assert "alpha" in str(err) or "beta" in str(err)
    # No image of the group survives as restorable: the failed run's
    # image was discarded and the surviving sibling's was revoked.
    catalog = phos.medium.images
    assert catalog.committed_images() == []
    assert catalog.staged_images() == []
    assert_no_dma_leaks(machine)


def test_consistent_checkpoint_abort_fails_the_whole_cut():
    """A mis-speculation on one process aborts *its* CoW run into a
    stop-the-world retry cut later than its sibling's image: returned
    as-is that is two restorable images from different instants.  The
    cut must fail as a whole and leave nothing committed."""
    from repro.gpu.cost_model import KernelCost
    from repro.gpu.program import build_global_writer

    eng = Engine()
    machine = Machine(eng, n_gpus=2)
    phos = Phos(eng, machine, use_context_pool=False)
    procs, apps = [], []
    for idx, name in enumerate(["p1", "p2"]):
        p = GpuProcess(eng, machine, name=name, gpu_indices=[idx],
                       cpu_pages=8)
        p.runtime.adopt_context(idx, GpuContext(gpu_index=idx))
        phos.attach(p)
        procs.append(p)
        apps.append(ToyApp(p, gpu_index=idx, buf_size=64 * MIB))

    def driver(eng):
        for app in apps:
            yield from app.setup()
            yield from app.run(1)
        victim = apps[1]
        sneaky = build_global_writer("sneaky", "hidden_out",
                                     victim.bufs["out"].addr)
        # Hold everything quiesced so the launch below blocks at the
        # API gate until p2's CoW run resumes it, then writes ``out``
        # through a pointer the argument list hides.
        yield from quiesce(eng, procs)
        handle = phos.checkpoint_consistent(procs, name="cut")
        yield from victim.rt.launch_kernel(
            1, sneaky, [victim.bufs["input"].addr, 8], 8,
            cost=KernelCost(flops=1e9), sync=True,
        )
        try:
            return (yield handle)
        except CheckpointError as err:
            return err

    err = eng.run_process(driver(eng))
    eng.run()
    assert isinstance(err, CheckpointError), err
    assert "consistent checkpoint failed for process(es) p2" in str(err)
    assert "mis-speculated" in str(err)
    catalog = phos.medium.images
    assert catalog.committed_images() == []
    assert catalog.staged_images() == []
    assert_no_dma_leaks(machine)


# -- context-pool degradation ------------------------------------------------------

def test_refill_failure_is_counted_not_silent():
    eng = Engine()
    machine = Machine(eng, n_gpus=1)
    pool = ContextPool(eng, machine, contexts_per_gpu=2)
    observer = obs.install(eng)
    try:
        eng.run_process(pool.prefill())
        assert pool.available(0) == 2
        # Every later creation fails: the background refill must retry,
        # give up loudly, and leave the hand-out path working.
        chaos.install(FaultPlan(faults=(
            FaultSpec(kind="context-error", occurrence=1, count=50),
        )))

        from repro.gpu.context import ContextRequirements

        reqs = ContextRequirements(n_modules=0, use_cublas=True,
                                   nccl_gpus=0)

        def driver(eng):
            ctx = yield from pool.acquire(0, reqs)
            return ctx

        ctx = eng.run_process(driver(eng))
        eng.run()  # lets the background refill run (and fail)
        chaos.uninstall()
        assert ctx is not None
        assert pool.hits == 1
        assert pool.refill_failures == 1
        failed = sum(c.value for c in observer.metrics.find(
            "context-pool/refill-failed"))
        assert failed >= 1  # one count per failed attempt
    finally:
        obs.uninstall()


def test_pool_acquire_falls_back_to_direct_creation():
    """An exhausted-and-failing pool degrades the restore to direct
    context creation instead of failing it."""
    eng = Engine()
    machine = Machine(eng, n_gpus=1)
    phos = Phos(eng, machine, use_context_pool=True)
    eng.run_process(phos.boot())
    process = GpuProcess(eng, machine, name="app", gpu_indices=[0],
                         cpu_pages=8)
    process.runtime.adopt_context(0, GpuContext(gpu_index=0))
    phos.attach(process)
    app = ToyApp(process)
    observer = obs.install(eng)
    try:
        def driver(eng):
            yield from app.setup()
            yield from app.run(1)
            image, _ = yield phos.checkpoint(process, mode="cow")
            phos.kill(process)
            # Drain the pool so the restore's acquire is a miss, then
            # make miss-path creation fail once: the fallback + retry
            # must still complete the restore.
            from repro.gpu.context import ContextRequirements

            reqs = ContextRequirements(n_modules=0, use_cublas=True)
            phos.pool.refill = False  # keep the drain finite
            while pool_available() > 0:
                yield from phos.pool.acquire(0, reqs)
            chaos.install(FaultPlan(faults=(
                FaultSpec(kind="context-error", occurrence=1, count=1),
            )), killer=phos.kill)
            new_process, _f, session = yield from phos.restore(
                image, gpu_indices=[0],
            )
            chaos.uninstall()
            yield session.done
            return image, new_process

        def pool_available():
            return phos.pool.available(0)

        image, new_process = eng.run_process(driver(eng))
        eng.run()
        expected = image_gpu_state(image)
        got, _ = snapshot_process(new_process)
        assert expected == got
    finally:
        obs.uninstall()


# -- fault-tolerance controller: real mid-checkpoint kills -------------------------

def test_ft_controller_survives_mid_checkpoint_kills():
    from repro.apps.base import provision
    from repro.apps.specs import get_spec
    from repro.tasks.ft_controller import FaultToleranceController

    eng = Engine()
    spec = get_spec("resnet152-train")
    machine = Machine(eng, n_gpus=spec.n_gpus)
    phos = Phos(eng, machine, use_context_pool=False)
    process, workload = provision(eng, machine, spec)
    phos.attach(process)
    controller = FaultToleranceController(
        eng, phos, process, workload,
        failures_per_hour=2500.0, checkpoint_every_iters=3, seed=11,
        mid_checkpoint_kills=True,
    )

    def driver(eng):
        yield from workload.setup()
        result = yield from controller.run(20)
        return result

    result = eng.run_process(driver(eng))
    eng.run()
    assert result.failures >= 1
    # The run completed despite checkpoints being torn down mid-flight.
    assert result.wall_seconds > 0
    assert_no_dma_leaks(machine)
    if result.mid_checkpoint_kills:
        # Torn checkpoints never became the restore point.
        assert controller.latest_image is None or \
            controller.latest_image.finalized

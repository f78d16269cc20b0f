"""Concurrent GPU restore (§6, Fig. 10).

The process resumes *immediately* after its execution environment is
ready (contexts adopted from the pool, buffer layout re-created); data
is copied from the image in the background.  Before any operation
executes on the GPU, the frontend's restore guard checks that every
buffer the operation touches has been restored; missing buffers are
fetched on demand (they jump the background copier's queue).

Mis-speculation (a validator hit during the restore window) means a
kernel may have observed a partially-restored buffer.  The recovery is
the paper's simple-but-live strategy: roll the GPU state back to the
image and finish with a stop-the-world reload.
"""

from __future__ import annotations

from repro import obs
from repro.api.runtime import GpuProcess
from repro.core.frontend import PhosFrontend
from repro.core.protocols.base import (
    RETRY_SUPPORTS,
    Protocol,
    ProtocolContext,
)
from repro.errors import ContextCreationError
from repro.core.protocols.registry import register
from repro.core.protocols.stop_world import (
    blank_process,
    context_requirements,
    realloc_image_buffers,
)
from repro.core.quiesce import quiesce, resume
from repro.core.session import RestoreSession, RestoreState
from repro.sim.engine import Engine
from repro.storage.media import Medium


@register
class ConcurrentRestore(Protocol):
    """Run as soon as the environment is ready; stream data behind."""

    name = "concurrent"
    kind = "restore"
    aliases = ("on-demand", "concurrent-restore")
    supports = frozenset({
        "skip_data_copy", "prioritized", "chunk_bytes", "bandwidth_scale",
    }) | RETRY_SUPPORTS
    needs_frontend = False  # it *creates* the frontend for the new process
    summary = ("resume immediately after context+layout setup; data "
               "streams in the background with on-demand fetch (§6)")

    def prepare(self, ctx: ProtocolContext) -> None:
        ctx.image.require_finalized()

    def phase_admit(self, ctx: ProtocolContext) -> None:
        ctx.process = blank_process(ctx)
        ctx.frontend = PhosFrontend(
            ctx.engine, ctx.process,
            mode="ipc" if ctx.context_pool is not None else "lfc",
        )
        ctx.process.runtime.interceptor = ctx.frontend

    # The restore/concurrent span covers time-to-runnable (the §6
    # headline metric); background data movement shows up as separate
    # gpu-load spans.

    def phase_plan(self, ctx: ProtocolContext):
        engine, image = ctx.engine, ctx.image
        gpu_indices, context_pool = ctx.gpu_indices, ctx.context_pool
        # 1. Execution environment: pooled contexts bypass the creation
        #    barrier; otherwise pay the full §2.3 cost.

        def setup_one(gpu_index):
            reqs = context_requirements(ctx, gpu_index)

            def acquire_ctx():
                # Graceful pool degradation: a failed pool acquire falls
                # back to direct creation within the same attempt instead
                # of failing the restore; direct-creation failures are
                # then retried by the protocol's policy.
                if context_pool is not None:
                    try:
                        pooled = yield from context_pool.acquire(
                            gpu_index, reqs
                        )
                        return pooled
                    except ContextCreationError:
                        obs.counter("context-pool/acquire-fallback",
                                    gpu=gpu_index).inc()
                created = yield from ctx.process.runtime.create_context(
                    gpu_index, reqs
                )
                return created

            context = yield from ctx.mover.retry.run(
                engine, acquire_ctx, site="ctx-setup"
            )
            ctx.process.runtime.adopt_context(gpu_index, context)
            context.loaded_modules.update(image.gpu_modules.get(gpu_index, []))

        with obs.span("context-setup", pooled=context_pool is not None):
            setups = [
                ctx.spawn_worker(setup_one(i), name=f"ctx-setup-gpu{i}")
                for i in gpu_indices
            ]
            yield engine.all_of(setups)
        # 2. Buffer layout (addresses must match the checkpointed
        #    process).
        pairs_by_gpu = realloc_image_buffers(ctx.process, image, gpu_indices)
        for gpu_index, pairs in pairs_by_gpu.items():
            for buf, _record in pairs:
                ctx.frontend.tables[gpu_index].register(buf)
        session = RestoreSession(engine, image)
        for gpu_index, pairs in pairs_by_gpu.items():
            session.set_plan(gpu_index, pairs)
        ctx.frontend.begin_restore(session)
        ctx.session = session

    def phase_transfer(self, ctx: ProtocolContext):
        engine, session = ctx.engine, ctx.session
        if self.config.skip_data_copy:
            for gpu_index, pairs in session.plan.items():
                for buf, record in pairs:
                    buf.load_bytes(record.data)
                    session.set_state(buf, RestoreState.RESTORED)
                    session.fire_event(buf)
            session.done.succeed()
        else:
            for gpu_index in ctx.gpu_indices:
                ctx.spawn_worker(
                    ctx.mover.load_gpu(
                        session, ctx.machine.gpu(gpu_index), ctx.medium
                    ),
                    name=f"restore-load-gpu{gpu_index}",
                )
        # 3. CPU state: lazy (on-demand) restore so the CPU can run now.
        with obs.span("cpu-lazy-restore"):
            cpu_session = yield from ctx.criu.restore(
                ctx.image, ctx.process.host, ctx.medium, on_demand=True
            )
        ctx.process.runtime.lazy_cpu_session = cpu_session
        # 4. Watch for mis-speculation rollback, and drop interception
        #    once everything is resident (twins stop running — §4.1's
        #    "not invoked without checkpoint").
        ctx.spawn_worker(
            _rollback_watch(engine, session, ctx.process, ctx.medium),
            name="restore-rollback-watch",
        )
        ctx.spawn_worker(_finish_watch(session, ctx.frontend),
                         name="restore-finish-watch")

    def phase_commit(self, ctx: ProtocolContext):
        return ctx.process, ctx.frontend, ctx.session


def _finish_watch(session: RestoreSession, frontend: PhosFrontend):
    yield session.done
    if frontend.restore_session is session:
        frontend.end_restore()


def _rollback_watch(engine: Engine, session: RestoreSession,
                    process: GpuProcess, medium: Medium):
    """Roll back to the image and reload stop-the-world on abort (§6)."""
    yield engine.any_of([session.done, session.abort_event])
    if not session.aborted or session.rolled_back:
        return
    obs.counter("restore/rollback").inc()
    yield from quiesce(engine, [process])
    # Reload every buffer from the image (discarding partial execution),
    # paying a full stop-the-world copy.
    with obs.span("rollback-reload"):
        for gpu_index, pairs in session.plan.items():
            gpu = process.machine.gpu(gpu_index)
            total = sum(record.size for _buf, record in pairs)
            yield from medium.read_flow(total, rate_cap=gpu.spec.pcie_bw)
            for buf, record in pairs:
                buf.load_bytes(record.data)
                session.set_state(buf, RestoreState.RESTORED)
                session.fire_event(buf)
    session.rolled_back = True
    resume([process])
    if not session.done.triggered:
        session.done.succeed()

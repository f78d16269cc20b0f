"""The soft copy-on-write checkpoint protocol (§4.2, Fig. 7).

Guarantee: the final image matches a stop-the-world checkpoint taken at
the quiesce point ``t1``, while the application runs concurrently with
the copy phase.  Writes to not-yet-checkpointed buffers are isolated by
the frontend's CoW guard (shadow copy on device); writes detected only
by the validator (mis-speculation) abort the checkpoint, which then
falls back to a stop-the-world retry for liveness.
"""

from __future__ import annotations

from repro import obs
from repro.core.protocols import registry
from repro.core.protocols.base import RETRY_SUPPORTS, Protocol, ProtocolContext
from repro.storage.image import CheckpointImage


@registry.register
class CowCheckpoint(Protocol):
    """Soft CoW: concurrent copy, image cut at the quiesce time t1."""

    name = "cow"
    kind = "checkpoint"
    aliases = ("soft-cow", "copy-on-write")
    supports = frozenset({
        "coordinated", "prioritized", "chunk_bytes", "cow_pool_bytes",
        "parent", "content_chunk_bytes",
    }) | RETRY_SUPPORTS
    needs_frontend = True
    session_mode = "cow"
    summary = ("concurrent copy isolated by CoW guards; image equals a "
               "stop-the-world checkpoint at t1 (§4.2)")

    def prepare(self, ctx: ProtocolContext) -> None:
        ctx.image = CheckpointImage(name=ctx.name or f"cow-{ctx.process.name}")

    def phase_transfer(self, ctx: ProtocolContext):
        # Concurrent copy, CoW-isolated.
        cpu_dump, sizer = self.copy_hooks(ctx)
        try:
            with obs.span("copy"):
                yield from ctx.mover.copy_all(
                    ctx.session, ctx.process, ctx.medium, ctx.criu,
                    cpu_dump=cpu_dump, sizer=sizer,
                )
        finally:
            # Guarded for idempotence: a teardown (chaos kill, daemon
            # kill) may race this finally with the driver's recovery.
            if ctx.frontend.ckpt_session is ctx.session:
                ctx.frontend.end_checkpoint()
            # Free any shadows an aborted copy phase left behind, through
            # the protocol engine's idempotent teardown helper, so a
            # teardown racing this cleanup never double-frees or
            # double-credits the CoW pool.
            self._release_session_memory(ctx.session, ctx.process)

    def phase_validate(self, ctx: ProtocolContext) -> bool:
        return not ctx.session.aborted

    def phase_abort(self, ctx: ProtocolContext):
        # Liveness fallback (§4.2): discard, retry stop-the-world.  The
        # returned image comes from the retry; ``session.aborted`` tells
        # the caller.
        session = ctx.session
        obs.counter("cow/abort",
                    reason=session.abort_reason or "unknown").inc()
        retry, _ = yield from registry.create("stop-world").checkpoint(
            ctx.engine, process=ctx.process, medium=ctx.medium, criu=ctx.criu,
            name=f"{ctx.image.name}-retry",
        )
        return retry, session

    def phase_commit(self, ctx: ProtocolContext):
        # The process has been running since the plan phase: nothing to
        # resume, and the image is cut at the quiesce point.
        self.seal_chain(ctx)
        ctx.image.finalize(ctx.t_quiesce)
        return ctx.image, ctx.session

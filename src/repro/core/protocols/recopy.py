"""The soft recopy checkpoint protocol (§4.3, Fig. 8).

Guarantee: the final image matches a stop-the-world checkpoint taken at
the *end* of the copy phase ``t2`` — the freshest possible state, which
live migration requires.  Four phases: quiesce, concurrent copy with
dirty tracking, re-quiesce, recopy of the dirty buffers and CPU pages.

With ``parent`` the run takes the one parent path ``cow`` takes too
(``Protocol.inherit_parent`` / ``copy_hooks`` / ``seal_chain``) and
commits a :class:`~repro.storage.delta.DeltaImage`: parent-clean
buffers are skipped, captured ones ship their dirty extent, the CPU
dump ships only pages that differ from the parent's, and the seal
stores only changed chunks.  ``incremental`` (alias ``delta``) is this
protocol with :attr:`~repro.core.protocols.base.Protocol.starts_chain`
set: without a parent it seals a self-contained chain root, so a loop
that passes its previous image as ``parent`` gets first-full-then-delta.

``hw-dirty`` swaps the dirty source:
:meth:`~repro.core.protocols.base.Protocol.begin_tracking` and
:meth:`dirty_ids`.  Which buffers exist at t2 is decided once, for
either source, by the final pass's
:meth:`~repro.core.session.CheckpointSession.cut_t2`.
"""

from __future__ import annotations

from repro import obs
from repro.core.protocols.base import (
    RETRY_SUPPORTS,
    Protocol,
    ProtocolContext,
)
from repro.core.protocols.registry import register
from repro.core.quiesce import quiesce
from repro.storage.image import CheckpointImage


@register
class RecopyCheckpoint(Protocol):
    """Soft recopy: concurrent copy + dirty recopy, image cut at t2."""

    name = "recopy"
    kind = "checkpoint"
    aliases = ("soft-recopy",)
    supports = frozenset({
        "coordinated", "prioritized", "chunk_bytes", "keep_stopped",
        "bandwidth_scale", "precopy_rounds", "parent", "content_chunk_bytes",
    }) | RETRY_SUPPORTS
    needs_frontend = True
    session_mode = "recopy"
    summary = ("concurrent copy with dirty tracking, re-quiesce, recopy "
               "the delta; image equals a stop-the-world checkpoint at "
               "t2 (§4.3); with a parent, a delta of the changed chunks")

    def prepare(self, ctx: ProtocolContext) -> None:
        ctx.image = CheckpointImage(
            name=ctx.name or f"{self.name}-{ctx.process.name}")

    def dirty_ids(self, ctx: ProtocolContext, gpu_index: int) -> set[int]:
        """A fresh set of the plan buffers on ``gpu_index`` written since
        their copy started: here, the frontend's speculated dirty set."""
        return set(ctx.session.dirty[gpu_index])

    def phase_transfer(self, ctx: ProtocolContext):
        engine, session, process = ctx.engine, ctx.session, ctx.process
        cpu_dump, sizer = self.copy_hooks(ctx)
        # Concurrent copy with dirty tracking, then (optionally) the
        # iterative pre-copy rounds, then the final quiesce + recopy.
        try:
            with obs.span("copy"):
                yield from ctx.mover.copy_all(
                    session, process, ctx.medium, ctx.criu,
                    cpu_dump=cpu_dump, sizer=sizer,
                )
            # Iterative concurrent pre-copy rounds (the §4.3 extension: "we
            # can also iteratively do the concurrent recopy similar to
            # CPU-based protocols [14]"): each round moves the current
            # dirty delta while the application keeps dirtying.
            prev_bytes = None
            by_id = {
                gpu_index: {b.id: b for b in session.plan[gpu_index]}
                for gpu_index in session.plan
            }
            for _ in range(self.config.precopy_rounds):
                snapshot = {
                    gpu_index: self.dirty_ids(ctx, gpu_index)
                    for gpu_index in session.plan
                }
                round_bytes = sum(
                    by_id[g][bid].size
                    for g, ids in snapshot.items()
                    for bid in ids if bid in by_id[g]
                )
                if round_bytes == 0:
                    break
                if prev_bytes is not None and round_bytes >= 0.8 * prev_bytes:
                    # The delta stopped shrinking: quiesce now, so a
                    # write-heavy steady state does not loop pointlessly.
                    break
                prev_bytes = round_bytes
                for gpu_index in session.plan:
                    session.dirty[gpu_index] -= snapshot[gpu_index]
                with obs.span("precopy-round", bytes=round_bytes):
                    passes = [
                        ctx.spawn_worker(
                            ctx.mover.recopy_dirty(
                                session, process.machine.gpu(gpu_index),
                                ctx.medium, dirty_ids=snapshot[gpu_index],
                                sizer=sizer,
                            ),
                            name=f"precopy-gpu{gpu_index}",
                        )
                        for gpu_index in session.plan
                    ]
                    yield engine.all_of(passes)
            # Re-quiesce (writes during the drain still tracked; writes
            # to a parent-skipped buffer re-dirty it and force its
            # recapture).
            session.final_quiesce_start = engine.now
            yield from quiesce(engine, [process])
        finally:
            # Guarded for idempotence against a racing teardown; a
            # hw-dirty session never reaches a frontend.
            if ctx.frontend is not None and ctx.frontend.ckpt_session is session:
                ctx.frontend.end_checkpoint()
        ctx.t_image = engine.now
        # Recopy dirty GPU buffers and dirty CPU pages, stopped.
        with obs.span("recopy"):
            dirty_pages = process.host.memory.dirty_pages()
            yield from ctx.criu.recopy_dirty(process.host, ctx.image,
                                             ctx.medium, dirty_pages)
            # Each GPU takes its t2 cut, then recopies its dirty delta
            # and its NEW buffers over its own link, concurrently.
            recopies = [
                ctx.spawn_worker(
                    ctx.mover.recopy_dirty(
                        session, process.machine.gpu(gpu_index), ctx.medium,
                        self.dirty_ids(ctx, gpu_index), sizer=sizer,
                        new=session.cut_t2(
                            gpu_index, process.runtime.allocations[gpu_index]),
                    ),
                    name=f"recopy-gpu{gpu_index}",
                )
                for gpu_index in session.plan
            ]
            yield engine.all_of(recopies)


@register
class DeltaRecopy(RecopyCheckpoint):
    """``incremental``: recopy that always seals a delta image."""

    name = "incremental"
    aliases = ("delta",)
    starts_chain = True

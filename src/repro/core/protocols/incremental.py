"""The incremental (delta) checkpoint protocol.

Rides the recopy machinery (§4.3 dirty tracking, t2 semantics) but
produces a :class:`~repro.storage.delta.DeltaImage`: buffers the
write-heat history proves unwritten since the parent checkpoint are
skipped entirely (pure parent references), captured buffers are
chunk-diffed against the parent's materialized bytes at commit, and the
CPU dump ships only the pages that differ from the parent's.  The §A.1
frequency model is the motivation — per-checkpoint cost that scales
with *dirty* bytes pushes the optimal checkpoint frequency f* up.

Without a parent the protocol degrades gracefully to a self-contained
chain root (all chunks local), so ``mode="incremental"`` works in every
context a full checkpoint does; an SDK loop that passes its previous
image as ``parent`` gets first-full-then-delta for free.
"""

from __future__ import annotations

from repro.core.protocols.base import (
    RETRY_SUPPORTS,
    ProtocolContext,
    mark_unchanged,
)
from repro.core.protocols.recopy import RecopyCheckpoint
from repro.core.protocols.registry import register
from repro.storage.delta import (
    CHUNK_BYTES,
    DeltaImage,
    dirty_chunk_span_bytes,
    materialize,
    seal_delta,
)


@register
class IncrementalCheckpoint(RecopyCheckpoint):
    """Delta checkpoint: skip parent-clean buffers, store changed chunks."""

    name = "incremental"
    aliases = ("delta",)
    supports = frozenset({
        "coordinated", "prioritized", "chunk_bytes", "content_chunk_bytes",
        "keep_stopped", "bandwidth_scale", "parent",
    }) | RETRY_SUPPORTS
    summary = ("recopy-style concurrent copy that skips buffers unwritten "
               "since the parent image and stores only changed chunks "
               "(content-addressed dedup); image equals a stop-the-world "
               "checkpoint at t2")

    def prepare(self, ctx: ProtocolContext) -> None:
        parent = self.config.parent
        if parent is not None:
            parent.require_finalized()
        ctx.image = DeltaImage(
            name=ctx.name or f"incremental-{ctx.process.name}",
            parent_id=parent.id if parent is not None else None,
            parent_name=parent.name if parent is not None else "",
            parent_ref=parent,
            chunk_bytes=self.config.content_chunk_bytes or CHUNK_BYTES,
        )

    def phase_plan(self, ctx: ProtocolContext) -> None:
        parent = self.config.parent
        if parent is not None:
            # Materialize the parent chain once, up front (host-side
            # work: the chunk index lives in daemon DRAM, no virtual
            # time).  A broken chain fails the run here, before any
            # data moves.
            ctx.extras["parent_full"] = materialize(
                parent, resolve=ctx.medium.images.lookup)
        super().phase_plan(ctx)

    def inherit_parent(self, ctx: ProtocolContext) -> None:
        parent_full = ctx.extras.get("parent_full")
        if parent_full is not None:
            ctx.extras["reused"] = mark_unchanged(
                ctx.frontend, ctx.session, parent_full
            )

    def copy_hooks(self, ctx: ProtocolContext):
        parent_full = ctx.extras.get("parent_full")
        if parent_full is None:
            return None, None  # chain root: plain dump, whole buffers
        parent_id = self.config.parent.id

        def cpu_dump(host, image, medium):
            return ctx.criu.dump_delta(host, image, medium,
                                       parent_full.cpu_pages,
                                       parent_id=parent_id)

        return cpu_dump, self._dirty_sizer(ctx, parent_full)

    def _dirty_sizer(self, ctx: ProtocolContext, parent_full):
        """The dirty-scaled transfer hook for this run, or None.

        With a parent whose epoch the hash cache still tracks, a
        captured buffer ships only the chunk-aligned spans of its
        pending dirty ranges (validated by an on-device hash scan at
        HBM bandwidth — see ``DataMover._ship``); any layout change or
        epoch mismatch falls back to the full-buffer move.  Chain roots
        (no parent) always ship everything.
        """
        cache = getattr(ctx.frontend, "hash_cache", None)
        if cache is None:
            return None
        cb = ctx.image.chunk_bytes
        parent_id = self.config.parent.id

        def sizer(gpu_index, buf):
            prec = parent_full.gpu_buffers.get(gpu_index, {}).get(buf.id)
            if (prec is None or prec.addr != buf.addr
                    or prec.size != buf.size
                    or len(prec.data) != buf.data_size):
                return None
            pending = cache.dirty_extent(
                buf.id, parent_id=parent_id, addr=buf.addr, size=buf.size,
                data_len=buf.data_size,
            )
            if pending is None:
                return None
            return min(buf.size,
                       dirty_chunk_span_bytes(pending, buf.data_size, cb))

        return sizer

    def phase_commit(self, ctx: ProtocolContext):
        seal_delta(ctx.image, ctx.extras.get("parent_full"),
                   reused=ctx.extras.get("reused"),
                   freed=ctx.session.freed_ids,
                   cache=getattr(ctx.frontend, "hash_cache", None))
        return super().phase_commit(ctx)

"""Recopy on hypothetical hardware dirty bits (§9).

Per-buffer dirty bits (GPU snapshot [37] simulated them; no real GPU
has them) free recopy from speculation and twin kernels, but a bit is
set *after* the write, so it cannot express CoW or the restore read set.
This is the recopy skeleton with its dirty ids read from
:attr:`Buffer.hw_dirty`, which ``DataMover`` clears as a copy starts.
"""

from __future__ import annotations

from repro.core.protocols.base import RETRY_SUPPORTS, ProtocolContext
from repro.core.protocols.recopy import RecopyCheckpoint
from repro.core.protocols.registry import register
from repro.storage.image import CheckpointImage


@register
class HwDirtyCheckpoint(RecopyCheckpoint):
    """Recopy driven by hardware dirty bits — no frontend, no twins."""

    name = "hw-dirty"
    aliases = ("hw_dirty", "hw-recopy")
    supports = frozenset({"chunk_bytes", "keep_stopped"}) | RETRY_SUPPORTS
    needs_frontend = False
    summary = ("hypothetical §9 hardware-dirty-bit recopy: no "
               "speculation, write set read from per-buffer dirty bits")

    def prepare(self, ctx: ProtocolContext) -> None:
        ctx.image = CheckpointImage(name=ctx.name or f"hw-recopy-{ctx.process.name}")

    def begin_tracking(self, ctx: ProtocolContext) -> None:
        for gpu_index, live in ctx.process.runtime.allocations.items():
            ctx.session.set_plan(gpu_index, live)
            for buf in live:
                buf.hw_dirty = False

    def dirty_ids(self, ctx: ProtocolContext, gpu_index: int) -> set[int]:
        return {b.id for b in ctx.session.plan[gpu_index] if b.hw_dirty}

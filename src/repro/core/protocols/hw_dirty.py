"""Recopy checkpointing on hypothetical hardware dirty bits (§9).

The paper's discussion contrasts validated speculation with a GPU
hardware extension that exposes per-buffer dirty bits (as GPU snapshot
[37] simulated; "to the best of our knowledge, no real hardware
implementation exists").  This module implements that hypothetical
system so the comparison is measurable:

* no speculation, no signatures, no twin kernels — so no validator
  overhead and no mis-speculation risk;
* but the information arrives *after* the write, so only the recopy
  protocol is expressible — §9's point that "a hardware dirty bit alone
  cannot support our other protocols like soft copy-on-write" (CoW must
  intervene *before* the write) nor the restore-side read set.

Structure mirrors :mod:`repro.core.protocols.recopy`, with the dirty
set read from the simulated :attr:`Buffer.hw_dirty` bits.  Registered
as ``hw-dirty``, so the daemon/SDK/CLI can run the ablation directly.
"""

from __future__ import annotations

from repro import obs
from repro.core.protocols.base import (
    RETRY_SUPPORTS,
    Protocol,
    ProtocolContext,
)
from repro.core.protocols.registry import register
from repro.core.quiesce import quiesce, resume
from repro.gpu.dma import Direction
from repro.storage.image import CheckpointImage, GpuBufferRecord


@register
class HwDirtyCheckpoint(Protocol):
    """Recopy driven by hardware dirty bits — no frontend, no twins."""

    name = "hw-dirty"
    kind = "checkpoint"
    aliases = ("hw_dirty", "hw-recopy")
    supports = frozenset({"chunk_bytes", "keep_stopped"}) | RETRY_SUPPORTS
    needs_frontend = False
    summary = ("hypothetical §9 hardware-dirty-bit recopy: no "
               "speculation, write set read from per-buffer dirty bits")

    def prepare(self, ctx: ProtocolContext) -> None:
        ctx.image = CheckpointImage(
            name=ctx.name or f"hw-recopy-{ctx.process.name}"
        )
        ctx.extras["recopied_bytes"] = 0

    def phase_plan(self, ctx: ProtocolContext) -> None:
        # Clear every dirty bit at the (quiesced) cut, then resume: any
        # later write re-sets its buffer's bit for the recopy pass.
        super().phase_plan(ctx)
        for gpu_index in ctx.process.gpu_indices:
            for buf in ctx.process.runtime.allocations[gpu_index]:
                buf.hw_dirty = False
        ctx.process.host.memory.clear_soft_dirty()
        resume([ctx.process])

    def phase_transfer(self, ctx: ProtocolContext):
        engine, process = ctx.engine, ctx.process
        # Concurrent copy (CPU first, then all GPUs).
        yield from ctx.criu.dump_tracked(process.host, ctx.image, ctx.medium)

        def copy_gpu(gpu_index, only_dirty):
            gpu = process.machine.gpu(gpu_index)
            live = process.runtime.allocations[gpu_index]
            if only_dirty:
                # Quiesced at t2: a buffer freed during the window has
                # no t2 state, whichever pass copied it.
                records = ctx.image.gpu_buffers.get(gpu_index, {})
                live_ids = {buf.id for buf in live}
                for buffer_id in [b for b in records if b not in live_ids]:
                    del records[buffer_id]
            for buf in list(live):
                if only_dirty:
                    if not buf.hw_dirty:
                        continue
                    buf.hw_dirty = False
                    ctx.extras["recopied_bytes"] += buf.size
                else:
                    # Clear before copying: writes that landed earlier
                    # are captured by this copy; writes during/after
                    # re-set the bit and trigger the recopy pass.
                    buf.hw_dirty = False
                yield from ctx.mover.move(gpu, ctx.medium, buf.size,
                                          Direction.D2H)
                ctx.image.add_gpu_buffer(gpu_index, GpuBufferRecord(
                    buffer_id=buf.id, addr=buf.addr, size=buf.size,
                    data=buf.snapshot(), tag=buf.tag,
                ))

        copies = [
            ctx.spawn_worker(copy_gpu(i, only_dirty=False),
                             name=f"hw-ckpt-gpu{i}")
            for i in process.gpu_indices
        ]
        yield engine.all_of(copies)
        # Re-quiesce, then recopy the buffers the hardware marked.
        yield from quiesce(engine, [process])
        dirty_pages = process.host.memory.dirty_pages()
        yield from ctx.criu.recopy_dirty(process.host, ctx.image, ctx.medium,
                                         dirty_pages)
        recopies = [
            ctx.spawn_worker(copy_gpu(i, only_dirty=True),
                             name=f"hw-recopy-gpu{i}")
            for i in process.gpu_indices
        ]
        yield engine.all_of(recopies)
        ctx.t_image = engine.now

    def phase_commit(self, ctx: ProtocolContext):
        obs.counter("hw-dirty/recopied-bytes").inc(
            ctx.extras["recopied_bytes"]
        )
        return super().phase_commit(ctx)

    @property
    def last_recopied_bytes(self) -> int:
        """Bytes the most recent run's recopy pass moved."""
        if self.last_context is None:
            return 0
        return self.last_context.extras.get("recopied_bytes", 0)

"""Stop-the-world checkpoint and restore (§2.2, Fig. 1(b)).

This is both the in-codebase baseline (our Singularity implementation —
"carefully tuned... pinned memory" — and the cuda-checkpoint model via
its :class:`~repro.gpu.cost_model.BaselineSpec`) and PHOS's own
liveness fallback when a checkpoint must be discarded after a
mis-speculation.

The process is quiesced for the *entire* copy, so the application stall
equals the full data movement time plus, on restore, the context
creation barrier (§2.3).  Neither direction needs the speculation
frontend: the process is stopped, so there is nothing to validate.
"""

from __future__ import annotations

from repro import chaos, obs
from repro.api.runtime import GpuProcess
from repro.core.protocols.base import (
    RETRY_SUPPORTS,
    Protocol,
    ProtocolContext,
)
from repro.core.protocols.registry import register
from repro.gpu.context import ContextRequirements
from repro.gpu.cost_model import PHOS_SPEC
from repro.gpu.dma import CHECKPOINT_PRIORITY, Direction
from repro.sim.resources import acquired
from repro.storage.image import CheckpointImage, GpuBufferRecord


def _bulk_move(ctx: ProtocolContext, gpu, nbytes: int, direction: Direction,
               site: str):
    """Generator: one whole-buffer move at the baseline's data-path cost.

    The system's per-buffer bookkeeping overhead, then the buffer as one
    DMA submission at its effective PCIe rate, restarted per the run's
    retry policy.
    """
    bandwidth = ctx.baseline.effective_pcie_bw(gpu.spec)
    flow = (ctx.medium.write_flow if direction is Direction.D2H
            else ctx.medium.read_flow)

    def attempt():
        if chaos._injector is not None:
            chaos._injector.trip("dma-error")
        req = yield from acquired(gpu.dma, priority=CHECKPOINT_PRIORITY)
        try:
            yield from flow(nbytes, rate_cap=bandwidth)
        finally:
            gpu.dma.release(req)

    if ctx.baseline.buffer_overhead > 0:
        yield ctx.engine.timeout(ctx.baseline.buffer_overhead)
    yield from ctx.mover.retry.run(ctx.engine, attempt, site=site)


@register
class StopWorldCheckpoint(Protocol):
    """Quiesce, copy everything, resume."""

    name = "stop-world"
    kind = "checkpoint"
    aliases = ("stop_world", "stop-the-world")
    supports = frozenset({"baseline", "keep_stopped"}) | RETRY_SUPPORTS
    needs_frontend = False
    summary = ("quiesce for the entire copy (baselines and PHOS's "
               "mis-speculation fallback)")

    def prepare(self, ctx: ProtocolContext) -> None:
        ctx.baseline = self.config.baseline or PHOS_SPEC
        ctx.image = CheckpointImage(
            name=ctx.name or f"stop-world-{ctx.process.name}"
        )

    def span_attrs(self, ctx: ProtocolContext) -> dict:
        return {"image": ctx.image.name, "system": ctx.baseline.name}

    def phase_transfer(self, ctx: ProtocolContext):
        engine, process = ctx.engine, ctx.process

        def copy_one_gpu(gpu_index):
            gpu = process.machine.gpu(gpu_index)
            moved_counter = obs.counter(
                f"dma/{gpu.dma.name}/bytes",
                priority=CHECKPOINT_PRIORITY, cls="bulk",
                direction=Direction.D2H.value,
            )
            for buf in list(process.runtime.allocations[gpu_index]):
                yield from _bulk_move(ctx, gpu, buf.size, Direction.D2H,
                                      "sw-ckpt")
                moved_counter.inc(buf.size)
                ctx.image.add_gpu_buffer(gpu_index, GpuBufferRecord(
                    buffer_id=buf.id, addr=buf.addr, size=buf.size,
                    data=buf.snapshot(), tag=buf.tag,
                ))

        with obs.span("copy"):
            # CPU state: the process is stopped, so a plain dump is
            # consistent.
            yield from ctx.criu.dump_tracked(process.host, ctx.image,
                                             ctx.medium)
            # Each GPU copies over its own PCIe link concurrently.
            copies = [
                ctx.spawn_worker(copy_one_gpu(i), name=f"sw-ckpt-gpu{i}")
                for i in process.gpu_indices
            ]
            yield engine.all_of(copies)


@register
class StopWorldRestore(Protocol):
    """The full restoration barrier, then a runnable process."""

    name = "stop-world"
    kind = "restore"
    aliases = ("stop_world", "stop-the-world")
    supports = frozenset({"baseline"}) | RETRY_SUPPORTS
    needs_frontend = False
    summary = ("create contexts from scratch (§2.3 barrier), load "
               "everything, then run")

    def prepare(self, ctx: ProtocolContext) -> None:
        ctx.image.require_finalized()
        ctx.baseline = self.config.baseline or PHOS_SPEC

    def span_attrs(self, ctx: ProtocolContext) -> dict:
        return {"image": ctx.image.name, "system": ctx.baseline.name}

    def phase_admit(self, ctx: ProtocolContext) -> None:
        ctx.process = blank_process(ctx)

    def phase_plan(self, ctx: ProtocolContext):
        engine, image = ctx.engine, ctx.image

        def create_one(gpu_index):
            reqs = context_requirements(ctx, gpu_index)
            context = yield from ctx.mover.retry.run(
                engine,
                lambda: ctx.process.runtime.create_context(gpu_index, reqs),
                site="ctx-create",
            )
            context.loaded_modules.update(image.gpu_modules.get(gpu_index, []))

        # One init thread per device, as restore tools do.
        with obs.span("context-create"):
            creations = [
                ctx.spawn_worker(create_one(i), name=f"ctx-create-gpu{i}")
                for i in ctx.gpu_indices
            ]
            yield engine.all_of(creations)

    def phase_transfer(self, ctx: ProtocolContext):
        engine, image = ctx.engine, ctx.image
        buffers = realloc_image_buffers(ctx.process, image, ctx.gpu_indices)

        def load_one_gpu(gpu_index):
            gpu = ctx.machine.gpu(gpu_index)
            for buf, record in buffers[gpu_index]:
                yield from _bulk_move(ctx, gpu, record.size, Direction.H2D,
                                      "sw-restore")
                buf.load_bytes(record.data)

        with obs.span("copy"):
            loads = [
                ctx.spawn_worker(load_one_gpu(i), name=f"sw-restore-gpu{i}")
                for i in ctx.gpu_indices
            ]
            yield engine.all_of(loads)
            yield from ctx.criu.restore(image, ctx.process.host, ctx.medium)

    def phase_commit(self, ctx: ProtocolContext):
        return ctx.process, None, None


def blank_process(ctx: ProtocolContext) -> GpuProcess:
    """The empty process a restore fills, sized from the image."""
    image = ctx.image
    n_pages = (max(image.cpu_pages) + 1) if image.cpu_pages else 1
    return GpuProcess(
        ctx.engine, ctx.machine, name=ctx.name,
        gpu_indices=ctx.gpu_indices, cpu_pages=n_pages,
        cpu_page_size=image.cpu_page_size,
    )


def context_requirements(ctx: ProtocolContext,
                         gpu_index: int) -> ContextRequirements:
    """What one GPU's context must provide for the image's process."""
    n_gpus = len(ctx.gpu_indices)
    return ContextRequirements(
        n_modules=len(ctx.image.gpu_modules.get(gpu_index, [])),
        nccl_gpus=n_gpus if n_gpus > 1 else 0,
    )


def realloc_image_buffers(process: GpuProcess, image: CheckpointImage,
                          gpu_indices: list[int]):
    """Re-create every checkpointed buffer at its original address.

    Returns ``{gpu_index: [(new_buffer, record), ...]}`` in address
    order.  Contents are NOT loaded — callers load them (bulk or
    on-demand).
    """
    out: dict[int, list] = {}
    for gpu_index in gpu_indices:
        gpu = process.machine.gpu(gpu_index)
        pairs = []
        records = sorted(
            image.gpu_buffers.get(gpu_index, {}).values(), key=lambda r: r.addr
        )
        for record in records:
            buf = gpu.memory.alloc_at(
                record.addr, record.size, tag=record.tag,
                data_size=len(record.data),
            )
            process.runtime.allocations[gpu_index].append(buf)
            pairs.append((buf, record))
        out[gpu_index] = pairs
    return out

"""The checkpoint data mover (§5) and the restore loader (§6).

:class:`DataMover` binds one protocol run's tunables — a
:class:`~repro.core.protocols.base.ProtocolConfig`, its retry policy,
and the run's worker list — to the movers, so a protocol phase just
says *what* to move:

Checkpoint side:

* :meth:`DataMover.copy_gpu` walks a session's buffer plan for one GPU
  and moves each buffer to the checkpoint medium.  With
  ``config.prioritized`` (the §5 optimization) the copy proceeds in
  4 MB chunks and releases the GPU's DMA engine at the first chunk
  boundary after a request queues, so pending application transfers —
  which run at higher priority — preempt the bulk load.  Without it the
  engine is held for whole buffers, reproducing the Fig. 16(b) ablation.
* :meth:`DataMover.copy_all` sequences the CPU and GPU streams: with
  ``config.coordinated`` the CPU dump completes before GPU copies start
  (Fig. 9(b)); otherwise they contend for the medium concurrently.
* :meth:`DataMover.recopy_dirty` is one GPU's dirty-delta recopy pass.

Restore side:

* :meth:`DataMover.load_gpu` is the background copier of the concurrent
  restore: it serves on-demand requests (kernels blocked on a missing
  buffer) before the sequential plan order.

:meth:`DataMover.move` is one raw buffer movement (chunked DMA + medium
flow), restarted per the run's retry policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro import chaos, obs, units
from repro.core.retry import RetryPolicy
from repro.core.session import BufState, CheckpointSession, RestoreSession, RestoreState
from repro.gpu.device import Gpu
from repro.gpu.dma import CHECKPOINT_PRIORITY, Direction
from repro.gpu.memory import Buffer
from repro.sim.resources import acquired
from repro.storage.image import GpuBufferRecord
from repro.storage.media import Medium

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (base imports us)
    from repro.core.protocols.base import ProtocolConfig

#: Coarser copy chunk for full-scale experiments (preemption granularity
#: of ~1.3 ms instead of 160 us; same behaviour, 8x fewer sim events).
EXPERIMENT_CHUNK = 32 * units.MIB


class DataMover:
    """One protocol run's data movers, bound to its config and teardown list."""

    def __init__(self, engine, config: "ProtocolConfig",
                 workers: list) -> None:
        self.engine = engine
        self.config = config
        #: The run's transient-failure policy (DMA moves restarted up to
        #: ``config.max_retries`` times with exponential backoff).
        self.retry = RetryPolicy(config.max_retries)
        #: Every simulation process this run spawned (the protocol
        #: context's teardown list), so a failed run can cancel its
        #: surviving siblings — ``all_of`` fails fast on the first error
        #: but does not stop the others.
        self.workers = workers

    def spawn(self, gen, name: str):
        """Spawn a child simulation process and track it for teardown."""
        proc = self.engine.spawn(gen, name=name)
        self.workers.append(proc)
        return proc

    # -- planning ------------------------------------------------------------------
    def copy_order(self, mode: str) -> Optional[str]:
        """§5 coordinated copy ordering for a checkpoint plan.

        CoW copies write-hot buffers first so the imminent writes find
        them already checkpointed (no CoW intervention needed).  For
        recopy, buffer-level reordering does not pay off — a buffer
        whose write period is shorter than the copy window gets
        re-dirtied regardless of where in the window it is copied — so
        coordination there is only the CPU-before-GPU ordering in
        :meth:`copy_all`.
        """
        if mode == "cow" and self.config.coordinated:
            return "hot-first"
        return None

    # -- raw movement --------------------------------------------------------------
    def move(self, gpu: Gpu, medium: Medium, nbytes: int, direction: Direction,
             site: str = "move", held=None):
        """Generator: one buffer move, retried per the run's policy.

        A transient :class:`~repro.errors.DmaError` restarts the whole
        buffer.  Restarting is safe because the image record is only
        written after the full move completes.
        """
        return self.retry.run(
            self.engine,
            lambda: self._move_once(gpu, medium, nbytes, direction, held),
            site=site,
        )

    def _move_once(self, gpu: Gpu, medium: Medium, nbytes: int,
                   direction: Direction, held):
        """One buffer's data movement: DMA engine + medium flow, composed.

        Each step holds the GPU's (priority-arbitrated) DMA engine while
        the bytes flow through the medium's shared link, capped at the
        PCIe bandwidth.  Chunked (``config.prioritized``) mode is
        preemptible every 4 MB: the engine is actually released at a
        boundary only when ``queue_len > 0``.  That is exact: with
        nobody queued, release + re-acquire grants the same holder at
        the same instant, so holding across the boundary changes no
        grant or timestamp and only skips the records (counted in
        ``dma/.../chunks-coalesced``).  With ``held`` set the caller
        already owns an engine (the unoptimized monolithic bulk load)
        and no per-step arbitration happens.
        """
        if chaos._injector is not None:
            chaos._injector.trip("dma-error")
        config = self.config
        bandwidth = gpu.spec.pcie_bw * config.bandwidth_scale
        dma = gpu.dma
        link = medium.write_link if direction is Direction.D2H else medium.read_link
        step = ((config.chunk_bytes or units.CHECKPOINT_CHUNK)
                if config.prioritized else nbytes)
        moved_counter = obs.counter(
            f"dma/{dma.name}/bytes", priority=CHECKPOINT_PRIORITY, cls="bulk",
            direction=direction.value,
        )
        coalesced_counter = obs.counter(
            f"dma/{dma.name}/chunks-coalesced", priority=CHECKPOINT_PRIORITY,
            cls="bulk", direction=direction.value,
        )
        moved = 0
        req = None
        try:
            while moved < nbytes:
                this = min(step, nbytes - moved)
                if held is None and req is None:
                    req = yield from acquired(dma, priority=CHECKPOINT_PRIORITY)
                yield from link.flow(this, rate_cap=bandwidth)
                moved += this
                moved_counter.inc(this)
                if req is not None:
                    # Re-arbitrate only when someone is actually waiting:
                    # with an empty queue, release + immediate re-acquire
                    # is a virtual-time no-op, so keep holding the engine
                    # across the boundary and skip the scheduler churn.
                    if moved >= nbytes or dma.queue_len > 0:
                        dma.release(req)
                        req = None
                    else:
                        coalesced_counter.inc()
        finally:
            if req is not None:
                dma.release(req)

    def _ship(self, gpu: Gpu, medium: Medium, buf: Buffer, sizer, site: str,
              held=None):
        """Generator: move one buffer's payload D2H; returns the bytes shipped.

        ``sizer`` is the dirty-scaled transfer hook: ``sizer(gpu_index,
        buf)`` returns the payload bytes a delta checkpoint actually
        ships for this buffer (its chunk-aligned dirty extent vs the
        parent), or None to move the full buffer.  A sized move is
        validated by hashing the buffer's chunks on the GPU at HBM
        bandwidth (orders of magnitude faster than moving the bytes
        over PCIe, mirroring the soft-dirty page scan on the CPU side),
        so it charges that scan plus the extent's PCIe move instead of
        the whole buffer.
        """
        move_bytes = None if sizer is None else sizer(gpu.index, buf)
        if move_bytes is None:
            yield from self.move(gpu, medium, buf.size, Direction.D2H,
                                 site=site, held=held)
            return buf.size
        scan_s = buf.size / gpu.spec.hbm_bw
        if scan_s > 0:
            yield self.engine.timeout(scan_s)
        obs.counter("storage/scan-bytes", gpu=gpu.index).inc(buf.size)
        if move_bytes > 0:
            yield from self.move(gpu, medium, move_bytes, Direction.D2H,
                                 site=site, held=held)
        obs.counter("storage/dirty-bytes-shipped",
                    gpu=gpu.index).inc(move_bytes)
        return move_bytes

    # -- checkpoint side -----------------------------------------------------------
    def copy_gpu(self, session: CheckpointSession, gpu: Gpu, medium: Medium,
                 sizer=None):
        """Generator: move one GPU's planned buffers into the image.

        Shadowed buffers jump the queue: copying them out releases their
        shadows' CoW pool quota, which keeps the small on-device pool from
        blocking concurrent writers (§4.2).  ``sizer``: see :meth:`_ship`.
        """
        with obs.span("gpu-copy", gpu=gpu.index):
            plan = session.plan[gpu.index]
            shadow_queue = session.shadow_ready[gpu.index]
            held = None
            try:
                if not self.config.prioritized:
                    # The unoptimized data path (Fig. 16b ablation): the whole
                    # bulk load is one monolithic submission that occupies a DMA
                    # engine until the copy completes — application transfers
                    # starve.
                    held = yield from acquired(
                        gpu.dma, priority=CHECKPOINT_PRIORITY
                    )
                cursor = 0
                while not session.aborted:
                    buf = None
                    while shadow_queue:
                        candidate = shadow_queue.popleft()
                        if session.state_of(candidate) is BufState.SHADOWED:
                            buf = candidate
                            break
                    if buf is None:
                        while cursor < len(plan) and session.state_of(plan[cursor]) is BufState.DONE:
                            cursor += 1
                        if cursor >= len(plan):
                            break
                        buf = plan[cursor]
                    state = session.state_of(buf)
                    if state is BufState.SHADOW_IN_FLIGHT:
                        yield session.event_for(buf, "shadow")
                        state = session.state_of(buf)
                    if state is BufState.DONE:
                        continue
                    if state is BufState.NOT_STARTED:
                        session.set_state(buf, BufState.COPY_IN_FLIGHT)
                        # Only hw-dirty reads the bit: a write from now
                        # on re-sets it, like a soft dirty mark.
                        buf.hw_dirty = False
                    from_shadow = buf.id in session.shadows
                    copy_start = self.engine.now
                    move_bytes = yield from self._ship(
                        gpu, medium, buf, sizer, "gpu-copy", held=held
                    )
                    if from_shadow:
                        # A shadow drain frees CoW pool quota (§4.2) — worth its
                        # own phase in the breakdown.
                        obs.record("drain-shadow", copy_start, gpu=gpu.index,
                                   bytes=buf.size)
                        obs.counter("cow/shadow-drained", gpu=gpu.index).inc()
                    source = session.shadows.get(buf.id, buf)
                    record = GpuBufferRecord(
                        buffer_id=buf.id, addr=buf.addr, size=buf.size,
                        data=source.snapshot(), tag=buf.tag,
                    )
                    session.image.add_gpu_buffer(gpu.index, record)
                    session.stats.bytes_copied += move_bytes
                    shadow = session.shadows.pop(buf.id, None)
                    if shadow is not None:
                        gpu.memory.free(shadow)
                        session.release_pool(gpu.index, shadow.size)
                    session.set_state(buf, BufState.DONE)
                    session.fire_event(buf)
            finally:
                # Release-in-finally: a fault (or a teardown interrupt landing
                # anywhere in the loop) must not strand the monolithic DMA
                # engine hold.
                if held is not None and not held.released:
                    gpu.dma.release(held)
            # Deferred frees: buffers the app released mid-checkpoint.
            for buf in session.deferred_frees.get(gpu.index, ()):
                gpu.memory.free(buf)
            session.deferred_frees[gpu.index] = []

    def recopy_dirty(self, session: CheckpointSession, gpu: Gpu, medium: Medium,
                     dirty_ids: set[int], sizer=None, new=()):
        """Generator: overwrite the image with dirty buffers' fresh content.

        ``dirty_ids`` are plan buffer ids (a snapshot, for a pre-copy
        round running beside the application); the ones freed during
        the window are skipped.  ``new``, in the final quiesced pass the
        NEW buffers of :meth:`CheckpointSession.cut_t2`, move whole.
        """
        with obs.span("gpu-recopy", gpu=gpu.index) as span:
            by_id = {buf.id: buf for buf in session.plan[gpu.index]}
            freed = session.freed_ids[gpu.index]
            span.attrs["dirty"] = len(dirty_ids)
            for buf_id in sorted(dirty_ids):
                if buf_id not in freed:  # a freed buffer has no t2 state
                    yield from self._recapture(session, gpu, medium,
                                               by_id[buf_id], sizer)
            # No parent record to size against: NEW buffers move whole.
            for buf in new:
                yield from self._recapture(session, gpu, medium, buf, None)

    def _recapture(self, session: CheckpointSession, gpu: Gpu, medium: Medium,
                   buf: Buffer, sizer):
        """Generator: ship one buffer's current content into the image."""
        buf.hw_dirty = False  # the copy starts: see copy_gpu
        move_bytes = yield from self._ship(gpu, medium, buf, sizer, "gpu-recopy")
        record = GpuBufferRecord(
            buffer_id=buf.id, addr=buf.addr, size=buf.size,
            data=buf.snapshot(), tag=buf.tag,
        )
        session.image.add_gpu_buffer(gpu.index, record)
        session.stats.bytes_recopied += move_bytes

    def copy_all(self, session: CheckpointSession, process, medium: Medium,
                 criu, cpu_dump=None, sizer=None):
        """Generator: the full concurrent copy phase (CPU + all GPUs).

        Returns the CPU dump result (whose ``dirty_after_copy`` the recopy
        protocol consumes).  ``cpu_dump`` overrides the CPU dump generator
        (a t2 run with a parent passes the parent-aware delta dump);
        the default follows the session mode.
        """
        engine = self.engine
        dump = cpu_dump
        if dump is None:
            dump = (criu.dump_cow if session.mode == "cow" else criu.dump_tracked)

        def cpu_stream():
            result = yield from dump(process.host, session.image, medium)
            return result

        def gpu_streams():
            return [
                self.spawn(
                    self.copy_gpu(session, process.machine.gpu(i), medium, sizer),
                    name=f"ckpt-gpu{i}",
                )
                for i in session.plan
            ]

        if self.config.coordinated:
            with obs.span("cpu-copy"):
                cpu_result = yield from cpu_stream()
            yield engine.all_of(gpu_streams())
        else:
            cpu_proc = self.spawn(cpu_stream(), name="ckpt-cpu")
            yield engine.all_of([cpu_proc] + gpu_streams())
            cpu_result = cpu_proc.result
        return cpu_result

    # -- restore side --------------------------------------------------------------
    def load_gpu(self, session: RestoreSession, gpu: Gpu, medium: Medium):
        """Generator: the background copier of the concurrent restore.

        On-demand requests (kernels stalled on a buffer) jump the queue.
        """
        with obs.span("gpu-load", gpu=gpu.index):
            pairs = {buf.id: (buf, record) for buf, record in session.plan[gpu.index]}
            order = [buf for buf, _ in session.plan[gpu.index]]
            cursor = 0
            while True:
                if session.aborted:
                    break
                target: Optional[Buffer] = None
                queue = session.demand.get(gpu.index)
                while queue:
                    candidate = queue.popleft()
                    if (candidate.id in pairs
                            and session.state_of(candidate) is RestoreState.NOT_RESTORED):
                        target = candidate
                        session.demand_fetches += 1
                        obs.counter("restore/demand-fetch", gpu=gpu.index).inc()
                        break
                if target is None:
                    while cursor < len(order) and session.state_of(order[cursor]) is not RestoreState.NOT_RESTORED:
                        cursor += 1
                    if cursor >= len(order):
                        break
                    target = order[cursor]
                buf, record = pairs[target.id]
                session.set_state(buf, RestoreState.LOAD_IN_FLIGHT)
                yield from self.move(gpu, medium, buf.size, Direction.H2D,
                                     site="gpu-load")
                buf.load_bytes(record.data)
                session.set_state(buf, RestoreState.RESTORED)
                session.fire_event(buf)
        if session.all_restored() and not session.done.triggered:
            session.done.succeed()

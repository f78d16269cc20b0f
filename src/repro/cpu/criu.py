"""CRIU-equivalent CPU checkpoint and restore.

PHOS delegates CPU state to CRIU (§3); this module reproduces the three
CRIU behaviours the paper depends on:

* **concurrent CoW dump** — write-protect all pages, copy them to the
  image while the process runs; a faulting write first preserves the
  old page content (so the image reflects the dump-start state);
* **dirty-tracking dump** — clear soft-dirty bits, copy everything
  (or, given a parent image's pages, only the pages that differ), and
  report the pages dirtied during the copy for a recopy pass (CRIU's
  memory-changes tracking / incremental dump [19]);
* **restore** — load pages and control state; optionally *on-demand*
  (lazy-restore): pages start non-present and are fetched on first
  touch, with the fetch time charged to the faulting process.

Timing: page copies flow through the target medium's links, capped at
:data:`CPU_COPY_BW` (a memcpy-bound stream).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import obs, units
from repro.cpu.memory import FAULT_NOT_PRESENT, FAULT_WRITE_PROTECTED, HostMemory
from repro.cpu.process import HostProcess
from repro.errors import CheckpointError
from repro.sim.engine import Engine
from repro.storage.image import CheckpointImage
from repro.storage.media import Medium

#: A single CPU checkpoint stream's own bandwidth limit (memcpy-bound).
CPU_COPY_BW = 20 * units.GB

#: CRIU dumps with multiple worker threads; their aggregate demand is
#: what contends with the GPU checkpoint streams in Fig. 9.
DUMP_THREADS = 8

#: Pages batched per media flow (keeps the event count reasonable).
PAGES_PER_FLOW = 4096


@dataclass
class CpuDumpResult:
    """Outcome of a CPU dump."""

    pages_copied: int = 0
    cow_faults: int = 0
    dirty_after_copy: list[int] = field(default_factory=list)


class CriuEngine:
    """Checkpoint/restore driver for the CPU half of a process."""

    def __init__(self, engine: Engine, dump_threads: int = DUMP_THREADS) -> None:
        self.engine = engine
        self.dump_threads = max(1, dump_threads)

    # -- concurrent CoW dump -------------------------------------------------------
    def dump_cow(self, process: HostProcess, image: CheckpointImage, medium: Medium):
        """Generator: CoW dump of all pages while the process runs.

        The image matches the process state at the *start* of the dump:
        concurrent writes fault first, and the fault handler preserves
        the pre-write content for the dump to pick up.
        """
        mem = process.memory
        preserved: dict[int, bytes] = {}
        result = CpuDumpResult()
        prev_handler = mem.fault_handler

        def on_fault(index: int, kind: str) -> None:
            if kind != FAULT_WRITE_PROTECTED:
                if prev_handler is not None:
                    prev_handler(index, kind)
                    return
                raise CheckpointError(f"unexpected CPU fault {kind} on page {index}")
            preserved[index] = mem.snapshot_pages((index,))[0]
            mem.unprotect(index)
            result.cow_faults += 1
            obs.counter("criu/cow-faults").inc()

        mem.protect_all()
        mem.fault_handler = on_fault
        try:
            with obs.span("criu-dump", mode="cow", pages=mem.n_pages):
                yield from self._copy_pages(mem, image, medium, preserved,
                                            result)
        finally:
            mem.unprotect_all()
            mem.fault_handler = prev_handler
        image.cpu_control = process.control_state()
        image.kernel_objects = list(process.kernel_objects)
        self._stamp_epoch(mem, image)
        return result

    # -- dirty-tracking dump (for recopy) ---------------------------------------------
    def dump_tracked(self, process: HostProcess, image: CheckpointImage,
                     medium: Medium,
                     parent_pages: Optional[dict[int, bytes]] = None,
                     parent_id: Optional[str] = None):
        """Generator: copy all pages, reporting pages dirtied meanwhile.

        The caller (the recopy protocol) quiesces and then calls
        :meth:`recopy_dirty` with the result.

        With ``parent_pages`` (a parent image's materialized pages) only
        the pages that differ from the parent's are copied — the CPU
        side of a t2 checkpoint with a parent, whose dump cost then
        scales with the delta.  ``parent_id`` enables the soft-dirty
        epoch fast path: when the previous dump of this process produced
        exactly the named parent image, the soft-dirty bits
        over-approximate the pages changed since it (bits are only
        cleared at dump start and every page changed after the parent's
        capture sets its bit), so only those candidates need a content
        compare — the host-side cost becomes O(dirty pages) instead of
        O(all pages).  The candidate set is read *before* clearing;
        filtering by content keeps the shipped set identical to the
        full scan's, so virtual timings and image bytes do not depend
        on the fast path.
        """
        mem = process.memory
        indices = None
        if parent_pages is not None:
            if parent_id is not None and mem.delta_epoch == parent_id:
                candidates = mem.dirty_pages()
                obs.counter("criu/delta-fastpath-pages").inc(len(candidates))
            else:
                candidates = range(mem.n_pages)
            indices = [
                index
                for index, data in zip(candidates,
                                       mem.snapshot_pages(candidates))
                if parent_pages.get(index) != data
            ]
        mem.clear_soft_dirty()
        result = CpuDumpResult()
        with obs.span("criu-dump", mode="tracked" if indices is None else "delta",
                      pages=mem.n_pages if indices is None else len(indices)):
            yield from self._copy_pages(mem, image, medium, {}, result,
                                        indices=indices)
        result.dirty_after_copy = mem.dirty_pages()
        image.cpu_control = process.control_state()
        image.kernel_objects = list(process.kernel_objects)
        self._stamp_epoch(mem, image)
        return result

    @staticmethod
    def _stamp_epoch(mem: HostMemory, image: CheckpointImage) -> None:
        """Remember which image last captured this memory.

        After any dump, a page with a clear soft-dirty bit is unwritten
        since a point at or before the capture, hence byte-identical to
        the image's copy — so a later :meth:`dump_tracked` naming this
        image as parent may compare only bit-set candidates.
        """
        mem.delta_epoch = image.id

    def recopy_dirty(self, process: HostProcess, image: CheckpointImage,
                     medium: Medium, dirty: list[int]):
        """Generator: overwrite the image with the dirty pages' content."""
        mem = process.memory
        with obs.span("criu-recopy", pages=len(dirty)):
            for start in range(0, len(dirty), PAGES_PER_FLOW):
                batch = dirty[start : start + PAGES_PER_FLOW]
                image.add_cpu_pages(batch, mem.snapshot_pages(batch))
                yield from medium.write_flow(
                    len(batch) * mem.page_size, rate_cap=CPU_COPY_BW
                )
        # Refresh control state: the recopy point is the image's state.
        image.cpu_control = process.control_state()
        return len(dirty)

    def _copy_pages(self, mem: HostMemory, image: CheckpointImage, medium: Medium,
                    preserved: dict[int, bytes], result: CpuDumpResult,
                    indices: Optional[list[int]] = None):
        image.cpu_page_size = mem.page_size
        if indices is None:
            indices = list(range(mem.n_pages))
        if not indices:
            return
        shard = (len(indices) + self.dump_threads - 1) // self.dump_threads

        def worker(chunk):
            for start in range(0, len(chunk), PAGES_PER_FLOW):
                batch = chunk[start : start + PAGES_PER_FLOW]
                yield from medium.write_flow(
                    len(batch) * mem.page_size, rate_cap=CPU_COPY_BW
                )
                # Content is captured at batch completion; CoW-preserved
                # pages supply their pre-write bytes.
                datas = mem.snapshot_pages(batch)
                if preserved:
                    datas = [preserved.get(index, data)
                             for index, data in zip(batch, datas)]
                image.add_cpu_pages(batch, datas)
                mem.unprotect_pages(batch)
                result.pages_copied += len(batch)
                obs.counter("criu/pages-copied").inc(len(batch))

        workers = [
            self.engine.spawn(worker(indices[i : i + shard]), name=f"criu-dump{i}")
            for i in range(0, len(indices), shard)
        ]
        yield self.engine.all_of(workers)

    # -- restore -------------------------------------------------------------------
    def restore(self, image: CheckpointImage, process: HostProcess, medium: Medium,
                on_demand: bool = False):
        """Generator: load CPU state from the image into ``process``.

        With ``on_demand=True`` the process may resume immediately:
        pages are non-present until loaded, and a touched-but-missing
        page is fetched synchronously with its cost accumulated in the
        returned :class:`LazyRestoreSession` (the API runtime charges
        it to the faulting process's next timed step).
        """
        image.require_finalized()
        mem = process.memory
        # The keys come from outside (a loaded image file): reject one
        # beyond the address space before anything is overwritten.
        if image.cpu_pages:
            low, high = min(image.cpu_pages), max(image.cpu_pages)
            if low < 0 or high >= mem.n_pages:
                raise CheckpointError(
                    f"image {image.name!r} holds CPU page "
                    f"{low if low < 0 else high}, outside the process's "
                    f"address space 0..{mem.n_pages - 1}"
                )
        # A restore rewrites pages without touching soft-dirty bits, so
        # any prior dump epoch no longer over-approximates changes.
        mem.delta_epoch = None
        process.restore_control_state(image.cpu_control)
        process.kernel_objects = list(image.kernel_objects)
        if not on_demand:
            indices = sorted(image.cpu_pages)
            shard = (len(indices) + self.dump_threads - 1) // self.dump_threads

            def worker(chunk):
                for start in range(0, len(chunk), PAGES_PER_FLOW):
                    batch = chunk[start : start + PAGES_PER_FLOW]
                    yield from medium.read_flow(
                        len(batch) * mem.page_size, rate_cap=CPU_COPY_BW
                    )
                    mem.load_pages(batch, [image.cpu_pages[i] for i in batch])

            if indices:
                workers = [
                    self.engine.spawn(worker(indices[i : i + shard]),
                                      name=f"criu-restore{i}")
                    for i in range(0, len(indices), shard)
                ]
                yield self.engine.all_of(workers)
            return None
        session = LazyRestoreSession(self.engine, image, process, medium)
        session.start()
        return session


class LazyRestoreSession:
    """On-demand CPU restore: background loader plus fault service."""

    def __init__(self, engine: Engine, image: CheckpointImage,
                 process: HostProcess, medium: Medium) -> None:
        self.engine = engine
        self.image = image
        self.process = process
        self.medium = medium
        self.stall_charge = 0.0
        self.faults = 0
        self._done = engine.event(name="cpu-lazy-restore-done")
        self._prev_handler = None

    @property
    def done(self):
        """Fires when every page has been loaded."""
        return self._done

    def start(self) -> None:
        mem = self.process.memory
        mem.mark_all_not_present()
        self._prev_handler = mem.fault_handler
        mem.fault_handler = self._on_fault
        self.engine.spawn(self._background_load(), name="cpu-lazy-load")

    def _on_fault(self, index: int, kind: str) -> None:
        mem = self.process.memory
        if kind != FAULT_NOT_PRESENT:
            if self._prev_handler is not None:
                self._prev_handler(index, kind)
                return
            raise CheckpointError(f"unexpected fault {kind} during lazy restore")
        data = self.image.cpu_pages.get(index)
        if data is None:  # never captured: the page keeps its bytes
            mem.mark_present(index)
        else:
            mem.load_pages((index,), (data,))
        self.faults += 1
        obs.counter("criu/lazy-faults").inc()
        # The faulting access pays the page fetch latency; it is charged
        # to the process's next timed step by the API runtime.
        self.stall_charge += mem.page_size / CPU_COPY_BW

    def take_stall_charge(self) -> float:
        """Drain the accumulated fault latency (charged by the caller)."""
        charge, self.stall_charge = self.stall_charge, 0.0
        return charge

    def _background_load(self):
        mem = self.process.memory
        indices = sorted(self.image.cpu_pages)
        for start in range(0, len(indices), PAGES_PER_FLOW):
            batch = indices[start : start + PAGES_PER_FLOW]
            pending = mem.absent_pages(batch)
            if pending:
                yield from self.medium.read_flow(
                    len(pending) * mem.page_size, rate_cap=CPU_COPY_BW
                )
                # Pages the process faulted in meanwhile are skipped.
                pending = mem.absent_pages(pending)
                mem.load_pages(pending,
                               [self.image.cpu_pages[i] for i in pending])
        mem.fault_handler = self._prev_handler
        self._done.succeed()

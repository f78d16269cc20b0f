"""The reference host memory: one ``Page`` object per page, kept as the oracle.

Until PR 20 these classes *were* ``repro.cpu.memory``.  The production
``HostMemory`` is now a struct of arrays (one data block, three flag
arrays, one version array) with batch operations on the copy path; this
copy stays here, outside ``src/``, one Python object and one 16-byte
ndarray per page, so ``test_property_host_memory.py`` can demand that
both return the same bytes, raise the same exceptions with the same
messages and leave the same bits and versions behind.  Below it, the
per-page ``CriuEngine`` / ``LazyRestoreSession`` loops that ran on those
pages (the old ``repro.cpu.criu`` classes), so the CRIU-level
differential can demand the same image bytes, results, fault counts and
virtual timestamps from the batch path.  Both halves are the old code
verbatim — including what the same PR fixed in production (unchecked
image keys, the ``getattr`` epoch) — so drive them with valid images
only.  Do not optimise them.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

import numpy as np

from repro import obs
from repro.cpu.criu import CPU_COPY_BW, DUMP_THREADS, PAGES_PER_FLOW, CpuDumpResult
from repro.cpu.process import HostProcess
from repro.errors import CheckpointError, InvalidValueError
from repro.sim.engine import Engine
from repro.storage.image import CheckpointImage
from repro.storage.media import Medium
from repro.units import PAGE_SIZE

#: Real bytes materialized per page.
PAGE_DATA_SIZE = 16

#: Fault kinds passed to handlers.
FAULT_WRITE_PROTECTED = "write-protected"
FAULT_NOT_PRESENT = "not-present"

FaultHandler = Callable[[int, str], None]


class Page:
    """One 4 KiB page with its functional prefix and page-table bits."""

    __slots__ = ("index", "data", "soft_dirty", "write_protected", "present", "version")

    def __init__(self, index: int) -> None:
        self.index = index
        self.data = np.zeros(PAGE_DATA_SIZE, dtype=np.uint8)
        self.soft_dirty = False
        self.write_protected = False
        self.present = True
        self.version = 0

    def snapshot(self) -> bytes:
        return self.data.tobytes()

    def load(self, raw: bytes) -> None:
        if len(raw) != PAGE_DATA_SIZE:
            raise InvalidValueError(
                f"page snapshot must be {PAGE_DATA_SIZE} bytes, got {len(raw)}"
            )
        self.data[:] = np.frombuffer(raw, dtype=np.uint8)


class HostMemory:
    """A process's CPU address space as an array of pages.

    ``fault_handler(page_index, kind)`` is called synchronously when a
    write hits a protected page or any access hits a non-present page.
    The handler is expected to resolve the fault (e.g. copy the old
    content, or load the page) and clear the corresponding bit; the
    access then proceeds.
    """

    def __init__(self, n_pages: int, page_size: int = PAGE_SIZE) -> None:
        if n_pages <= 0:
            raise InvalidValueError(f"n_pages must be positive, got {n_pages}")
        if page_size <= 0:
            raise InvalidValueError(f"page_size must be positive, got {page_size}")
        self.n_pages = n_pages
        #: Logical page size; large allocations use 2 MiB huge pages.
        self.page_size = page_size
        self.pages = [Page(i) for i in range(n_pages)]
        self.fault_handler: Optional[FaultHandler] = None

    @property
    def logical_bytes(self) -> int:
        """Logical size of the address space (drives copy timing)."""
        return self.n_pages * self.page_size

    # -- access ------------------------------------------------------------------
    def _check(self, index: int) -> Page:
        if not 0 <= index < self.n_pages:
            raise InvalidValueError(f"page index {index} out of range 0..{self.n_pages - 1}")
        return self.pages[index]

    def read(self, index: int) -> bytes:
        """Read a page's functional bytes (faults if not present)."""
        page = self._check(index)
        if not page.present:
            self._fault(index, FAULT_NOT_PRESENT)
        return page.snapshot()

    def write(self, index: int, raw: bytes) -> None:
        """Write a page's functional bytes, honoring protection bits."""
        page = self._check(index)
        if not page.present:
            self._fault(index, FAULT_NOT_PRESENT)
        if page.write_protected:
            self._fault(index, FAULT_WRITE_PROTECTED)
        page.load(raw)
        page.soft_dirty = True
        page.version += 1

    def write_word(self, index: int, value: int) -> None:
        """Convenience: write a page's first 8 bytes as a counter value."""
        raw = bytearray(self.read(index))
        raw[:8] = (value & (2**64 - 1)).to_bytes(8, "little")
        self.write(index, bytes(raw))

    def read_word(self, index: int) -> int:
        return int.from_bytes(self.read(index)[:8], "little")

    def _fault(self, index: int, kind: str) -> None:
        if self.fault_handler is None:
            raise InvalidValueError(
                f"page {index} fault ({kind}) with no fault handler installed"
            )
        self.fault_handler(index, kind)
        page = self.pages[index]
        if kind == FAULT_NOT_PRESENT and not page.present:
            raise InvalidValueError(f"fault handler failed to make page {index} present")
        if kind == FAULT_WRITE_PROTECTED and page.write_protected:
            raise InvalidValueError(f"fault handler failed to unprotect page {index}")

    # -- bit management (the checkpointer's toolbox) ------------------------------
    def clear_soft_dirty(self) -> None:
        """CRIU-style: reset dirty tracking for a new interval."""
        for page in self.pages:
            page.soft_dirty = False

    def dirty_pages(self) -> list[int]:
        """Indices of pages written since the last clear."""
        return [p.index for p in self.pages if p.soft_dirty]

    def protect_all(self) -> None:
        """Write-protect every page (start of a CoW checkpoint)."""
        for page in self.pages:
            page.write_protected = True

    def unprotect(self, index: int) -> None:
        self._check(index).write_protected = False

    def unprotect_all(self) -> None:
        for page in self.pages:
            page.write_protected = False

    def mark_all_not_present(self) -> None:
        """Start of an on-demand restore: nothing is loaded yet."""
        for page in self.pages:
            page.present = False

    def mark_present(self, index: int) -> None:
        self._check(index).present = True

    def snapshot_all(self) -> list[bytes]:
        """Functional snapshot of every page (no timing; used by tests)."""
        return [p.snapshot() for p in self.pages]

    def __iter__(self) -> Iterator[Page]:
        return iter(self.pages)


# -- the per-page CRIU loops over those pages (old repro.cpu.criu) ----------------

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
            preserved[index] = mem.pages[index].snapshot()
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
    def dump_tracked(self, process: HostProcess, image: CheckpointImage, medium: Medium):
        """Generator: copy all pages, reporting pages dirtied meanwhile.

        The caller (the recopy protocol) quiesces and then calls
        :meth:`recopy_dirty` with the result.
        """
        mem = process.memory
        mem.clear_soft_dirty()
        result = CpuDumpResult()
        with obs.span("criu-dump", mode="tracked", pages=mem.n_pages):
            yield from self._copy_pages(mem, image, medium, {}, result)
        result.dirty_after_copy = mem.dirty_pages()
        image.cpu_control = process.control_state()
        image.kernel_objects = list(process.kernel_objects)
        self._stamp_epoch(mem, image)
        return result

    def dump_delta(self, process: HostProcess, image: CheckpointImage,
                   medium: Medium, parent_pages: dict[int, bytes],
                   parent_id: Optional[str] = None):
        """Generator: dirty-tracking dump of only the pages that differ
        from a parent image's (materialized) pages.

        The incremental checkpoint protocol's CPU side: unchanged pages
        are referenced from the parent instead of re-shipped, so the
        dump cost scales with the delta.  Pages dirtied while the copy
        runs are reported for the quiesced recopy pass, exactly like
        :meth:`dump_tracked`.

        ``parent_id`` enables the soft-dirty epoch fast path: when the
        previous dump of this process produced exactly the named parent
        image, the soft-dirty bits over-approximate the pages changed
        since it (bits are only cleared at dump start and every page
        changed after the parent's capture sets its bit), so only those
        candidates need a content compare — the host-side cost becomes
        O(dirty pages) instead of O(all pages).  The candidate set is
        read *before* clearing; filtering by content keeps the shipped
        set identical to the full scan's, so virtual timings and image
        bytes do not depend on the fast path.
        """
        mem = process.memory
        epoch = getattr(mem, "_delta_epoch", None)
        if parent_id is not None and epoch == parent_id:
            candidates = sorted(mem.dirty_pages())
            obs.counter("criu/delta-fastpath-pages").inc(len(candidates))
        else:
            candidates = range(mem.n_pages)
        mem.clear_soft_dirty()
        result = CpuDumpResult()
        changed = [
            index for index in candidates
            if parent_pages.get(index) != mem.pages[index].snapshot()
        ]
        with obs.span("criu-dump", mode="delta", pages=len(changed)):
            yield from self._copy_pages(mem, image, medium, {}, result,
                                        indices=changed)
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
        the image's copy — so a later :meth:`dump_delta` naming this
        image as parent may compare only bit-set candidates.
        """
        mem._delta_epoch = image.id

    def recopy_dirty(self, process: HostProcess, image: CheckpointImage,
                     medium: Medium, dirty: list[int]):
        """Generator: overwrite the image with the dirty pages' content."""
        mem = process.memory
        with obs.span("criu-recopy", pages=len(dirty)):
            for start in range(0, len(dirty), PAGES_PER_FLOW):
                batch = dirty[start : start + PAGES_PER_FLOW]
                for index in batch:
                    image.add_cpu_page(index, mem.pages[index].snapshot())
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
                for index in batch:
                    data = preserved.get(index, mem.pages[index].snapshot())
                    image.add_cpu_page(index, data)
                    mem.unprotect(index)
                    result.pages_copied += 1
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
        # A restore rewrites pages without touching soft-dirty bits, so
        # any prior dump epoch no longer over-approximates changes.
        mem._delta_epoch = None
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
                    for index in batch:
                        mem.pages[index].load(image.cpu_pages[index])
                        mem.mark_present(index)

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
        if data is not None:
            mem.pages[index].load(data)
        mem.mark_present(index)
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
            pending = [i for i in batch if not mem.pages[i].present]
            if pending:
                yield from self.medium.read_flow(
                    len(pending) * mem.page_size, rate_cap=CPU_COPY_BW
                )
            for index in pending:
                if not mem.pages[index].present:  # may have faulted meanwhile
                    mem.pages[index].load(self.image.cpu_pages[index])
                    mem.mark_present(index)
        mem.fault_handler = self._prev_handler
        self._done.succeed()

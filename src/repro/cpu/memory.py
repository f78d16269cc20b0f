"""Host memory: pages with protection, soft-dirty, and present bits.

Pages carry the three page-table bits the paper's Table 1 names as the
CPU's information channels for concurrent C/R:

* **write-protected** — a write to a protected page invokes the fault
  handler *before* the write lands (copy-on-write checkpointing);
* **soft-dirty** — set on every write, cleared by the checkpointer
  (recopy/incremental-dump tracking, CRIU's memory-changes tracking);
* **present** — cleared during restore until the page's bytes have been
  loaded; a read or write of a non-present page invokes the fault
  handler (on-demand restore).

As on the GPU side, functional content is real but small: each page
materializes :data:`PAGE_DATA_SIZE` bytes while its logical size is the
usual 4 KiB for timing purposes.

Layout: an address space is a struct of five arrays — one
``(n_pages, PAGE_DATA_SIZE)`` byte block, one flag array per bit, one
version array — not an object per page.  The process's own accesses
(:meth:`HostMemory.read` / :meth:`~HostMemory.write`) stay scalar and
fault page by page; the checkpointer's whole-space operations are array
fills, and its copy path moves a flow's worth of pages per call through
:meth:`~HostMemory.snapshot_pages`, :meth:`~HostMemory.load_pages` and
:meth:`~HostMemory.unprotect_pages`, which validate the whole batch
before the first byte moves.  The page-per-object layout this replaced
is the oracle in ``tests/reference_host_memory.py``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import InvalidValueError
from repro.units import PAGE_SIZE

#: Real bytes materialized per page.
PAGE_DATA_SIZE = 16

#: Fault kinds passed to handlers.
FAULT_WRITE_PROTECTED = "write-protected"
FAULT_NOT_PRESENT = "not-present"

FaultHandler = Callable[[int, str], None]


class HostMemory:
    """A process's CPU address space as parallel per-page arrays.

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
        #: Functional bytes, one row per page.
        self.data = np.zeros((n_pages, PAGE_DATA_SIZE), dtype=np.uint8)
        #: The three page-table bits and the write counter, one entry
        #: per page.  Read them freely; change them through the methods.
        self.soft_dirty = np.zeros(n_pages, dtype=bool)
        self.write_protected = np.zeros(n_pages, dtype=bool)
        self.present = np.ones(n_pages, dtype=bool)
        self.version = np.zeros(n_pages, dtype=np.int64)
        self.fault_handler: Optional[FaultHandler] = None
        #: Id of the image whose capture the soft-dirty bits are relative
        #: to (stamped by a CRIU dump, dropped by a restore), or None.
        self.delta_epoch: Optional[str] = None

    @property
    def logical_bytes(self) -> int:
        """Logical size of the address space (drives copy timing)."""
        return self.n_pages * self.page_size

    # -- access ------------------------------------------------------------------
    def _check(self, index: int) -> None:
        if not 0 <= index < self.n_pages:
            raise InvalidValueError(f"page index {index} out of range 0..{self.n_pages - 1}")

    def read(self, index: int) -> bytes:
        """Read a page's functional bytes (faults if not present)."""
        self._check(index)
        if not self.present[index]:
            self._fault(index, FAULT_NOT_PRESENT)
        return self.data[index].tobytes()

    def write(self, index: int, raw: bytes) -> None:
        """Write a page's functional bytes, honoring protection bits."""
        self._check(index)
        if not self.present[index]:
            self._fault(index, FAULT_NOT_PRESENT)
        if self.write_protected[index]:
            self._fault(index, FAULT_WRITE_PROTECTED)
        _check_length(raw)
        self.data[index] = np.frombuffer(raw, dtype=np.uint8)
        self.soft_dirty[index] = True
        self.version[index] += 1

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
        if kind == FAULT_NOT_PRESENT and not self.present[index]:
            raise InvalidValueError(f"fault handler failed to make page {index} present")
        if kind == FAULT_WRITE_PROTECTED and self.write_protected[index]:
            raise InvalidValueError(f"fault handler failed to unprotect page {index}")

    # -- bit management (the checkpointer's toolbox) ------------------------------
    def clear_soft_dirty(self) -> None:
        """CRIU-style: reset dirty tracking for a new interval."""
        self.soft_dirty[:] = False

    def dirty_pages(self) -> list[int]:
        """Indices of pages written since the last clear, ascending."""
        return np.flatnonzero(self.soft_dirty).tolist()

    def protect_all(self) -> None:
        """Write-protect every page (start of a CoW checkpoint)."""
        self.write_protected[:] = True

    def unprotect(self, index: int) -> None:
        self._check(index)
        self.write_protected[index] = False

    def unprotect_all(self) -> None:
        self.write_protected[:] = False

    def mark_all_not_present(self) -> None:
        """Start of an on-demand restore: nothing is loaded yet."""
        self.present[:] = False

    def mark_present(self, index: int) -> None:
        self._check(index)
        self.present[index] = True

    def snapshot_all(self) -> list[bytes]:
        """Functional snapshot of every page (no timing; used by tests)."""
        return _split_pages(self.data.tobytes())

    # -- batch operations (the checkpointer's copy path) --------------------------
    def _check_batch(self, indices: Sequence[int]) -> np.ndarray:
        """``indices`` as an index array, every one of them in range."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size and not (0 <= idx.min() and idx.max() < self.n_pages):
            for index in indices:  # raise for the first offender
                self._check(index)
        return idx

    def snapshot_pages(self, indices: Sequence[int]) -> list[bytes]:
        """Raw bytes of the given pages, in order — what a dump reads.

        No fault is raised and no bit consulted or changed: the
        checkpointer reads a page whether or not the process could.
        """
        return _split_pages(self.data[self._check_batch(indices)].tobytes())

    def load_pages(self, indices: Sequence[int], datas: Sequence[bytes]) -> None:
        """Store ``datas[k]`` as page ``indices[k]`` and mark it present
        — what a restore writes.  Indices must be distinct.

        No fault is raised and the soft-dirty and version entries stay
        (a restore is not a write by the process).  Every index is
        bounds-checked and every payload length-checked before the
        first byte lands, so a bad batch leaves memory untouched.
        """
        idx = self._check_batch(indices)
        if len(datas) != idx.size:
            raise InvalidValueError(
                f"{idx.size} page indices but {len(datas)} page snapshots"
            )
        if set(map(len, datas)) - {PAGE_DATA_SIZE}:
            for raw in datas:  # raise for the first offender
                _check_length(raw)
        if idx.size:
            self.data[idx] = np.frombuffer(
                b"".join(datas), dtype=np.uint8
            ).reshape(-1, PAGE_DATA_SIZE)
            self.present[idx] = True

    def unprotect_pages(self, indices: Sequence[int]) -> None:
        """Clear the write-protected bit of every given page."""
        self.write_protected[self._check_batch(indices)] = False

    def absent_pages(self, indices: Sequence[int]) -> list[int]:
        """The subset of ``indices`` whose pages are not present, in order."""
        idx = self._check_batch(indices)
        return idx[~self.present[idx]].tolist()


def _check_length(raw: bytes) -> None:
    if len(raw) != PAGE_DATA_SIZE:
        raise InvalidValueError(
            f"page snapshot must be {PAGE_DATA_SIZE} bytes, got {len(raw)}"
        )


def _split_pages(raw: bytes) -> list[bytes]:
    return [raw[off : off + PAGE_DATA_SIZE]
            for off in range(0, len(raw), PAGE_DATA_SIZE)]

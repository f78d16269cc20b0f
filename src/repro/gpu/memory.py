"""Device virtual memory: buffers and a first-fit allocator.

A :class:`Buffer` is a contiguous region of GPU virtual memory with an
application-controlled size, exactly as in §2.1 of the paper.  Each
buffer carries two sizes:

* ``size`` — the *logical* size in bytes.  This is what the cost model
  charges when the buffer is copied over PCIe/NVLink/RDMA and what the
  allocator reserves in the device address space.
* a *materialized prefix* of ``data_size`` real bytes (a numpy array).
  Kernels read and write these bytes through the interpreter, which is
  what makes checkpoint correctness literally checkable: two executions
  agree iff all their buffer prefixes are byte-equal.

The prefix covers the leading ``data_size`` bytes of the buffer.  Kernel
programs in this repository are written to address within the prefix;
an access beyond it raises :class:`~repro.errors.InvalidAddressError`
rather than silently aliasing.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterator, Optional

import numpy as np

from repro.errors import InvalidAddressError, InvalidValueError, OutOfMemoryError

#: Default number of real bytes materialized at the head of each buffer.
DEFAULT_DATA_SIZE = 512

#: All functional loads/stores are 8-byte words.
WORD = 8

_MASK64 = (1 << 64) - 1

_buffer_ids = itertools.count(1)


class Buffer:
    """A contiguous device-memory allocation.

    Not constructed directly — use :meth:`DeviceMemory.alloc`, which
    sizes the materialized prefix in whole words.
    """

    __slots__ = ("id", "addr", "size", "data", "words", "tag", "freed",
                 "hw_dirty")

    def __init__(self, addr: int, size: int, data_size: int, tag: str = "") -> None:
        self.id = next(_buffer_ids)
        self.addr = addr
        self.size = size
        self.data = np.zeros(data_size, dtype=np.uint8)
        #: Little-endian word view of ``data`` for bulk/vectorized access
        #: (the native ``uint64`` on a little-endian host).
        self.words = self.data.view("<u8")
        self.tag = tag
        self.freed = False
        #: Simulated hardware dirty bit (§9 / GPU snapshot [37]): set by
        #: every functional write, cleared only by a checkpointer.  No
        #: real GPU implements this — it exists here so the paper's
        #: discussion point (speculation vs hypothetical hardware
        #: support) is measurable.
        self.hw_dirty = False

    @property
    def end(self) -> int:
        """One past the last logical address of the buffer."""
        return self.addr + self.size

    @property
    def data_size(self) -> int:
        """Number of materialized (real) bytes at the head of the buffer."""
        return len(self.data)

    def contains(self, addr: int) -> bool:
        """True when ``addr`` falls inside this buffer's logical range."""
        return self.addr <= addr < self.end

    # -- functional word access --------------------------------------------------
    def _offset(self, addr: int, nbytes: int) -> int:
        if not self.contains(addr) or addr + nbytes > self.end:
            raise InvalidAddressError(
                f"access [{addr:#x}, {addr + nbytes:#x}) outside buffer "
                f"[{self.addr:#x}, {self.end:#x})"
            )
        off = addr - self.addr
        if off + nbytes > self.data_size:
            raise InvalidAddressError(
                f"access at offset {off} beyond materialized prefix "
                f"({self.data_size} bytes) of buffer {self.tag or self.id}"
            )
        return off

    def load_word(self, addr: int) -> int:
        """Read the 8-byte little-endian word at device address ``addr``."""
        off = addr - self.addr
        if 0 <= off and not off & 7 and off + WORD <= len(self.data) \
                and addr + WORD <= self.end:
            return int(self.words[off >> 3])
        off = self._offset(addr, WORD)
        return int.from_bytes(self.data[off : off + WORD].tobytes(), "little")

    def store_word(self, addr: int, value: int) -> None:
        """Write an 8-byte little-endian word at device address ``addr``."""
        off = addr - self.addr
        if 0 <= off and not off & 7 and off + WORD <= len(self.data) \
                and addr + WORD <= self.end:
            self.words[off >> 3] = value & _MASK64
            self.hw_dirty = True
            return
        off = self._offset(addr, WORD)
        raw = (value & (2**64 - 1)).to_bytes(WORD, "little")
        self.data[off : off + WORD] = np.frombuffer(raw, dtype=np.uint8)
        self.hw_dirty = True

    def touch(self) -> None:
        """Record a bulk functional write (DMA, library kernel, collective)."""
        self.hw_dirty = True

    def snapshot(self) -> bytes:
        """An immutable copy of the materialized bytes."""
        return self.data.tobytes()

    def load_bytes(self, raw: bytes) -> None:
        """Overwrite the materialized prefix from a snapshot."""
        if len(raw) != self.data_size:
            raise InvalidValueError(
                f"snapshot is {len(raw)} bytes, buffer prefix is {self.data_size}"
            )
        self.data[:] = np.frombuffer(raw, dtype=np.uint8)

    def __repr__(self) -> str:
        tag = f" {self.tag}" if self.tag else ""
        return f"<Buffer #{self.id}{tag} addr={self.addr:#x} size={self.size}>"


class DeviceMemory:
    """The GPU's virtual memory: capacity accounting plus an allocator.

    The allocator is first-fit over a single virtual address range
    starting at ``base``.  Freed ranges are coalesced.  ``resolve`` maps
    a device address back to its buffer, which is how compiled plans
    turn raw pointers into buffers; ``load_word``/``store_word``, the
    interpreter's accesses, make the same lookup inline.
    """

    def __init__(
        self,
        capacity: int,
        base: int = 0x7F00_0000_0000,
        default_data_size: int = DEFAULT_DATA_SIZE,
    ) -> None:
        if capacity <= 0:
            raise InvalidValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.base = base
        self.default_data_size = default_data_size
        self.used = 0
        self._free: list[tuple[int, int]] = [(base, capacity)]  # (addr, size)
        self._buffers: dict[int, Buffer] = {}  # keyed by addr
        self._addrs: list[int] = []  # sorted buffer base addresses
        #: One slot per compiled plan (:mod:`repro.perf.plans`): the
        #: argument tuple of its last launch here and that launch's bind
        #: proof.  The proof is a function of the buffer layout, so
        #: every alloc and free flushes it.
        self.bind_memo: dict = {}

    # -- allocation --------------------------------------------------------------
    def alloc(self, size: int, tag: str = "", data_size: Optional[int] = None) -> Buffer:
        """Allocate ``size`` logical bytes; raises OutOfMemoryError when full."""
        if size <= 0:
            raise InvalidValueError(f"allocation size must be positive, got {size}")
        aligned = _align_up(size, 256)
        for i, (addr, hole) in enumerate(self._free):
            if hole >= aligned:
                if hole == aligned:
                    del self._free[i]
                else:
                    self._free[i] = (addr + aligned, hole - aligned)
                return self._place(addr, aligned, size, tag, data_size)
        raise OutOfMemoryError(
            f"cannot allocate {size} bytes: {self.capacity - self.used} free "
            f"of {self.capacity}"
        )

    def alloc_at(self, addr: int, size: int, tag: str = "",
                 data_size: Optional[int] = None) -> Buffer:
        """Allocate at an exact address (restore re-creates the original
        layout; real systems use CUDA VMM placement for this).

        ``size`` must already be allocator-aligned (it comes from a
        checkpointed buffer record).
        """
        if size <= 0:
            raise InvalidValueError(f"allocation size must be positive, got {size}")
        for i, (hole_addr, hole_size) in enumerate(self._free):
            if hole_addr <= addr and addr + size <= hole_addr + hole_size:
                pieces = []
                if addr > hole_addr:
                    pieces.append((hole_addr, addr - hole_addr))
                if addr + size < hole_addr + hole_size:
                    pieces.append((addr + size, hole_addr + hole_size - (addr + size)))
                self._free[i : i + 1] = pieces
                return self._place(addr, size, size, tag, data_size)
        raise OutOfMemoryError(
            f"range [{addr:#x}, {addr + size:#x}) is not free"
        )

    def _place(self, addr: int, size: int, logical: int, tag: str,
               data_size: Optional[int]) -> Buffer:
        """Record a buffer in a range already cut from the free list: its
        materialized prefix is ``data_size`` (default ``default_data_size``)
        of the ``logical`` bytes in whole words, and ``bind_memo`` is flushed."""
        data = min(logical, data_size if data_size is not None else self.default_data_size)
        buf = Buffer(addr, size, max(-(-data // WORD), 1) * WORD, tag=tag)
        self._buffers[addr] = buf
        bisect.insort(self._addrs, addr)
        self.used += size
        self.bind_memo.clear()
        return buf

    def free(self, buf: Buffer) -> None:
        """Release a buffer's range back to the free list (with coalescing)."""
        if buf.freed or self._buffers.get(buf.addr) is not buf:
            raise InvalidValueError(f"double free or foreign buffer: {buf!r}")
        del self._buffers[buf.addr]
        self._addrs.remove(buf.addr)
        self.bind_memo.clear()
        buf.freed = True
        self.used -= buf.size
        bisect.insort(self._free, (buf.addr, buf.size))
        self._coalesce()

    def _coalesce(self) -> None:
        merged: list[tuple[int, int]] = []
        for addr, size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == addr:
                prev_addr, prev_size = merged[-1]
                merged[-1] = (prev_addr, prev_size + size)
            else:
                merged.append((addr, size))
        self._free = merged

    # -- lookup -------------------------------------------------------------------
    def resolve(self, addr: int) -> Optional[Buffer]:
        """The live buffer containing device address ``addr``, or None."""
        i = bisect.bisect_right(self._addrs, addr) - 1
        if i < 0:
            return None
        buf = self._buffers[self._addrs[i]]
        return buf if addr < buf.addr + buf.size else None

    def buffers(self) -> Iterator[Buffer]:
        """All live buffers in address order."""
        return (self._buffers[a] for a in self._addrs)

    @property
    def free_bytes(self) -> int:
        """Unallocated device memory."""
        return self.capacity - self.used

    def __len__(self) -> int:
        return len(self._buffers)

    # -- functional access by raw address -------------------------------------------
    # One bisect and one bounds check (the word inside both the logical
    # size and the materialized prefix), then the word view.  An access
    # the word view cannot serve (misaligned, past the prefix or the
    # buffer) goes to the buffer's own method, which faults or takes the
    # byte path.
    def load_word(self, addr: int) -> int:
        """Load through the allocator: faults on unmapped addresses."""
        addrs = self._addrs
        i = bisect.bisect_right(addrs, addr) - 1
        if i >= 0:
            buf = self._buffers[addrs[i]]
            off = addr - buf.addr
            end = off + WORD
            if not off & 7 and end <= buf.size and end <= len(buf.data):
                return int(buf.words[off >> 3])
            if off < buf.size:
                return buf.load_word(addr)
        raise InvalidAddressError(f"load from unmapped device address {addr:#x}")

    def store_word(self, addr: int, value: int) -> None:
        """Store through the allocator: faults on unmapped addresses."""
        addrs = self._addrs
        i = bisect.bisect_right(addrs, addr) - 1
        if i >= 0:
            buf = self._buffers[addrs[i]]
            off = addr - buf.addr
            end = off + WORD
            if not off & 7 and end <= buf.size and end <= len(buf.data):
                buf.words[off >> 3] = value & _MASK64
                buf.hw_dirty = True
                return
            if off < buf.size:
                buf.store_word(addr, value)
                return
        raise InvalidAddressError(f"store to unmapped device address {addr:#x}")


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align

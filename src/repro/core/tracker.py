"""PHOS's own buffer table.

The frontend intercepts every allocation call, so PHOS "knows all the
buffers allocated by the process" (§4.1) without asking the driver.
The table is what speculation compares raw kernel arguments against:
an integer argument that falls inside a registered buffer's range is a
tentative pointer to that buffer.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Optional

from repro.errors import CheckpointError
from repro.gpu.memory import Buffer


class BufferTable:
    """Registered buffers of one process on one GPU, ordered by address."""

    def __init__(self, gpu_index: int) -> None:
        self.gpu_index = gpu_index
        self._by_addr: dict[int, Buffer] = {}
        self._addrs: list[int] = []
        #: Running byte total, maintained by register/unregister so
        #: :meth:`total_bytes` is O(1) on the per-checkpoint hot path.
        self._total_bytes = 0
        #: Memo for :meth:`resolve`.  Kernel arguments repeat across
        #: launches (the same pointer is speculated on every iteration),
        #: so the bisect lookup is memoized and flushed whenever the
        #: table itself changes.
        self._resolve_memo: dict[int, Optional[Buffer]] = {}
        #: One slot per kernel ``Program`` (keyed by ``id``) for
        #: :func:`~repro.core.speculation.speculate_call`: ``(program,
        #: args, sets)`` of its last launch against this table.  Flushed
        #: with the resolve memo, for the same reason.
        self.spec_memo: dict[int, tuple] = {}

    def register(self, buf: Buffer) -> None:
        if buf.addr in self._by_addr:
            raise CheckpointError(f"buffer at {buf.addr:#x} registered twice")
        self._by_addr[buf.addr] = buf
        bisect.insort(self._addrs, buf.addr)
        self._total_bytes += buf.size
        self._resolve_memo.clear()
        self.spec_memo.clear()

    def unregister(self, buf: Buffer) -> None:
        if self._by_addr.get(buf.addr) is not buf:
            raise CheckpointError(f"buffer at {buf.addr:#x} is not registered")
        del self._by_addr[buf.addr]
        self._addrs.remove(buf.addr)
        self._total_bytes -= buf.size
        self._resolve_memo.clear()
        self.spec_memo.clear()

    def resolve(self, addr: int) -> Optional[Buffer]:
        """The registered buffer whose range contains ``addr``, if any."""
        try:
            return self._resolve_memo[addr]
        except KeyError:
            pass
        i = bisect.bisect_right(self._addrs, addr) - 1
        buf = None
        if i >= 0:
            candidate = self._by_addr[self._addrs[i]]
            if candidate.contains(addr):
                buf = candidate
        if len(self._resolve_memo) >= 1 << 16:
            self._resolve_memo.clear()
        self._resolve_memo[addr] = buf
        return buf

    def buffers(self) -> Iterator[Buffer]:
        """All registered buffers in address order."""
        return (self._by_addr[a] for a in self._addrs)

    def total_bytes(self) -> int:
        return self._total_bytes

    def __len__(self) -> int:
        return len(self._by_addr)

    def __contains__(self, buf: Buffer) -> bool:
        return self._by_addr.get(buf.addr) is buf

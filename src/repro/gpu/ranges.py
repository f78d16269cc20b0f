"""Address range sets shared by speculation and the runtime validator.

A :class:`RangeSet` is the "speculated buffers" descriptor passed to
instrumented twin kernels: the inserted ``CHK`` instructions test each
global access address for membership.  It is also how the speculation
engine reports read/write sets.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, Optional

from repro.errors import InvalidValueError


class RangeSet:
    """A set of disjoint, half-open address ranges ``[start, end)``.

    Ranges are normalized (sorted, merged) on construction and on
    :meth:`add`, so membership is a binary search.
    """

    def __init__(self, ranges: Iterable[tuple[int, int]] = ()) -> None:
        self._ranges: list[tuple[int, int]] = []
        self._edges: Optional[list[int]] = None
        for start, end in ranges:
            self.add(start, end)

    def add(self, start: int, end: int) -> None:
        """Insert ``[start, end)``, merging with any overlapping ranges."""
        if end <= start:
            raise InvalidValueError(f"empty or inverted range [{start}, {end})")
        i = bisect.bisect_left(self._ranges, (start, end))
        # Merge with predecessor when it touches/overlaps.
        if i > 0 and self._ranges[i - 1][1] >= start:
            i -= 1
            start = min(start, self._ranges[i][0])
        # Consume all successors that overlap.
        j = i
        while j < len(self._ranges) and self._ranges[j][0] <= end:
            end = max(end, self._ranges[j][1])
            start = min(start, self._ranges[j][0])
            j += 1
        self._ranges[i:j] = [(start, end)]
        self._edges = None

    def edges(self) -> list[int]:
        """The bounds flattened, ``[start0, end0, start1, end1, ...]``.

        Strictly increasing, because touching ranges merge, so ``addr``
        is in the set iff ``bisect_right(edges, addr)`` is odd: one C call
        per membership test, which the interpreter's ``CHK`` makes inline.
        """
        if self._edges is None:
            self._edges = [bound for rng in self._ranges for bound in rng]
        return self._edges

    def __contains__(self, addr: int) -> bool:
        i = bisect.bisect_right(self._ranges, (addr, float("inf"))) - 1
        if i < 0:
            return False
        start, end = self._ranges[i]
        return start <= addr < end

    def covers(self, start: int, end: int) -> bool:
        """True when the whole half-open range ``[start, end)`` is contained."""
        if end <= start:
            raise InvalidValueError(f"empty or inverted range [{start}, {end})")
        i = bisect.bisect_right(self._ranges, (start, float("inf"))) - 1
        if i < 0:
            return False
        r_start, r_end = self._ranges[i]
        return r_start <= start and end <= r_end

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._ranges)

    def __len__(self) -> int:
        return len(self._ranges)

    def __bool__(self) -> bool:
        return bool(self._ranges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeSet):
            return NotImplemented
        return self._ranges == other._ranges

    def total_bytes(self) -> int:
        """Sum of range lengths."""
        return sum(end - start for start, end in self._ranges)

    def __repr__(self) -> str:
        parts = ", ".join(f"[{s:#x},{e:#x})" for s, e in self._ranges[:4])
        more = "..." if len(self._ranges) > 4 else ""
        return f"RangeSet({parts}{more})"

"""Argument-based read/write-set speculation (§4.1, extended per §6).

For category 1-3 calls (memory moves, communication kernels, library
kernels), the specification already declares the sets.  For opaque
kernels, PHOS treats each launch argument as a tentative pointer:

* mutable-pointer parameters whose value falls inside a registered
  buffer mark that whole buffer as *written*;
* const-pointer parameters mark the buffer as *read* (the §6 extension
  for concurrent restore);
* scalar parameters are filtered out using the parsed signature;
* if the signature contains an opaque struct — or no signature is
  available at all — speculation degrades to the conservative mode:
  every 8-byte argument chunk is treated as a potential written (and
  read) buffer pointer.

Speculation is *buffer-granular* and deliberately over-approximate
(safe); what it can miss are accesses whose base address never appears
in the arguments (module-global pointers) — exactly what the runtime
validator exists to catch.

The parameter walk is done once per kernel: its parsed
:class:`~repro.core.signatures.Signature` carries ``pointers``, the
``(index, mutable)`` of each pointer parameter (None for a struct), so
a launch resolves just those arguments.  An opaque kernel's sets are a
function of its program, its arguments and the buffer table, and the
same launch repeats every iteration: the table keeps the last launch's
sets per program (flushed whenever a buffer is registered or
unregistered) and a repeated launch gets them back.  Sets are therefore
shared, so they are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.api.calls import DECLARED, ApiCall, ApiCategory
from repro.core.signatures import program_signature
from repro.core.tracker import BufferTable
from repro.gpu.memory import Buffer
from repro.gpu.ranges import RangeSet


@dataclass
class SpeculatedSets:
    """The speculated read and write sets of one call (immutable:
    repeated launches share them, range sets included)."""

    writes: tuple[Buffer, ...] = ()
    reads: tuple[Buffer, ...] = ()
    #: True when the call is an opaque kernel (validation applies).
    opaque: bool = False
    #: True when struct/unknown-signature forced conservative treatment.
    conservative: bool = False
    _write_ranges: Optional[RangeSet] = field(
        default=None, init=False, repr=False, compare=False)
    _read_ranges: Optional[RangeSet] = field(
        default=None, init=False, repr=False, compare=False)

    def write_ranges(self) -> RangeSet:
        if self._write_ranges is None:
            self._write_ranges = RangeSet((b.addr, b.end) for b in self.writes)
        return self._write_ranges

    def read_ranges(self) -> RangeSet:
        if self._read_ranges is None:
            self._read_ranges = RangeSet((b.addr, b.end) for b in self.reads)
        return self._read_ranges

    def touched(self) -> list[Buffer]:
        """Union of reads and writes, deduplicated, in stable order."""
        seen: dict[int, Buffer] = {}
        for buf in self.writes + self.reads:
            seen.setdefault(buf.id, buf)
        return list(seen.values())


def speculate_call(call: ApiCall, table: BufferTable) -> SpeculatedSets:
    """Speculate the read/write sets of one intercepted call."""
    category = call.category
    if category is ApiCategory.OPAQUE_KERNEL:
        return _speculate_opaque(call, table)
    if category in DECLARED:
        return SpeculatedSets(
            writes=tuple(call.writes), reads=tuple(call.reads), opaque=False
        )
    return SpeculatedSets()


def _speculate_opaque(call: ApiCall, table: BufferTable) -> SpeculatedSets:
    """An opaque kernel's sets, read off its signature's pointer table."""
    program = call.program
    assert program is not None
    args = tuple(call.args)
    slot = table.spec_memo.get(id(program))
    if slot is not None and slot[0] is program and slot[1] == args:
        return slot[2]
    sig = program_signature(program)
    pointers = sig.pointers if sig is not None and len(sig) == len(args) \
        else None
    resolve = table.resolve
    if pointers is None:
        # Struct/unknown signature: every 8-byte chunk is a tentative
        # pointer, read and written.
        bufs: list[Buffer] = []
        for arg in args:
            buf = resolve(int(arg))
            if buf is not None and buf not in bufs:
                bufs.append(buf)
        sets = SpeculatedSets(tuple(bufs), tuple(bufs), opaque=True,
                              conservative=True)
    else:
        writes: list[Buffer] = []
        reads: list[Buffer] = []
        for i, mutable in pointers:
            buf = resolve(int(args[i]))
            if buf is not None:
                bufs = writes if mutable else reads
                if buf not in bufs:
                    bufs.append(buf)
        sets = SpeculatedSets(tuple(writes), tuple(reads), opaque=True)
    table.spec_memo[id(program)] = (program, args, sets)
    return sets

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

An opaque kernel's sets are a function of its program, its arguments
and the buffer table, and the same launch repeats every iteration: the
table keeps the last launch's sets per program (flushed whenever a
buffer is registered or unregistered) and a repeated launch gets them
back.  Sets are therefore shared, so they are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.api.calls import ApiCall, ApiCategory
from repro.core.signatures import ParamKind, program_signature
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
    if call.category.has_declared_semantics:
        return SpeculatedSets(
            writes=tuple(call.writes), reads=tuple(call.reads), opaque=False
        )
    if call.category is not ApiCategory.OPAQUE_KERNEL:
        return SpeculatedSets()
    return _speculate_opaque(call, table)


def _speculate_opaque(call: ApiCall, table: BufferTable) -> SpeculatedSets:
    program = call.program
    assert program is not None
    args = tuple(call.args)
    slot = table.spec_memo.get(id(program))
    if slot is not None and slot[0] is program and slot[1] == args:
        return slot[2]
    sig = program_signature(program)
    if sig is None or sig.has_struct or len(sig) != len(args):
        sets = _conservative(call, table)
    else:
        writes: list[Buffer] = []
        reads: list[Buffer] = []
        for param, arg in zip(sig.params, args):
            if param.kind is ParamKind.SCALAR:
                continue
            buf = table.resolve(int(arg))
            if buf is None:
                continue
            if param.kind is ParamKind.MUT_PTR:
                _add(writes, buf)
            elif param.kind is ParamKind.CONST_PTR:
                _add(reads, buf)
        sets = SpeculatedSets(tuple(writes), tuple(reads), opaque=True)
    table.spec_memo[id(program)] = (program, args, sets)
    return sets


def _conservative(call: ApiCall, table: BufferTable) -> SpeculatedSets:
    """Struct/unknown signature: every 8-byte chunk is a tentative pointer."""
    bufs: list[Buffer] = []
    for arg in call.args:
        buf = table.resolve(int(arg))
        if buf is not None:
            _add(bufs, buf)
    return SpeculatedSets(tuple(bufs), tuple(bufs), opaque=True,
                          conservative=True)


def _add(bufs: list[Buffer], buf: Buffer) -> None:
    if all(b.id != buf.id for b in bufs):
        bufs.append(buf)

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.calls import ApiCall, ApiCategory
from repro.core.signatures import ParamKind, program_signature
from repro.core.tracker import BufferTable
from repro.gpu.memory import Buffer
from repro.gpu.ranges import RangeSet


@dataclass
class SpeculatedSets:
    """The speculated read and write sets of one call."""

    writes: list[Buffer] = field(default_factory=list)
    reads: list[Buffer] = field(default_factory=list)
    #: True when the call is an opaque kernel (validation applies).
    opaque: bool = False
    #: True when struct/unknown-signature forced conservative treatment.
    conservative: bool = False

    def write_ranges(self) -> RangeSet:
        return RangeSet((b.addr, b.end) for b in self.writes)

    def read_ranges(self) -> RangeSet:
        return RangeSet((b.addr, b.end) for b in self.reads)

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
            writes=list(call.writes), reads=list(call.reads), opaque=False
        )
    if call.category is not ApiCategory.OPAQUE_KERNEL:
        return SpeculatedSets()
    return _speculate_opaque(call, table)


def _speculate_opaque(call: ApiCall, table: BufferTable) -> SpeculatedSets:
    assert call.program is not None
    sig = program_signature(call.program)
    if sig is None or sig.has_struct or len(sig) != len(call.args):
        return _conservative(call, table)
    sets = SpeculatedSets(opaque=True)
    for param, arg in zip(sig.params, call.args):
        if param.kind is ParamKind.SCALAR:
            continue
        buf = table.resolve(int(arg))
        if buf is None:
            continue
        if param.kind is ParamKind.MUT_PTR:
            _add(sets.writes, buf)
        elif param.kind is ParamKind.CONST_PTR:
            _add(sets.reads, buf)
    return sets


def _conservative(call: ApiCall, table: BufferTable) -> SpeculatedSets:
    """Struct/unknown signature: every 8-byte chunk is a tentative pointer."""
    sets = SpeculatedSets(opaque=True, conservative=True)
    for arg in call.args:
        buf = table.resolve(int(arg))
        if buf is not None:
            _add(sets.writes, buf)
            _add(sets.reads, buf)
    return sets


def _add(bufs: list[Buffer], buf: Buffer) -> None:
    if all(b.id != buf.id for b in bufs):
        bufs.append(buf)

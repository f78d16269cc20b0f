"""The kernel interpreter: per-thread execution over real buffer bytes.

Threads run sequentially in thread-id order (the simulation is
deterministic), each with its own register file.  Global loads and
stores go through :class:`~repro.gpu.memory.DeviceMemory`, so kernels
genuinely mutate buffer contents — the checkpoint protocols are tested
against these bytes.

The per-thread loop runs over :attr:`Program.decoded
<repro.gpu.isa.Program.decoded>` — plain ``(code, rd, ra, rb, x)``
tuples with int opcodes, branch targets already resolved to pcs and
``SETI`` immediates already wrapped — so a step is one tuple unpack and a
few int comparisons, ordered by how often the Table 3 study's fallback
launches execute each opcode.  This is the only interpreter under
``src/``; the enum-dispatch loop it replaced is the oracle in
``tests/reference_interpreter.py`` and ``tests/test_property_interpreter.py``
holds the two equal on random programs, faults included.  The decoded
table is cached on the program, which is therefore immutable once
launched.

When a program has been instrumented (:mod:`repro.gpu.instrument`), its
``CHK`` instructions consult a :class:`ValidationState`: each failed
check appends a :class:`Violation` to the validation state's report
buffer, exactly mirroring the paper's validator that "reports the
incident to PHOS by writing the address to a pre-allocated PHOS-managed
CPU buffer" (§4.1).  Execution continues after a violation — stopping
is PHOS's decision, not the kernel's.

Access recording is range-compressed: instead of one
:class:`AccessRecord` per LDG/STG, a :class:`KernelRun` keeps per-pc
*strided runs* ``[start, stride, count]`` and serves
:meth:`KernelRun.written_addrs` / :meth:`KernelRun.read_addrs` (and the
corresponding :class:`~repro.gpu.ranges.RangeSet` views) from caches.
Pass ``detailed=True`` to :func:`run_kernel` to additionally populate
the classic per-access list — the escape hatch used by the speculation
ground-truth tests.

Unless a launch passes ``detailed=True`` or ``force_interpret=True``,
:func:`run_kernel` first offers it to the :mod:`repro.perf` compiled-plan
cache, which executes affine kernels as vectorized bulk operations with
byte-, violation- and range-identical results, falling back to this
interpreter whenever equivalence cannot be proven.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import IsaError, KernelFault
from repro.gpu.isa import (
    NUM_REGS, OP_ADD, OP_ADDI, OP_ARG, OP_BEQ, OP_BGE, OP_BLT, OP_BNE, OP_CHK,
    OP_EXIT, OP_GLOB, OP_JMP, OP_LDG, OP_MOD, OP_MOV, OP_MUL, OP_MULI, OP_NTID,
    OP_SETI, OP_STG, OP_SUB, OP_TID, AccessKind, Program,
)
from repro.gpu.ranges import RangeSet

#: Per-thread instruction budget; exceeding it means a runaway loop.
MAX_STEPS = 100_000

_MASK64 = (1 << 64) - 1

#: Word size of every functional access (mirrors ``memory.WORD``).
_WORD = 8


@dataclass(frozen=True)
class AccessRecord:
    """One observed global access (ground truth for speculation tests)."""

    addr: int
    kind: AccessKind
    tid: int
    pc: int


@dataclass(frozen=True)
class Violation:
    """A validator hit: an access outside the speculated ranges."""

    kernel: str
    addr: int
    kind: AccessKind
    tid: int


@dataclass
class ValidationState:
    """The speculated ranges plus the CPU-visible violation buffer."""

    read_ranges: RangeSet
    write_ranges: RangeSet
    violations: list[Violation] = field(default_factory=list)

    def check(self, kernel: str, addr: int, kind: AccessKind, tid: int) -> None:
        """Record a violation if ``addr`` is outside the speculated set.

        Reads are validated against the union of read and write ranges:
        a buffer the kernel is known to write may legitimately be read
        back (partial updates), and it is already protected.
        """
        if kind is AccessKind.WRITE:
            ok = addr in self.write_ranges
        else:
            ok = addr in self.read_ranges or addr in self.write_ranges
        if not ok:
            self.violations.append(Violation(kernel, addr, kind, tid))

    def covers(self, kind: AccessKind, lo: int, hi: int) -> bool:
        """True when every address in ``[lo, hi]`` would pass :meth:`check`.

        This is the bulk form used by compiled execution plans: instead
        of dispatching one ``CHK`` per access, a plan proves the whole
        access hull is inside the speculated set, which implies the
        per-access checks produce zero violations.  Conservative: a
        ``False`` only means a range-level proof failed, not that a
        violation necessarily exists.
        """
        if kind is AccessKind.WRITE:
            return self.write_ranges.covers(lo, hi + 1)
        return (self.read_ranges.covers(lo, hi + 1)
                or self.write_ranges.covers(lo, hi + 1))


def _expand_log(log: dict[int, list[list[int]]]) -> set[int]:
    """Expand per-pc strided runs into the set of distinct addresses."""
    out: set[int] = set()
    for runs in log.values():
        for start, stride, count in runs:
            if stride == 0 or count == 1:
                out.add(start)
            else:
                out.update(range(start, start + stride * count, stride))
    return out


def _log_ranges(log: dict[int, list[list[int]]]) -> RangeSet:
    """The byte ranges touched by the runs of ``log`` (word-sized accesses)."""
    rs = RangeSet()
    for runs in log.values():
        for start, stride, count in runs:
            if stride == 0 or count == 1:
                rs.add(start, start + _WORD)
            elif stride == _WORD:
                rs.add(start, start + _WORD * count)
            elif stride == -_WORD:
                rs.add(start - _WORD * (count - 1), start + _WORD)
            else:
                for i in range(count):
                    a = start + stride * i
                    rs.add(a, a + _WORD)
    return rs


@dataclass
class KernelRun:
    """The outcome of interpreting a kernel launch.

    ``accesses`` is only populated when the launch ran with
    ``detailed=True``; bulk consumers should use the cached
    :meth:`written_addrs` / :meth:`read_addrs` sets or the range views,
    which are always available (served from the compressed per-pc logs).
    """

    program: Program
    n_threads: int
    accesses: list[AccessRecord] = field(default_factory=list)
    steps: int = 0
    detailed: bool = False
    #: pc -> list of [start, stride, count] strided runs.
    read_log: dict[int, list[list[int]]] = field(
        default_factory=dict, repr=False)
    write_log: dict[int, list[list[int]]] = field(
        default_factory=dict, repr=False)
    _written_cache: Optional[set[int]] = field(default=None, repr=False)
    _read_cache: Optional[set[int]] = field(default=None, repr=False)
    _write_ranges_cache: Optional[RangeSet] = field(default=None, repr=False)
    _read_ranges_cache: Optional[RangeSet] = field(default=None, repr=False)

    def written_addrs(self) -> set[int]:
        """Distinct addresses stored to (cached after first call)."""
        if self._written_cache is None:
            self._written_cache = _expand_log(self.write_log)
        return self._written_cache

    def read_addrs(self) -> set[int]:
        """Distinct addresses loaded from (cached after first call)."""
        if self._read_cache is None:
            self._read_cache = _expand_log(self.read_log)
        return self._read_cache

    def write_ranges(self) -> RangeSet:
        """Byte ranges written, as a :class:`RangeSet` (cached)."""
        if self._write_ranges_cache is None:
            self._write_ranges_cache = _log_ranges(self.write_log)
        return self._write_ranges_cache

    def read_ranges(self) -> RangeSet:
        """Byte ranges read, as a :class:`RangeSet` (cached)."""
        if self._read_ranges_cache is None:
            self._read_ranges_cache = _log_ranges(self.read_log)
        return self._read_ranges_cache


_plans_mod = None


def _plans():
    global _plans_mod
    if _plans_mod is None:
        from repro.perf import plans as mod
        _plans_mod = mod
    return _plans_mod


def run_kernel(
    program: Program,
    args: list[int],
    n_threads: int,
    memory,
    validation: Optional[ValidationState] = None,
    record_accesses: bool = True,
    max_steps: int = MAX_STEPS,
    detailed: bool = False,
    force_interpret: bool = False,
) -> KernelRun:
    """Interpret ``program`` for ``n_threads`` threads.

    ``memory`` is any object with ``load_word(addr)`` / ``store_word(addr,
    value)`` — normally a :class:`~repro.gpu.memory.DeviceMemory`.
    ``validation`` must be provided iff the program is instrumented.
    ``detailed=True`` additionally records one :class:`AccessRecord` per
    access in ``run.accesses`` (and disables the compiled fast path).
    ``force_interpret=True`` skips the fast path outright — used by the
    differential tests to obtain the ground-truth slow-path result.
    """
    if program.instrumented and validation is None:
        raise KernelFault(
            f"instrumented kernel {program.name!r} launched without a "
            "validation descriptor"
        )
    if n_threads <= 0:
        raise KernelFault(f"kernel {program.name!r}: n_threads must be positive")
    if not detailed and not force_interpret:
        run = _plans().try_fast_run(
            program, args, n_threads, memory, validation,
            record_accesses, max_steps,
        )
        if run is not None:
            return run
    run = KernelRun(program=program, n_threads=n_threads, detailed=detailed)
    for tid in range(n_threads):
        _run_thread(
            program, args, tid, n_threads, memory, validation, run, max_steps,
            record_accesses,
        )
    return run


def _record(log: dict[int, list[list[int]]], pc: int, addr: int) -> None:
    """Append ``addr`` to the per-pc strided-run log (coalescing)."""
    runs = log.get(pc)
    if runs is None:
        log[pc] = [[addr, 0, 1]]
        return
    last = runs[-1]
    if last[2] == 1:
        last[1] = addr - last[0]
        last[2] = 2
    elif addr == last[0] + last[1] * last[2]:
        last[2] += 1
    else:
        runs.append([addr, 0, 1])


def _run_thread(
    program: Program,
    args: list[int],
    tid: int,
    n_threads: int,
    memory,
    validation: Optional[ValidationState],
    run: KernelRun,
    max_steps: int,
    record: bool,
) -> None:
    regs = [0] * NUM_REGS
    pc = 0
    steps = 0
    table = program.decoded
    name = program.name
    nargs = len(args)
    load_word = memory.load_word
    store_word = memory.store_word
    check = validation.check if validation is not None else None
    detailed = run.detailed and record
    read_log = run.read_log
    write_log = run.write_log
    # Opcodes are tested in the order the Table 3 study's fallback
    # launches execute them (ARG 23 %, ADD 14 %, CHK 13 %, MULI 11 %, ...).
    while True:
        if steps >= max_steps:
            raise KernelFault(
                f"kernel {name!r} thread {tid}: exceeded "
                f"{max_steps} steps (runaway loop?)"
            )
        code, rd, ra, rb, x = table[pc]
        steps += 1
        if code == OP_ARG:
            if not 0 <= x < nargs:
                raise KernelFault(
                    f"kernel {name!r}: ARG index {x} out of "
                    f"range for {nargs} arguments"
                )
            regs[rd] = int(args[x])
        elif code == OP_ADD:
            regs[rd] = (regs[ra] + regs[rb]) & _MASK64
        elif code == OP_CHK:
            if check is not None:
                check(name, regs[ra], x, tid)
        elif code == OP_MULI:
            regs[rd] = (regs[ra] * x) & _MASK64
        elif code == OP_LDG:
            addr = regs[ra]
            regs[rd] = load_word(addr)
            if record:
                _record(read_log, pc, addr)
                if detailed:
                    run.accesses.append(
                        AccessRecord(addr, AccessKind.READ, tid, pc))
        elif code == OP_BGE:
            if regs[ra] >= regs[rb]:
                pc = x
                continue
        elif code == OP_TID:
            regs[rd] = tid
        elif code == OP_EXIT:
            break
        elif code == OP_STG:
            addr = regs[ra]
            store_word(addr, regs[rb])
            if record:
                _record(write_log, pc, addr)
                if detailed:
                    run.accesses.append(
                        AccessRecord(addr, AccessKind.WRITE, tid, pc))
        elif code == OP_SETI:
            regs[rd] = x
        elif code == OP_BNE:
            if regs[ra] != regs[rb]:
                pc = x
                continue
        elif code == OP_ADDI:
            regs[rd] = (regs[ra] + x) & _MASK64
        elif code == OP_JMP:
            pc = x
            continue
        elif code == OP_BLT:
            if regs[ra] < regs[rb]:
                pc = x
                continue
        elif code == OP_BEQ:
            if regs[ra] == regs[rb]:
                pc = x
                continue
        elif code == OP_MOV:
            regs[rd] = regs[ra]
        elif code == OP_SUB:
            regs[rd] = (regs[ra] - regs[rb]) & _MASK64
        elif code == OP_MUL:
            regs[rd] = (regs[ra] * regs[rb]) & _MASK64
        elif code == OP_MOD:
            if regs[rb] == 0:
                raise KernelFault(f"kernel {name!r}: modulo by zero")
            regs[rd] = regs[ra] % regs[rb]
        elif code == OP_NTID:
            regs[rd] = n_threads
        elif code == OP_GLOB:
            regs[rd] = program.globals_[x]
        else:  # pragma: no cover - exhaustive over Op
            raise IsaError(f"unhandled opcode {code}")
        pc += 1
    run.steps += steps

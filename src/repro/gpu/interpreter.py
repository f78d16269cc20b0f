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
table is built once, when the program is constructed, and a program is
immutable once built.

When a program has been instrumented (:mod:`repro.gpu.instrument`), its
``CHK`` instructions consult a :class:`ValidationState`: each failed
check appends a :class:`Violation` to the validation state's report
buffer (the loop tests the ranges inline, with the verdict of
:meth:`ValidationState.check`), exactly mirroring the paper's validator
that "reports the incident to PHOS by writing the address to a
pre-allocated PHOS-managed CPU buffer" (§4.1).  Execution continues after a violation — stopping
is PHOS's decision, not the kernel's.

Nothing records the accesses a launch makes.  The one runtime observer
of a kernel's memory accesses is the instrumented twin, as in PHOS
(§4.1): a ``CHK`` before every ``LDG``/``STG``.  Tests that need every
access run the twin against empty ranges and read the violations.

Unless a launch passes ``force_interpret=True``, :func:`run_kernel`
first offers it to the :mod:`repro.perf` compiled-plan cache, which
executes affine, divergent and gathering kernels as vectorized bulk
operations with byte-, step- and violation-identical results, falling
back to this interpreter whenever equivalence cannot be proven.
"""

from __future__ import annotations

from bisect import bisect_right
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
_READ = AccessKind.READ


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
        back (partial updates), and it is already protected.  The
        interpreter's ``CHK`` reaches this verdict inline; the reference
        loop in ``tests/`` calls this method.
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


@dataclass
class KernelRun:
    """The outcome of interpreting a kernel launch."""

    program: Program
    n_threads: int
    steps: int = 0


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
    max_steps: int = MAX_STEPS,
    force_interpret: bool = False,
) -> KernelRun:
    """Interpret ``program`` for ``n_threads`` threads.

    ``memory`` is any object with ``load_word(addr)`` / ``store_word(addr,
    value)`` — normally a :class:`~repro.gpu.memory.DeviceMemory`.
    ``validation`` must be provided iff the program is instrumented.
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
    if not force_interpret:
        run = _plans().try_fast_run(
            program, args, n_threads, memory, validation, max_steps,
        )
        if run is not None:
            return run
    run = KernelRun(program=program, n_threads=n_threads)
    for tid in range(n_threads):
        _run_thread(
            program, args, tid, n_threads, memory, validation, run, max_steps,
        )
    return run


def _run_thread(
    program: Program,
    args: list[int],
    tid: int,
    n_threads: int,
    memory,
    validation: Optional[ValidationState],
    run: KernelRun,
    max_steps: int,
) -> None:
    regs = [0] * NUM_REGS
    pc = 0
    steps = 0
    table = program.decoded
    name = program.name
    nargs = len(args)
    load_word = memory.load_word
    store_word = memory.store_word
    if validation is not None:
        # ValidationState.check, inline: addr is in a RangeSet iff an odd
        # number of its edges are <= addr.
        writable = validation.write_ranges.edges()
        readable = validation.read_ranges.edges()
        violations = validation.violations
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
            if validation is not None:
                addr = regs[ra]
                if not (bisect_right(writable, addr) & 1 or (
                        x is _READ and bisect_right(readable, addr) & 1)):
                    violations.append(Violation(name, addr, x, tid))
        elif code == OP_MULI:
            regs[rd] = (regs[ra] * x) & _MASK64
        elif code == OP_LDG:
            regs[rd] = load_word(regs[ra])
        elif code == OP_BGE:
            if regs[ra] >= regs[rb]:
                pc = x
                continue
        elif code == OP_TID:
            regs[rd] = tid
        elif code == OP_EXIT:
            break
        elif code == OP_STG:
            store_word(regs[ra], regs[rb])
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

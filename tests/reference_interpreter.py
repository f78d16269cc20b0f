"""The reference interpreter: the enum-dispatch loop, kept as the oracle.

Until PR 14 this loop *was* ``repro.gpu.interpreter._run_thread``.  The
production loop now runs over :attr:`Program.decoded` (plain tuples, int
opcodes, branch targets resolved at decode time); this copy stays here,
outside ``src/``, reading :class:`Instr` fields and label strings
directly, so the differential suites (``test_property_interpreter.py``,
``test_perf_fastpath.py``) can demand that both produce the same bytes,
dirty bits, steps, violations and faults.  It is the old loop verbatim
with two changes: ``SETI`` wraps its immediate to 64 bits, the bug the
same PR fixed, and the per-access recording is gone, because nothing
under ``src/`` records accesses any more.  Do not optimise it.

:func:`observed_accesses` is the ground truth the speculation and
interpreter tests read: every global access of a launch, observed the
way PHOS observes one, through the instrumented twin.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import IsaError, KernelFault
from repro.gpu.instrument import instrument_program
from repro.gpu.interpreter import (
    AccessKind,
    KernelRun,
    ValidationState,
    Violation,
)
from repro.gpu.isa import CHK_WRITE, NUM_REGS, Op, Program
from repro.gpu.ranges import RangeSet

_MASK64 = (1 << 64) - 1


def run_kernel_reference(
    program: Program,
    args: list[int],
    n_threads: int,
    memory,
    validation: Optional[ValidationState] = None,
    max_steps: int = 100_000,
) -> KernelRun:
    """``run_kernel(..., force_interpret=True)`` on the reference loop."""
    if program.instrumented and validation is None:
        raise KernelFault(
            f"instrumented kernel {program.name!r} launched without a "
            "validation descriptor"
        )
    if n_threads <= 0:
        raise KernelFault(f"kernel {program.name!r}: n_threads must be positive")
    run = KernelRun(program=program, n_threads=n_threads)
    for tid in range(n_threads):
        run_thread_reference(
            program, args, tid, n_threads, memory, validation, run, max_steps,
        )
    return run


def observed_accesses(program: Program, args: list[int], n_threads: int,
                      memory) -> list[Violation]:
    """Every global access of a launch, in execution order.

    Runs the read-checking twin of ``program`` on the reference loop
    against empty speculated ranges, so each ``LDG``/``STG`` comes back
    as a :class:`Violation` with its address, kind and thread id.  The
    launch mutates ``memory`` exactly as ``program`` would.
    """
    validation = ValidationState(read_ranges=RangeSet(),
                                 write_ranges=RangeSet())
    run_kernel_reference(instrument_program(program, check_reads=True), args,
                         n_threads, memory, validation)
    return validation.violations


def run_thread_reference(
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
    instrs = program.instrs
    labels = program.labels
    while True:
        if steps >= max_steps:
            raise KernelFault(
                f"kernel {program.name!r} thread {tid}: exceeded "
                f"{max_steps} steps (runaway loop?)"
            )
        ins = instrs[pc]
        steps += 1
        op = ins.op
        if op is Op.EXIT:
            break
        elif op is Op.SETI:
            regs[ins.rd] = ins.imm & _MASK64
        elif op is Op.ARG:
            if not 0 <= ins.imm < len(args):
                raise KernelFault(
                    f"kernel {program.name!r}: ARG index {ins.imm} out of "
                    f"range for {len(args)} arguments"
                )
            regs[ins.rd] = int(args[ins.imm])
        elif op is Op.TID:
            regs[ins.rd] = tid
        elif op is Op.NTID:
            regs[ins.rd] = n_threads
        elif op is Op.MOV:
            regs[ins.rd] = regs[ins.ra]
        elif op is Op.ADD:
            regs[ins.rd] = (regs[ins.ra] + regs[ins.rb]) & _MASK64
        elif op is Op.SUB:
            regs[ins.rd] = (regs[ins.ra] - regs[ins.rb]) & _MASK64
        elif op is Op.MUL:
            regs[ins.rd] = (regs[ins.ra] * regs[ins.rb]) & _MASK64
        elif op is Op.MOD:
            if regs[ins.rb] == 0:
                raise KernelFault(f"kernel {program.name!r}: modulo by zero")
            regs[ins.rd] = regs[ins.ra] % regs[ins.rb]
        elif op is Op.ADDI:
            regs[ins.rd] = (regs[ins.ra] + ins.imm) & _MASK64
        elif op is Op.MULI:
            regs[ins.rd] = (regs[ins.ra] * ins.imm) & _MASK64
        elif op is Op.LDG:
            addr = regs[ins.ra]
            regs[ins.rd] = memory.load_word(addr)
        elif op is Op.STG:
            addr = regs[ins.ra]
            memory.store_word(addr, regs[ins.rb])
        elif op is Op.GLOB:
            regs[ins.rd] = program.globals_[ins.sym]
        elif op is Op.CHK:
            if validation is not None:
                kind = AccessKind.WRITE if ins.imm == CHK_WRITE else AccessKind.READ
                validation.check(program.name, regs[ins.ra], kind, tid)
        elif op in (Op.BLT, Op.BGE, Op.BEQ, Op.BNE):
            a, b = regs[ins.ra], regs[ins.rb]
            taken = {
                Op.BLT: a < b,
                Op.BGE: a >= b,
                Op.BEQ: a == b,
                Op.BNE: a != b,
            }[op]
            if taken:
                pc = labels[ins.label]
                continue
        elif op is Op.JMP:
            pc = labels[ins.label]
            continue
        else:  # pragma: no cover - exhaustive over Op
            raise IsaError(f"unhandled opcode {op}")
        pc += 1
    run.steps += steps

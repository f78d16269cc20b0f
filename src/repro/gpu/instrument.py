"""The validator instrumentation pass (Fig. 6 of the paper).

Given an opaque kernel's program, :func:`instrument_program` produces a
*twin kernel*: the same program with an address-range check (``CHK``)
inserted immediately before every global store — and, when read
validation is requested (concurrent restore, §6), before every global
load as well.  The check validates the target address against the
speculated buffer ranges carried by the launch's
:class:`~repro.gpu.interpreter.ValidationState`; failures are written to
the validation state's report buffer without disturbing the kernel.

The pass runs once per kernel binary: the twin is kept in the
program's ``twins`` field, which this module alone fills and
:class:`~repro.core.validation.TwinCache` reads, mirroring the paper's
PTX-level rewriter and its twin cache.
"""

from __future__ import annotations

from repro.gpu.isa import (
    CHK_READ,
    CHK_WRITE,
    Instr,
    Op,
    Program,
    remap_labels,
)


def instrument_program(program: Program, check_reads: bool = False) -> Program:
    """Return the instrumented twin of ``program``.

    ``check_reads`` additionally guards global loads, which the
    concurrent-restore protocol needs (it must know when a kernel reads
    a buffer outside the speculated read set).  Instrumenting an
    already-instrumented program is rejected to keep the twin cache
    honest.
    """
    if program.instrumented:
        raise ValueError(f"kernel {program.name!r} is already instrumented")
    twin = program.twins.get(check_reads)
    if twin is not None:
        return twin
    new_instrs: list[Instr] = []
    old_to_new: dict[int, int] = {}
    for idx, ins in enumerate(program.instrs):
        old_to_new[idx] = len(new_instrs)
        if ins.op is Op.STG:
            new_instrs.append(Instr(op=Op.CHK, ra=ins.ra, imm=CHK_WRITE))
        elif ins.op is Op.LDG and check_reads:
            new_instrs.append(Instr(op=Op.CHK, ra=ins.ra, imm=CHK_READ))
        new_instrs.append(ins)
    labels = remap_labels(new_instrs, old_to_new, program.labels)
    twin = program.with_instrs(new_instrs, labels, instrumented=True)
    program.twins[check_reads] = twin
    return twin


"""The validator instrumentation pass (Fig. 6 of the paper).

Given an opaque kernel's program, :func:`instrument_program` produces a
*twin kernel*: the same program with an address-range check (``CHK``)
inserted immediately before every global store — and, when read
validation is requested (concurrent restore, §6), before every global
load as well.  The check validates the target address against the
speculated buffer ranges carried by the launch's
:class:`~repro.gpu.interpreter.ValidationState`; failures are written to
the validation state's report buffer without disturbing the kernel.

The pass runs once per kernel body: the rewrite is kept in the
shared body's ``twins`` (:class:`~repro.gpu.isa.Body`), so a second
program with the same instructions gets a new twin ``Program`` — its
own name and declaration — around the same twin body, without another
rewrite or decode.  Each program keeps its twins in its own ``twins``
field, which this module alone fills and
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
    # Label names (and fields the decoder ignores) are not part of a body,
    # so the shared rewrite serves only a program with equal instructions.
    shared = program.body.twins.get(check_reads)
    if shared is not None and shared[0] == program.instrs \
            and shared[1] == program.labels:
        _, _, new_instrs, labels, twin_body = shared
    else:
        new_instrs, labels = _rewrite(program, check_reads)
        twin_body = None
    twin = program.with_instrs(new_instrs, labels, instrumented=True,
                               body=twin_body)
    if shared is None:
        program.body.twins[check_reads] = (
            program.instrs, program.labels, new_instrs, labels, twin.body)
    program.twins[check_reads] = twin
    return twin


def _rewrite(program: Program, check_reads: bool) -> tuple[list[Instr], dict[str, int]]:
    """The twin's instructions and labels: a ``CHK`` before each guarded access."""
    new_instrs: list[Instr] = []
    old_to_new: dict[int, int] = {}
    for idx, ins in enumerate(program.instrs):
        old_to_new[idx] = len(new_instrs)
        if ins.op is Op.STG:
            new_instrs.append(Instr(op=Op.CHK, ra=ins.ra, imm=CHK_WRITE))
        elif ins.op is Op.LDG and check_reads:
            new_instrs.append(Instr(op=Op.CHK, ra=ins.ra, imm=CHK_READ))
        new_instrs.append(ins)
    return new_instrs, remap_labels(new_instrs, old_to_new, program.labels)

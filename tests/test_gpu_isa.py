"""Unit tests for the ISA, builder, and program validation."""

import pytest

from repro.errors import IsaError
from repro.gpu.isa import Instr, Op, Program, ProgramBuilder
from repro.gpu.program import (
    STANDARD_BUILDERS,
    build_copy,
    build_global_writer,
    build_reduce_sum,
)


def test_builder_produces_valid_program():
    prog = build_copy()
    assert prog.name == "dev_copy"
    assert prog.instrs[-1].op is Op.EXIT
    assert not prog.instrumented


def test_program_requires_exit():
    with pytest.raises(IsaError):
        Program(name="bad", decl="void bad()", instrs=[Instr(op=Op.SETI, rd=0, imm=1)])


def test_program_requires_instructions():
    with pytest.raises(IsaError):
        Program(name="empty", decl="void empty()", instrs=[])


def test_undefined_label_rejected():
    b = ProgramBuilder("jumpy", "void jumpy()")
    b.jmp("nowhere").exit()
    with pytest.raises(IsaError):
        b.build()


def test_duplicate_label_rejected():
    b = ProgramBuilder("dup", "void dup()")
    b.label("x")
    with pytest.raises(IsaError):
        b.label("x")


def test_register_range_validated():
    with pytest.raises(IsaError):
        Instr(op=Op.SETI, rd=32, imm=0)
    with pytest.raises(IsaError):
        Instr(op=Op.ADD, rd=0, ra=0, rb=-1)


def test_undefined_global_rejected():
    b = ProgramBuilder("g", "void g()")
    b.glob(0, "missing").exit()
    with pytest.raises(IsaError):
        b.build()


def test_global_writer_declares_global():
    prog = build_global_writer("gw", "hidden", 0x1000)
    assert prog.uses_globals
    assert prog.globals_["hidden"] == 0x1000


def test_store_count():
    assert build_copy().store_count == 1
    assert build_reduce_sum().store_count == 1


def test_standard_builders_all_assemble():
    for name, builder in STANDARD_BUILDERS.items():
        prog = builder()
        assert prog.instrs[-1].op is Op.EXIT, name


def test_labels_resolve_to_positions():
    prog = build_copy()
    assert prog.labels["end"] == len(prog.instrs) - 1


def test_branch_without_label_rejected():
    with pytest.raises(IsaError, match="undefined label None"):
        Program(name="k", decl="void k()",
                instrs=[Instr(op=Op.JMP), Instr(op=Op.EXIT)])


def test_opcode_constants_follow_definition_order():
    from repro.gpu import isa

    assert [op.code for op in Op] == list(range(len(Op)))
    for op in Op:
        assert getattr(isa, f"OP_{op.name}") == op.code
    # Program.decoded and the tracer test these runs as code ranges.
    def between(lo, hi):
        return [op for op in Op if lo <= op.code <= hi]

    assert between(isa.OP_ADD, isa.OP_MUL) == [Op.ADD, Op.SUB, Op.MUL]
    assert between(isa.OP_BLT, isa.OP_BNE) == [Op.BLT, Op.BGE, Op.BEQ, Op.BNE]
    assert between(isa.OP_BLT, isa.OP_JMP) == [Op.BLT, Op.BGE, Op.BEQ, Op.BNE,
                                               Op.JMP]


def test_decoded_table_resolves_operands_once():
    from repro.gpu.instrument import instrument_program
    from repro.gpu.isa import AccessKind

    b = ProgramBuilder("k", "void k(long* y)", globals_={"g": 4096})
    b.seti(1, -1).addi(2, 1, -8).glob(3, "g").label("top")
    b.ldg(4, 3).stg(3, 4).blt(1, 2, "top").jmp("end").label("end").exit()
    prog = instrument_program(b.build(), check_reads=True)
    assert [(ins.op.name, t[4])
            for ins, t in zip(prog.instrs, prog.decoded)] == [
        ("SETI", 2**64 - 1),      # wrapped at decode time
        ("ADDI", -8),             # other immediates stay as written
        ("GLOB", "g"),            # looked up in globals_ when executed
        ("CHK", AccessKind.READ), ("LDG", 0),
        ("CHK", AccessKind.WRITE), ("STG", 0),
        ("BLT", 3), ("JMP", 9),   # labels -> pcs of the *twin*
        ("EXIT", 0),
    ]
    assert [t[0] for t in prog.decoded] == [i.op.code for i in prog.instrs]
    assert prog.decoded is prog.decoded          # built once, cached
    assert prog.decoded[7][:4] == (Op.BLT.code, 0, 1, 2)


def test_decoded_table_survives_pickling():
    import pickle

    prog = build_reduce_sum()
    table = prog.decoded
    clone = pickle.loads(pickle.dumps(prog))
    assert clone == prog and clone.decoded == table

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
    for prog in (build_copy(), build_reduce_sum()):
        assert [ins.op for ins in prog.instrs].count(Op.STG) == 1


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


def test_derived_state_survives_pickling_and_stays_out_of_repr():
    """A program with a compiled plan, a twin and a parsed signature
    pickles to an equal program that shares its body (plans included);
    none of those caches is in ``repr``."""
    import pickle

    from repro.core.signatures import program_signature
    from repro.gpu.instrument import instrument_program
    from repro.gpu.interpreter import run_kernel
    from repro.gpu.memory import DeviceMemory
    from repro.units import MIB

    mem = DeviceMemory(capacity=4 * MIB, default_data_size=512)
    x, y = mem.alloc(512), mem.alloc(512)
    prog = build_copy()
    run_kernel(prog, [x.addr, y.addr, 8], n_threads=8, memory=mem)
    twin = instrument_program(prog)
    program_signature(prog)
    assert prog.body.plans and prog.twins == {False: twin} and prog.signature
    clone = pickle.loads(pickle.dumps(prog))
    assert clone == prog and clone.decoded == prog.decoded
    assert clone.body is prog.body
    assert repr(clone) == repr(prog)
    for derived in ("decoded", "uses_globals", "twins", "signature", "plans",
                    "body"):
        assert f"{derived}=" not in repr(prog)


@pytest.mark.parametrize("instrs, labels, message", [
    ([], {}, "kernel 'k' has no instructions"),
    ([Instr(op=Op.JMP, label="end")], {"end": 1}, "kernel 'k' must end with EXIT"),
    ([Instr(op=Op.SETI), Instr(op=Op.BNE, label="top"), Instr(op=Op.EXIT)], {},
     "kernel 'k' pc=1: undefined label 'top'"),
    ([Instr(op=Op.GLOB, sym="hidden"), Instr(op=Op.JMP, label="top"),
      Instr(op=Op.EXIT)], {},
     "kernel 'k' pc=0: undefined global 'hidden'"),
], ids=["empty", "no-exit", "undefined-label", "undefined-global"])
def test_construction_errors_keep_their_messages(instrs, labels, message):
    with pytest.raises(IsaError) as err:
        Program(name="k", decl="void k()", instrs=instrs, labels=labels)
    assert str(err.value) == message


def test_construction_walks_the_body_once():
    """Validation, ``decoded`` and ``uses_globals`` come from one walk."""
    class Body(list):
        walks = 0

        def __iter__(self):
            Body.walks += 1
            return super().__iter__()

    prog = build_reduce_sum()
    clone = Program(name=prog.name, decl=prog.decl, instrs=Body(prog.instrs),
                    labels=prog.labels)
    assert clone.decoded == prog.decoded and not clone.uses_globals
    assert Body.walks == 1

"""A mini PTX-like instruction set for simulated GPU kernels.

Kernels in this repository are real programs: a per-thread register
machine whose global loads and stores hit real buffer bytes.  The ISA is
deliberately tiny but sufficient to express the kernels the paper cares
about — elementwise updates, strided reductions, gathers through index
buffers (the indirect-access speculation hazard), and loads through
module-global pointers (the Rodinia speculation failure of §8.5).

Instruction summary (registers are ``r0..r31``; values are 64-bit ints):

=========  =====================================================
``SETI``   ``rd = imm``
``ARG``    ``rd = kernel_argument[imm]``
``TID``    ``rd = linear thread id``
``NTID``   ``rd = total thread count``
``MOV``    ``rd = ra``
``ADD``    ``rd = ra + rb``  (likewise ``SUB``, ``MUL``)
``ADDI``   ``rd = ra + imm`` (likewise ``MULI``)
``MOD``    ``rd = ra % rb``
``LDG``    ``rd = memory[ra]`` (8-byte global load, address in ra)
``STG``    ``memory[ra] = rb`` (8-byte global store)
``GLOB``   ``rd = module_global[sym]`` — the speculation hazard:
           loads a pointer the OS never sees in the argument list
``BLT``    ``if ra < rb: jump label`` (likewise ``BGE``, ``BEQ``, ``BNE``)
``JMP``    unconditional jump
``CHK``    instrumentation-only: validate the address in ``ra``
           against the speculated ranges for access kind ``imm``
``EXIT``   end the thread
=========  =====================================================

``CHK`` never appears in application programs — it is inserted by the
validator instrumentation pass (:mod:`repro.gpu.instrument`), producing
the "twin kernel" of Fig. 6 in the paper.

Execution never looks at :class:`Instr` objects.  :attr:`Program.decoded`
is the program as a list of plain ``(code, rd, ra, rb, x)`` tuples —
``code`` one of the ``OP_*`` ints below, ``x`` the immediate, the
resolved branch-target pc, the global symbol or a ``CHK``'s
:class:`AccessKind` — read by both the interpreter and the plan tracer.

What is derived from a kernel body is compiled once per *content*, not
once per ``Program``.  One walk at construction validates the body and
builds its decoded table; the table plus ``globals_`` is the key of a
:class:`Body`, interned in a weak-valued table, so every program with
that content shares one ``Body``: ``decoded``, ``uses_globals``, the
compiled ``plans`` (filled by :mod:`repro.perf.plans`) and the
instrumented twin bodies by ``check_reads`` (filled by
:mod:`repro.gpu.instrument`).  The table holds no body alive: a body
lives exactly as long as some program (or the body it is the twin of)
refers to it.  What names a kernel stays on the ``Program``: ``name``,
``decl``, its ``signature`` (:mod:`repro.core.signatures`) and its twin
``Program`` objects (``twins``), so each launch, ``Violation`` and
instrumentation count still names its own kernel.  These caches are
fields out of ``repr`` and ``==``.  One invariant: **a ``Program`` and
its ``Body`` are immutable once built**.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import InitVar, dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.errors import IsaError

if TYPE_CHECKING:
    from repro.core.signatures import Signature

#: Number of general-purpose registers per thread.
NUM_REGS = 32


class Op(enum.Enum):
    """Opcodes of the mini ISA; ``op.code`` numbers them in definition order."""

    def __new__(cls, mnemonic: str) -> "Op":
        op = object.__new__(cls)
        op._value_ = mnemonic
        op.code = len(cls.__members__)
        return op

    SETI = "seti"
    ARG = "arg"
    TID = "tid"
    NTID = "ntid"
    MOV = "mov"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    MOD = "mod"
    ADDI = "addi"
    MULI = "muli"
    LDG = "ldg"
    STG = "stg"
    GLOB = "glob"
    BLT = "blt"
    BGE = "bge"
    BEQ = "beq"
    BNE = "bne"
    JMP = "jmp"
    CHK = "chk"
    EXIT = "exit"


#: ``Op.X.code`` as module constants, for int dispatch over decoded tuples.
#: Dispatch tests three runs of them as ranges: ``OP_ADD..OP_MUL``,
#: ``OP_BLT..OP_BNE`` (compare-and-branch) and ``OP_BLT..OP_JMP`` (branches).
(OP_SETI, OP_ARG, OP_TID, OP_NTID, OP_MOV, OP_ADD, OP_SUB, OP_MUL, OP_MOD,
 OP_ADDI, OP_MULI, OP_LDG, OP_STG, OP_GLOB, OP_BLT, OP_BGE, OP_BEQ, OP_BNE,
 OP_JMP, OP_CHK, OP_EXIT) = range(len(Op))

_MASK64 = (1 << 64) - 1

#: Access kinds used by ``CHK``'s ``imm`` field.
CHK_READ = 0
CHK_WRITE = 1


class AccessKind(enum.Enum):
    """Kind of a recorded global-memory access."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class Instr:
    """One instruction.  Unused fields stay at their defaults."""

    op: Op
    rd: int = 0
    ra: int = 0
    rb: int = 0
    imm: int = 0
    label: Optional[str] = None
    sym: Optional[str] = None

    def __post_init__(self) -> None:
        for reg in (self.rd, self.ra, self.rb):
            if not 0 <= reg < NUM_REGS:
                raise IsaError(f"register r{reg} out of range in {self.op}")


class Body:
    """What a kernel body compiles to, shared by every program with its content.

    Built by :func:`_intern_body` only.  ``decoded`` is the body as
    ``(code, rd, ra, rb, x)`` tuples (module docstring); ``plans`` are
    the compiled plans by ``(n_threads, len(args))``; ``twins`` maps
    ``check_reads`` to ``(instrs, labels, twin instrs, twin labels, twin
    body)``, the rewrite of the first program instrumented with this body.
    """

    __slots__ = ("decoded", "uses_globals", "plans", "twins", "__weakref__")

    def __init__(self, decoded: list[tuple], uses_globals: bool) -> None:
        self.decoded = decoded
        #: True when the body reads module globals (speculation hazard).
        self.uses_globals = uses_globals
        self.plans: dict = {}
        self.twins: dict[bool, tuple] = {}


#: Every live body, by its decoded table and module globals.
_bodies: "weakref.WeakValueDictionary[tuple, Body]" = weakref.WeakValueDictionary()


def _intern_body(decoded: list[tuple], uses_globals: bool, globals_: dict[str, int]) -> Body:
    """The one live :class:`Body` for this content, made on first sight."""
    key = (tuple(decoded), tuple(sorted(globals_.items())))
    body = _bodies.get(key)
    if body is None:
        body = _bodies[key] = Body(decoded, uses_globals)
    return body


@dataclass
class Program:
    """An assembled kernel program.

    ``decl`` is the kernel's C declaration string — the signature PHOS
    extracts with its clang-equivalent parser for speculation.
    ``globals_`` maps module-global symbol names to device addresses;
    kernels read them with ``GLOB`` (invisible to argument speculation).
    ``body`` is the shared :class:`Body` of this content.  Only
    instrumentation passes ``shared_body``, a body it knows matches
    ``instrs``; ``dataclasses.replace`` never carries it over.
    """

    name: str
    decl: str
    instrs: list[Instr]
    labels: dict[str, int] = field(default_factory=dict)
    globals_: dict[str, int] = field(default_factory=dict)
    instrumented: bool = False
    shared_body: InitVar[Optional[Body]] = None
    body: Body = field(init=False, repr=False, compare=False)
    #: Instrumented twins by ``check_reads``.
    twins: dict[bool, Program] = field(default_factory=dict, init=False, repr=False, compare=False)
    #: The parsed ``decl``, None when it does not parse; unset until asked.
    signature: Optional[Signature] = field(init=False, repr=False, compare=False)

    def __post_init__(self, shared_body: Optional[Body]) -> None:
        """One walk: validate, resolve branch targets to pcs and wrap
        ``SETI`` immediates to 64 bits, so no executed instruction pays;
        then share the body of any live program with the same content."""
        if shared_body is not None:
            self.body = shared_body
            return
        name, labels, globals_ = self.name, self.labels, self.globals_
        if not self.instrs:
            raise IsaError(f"kernel {name!r} has no instructions")
        if self.instrs[-1].op is not Op.EXIT:
            raise IsaError(f"kernel {name!r} must end with EXIT")
        table = []
        uses_globals = False
        for pc, ins in enumerate(self.instrs):
            code = ins.op.code
            if OP_BLT <= code <= OP_JMP:
                if ins.label not in labels:
                    raise IsaError(
                        f"kernel {name!r} pc={pc}: undefined label {ins.label!r}")
                x = labels[ins.label]
            elif code == OP_GLOB:
                if ins.sym not in globals_:
                    raise IsaError(
                        f"kernel {name!r} pc={pc}: undefined global {ins.sym!r}")
                x = ins.sym
                uses_globals = True
            elif code == OP_CHK:
                x = AccessKind.WRITE if ins.imm == CHK_WRITE else AccessKind.READ
            elif code == OP_SETI:
                x = ins.imm & _MASK64
            else:
                x = ins.imm
            table.append((code, ins.rd, ins.ra, ins.rb, x))
        self.body = _intern_body(table, uses_globals, globals_)

    @property
    def decoded(self) -> list[tuple]:
        """The body as ``(code, rd, ra, rb, x)`` tuples (module docstring)."""
        return self.body.decoded

    @property
    def uses_globals(self) -> bool:
        """True when the body reads module globals (speculation hazard)."""
        return self.body.uses_globals

    def with_instrs(self, instrs: list[Instr], labels: dict[str, int], *,
                    instrumented: bool, body: Optional[Body] = None) -> "Program":
        """A copy of this program with a rewritten body (used by instrumentation)."""
        return Program(
            name=self.name,
            decl=self.decl,
            instrs=instrs,
            labels=labels,
            globals_=dict(self.globals_),
            instrumented=instrumented,
            shared_body=body,
        )

    def __reduce__(self):
        """Pickle the source only; loading re-walks it and re-interns the body."""
        return Program, (self.name, self.decl, self.instrs, self.labels,
                         self.globals_, self.instrumented)

    def __len__(self) -> int:
        return len(self.instrs)


class ProgramBuilder:
    """Fluent builder that assembles a :class:`Program` with symbolic labels.

    Example — ``y[i] = x[i] * 2`` over all threads::

        b = ProgramBuilder("scale2", "__global__ void scale2(const long* x, long* y)")
        b.arg(0, 0).arg(1, 1).tid(2)
        b.muli(3, 2, 8)             # byte offset = tid * 8
        b.add(4, 0, 3).add(5, 1, 3)
        b.ldg(6, 4).muli(6, 6, 2).stg(5, 6)
        prog = b.exit().build()
    """

    def __init__(self, name: str, decl: str, globals_: Optional[dict[str, int]] = None) -> None:
        self.name = name
        self.decl = decl
        self.globals_ = dict(globals_ or {})
        self._instrs: list[Instr] = []
        self._labels: dict[str, int] = {}

    # -- emit helpers ----------------------------------------------------------
    def _emit(self, **kw) -> "ProgramBuilder":
        self._instrs.append(Instr(**kw))
        return self

    def seti(self, rd: int, imm: int) -> "ProgramBuilder":
        return self._emit(op=Op.SETI, rd=rd, imm=imm)

    def arg(self, rd: int, index: int) -> "ProgramBuilder":
        return self._emit(op=Op.ARG, rd=rd, imm=index)

    def tid(self, rd: int) -> "ProgramBuilder":
        return self._emit(op=Op.TID, rd=rd)

    def ntid(self, rd: int) -> "ProgramBuilder":
        return self._emit(op=Op.NTID, rd=rd)

    def mov(self, rd: int, ra: int) -> "ProgramBuilder":
        return self._emit(op=Op.MOV, rd=rd, ra=ra)

    def add(self, rd: int, ra: int, rb: int) -> "ProgramBuilder":
        return self._emit(op=Op.ADD, rd=rd, ra=ra, rb=rb)

    def sub(self, rd: int, ra: int, rb: int) -> "ProgramBuilder":
        return self._emit(op=Op.SUB, rd=rd, ra=ra, rb=rb)

    def mul(self, rd: int, ra: int, rb: int) -> "ProgramBuilder":
        return self._emit(op=Op.MUL, rd=rd, ra=ra, rb=rb)

    def mod(self, rd: int, ra: int, rb: int) -> "ProgramBuilder":
        return self._emit(op=Op.MOD, rd=rd, ra=ra, rb=rb)

    def addi(self, rd: int, ra: int, imm: int) -> "ProgramBuilder":
        return self._emit(op=Op.ADDI, rd=rd, ra=ra, imm=imm)

    def muli(self, rd: int, ra: int, imm: int) -> "ProgramBuilder":
        return self._emit(op=Op.MULI, rd=rd, ra=ra, imm=imm)

    def ldg(self, rd: int, ra: int) -> "ProgramBuilder":
        return self._emit(op=Op.LDG, rd=rd, ra=ra)

    def stg(self, ra: int, rb: int) -> "ProgramBuilder":
        return self._emit(op=Op.STG, ra=ra, rb=rb)

    def glob(self, rd: int, sym: str) -> "ProgramBuilder":
        return self._emit(op=Op.GLOB, rd=rd, sym=sym)

    def blt(self, ra: int, rb: int, label: str) -> "ProgramBuilder":
        return self._emit(op=Op.BLT, ra=ra, rb=rb, label=label)

    def bge(self, ra: int, rb: int, label: str) -> "ProgramBuilder":
        return self._emit(op=Op.BGE, ra=ra, rb=rb, label=label)

    def beq(self, ra: int, rb: int, label: str) -> "ProgramBuilder":
        return self._emit(op=Op.BEQ, ra=ra, rb=rb, label=label)

    def bne(self, ra: int, rb: int, label: str) -> "ProgramBuilder":
        return self._emit(op=Op.BNE, ra=ra, rb=rb, label=label)

    def jmp(self, label: str) -> "ProgramBuilder":
        return self._emit(op=Op.JMP, label=label)

    def exit(self) -> "ProgramBuilder":
        return self._emit(op=Op.EXIT)

    def label(self, name: str) -> "ProgramBuilder":
        """Define a label at the next instruction's position."""
        if name in self._labels:
            raise IsaError(f"duplicate label {name!r} in kernel {self.name!r}")
        self._labels[name] = len(self._instrs)
        return self

    def build(self) -> Program:
        """Assemble and validate the program."""
        return Program(
            name=self.name,
            decl=self.decl,
            instrs=list(self._instrs),
            labels=dict(self._labels),
            globals_=dict(self.globals_),
        )


def remap_labels(instrs: list[Instr], old_to_new: dict[int, int], labels: dict[str, int]) -> dict[str, int]:
    """Recompute label positions after instruction insertion.

    ``old_to_new`` maps each original instruction index to its index in
    the rewritten body.  A label that pointed one past the end keeps
    pointing one past the new end.
    """
    new_labels: dict[str, int] = {}
    for name, pos in labels.items():
        if pos in old_to_new:
            new_labels[name] = old_to_new[pos]
        else:  # label at the original end
            new_labels[name] = len(instrs)
    return new_labels


__all__ = [
    "AccessKind",
    "Body",
    "CHK_READ",
    "CHK_WRITE",
    "Instr",
    "NUM_REGS",
    "Op",
    "Program",
    "ProgramBuilder",
    "remap_labels",
    "replace",
]

"""Differential property suite: the decoded loop vs. the reference oracle.

``repro.gpu.interpreter._run_thread`` runs over ``Program.decoded`` —
int opcodes, pre-resolved branch targets, a pre-masked ``SETI``.  The
loop it replaced lives on in ``tests/reference_interpreter.py`` and
reads ``Instr`` fields and label strings directly, so the two share no
decode.  This suite generates random launches — all 21 opcodes, forward
and backward branches, counted loops, raw and pass-inserted ``CHK``,
arguments that point into buffers, past them and nowhere, bad ``ARG``
indices, zero divisors, step budgets tight enough to trip mid-program —
runs each on both loops against identically seeded memory, and demands
the same *everything*: buffer bytes, dirty bits, step count, violation
list, and on a fault the same exception type and message with the same
partial side effects.  Neither loop records accesses; the instrumented
twins (raw and pass-inserted ``CHK``) are what observe them.

Mutation-checked: swapping ``BLT``/``BGE`` in the decoded loop, dropping
its budget check, and resolving labels off by one in
``Program.decoded`` each fail this file, with the access logs gone too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.instrument import instrument_program
from repro.gpu.interpreter import KernelRun, ValidationState, _run_thread
from repro.gpu.isa import CHK_READ, CHK_WRITE, Instr, Op, Program
from repro.gpu.memory import DeviceMemory
from repro.gpu.ranges import RangeSet
from repro.units import MIB
from tests.reference_interpreter import run_thread_reference

N_BUFS = 3
N_WORDS = 16

#: Random instructions draw registers from a small pool so values flow
#: from one instruction into the next; r6/r7 belong to the counted loop.
POOL = range(6)
LOOP_COUNTER, LOOP_ZERO = 6, 7

IMMS = [0, 1, 2, 3, 8, 16, -1, -8, 2**63, 2**64 - 1, 2**64 + 5, -(2**64) - 3]
BRANCHES = [Op.BLT, Op.BGE, Op.BEQ, Op.BNE, Op.JMP]
PLAIN = [op for op in Op if op not in BRANCHES]


@dataclass
class Launch:
    program: Program
    args: list
    n_threads: int
    max_steps: int
    words: list          # initial contents, N_BUFS x N_WORDS
    ranges: Optional[tuple]  # (read, write) range lists, or None


def fresh_memory(words):
    """The launch's memory: same addresses and contents every call."""
    mem = DeviceMemory(capacity=16 * MIB, default_data_size=8 * N_WORDS)
    bufs = [mem.alloc(8 * N_WORDS, tag=f"b{i}") for i in range(N_BUFS)]
    for buf, row in zip(bufs, words):
        for i, w in enumerate(row):
            buf.store_word(buf.addr + 8 * i, w)
        buf.hw_dirty = False
    return mem, bufs


def _random_instrs(rng, labels, n_args):
    rd, ra, rb = (rng.choice(POOL) for _ in range(3))
    ins = _random_instr(rng, labels, n_args, rd, ra, rb)
    if ins.op in BRANCHES or rng.random() < 0.7:
        return [ins]
    # A probe of the register just written: one that escaped 64-bit wrap
    # (negative, or past 2**64) stores the same bytes as its wrapped
    # self, but not the same residue.  r5 is this thread's word of the
    # second buffer.
    return [ins,
            Instr(Op.SETI, rd=LOOP_ZERO, imm=1_000_003),
            Instr(Op.MOD, rd=LOOP_ZERO, ra=rd, rb=LOOP_ZERO),
            Instr(Op.STG, ra=5, rb=LOOP_ZERO)]


def _random_instr(rng, labels, n_args, rd, ra, rb):
    op = rng.choice(PLAIN + BRANCHES) if labels else rng.choice(PLAIN)
    if op is Op.GLOB and rng.random() < 0.85:
        op = Op.MOV  # one GLOB bars the whole program from the plan tier
    if op in BRANCHES:
        return Instr(op=op, ra=ra, rb=rb, label=rng.choice(labels))
    if op is Op.GLOB:
        return Instr(op=op, rd=rd, sym="g")
    if op is Op.ARG:
        bad = n_args == 0 or rng.random() < 0.1
        return Instr(op=op, rd=rd, imm=rng.randrange(-1, n_args + 2) if bad
                     else rng.randrange(n_args))
    if op in (Op.LDG, Op.STG) and rng.random() < 0.7:
        ra = rng.choice([1, 2, 4, 5])  # the prologue's addresses
    if op is Op.MOD and rng.random() < 0.7:
        rb = LOOP_COUNTER  # non-zero until the counted loop has run
    if op is Op.CHK:
        return Instr(op=op, ra=ra, imm=rng.choice([CHK_READ, CHK_WRITE, 7]))
    return Instr(op=op, rd=rd, ra=ra, rb=rb, imm=rng.choice(IMMS))


def random_launch(rng) -> Launch:
    """One random launch; ``rng`` is a ``random.Random`` or hypothesis's."""
    _, bufs = fresh_memory([[0] * N_WORDS] * N_BUFS)
    addrs = [b.addr for b in bufs]
    n_threads = rng.randrange(1, 5)

    interesting = addrs + [addrs[0] + 8 * (N_WORDS - 1), addrs[1] + 4,
                           bufs[-1].end, 0, 1, 2, 8, 0xDEAD0000, 2**64 + 8]
    args = [rng.choice(interesting)
            for _ in range(rng.choice([0, 1, 2, 3, 3, 4, 4, 5]))]
    if rng.random() < 0.8:
        args[:2] = addrs[:len(args[:2])]

    labels = [f"L{i}" for i in range(rng.randrange(0, 4))]
    instrs = [Instr(Op.SETI, rd=LOOP_COUNTER, imm=3)]
    if rng.random() < (0.9 if len(args) >= 2 else 0.2):
        # r1/r2 = two buffer bases (when args cooperate), r4/r5 = this
        # thread's word in each: LDG/STG through them mostly succeed.
        instrs += [Instr(Op.ARG, rd=1, imm=0), Instr(Op.ARG, rd=2, imm=1),
                   Instr(Op.TID, rd=3), Instr(Op.MULI, rd=3, ra=3, imm=8),
                   Instr(Op.ADD, rd=4, ra=1, rb=3),
                   Instr(Op.ADD, rd=5, ra=2, rb=3)]
    body = [ins for _ in range(rng.randrange(0, 14))
            for ins in _random_instrs(rng, labels, len(args))]
    if rng.random() < 0.5:
        # A counted loop around a slice of the body: a backward branch
        # that terminates whatever the slice does to the pool registers.
        lo = rng.randrange(0, len(body) + 1)
        hi = rng.randrange(lo, len(body) + 1)
        labels.append("loop")
        body[lo:hi] = (
            [Instr(Op.SETI, rd=LOOP_COUNTER, imm=rng.randrange(1, 4)), "loop"]
            + body[lo:hi]
            + [Instr(Op.ADDI, rd=LOOP_COUNTER, ra=LOOP_COUNTER, imm=-1),
               Instr(Op.SETI, rd=LOOP_ZERO, imm=0),
               Instr(Op.BNE, ra=LOOP_COUNTER, rb=LOOP_ZERO, label="loop")])
    positions = {}
    for item in body:
        if item == "loop":
            positions["loop"] = len(instrs)
        else:
            instrs.append(item)
    instrs.append(Instr(Op.EXIT))
    for name in labels:
        # Anywhere in the body, forward or backward of its branches; one
        # past the end is legal to assemble and faults when jumped to.
        positions.setdefault(name, rng.randrange(0, len(instrs) + 1))
    program = Program(name="fuzz", decl="__global__ void fuzz(long* a, long* b)",
                      instrs=instrs, labels=positions,
                      globals_={"g": rng.choice(interesting)})

    ranges = None
    if rng.random() < 0.7:
        def some_ranges():
            out = []
            for _ in range(rng.randrange(0, 3)):
                lo = rng.choice(addrs) + 8 * rng.randrange(0, N_WORDS)
                out.append((lo, lo + 8 * rng.randrange(1, N_WORDS + 1)))
            return out
        ranges = (some_ranges(), some_ranges())
        if rng.random() < 0.7:
            program = instrument_program(program,
                                         check_reads=rng.random() < 0.5)
    return Launch(
        program=program, args=args, n_threads=n_threads,
        max_steps=rng.choice([1, 5, 12, 40, 40, 200, 200, 1000]),
        words=[[rng.choice([0, 1, 5, 2**64 - 1, rng.randrange(2**40)])
                for _ in range(N_WORDS)] for _ in range(N_BUFS)],
        ranges=ranges,
    )


def fresh_state(launch: Launch):
    """``(memory, buffers, validation state or None)`` for one run of it."""
    mem, bufs = fresh_memory(launch.words)
    validation = None
    if launch.ranges is not None:
        validation = ValidationState(read_ranges=RangeSet(launch.ranges[0]),
                                     write_ranges=RangeSet(launch.ranges[1]))
    return mem, bufs, validation


def observe(thread_fn, launch: Launch) -> dict:
    """Run every thread through ``thread_fn``; everything observable."""
    mem, bufs, validation = fresh_state(launch)
    run = KernelRun(program=launch.program, n_threads=launch.n_threads)
    fault = None
    try:
        for tid in range(launch.n_threads):
            thread_fn(launch.program, launch.args, tid, launch.n_threads, mem,
                      validation, run, launch.max_steps)
    except Exception as exc:  # the fault is part of the observable result
        fault = (type(exc), str(exc))
    return {
        "fault": fault,
        "bytes": [b.snapshot() for b in bufs],
        "dirty": [b.hw_dirty for b in bufs],
        "steps": run.steps,
        "violations": None if validation is None else validation.violations,
    }


def assert_loops_agree(launch: Launch) -> None:
    assert observe(_run_thread, launch) == observe(run_thread_reference, launch)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_decoded_loop_matches_reference_oracle(rng):
    """Hypothesis drives the generator: edge-biased draws, shrinkable."""
    assert_loops_agree(random_launch(rng))


def test_decoded_loop_matches_reference_oracle_on_a_seed_sweep():
    """Uniform draws, enough of them that a slip in any one opcode (a
    missing mask, an off-by-one bound) meets a program that shows it —
    see the module docstring's mutation list."""
    for seed in range(3000):
        assert_loops_agree(random_launch(random.Random(seed)))


def test_generator_reaches_every_opcode_and_outcome():
    """The suite is only as good as its generator: check its coverage."""
    ops, faults, clean, violations = set(), set(), 0, 0
    for seed in range(300):
        launch = random_launch(random.Random(seed))
        ops.update(ins.op for ins in launch.program.instrs)
        seen = observe(run_thread_reference, launch)
        if seen["fault"] is None:
            clean += 1
        else:
            faults.add((seen["fault"][0].__name__,
                        seen["fault"][1].split(":")[-1].split()[0]))
        violations += bool(seen["violations"])
    assert ops == set(Op)
    assert clean >= 30 and violations >= 10
    kinds = {name for name, _ in faults}
    assert {"KernelFault", "InvalidAddressError", "IndexError"} <= kinds
    assert {("KernelFault", "exceeded"), ("KernelFault", "ARG"),
            ("KernelFault", "modulo")} <= faults

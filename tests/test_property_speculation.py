"""Differential property suite: table-driven opaque speculation vs. its oracle.

``repro.core.speculation._speculate_opaque`` reads the pointer table a
kernel's :class:`~repro.core.signatures.Signature` derives once
(``Signature.pointers``).  The oracle below is the derivation it
replaced, copied in its decisions: walk every parameter, skip scalars,
resolve each pointer argument, deduplicate by buffer id into the write
set (mutable pointers) or the read set (const pointers), and fall back
to the conservative every-chunk mode for a struct parameter, an
unparseable declaration or an argument count that does not match.

Random signatures mix scalar, const-pointer, mutable-pointer and struct
parameters; random arguments point at buffer starts, into buffer
interiors, at nothing, twice at one buffer, and at scalars that collide
with an address.  Both sides must return equal ``SpeculatedSets``: the
same buffers in the same order, the same ``opaque`` and
``conservative`` flags.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.calls import ApiCall, ApiCategory
from repro.core.signatures import ParamKind, program_signature
from repro.core.speculation import SpeculatedSets, _speculate_opaque
from repro.core.tracker import BufferTable
from repro.gpu.isa import Instr, Op, Program
from repro.gpu.memory import DeviceMemory
from repro.units import MIB

PARAMS = {
    "scalar": ["long n", "int k", "unsigned long", "size_t len"],
    "const": ["const long* x", "long const* y", "const float *in"],
    "mut": ["long* out", "float* const z", "double *acc"],
    "struct": ["struct Params p", "struct Cfg"],
}


def oracle(call: ApiCall, table: BufferTable) -> SpeculatedSets:
    """The per-parameter derivation, as speculation did it before."""
    sig = program_signature(call.program)
    args = tuple(call.args)

    def add(bufs, buf):
        if all(b.id != buf.id for b in bufs):
            bufs.append(buf)

    if sig is None or any(p.kind is ParamKind.STRUCT for p in sig.params) \
            or len(sig) != len(args):
        bufs = []
        for arg in args:
            buf = table.resolve(int(arg))
            if buf is not None:
                add(bufs, buf)
        return SpeculatedSets(tuple(bufs), tuple(bufs), opaque=True,
                              conservative=True)
    writes, reads = [], []
    for param, arg in zip(sig.params, args):
        if param.kind is ParamKind.SCALAR:
            continue
        buf = table.resolve(int(arg))
        if buf is None:
            continue
        if param.kind is ParamKind.MUT_PTR:
            add(writes, buf)
        elif param.kind is ParamKind.CONST_PTR:
            add(reads, buf)
    return SpeculatedSets(tuple(writes), tuple(reads), opaque=True)


def random_launch(rng):
    mem = DeviceMemory(capacity=64 * MIB, default_data_size=64)
    table = BufferTable(gpu_index=0)
    bufs = [mem.alloc(rng.choice([256, 512, 4096])) for _ in range(4)]
    for buf in bufs[:3]:
        table.register(buf)  # the fourth is live but not in the table
    kinds = [rng.choice(["scalar", "const", "mut", "mut", "const"])
             for _ in range(rng.randint(0, 6))]
    if rng.random() < 0.15:
        kinds.insert(rng.randint(0, len(kinds)), "struct")
    params = [rng.choice(PARAMS[kind]) for kind in kinds]
    decl = f"__global__ void k({', '.join(params)})"
    if rng.random() < 0.05:
        decl = "not a kernel declaration"
    n_args = len(params) + (rng.choice([-1, 1]) if rng.random() < 0.1
                            else 0)

    def arg():
        roll = rng.random()
        buf = rng.choice(bufs)
        if roll < 0.4:
            return buf.addr
        if roll < 0.6:
            return buf.addr + rng.randrange(buf.size)  # an interior
        if roll < 0.7:
            return buf.end  # one past: no buffer
        if roll < 0.85:
            return rng.randrange(64)  # a small scalar
        return rng.getrandbits(64)

    args = [arg() for _ in range(max(n_args, 0))]
    if len(args) > 1 and rng.random() < 0.3:
        args[rng.randrange(len(args))] = args[0]  # one buffer twice
    program = Program(name="k", decl=decl, instrs=[Instr(Op.EXIT)])
    call = ApiCall(ApiCategory.OPAQUE_KERNEL, "k", 0, program=program,
                   args=args, n_threads=1)
    return call, table


def check(rng):
    call, table = random_launch(rng)
    want = oracle(call, table)
    got = _speculate_opaque(call, table)
    assert got == want
    assert [b.id for b in got.writes] == [b.id for b in want.writes]
    assert [b.id for b in got.reads] == [b.id for b in want.reads]
    # A repeat is served from the table's slot, equal and shared.
    assert _speculate_opaque(call, table) is got
    return got


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_table_driven_speculation_matches_the_per_parameter_oracle(rng):
    check(rng)


def test_table_driven_speculation_matches_on_a_seed_sweep():
    seen = {"conservative": 0, "precise": 0, "write": 0, "read": 0}
    for seed in range(2000):
        sets = check(random.Random(seed))
        seen["conservative" if sets.conservative else "precise"] += 1
        seen["write"] += bool(sets.writes) and not sets.conservative
        seen["read"] += bool(sets.reads) and not sets.conservative
    assert all(seen.values()), seen

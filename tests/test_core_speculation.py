"""Unit tests for argument-based speculation against the buffer table."""

import pytest

from repro.api.calls import ApiCall, ApiCategory
from repro.core.speculation import speculate_call
from repro.core.tracker import BufferTable
from repro.errors import CheckpointError
from repro.gpu.interpreter import AccessKind
from repro.gpu.memory import DeviceMemory
from repro.gpu.ranges import RangeSet
from repro.gpu.program import (
    build_copy,
    build_fill,
    build_gather,
    build_global_writer,
    build_saxpy,
    build_scatter,
    build_struct_kernel,
)
from repro.units import MIB
from tests.reference_interpreter import observed_accesses


@pytest.fixture
def mem():
    return DeviceMemory(capacity=64 * MIB, default_data_size=512)


@pytest.fixture
def table(mem):
    return BufferTable(gpu_index=0)


def alloc(mem, table, size=512, tag=""):
    buf = mem.alloc(size, tag=tag)
    table.register(buf)
    return buf


def opaque(program, args, n_threads=4):
    return ApiCall(
        ApiCategory.OPAQUE_KERNEL, program.name, 0,
        program=program, args=args, n_threads=n_threads,
    )


# --- buffer table -----------------------------------------------------------


def test_table_resolve(mem, table):
    a = alloc(mem, table)
    b = alloc(mem, table)
    assert table.resolve(a.addr + 8) is a
    assert table.resolve(b.addr) is b
    assert table.resolve(b.end) is None


def test_table_double_register_rejected(mem, table):
    a = alloc(mem, table)
    with pytest.raises(CheckpointError):
        table.register(a)


def test_table_unregister(mem, table):
    a = alloc(mem, table)
    table.unregister(a)
    assert table.resolve(a.addr) is None
    with pytest.raises(CheckpointError):
        table.unregister(a)


def test_table_total_bytes(mem, table):
    alloc(mem, table, 512)
    alloc(mem, table, 512)
    assert table.total_bytes() == 1024


def test_table_total_bytes_tracks_unregister(mem, table):
    # The total is a running counter (O(1) on the checkpoint hot path):
    # it must stay exact through register/unregister churn.
    a = alloc(mem, table, 512)
    b = alloc(mem, table, 256)
    table.unregister(a)
    assert table.total_bytes() == 256
    table.register(a)
    assert table.total_bytes() == 768
    table.unregister(a)
    table.unregister(b)
    assert table.total_bytes() == 0


# --- declared semantics (types 1-3) -----------------------------------------


def test_memcpy_uses_declared_sets(mem, table):
    dst = alloc(mem, table)
    call = ApiCall(ApiCategory.MEMCPY_H2D, "cudaMemcpyH2D", 0, writes=[dst], nbytes=512)
    sets = speculate_call(call, table)
    assert sets.writes == (dst,)
    assert not sets.opaque


def test_lib_compute_uses_declared_sets(mem, table):
    a, b, c = (alloc(mem, table) for _ in range(3))
    call = ApiCall(ApiCategory.LIB_COMPUTE, "cublasSgemm", 0, reads=[a, b], writes=[c])
    sets = speculate_call(call, table)
    assert sets.reads == (a, b) and sets.writes == (c,)


# --- opaque kernels ----------------------------------------------------------


def test_saxpy_speculation(mem, table):
    x, y, z = (alloc(mem, table) for _ in range(3))
    prog = build_saxpy()
    sets = speculate_call(opaque(prog, [2, x.addr, y.addr, z.addr, 4]), table)
    assert sets.opaque and not sets.conservative
    assert [b.id for b in sets.writes] == [z.id]
    assert {b.id for b in sets.reads} == {x.id, y.id}


def test_scalar_that_collides_with_address_is_filtered(mem, table):
    """A scalar argument whose value happens to look like a buffer address
    must NOT be speculated as a write — the signature filter removes it."""
    x, y = alloc(mem, table), alloc(mem, table)
    prog = build_saxpy()
    # Pass y.addr as the scalar `a`: still only z (= x here) is written.
    sets = speculate_call(opaque(prog, [y.addr, x.addr, y.addr, x.addr, 4]), table)
    assert [b.id for b in sets.writes] == [x.id]


def test_pointer_into_buffer_interior_resolves(mem, table):
    y = alloc(mem, table)
    prog = build_fill()
    sets = speculate_call(opaque(prog, [y.addr + 64, 4, 0]), table)
    assert [b.id for b in sets.writes] == [y.id]


def test_unresolvable_pointer_ignored(mem, table):
    prog = build_fill()
    sets = speculate_call(opaque(prog, [0xDEAD0000, 4, 0]), table)
    assert sets.writes == ()


def test_repeated_launch_shares_its_speculated_sets(mem, table):
    x, y, z = (alloc(mem, table) for _ in range(3))
    prog = build_saxpy()
    args = [2, x.addr, y.addr, z.addr, 4]
    first = speculate_call(opaque(prog, args), table)
    assert speculate_call(opaque(prog, list(args)), table) is first
    assert first.write_ranges() is first.write_ranges()
    # Another program object, or other arguments, is another launch.
    assert speculate_call(opaque(build_saxpy(), args), table) is not first
    assert speculate_call(opaque(prog, [3] + args[1:]), table) is not first


def test_register_flushes_the_speculation_memo(mem, table):
    """A scalar chunk of a conservative launch that pointed at nothing
    points into a buffer once that buffer is registered."""
    out = alloc(mem, table)
    later = mem.alloc(512)
    call = opaque(build_struct_kernel(), [out.addr, 4, later.addr + 8])
    assert [b.id for b in speculate_call(call, table).writes] == [out.id]
    table.register(later)
    sets = speculate_call(call, table)
    assert [b.id for b in sets.writes] == [out.id, later.id]
    assert sets.write_ranges() == RangeSet([(out.addr, out.end),
                                            (later.addr, later.end)])


def test_unregister_flushes_the_speculation_memo(mem, table):
    x, y, z = (alloc(mem, table) for _ in range(3))
    call = opaque(build_saxpy(), [2, x.addr, y.addr, z.addr, 4])
    assert [b.id for b in speculate_call(call, table).writes] == [z.id]
    table.unregister(z)
    assert speculate_call(call, table).writes == ()


def test_struct_kernel_conservative(mem, table):
    out = alloc(mem, table)
    prog = build_struct_kernel()
    sets = speculate_call(opaque(prog, [out.addr, 4, 7]), table)
    assert sets.conservative
    # The pointer chunk is found; scalar chunks that don't resolve are skipped.
    assert [b.id for b in sets.writes] == [out.id]
    assert [b.id for b in sets.reads] == [out.id]


def test_arg_count_mismatch_falls_back_conservative(mem, table):
    y = alloc(mem, table)
    prog = build_fill()  # decl has 3 params
    sets = speculate_call(opaque(prog, [y.addr, 4, 0, y.addr]), table)
    assert sets.conservative


def test_global_pointer_kernel_misses_hidden_buffer(mem, table):
    """The §8.5 Rodinia failure: the hidden buffer is not speculated."""
    x = alloc(mem, table)
    hidden = alloc(mem, table)
    prog = build_global_writer("gw", "out", hidden.addr)
    sets = speculate_call(opaque(prog, [x.addr, 4]), table)
    assert all(b.id != hidden.id for b in sets.writes)
    assert all(b.id != hidden.id for b in sets.reads)


# --- the safety property: speculation ⊇ actual accesses ----------------------


@pytest.mark.parametrize(
    "builder,arg_names",
    [
        (build_copy, ("x", "y", "n")),
        (build_saxpy, ("a", "x", "y", "z", "n")),
        (build_gather, ("x", "idx", "y", "n")),
        (build_scatter, ("x", "idx", "y", "n")),
    ],
)
def test_speculated_writes_cover_actual_writes(mem, table, builder, arg_names):
    bufs = {name: alloc(mem, table, tag=name) for name in arg_names if name not in ("a", "n")}
    # idx buffers must hold in-range indices.
    if "idx" in bufs:
        for i in range(4):
            bufs["idx"].store_word(bufs["idx"].addr + 8 * i, 3 - i)
    args = []
    for name in arg_names:
        if name == "a":
            args.append(2)
        elif name == "n":
            args.append(4)
        else:
            args.append(bufs[name].addr)
    prog = builder()
    sets = speculate_call(opaque(prog, args), table)
    write_ranges = sets.write_ranges()
    read_ranges = sets.read_ranges()
    for rec in observed_accesses(prog, args, 4, mem):
        if rec.kind is AccessKind.WRITE:
            assert rec.addr in write_ranges, \
                f"{prog.name}: write at {rec.addr:#x} not speculated"
        else:
            assert rec.addr in read_ranges or rec.addr in write_ranges

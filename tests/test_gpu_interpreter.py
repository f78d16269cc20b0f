"""Unit tests for the kernel interpreter over real buffer bytes."""

import pytest

from repro.errors import KernelFault
from repro.gpu.interpreter import AccessKind, run_kernel
from repro.gpu.isa import ProgramBuilder
from repro.gpu.memory import DeviceMemory
from repro.gpu.program import (
    build_copy,
    build_fill,
    build_gather,
    build_global_reader,
    build_global_writer,
    build_inplace_add,
    build_partial_fill,
    build_reduce_sum,
    build_saxpy,
    build_scale,
    build_scatter,
)
from repro.units import MIB
from tests.reference_interpreter import observed_accesses


@pytest.fixture
def mem():
    return DeviceMemory(capacity=64 * MIB, default_data_size=512)


def words(buf, n):
    return [buf.load_word(buf.addr + 8 * i) for i in range(n)]


def set_words(buf, values):
    for i, v in enumerate(values):
        buf.store_word(buf.addr + 8 * i, v)


def test_fill_writes_constant(mem):
    y = mem.alloc(512)
    run_kernel(build_fill(), [y.addr, 8, 7], n_threads=8, memory=mem)
    assert words(y, 8) == [7] * 8


def test_copy_moves_data(mem):
    x, y = mem.alloc(512), mem.alloc(512)
    set_words(x, range(10, 18))
    run_kernel(build_copy(), [x.addr, y.addr, 8], n_threads=8, memory=mem)
    assert words(y, 8) == list(range(10, 18))


def test_scale_multiplies(mem):
    x, y = mem.alloc(512), mem.alloc(512)
    set_words(x, [1, 2, 3, 4])
    run_kernel(build_scale(factor=5), [x.addr, y.addr, 4], n_threads=4, memory=mem)
    assert words(y, 4) == [5, 10, 15, 20]


def test_saxpy_computes(mem):
    x, y, z = (mem.alloc(512) for _ in range(3))
    set_words(x, [1, 2, 3])
    set_words(y, [10, 20, 30])
    run_kernel(build_saxpy(), [2, x.addr, y.addr, z.addr, 3], n_threads=3, memory=mem)
    assert words(z, 3) == [12, 24, 36]


def test_guard_skips_excess_threads(mem):
    y = mem.alloc(512)
    run_kernel(build_fill(), [y.addr, 4, 9], n_threads=16, memory=mem)
    assert words(y, 8) == [9, 9, 9, 9, 0, 0, 0, 0]


def addrs(accesses, kind):
    return {a.addr for a in accesses if a.kind is kind}


def test_inplace_add_reads_and_writes(mem):
    y = mem.alloc(512)
    set_words(y, [5, 6])
    run_kernel(build_inplace_add(), [y.addr, 2], n_threads=2, memory=mem)
    assert words(y, 2) == [6, 7]
    seen = observed_accesses(build_inplace_add(), [y.addr, 2], 2, mem)
    assert addrs(seen, AccessKind.READ) == addrs(seen, AccessKind.WRITE)


def test_reduce_sum_loops(mem):
    x, out = mem.alloc(512), mem.alloc(64)
    set_words(x, range(1, 9))
    run_kernel(build_reduce_sum(), [x.addr, out.addr, 8], n_threads=4, memory=mem)
    assert out.load_word(out.addr) == 36


def test_gather_indirect_reads_stay_in_buffer(mem):
    x, idx, y = (mem.alloc(512) for _ in range(3))
    set_words(x, [100, 200, 300, 400])
    set_words(idx, [3, 2, 1, 0])
    run_kernel(build_gather(), [x.addr, idx.addr, y.addr, 4], n_threads=4, memory=mem)
    assert words(y, 4) == [400, 300, 200, 100]
    seen = observed_accesses(build_gather(), [x.addr, idx.addr, y.addr, 4], 4, mem)
    for addr in addrs(seen, AccessKind.READ):
        assert x.contains(addr) or idx.contains(addr)


def test_scatter_indirect_writes_stay_in_buffer(mem):
    x, idx, y = (mem.alloc(512) for _ in range(3))
    set_words(x, [1, 2, 3, 4])
    set_words(idx, [2, 3, 0, 1])
    run_kernel(build_scatter(), [x.addr, idx.addr, y.addr, 4], n_threads=4, memory=mem)
    assert words(y, 4) == [3, 4, 1, 2]
    seen = observed_accesses(build_scatter(), [x.addr, idx.addr, y.addr, 4], 4, mem)
    assert all(y.contains(a) for a in addrs(seen, AccessKind.WRITE))


def test_partial_fill_writes_only_first_half(mem):
    y = mem.alloc(512)
    run_kernel(build_partial_fill(), [y.addr, 8, 5], n_threads=8, memory=mem)
    assert words(y, 8) == [5, 5, 5, 5, 0, 0, 0, 0]
    seen = observed_accesses(build_partial_fill(), [y.addr, 8, 5], 8, mem)
    assert len(addrs(seen, AccessKind.WRITE)) == 4


def test_global_reader_reads_hidden_buffer(mem):
    hidden, y = mem.alloc(512), mem.alloc(512)
    set_words(hidden, [11, 22])
    prog = build_global_reader("gr", "table", hidden.addr)
    run_kernel(prog, [y.addr, 2], n_threads=2, memory=mem)
    assert words(y, 2) == [11, 22]
    seen = observed_accesses(prog, [y.addr, 2], 2, mem)
    assert any(hidden.contains(a) for a in addrs(seen, AccessKind.READ))


def test_global_writer_writes_hidden_buffer(mem):
    x, hidden = mem.alloc(512), mem.alloc(512)
    set_words(x, [7, 8])
    prog = build_global_writer("gw", "out", hidden.addr)
    run_kernel(prog, [x.addr, 2], n_threads=2, memory=mem)
    assert words(hidden, 2) == [7, 8]
    seen = observed_accesses(prog, [x.addr, 2], 2, mem)
    assert all(hidden.contains(a) for a in addrs(seen, AccessKind.WRITE))


def test_access_records_have_kinds_and_tids(mem):
    x, y = mem.alloc(512), mem.alloc(512)
    seen = observed_accesses(build_copy(), [x.addr, y.addr, 2], 2, mem)
    assert [(a.kind, a.tid) for a in seen] == [
        (AccessKind.READ, 0), (AccessKind.WRITE, 0),
        (AccessKind.READ, 1), (AccessKind.WRITE, 1)]
    assert [a.addr for a in seen] == [x.addr, y.addr, x.addr + 8, y.addr + 8]


def test_runaway_loop_faults(mem):
    b = ProgramBuilder("spin", "void spin()")
    b.label("top").jmp("top").exit()
    with pytest.raises(KernelFault, match="steps"):
        run_kernel(b.build(), [], n_threads=1, memory=mem, max_steps=100)


def test_bad_arg_index_faults(mem):
    b = ProgramBuilder("args", "void args(long a)")
    b.arg(0, 3).exit()
    with pytest.raises(KernelFault, match="ARG index"):
        run_kernel(b.build(), [1], n_threads=1, memory=mem)


def test_zero_threads_rejected(mem):
    with pytest.raises(KernelFault):
        run_kernel(build_fill(), [0, 0, 0], n_threads=0, memory=mem)


def test_mod_by_zero_faults(mem):
    b = ProgramBuilder("m", "void m()")
    b.seti(0, 5).seti(1, 0).mod(2, 0, 1).exit()
    with pytest.raises(KernelFault, match="modulo"):
        run_kernel(b.build(), [], n_threads=1, memory=mem)


def test_instrumented_kernel_requires_validation(mem):
    from repro.gpu.instrument import instrument_program

    twin = instrument_program(build_fill())
    with pytest.raises(KernelFault, match="validation"):
        run_kernel(twin, [0, 0, 0], n_threads=1, memory=mem)


def test_arithmetic_wraps_64_bits(mem):
    b = ProgramBuilder("wrap", "void wrap(long* y)")
    b.arg(0, 0)
    b.seti(1, 2**63).muli(1, 1, 4)  # overflows
    b.stg(0, 1).exit()
    y = mem.alloc(64)
    run_kernel(b.build(), [y.addr], n_threads=1, memory=mem)
    assert y.load_word(y.addr) == 0


@pytest.mark.parametrize("force_interpret", [True, False])
def test_seti_immediate_wraps_64_bits(mem, force_interpret):
    """``seti r, -1`` holds 2**64 - 1 on both tiers: it stores as that,
    and unsigned ``5 < r`` is true (unwrapped, ``5 < -1`` took the other
    arm and stored 0)."""
    from repro.perf.plans import plan_cache_stats

    b = ProgramBuilder("seti_wrap", "void seti_wrap(long* y)")
    b.arg(0, 0).tid(1).muli(1, 1, 8).add(0, 0, 1)
    b.seti(2, -1).seti(3, 5).seti(4, 0)
    b.bge(3, 2, "store")
    b.mov(4, 2)
    b.label("store").stg(0, 4).exit()
    y = mem.alloc(64)
    hits = plan_cache_stats()["hit"]
    run_kernel(b.build(), [y.addr], n_threads=2, memory=mem,
               force_interpret=force_interpret)
    assert words(y, 2) == [2**64 - 1, 2**64 - 1]
    # The plan tier really served the fast launch (no guard rejects it).
    assert plan_cache_stats()["hit"] - hits == (0 if force_interpret else 1)

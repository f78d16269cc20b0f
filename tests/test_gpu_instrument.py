"""Unit tests for the validator instrumentation pass (twin kernels)."""

import pytest

from repro.gpu.instrument import instrument_program
from repro.gpu.interpreter import AccessKind, ValidationState, run_kernel
from repro.gpu.isa import Op
from repro.gpu.memory import DeviceMemory
from repro.gpu.program import (
    build_copy,
    build_fill,
    build_global_writer,
    build_reduce_sum,
    build_scatter,
)
from repro.gpu.ranges import RangeSet
from repro.units import MIB


@pytest.fixture
def mem():
    return DeviceMemory(capacity=64 * MIB, default_data_size=512)


def ranges_of(*bufs):
    return RangeSet((b.addr, b.end) for b in bufs)


def count(program, op):
    return sum(1 for ins in program.instrs if ins.op is op)


def validation(write_bufs=(), read_bufs=()):
    return ValidationState(
        read_ranges=ranges_of(*read_bufs), write_ranges=ranges_of(*write_bufs)
    )


def test_twin_has_chk_before_every_store():
    prog = build_fill()
    twin = instrument_program(prog)
    assert twin.instrumented
    assert count(twin, Op.CHK) == count(prog, Op.STG)
    for i, ins in enumerate(twin.instrs):
        if ins.op is Op.STG:
            assert twin.instrs[i - 1].op is Op.CHK


def test_original_program_unchanged():
    prog = build_fill()
    before = list(prog.instrs)
    instrument_program(prog)
    assert prog.instrs == before
    assert not prog.instrumented


def test_check_reads_adds_load_checks():
    prog = build_copy()
    twin = instrument_program(prog, check_reads=True)
    assert count(twin, Op.CHK) == count(prog, Op.STG) + count(prog, Op.LDG)


def test_double_instrumentation_rejected():
    twin = instrument_program(build_fill())
    with pytest.raises(ValueError):
        instrument_program(twin)


def test_twin_computes_same_result(mem):
    x, y = mem.alloc(512), mem.alloc(512)
    for i in range(8):
        x.store_word(x.addr + 8 * i, i + 1)
    twin = instrument_program(build_copy())
    v = validation(write_bufs=[y], read_bufs=[x])
    run_kernel(twin, [x.addr, y.addr, 8], n_threads=8, memory=mem, validation=v)
    assert y.snapshot() == x.snapshot()
    assert v.violations == []


def test_labels_survive_instrumentation(mem):
    # reduce_sum branches over a loop; the twin must still terminate and
    # compute the same value.
    x, out = mem.alloc(512), mem.alloc(64)
    for i in range(8):
        x.store_word(x.addr + 8 * i, 2)
    twin = instrument_program(build_reduce_sum())
    v = validation(write_bufs=[out], read_bufs=[x])
    run_kernel(twin, [x.addr, out.addr, 8], n_threads=2, memory=mem, validation=v)
    assert out.load_word(out.addr) == 16
    assert v.violations == []


def test_validator_catches_out_of_speculation_write(mem):
    x, hidden = mem.alloc(512), mem.alloc(512)
    prog = build_global_writer("gw", "out", hidden.addr)
    twin = instrument_program(prog)
    # Speculation only sees argument x (const) — hidden is not writable.
    v = validation(write_bufs=[], read_bufs=[x])
    run_kernel(twin, [x.addr, 4], n_threads=4, memory=mem, validation=v)
    assert len(v.violations) == 4
    assert all(viol.kind is AccessKind.WRITE for viol in v.violations)
    assert all(hidden.contains(viol.addr) for viol in v.violations)
    assert {viol.kernel for viol in v.violations} == {"gw"}


def test_validator_passes_in_buffer_indirect_writes(mem):
    x, idx, y = (mem.alloc(512) for _ in range(3))
    for i in range(4):
        idx.store_word(idx.addr + 8 * i, 3 - i)
    twin = instrument_program(build_scatter())
    v = validation(write_bufs=[y], read_bufs=[x, idx])
    run_kernel(twin, [x.addr, idx.addr, y.addr, 4], n_threads=4, memory=mem, validation=v)
    assert v.violations == []


def test_read_check_uses_union_of_read_and_write_ranges(mem):
    # An in-place kernel reads the buffer it writes; with read checks on,
    # reads from the write set must not be flagged.
    from repro.gpu.program import build_inplace_add

    y = mem.alloc(512)
    twin = instrument_program(build_inplace_add(), check_reads=True)
    v = validation(write_bufs=[y], read_bufs=[])
    run_kernel(twin, [y.addr, 4], n_threads=4, memory=mem, validation=v)
    assert v.violations == []


def test_violation_does_not_stop_kernel(mem):
    x, hidden = mem.alloc(512), mem.alloc(512)
    x.store_word(x.addr, 123)
    prog = build_global_writer("gw", "out", hidden.addr)
    twin = instrument_program(prog)
    v = validation(write_bufs=[], read_bufs=[x])
    run_kernel(twin, [x.addr, 1], n_threads=1, memory=mem, validation=v)
    # The write itself still executed (the validator only reports).
    assert hidden.load_word(hidden.addr) == 123
    assert len(v.violations) == 1

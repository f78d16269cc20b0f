"""Unit tests for host memory pages, page-table bits and batch operations."""

import pytest

from repro.cpu.memory import (
    FAULT_NOT_PRESENT,
    FAULT_WRITE_PROTECTED,
    PAGE_DATA_SIZE,
    HostMemory,
)
from repro.errors import InvalidValueError


def page_bytes(fill):
    return bytes([fill] * PAGE_DATA_SIZE)


@pytest.fixture
def mem():
    return HostMemory(n_pages=8)


def test_pages_start_zeroed_present_unprotected(mem):
    assert mem.present.all()
    assert not mem.write_protected.any() and not mem.soft_dirty.any()
    assert not mem.version.any()
    assert mem.snapshot_all() == [page_bytes(0)] * 8
    assert mem.read(0) == page_bytes(0)


def test_write_read_roundtrip(mem):
    mem.write(3, page_bytes(7))
    assert mem.read(3) == page_bytes(7)


def test_write_sets_soft_dirty(mem):
    mem.write(1, page_bytes(1))
    mem.write(5, page_bytes(2))
    assert mem.dirty_pages() == [1, 5]


def test_clear_soft_dirty(mem):
    mem.write(1, page_bytes(1))
    mem.clear_soft_dirty()
    assert mem.dirty_pages() == []


def test_version_increments_on_write(mem):
    v0 = mem.version[2]
    mem.write(2, page_bytes(9))
    assert mem.version[2] == v0 + 1
    assert mem.version.sum() == v0 + 1  # and no other page's


def test_out_of_range_rejected(mem):
    with pytest.raises(InvalidValueError):
        mem.read(8)
    with pytest.raises(InvalidValueError):
        mem.write(-1, page_bytes(0))


def test_write_protect_faults_before_write(mem):
    events = []

    def handler(index, kind):
        events.append((index, kind, mem.read(index)))  # old content visible
        mem.unprotect(index)

    mem.fault_handler = handler
    mem.write(2, page_bytes(1))
    mem.protect_all()
    mem.write(2, page_bytes(2))
    assert events == [(2, FAULT_WRITE_PROTECTED, page_bytes(1))]
    assert mem.read(2) == page_bytes(2)


def test_protected_write_without_handler_raises(mem):
    mem.protect_all()
    with pytest.raises(InvalidValueError):
        mem.write(0, page_bytes(1))


def test_handler_must_unprotect(mem):
    mem.fault_handler = lambda index, kind: None
    mem.protect_all()
    with pytest.raises(InvalidValueError, match="unprotect"):
        mem.write(0, page_bytes(1))


def test_not_present_faults_on_read(mem):
    loads = []

    def handler(index, kind):
        loads.append((index, kind))
        mem.mark_present(index)

    mem.fault_handler = handler
    mem.mark_all_not_present()
    mem.read(4)
    assert loads == [(4, FAULT_NOT_PRESENT)]


def test_not_present_faults_on_write(mem):
    def handler(index, kind):
        mem.mark_present(index)

    mem.fault_handler = handler
    mem.mark_all_not_present()
    mem.write(4, page_bytes(3))
    assert mem.read(4) == page_bytes(3)


def test_present_page_does_not_fault(mem):
    mem.fault_handler = lambda *a: pytest.fail("unexpected fault")
    mem.read(0)
    mem.write(0, page_bytes(1))


def test_word_helpers(mem):
    mem.write_word(2, 123456789)
    assert mem.read_word(2) == 123456789


def test_logical_bytes(mem):
    from repro.units import PAGE_SIZE

    assert mem.logical_bytes == 8 * PAGE_SIZE


def test_zero_pages_rejected():
    with pytest.raises(InvalidValueError):
        HostMemory(0)


# -- batch operations (the checkpointer's copy path) ------------------------------

def test_a_bad_batch_leaves_memory_untouched():
    """Validation covers the whole batch before the first byte lands."""
    mem = HostMemory(4)
    mem.mark_all_not_present()
    mem.protect_all()
    good = page_bytes(7)
    with pytest.raises(InvalidValueError, match="page index 4 out of range"):
        mem.load_pages([0, 1, 4], [good] * 3)
    with pytest.raises(InvalidValueError, match="page index -1 out of range"):
        mem.load_pages([0, -1], [good] * 2)  # must not wrap to the last page
    with pytest.raises(InvalidValueError, match="16 bytes, got 15"):
        mem.load_pages([0, 1, 2], [good, good, good[:-1]])
    with pytest.raises(InvalidValueError, match="3 page indices but 2"):
        mem.load_pages([0, 1, 2], [good, good])
    with pytest.raises(InvalidValueError, match="page index -1 out of range"):
        mem.unprotect_pages([0, -1])
    with pytest.raises(InvalidValueError, match="page index 9 out of range"):
        mem.snapshot_pages([9])
    assert mem.snapshot_all() == [page_bytes(0)] * 4
    assert not mem.present.any() and mem.write_protected.all()
    mem.load_pages([], [])  # the empty batch is a no-op
    assert mem.snapshot_pages([]) == [] and mem.absent_pages([]) == []


def test_snapshot_pages_reads_what_the_process_cannot():
    """A dump reads non-present and protected pages without a fault."""
    mem = HostMemory(3)
    mem.write(1, page_bytes(5))
    mem.mark_all_not_present()
    mem.protect_all()
    mem.fault_handler = lambda *a: pytest.fail("a dump does not fault")
    assert mem.snapshot_pages(range(3)) == [page_bytes(0), page_bytes(5),
                                            page_bytes(0)]
    assert mem.snapshot_pages((1,)) == [page_bytes(5)]

"""Unit tests: BufferHashCache, dirty-chunk math, delta aggregates."""

import pytest

from repro.core.protocols.base import ProtocolConfig
from repro.errors import CheckpointError, TornImageError
from repro.storage.delta import (
    DeltaBufferRecord,
    DeltaImage,
    dirty_chunk_intervals,
    dirty_chunk_span_bytes,
    hash_chunk,
    seal_delta,
)
from repro.storage.image import CheckpointImage
from repro.storage.hashcache import BufferHashCache


# -- BufferHashCache ---------------------------------------------------------

def _promote(cache, bid=1, image_id="img-1", addr=0x1000, size=4096,
             data_len=1024, chunk_bytes=256, table=None):
    cache.promote(bid, image_id=image_id, addr=addr, size=size,
                  data_len=data_len, chunk_bytes=chunk_bytes,
                  table=table or b"".join(hash_chunk(b"h%d" % i)
                                          for i in range(4)))


def test_note_write_without_entry_is_noop():
    cache = BufferHashCache()
    cache.note_write(99, 0, 128)  # must not raise or create state
    assert 99 not in cache.entries


def test_note_write_accumulates_pending():
    cache = BufferHashCache()
    _promote(cache)
    cache.note_write(1, 10, 20)
    cache.note_write(1, 15, 40)
    cache.note_write(1, 40, 40)  # empty span ignored
    entry = cache.entries[1]
    assert list(entry.pending) == [(10, 40)]


def test_valid_entry_requires_parent_and_layout():
    cache = BufferHashCache()
    _promote(cache, image_id="parent")
    ok = dict(parent_id="parent", addr=0x1000, size=4096, data_len=1024,
              chunk_bytes=256)
    assert cache.valid_entry(1, **ok) is not None
    for bad in (
        dict(ok, parent_id="other"),
        dict(ok, addr=0x2000),
        dict(ok, size=8192),
        dict(ok, data_len=512),
        dict(ok, chunk_bytes=128),
    ):
        assert cache.valid_entry(1, **bad) is None
    assert cache.valid_entry(2, **ok) is None


def test_promote_replaces_and_clears_pending():
    cache = BufferHashCache()
    _promote(cache, image_id="a")
    cache.note_write(1, 0, 100)
    _promote(cache, image_id="b", table=hash_chunk(b"x") * 4)
    entry = cache.entries[1]
    assert entry.image_id == "b"
    assert not entry.pending
    assert entry.table == hash_chunk(b"x") * 4


def test_forget_drops_entry():
    cache = BufferHashCache()
    _promote(cache)
    cache.forget(1)
    cache.forget(1)  # idempotent
    assert 1 not in cache.entries


def test_dirty_extent_chunk_size_agnostic():
    cache = BufferHashCache()
    _promote(cache, image_id="p", chunk_bytes=256)
    cache.note_write(1, 5, 9)
    pending = cache.dirty_extent(1, parent_id="p", addr=0x1000, size=4096,
                                 data_len=1024)
    assert list(pending) == [(5, 9)]
    # Layout mismatch or wrong parent: None (ship the full buffer).
    assert cache.dirty_extent(1, parent_id="q", addr=0x1000, size=4096,
                              data_len=1024) is None
    assert cache.dirty_extent(1, parent_id="p", addr=0x1000, size=4096,
                              data_len=999) is None


# -- dirty-chunk math --------------------------------------------------------

def test_dirty_chunk_intervals_basic():
    spans = dirty_chunk_intervals([(0, 1), (300, 700)], data_len=1024,
                                  chunk_bytes=256)
    assert spans == [(0, 2)]    # touching chunk intervals merge
    assert dirty_chunk_intervals([(0, 1), (600, 700)], 1024, 256) == [
        (0, 0), (2, 2)]


def test_dirty_chunk_intervals_clip_and_merge():
    spans = dirty_chunk_intervals([(-50, 10), (10, 20), (1000, 4000)],
                                  data_len=1024, chunk_bytes=256)
    assert spans == [(0, 0), (3, 3)]
    assert dirty_chunk_intervals([], 1024, 256) == []
    assert dirty_chunk_intervals([(2000, 3000)], 1024, 256) == []
    assert dirty_chunk_intervals([(0, 10)], 0, 256) == []


def test_dirty_chunk_span_bytes_tail_clip():
    # data_len 1000 -> chunks of 256, last chunk is 232 bytes.
    assert dirty_chunk_span_bytes([(0, 1)], 1000, 256) == 256
    assert dirty_chunk_span_bytes([(900, 950)], 1000, 256) == 232
    assert dirty_chunk_span_bytes([(0, 1000)], 1000, 256) == 1000
    assert dirty_chunk_span_bytes([], 1000, 256) == 0


# -- O(1) DeltaImage aggregates ---------------------------------------------

def _rec(bid, n_chunks=4, local=(), cb=256):
    data = bytes(cb) * n_chunks
    return DeltaBufferRecord(
        buffer_id=bid, addr=0x1000 * bid, size=n_chunks * cb,
        data_len=n_chunks * cb,
        table=b"".join(hash_chunk(data[i * cb:(i + 1) * cb])
                       for i in range(n_chunks)),
        index=tuple(local),
        payload=b"".join(data[i * cb:(i + 1) * cb] for i in local),
    )


def test_add_delta_record_maintains_aggregates():
    image = DeltaImage(name="x")
    image.add_delta_record(0, _rec(1, local=(0, 2)))
    image.add_delta_record(0, _rec(2, local=()))
    image.add_delta_record(1, _rec(3, local=(1,)))
    assert image.chunks_written == 3
    assert image.chunks_reused == 9
    assert image.stored_chunk_bytes == 3 * 256
    assert image.reused_buffers == 1
    assert image.gpu_bytes(0) == 2 * 1024
    assert image.gpu_bytes() == 3 * 1024
    assert image.stored_bytes() == 3 * 256


def test_add_delta_record_rejects_duplicates():
    image = DeltaImage(name="x")
    image.add_delta_record(0, _rec(1))
    with pytest.raises(TornImageError, match="recorded twice"):
        image.add_delta_record(0, _rec(1))


def test_cpu_page_aggregates_track_overwrite_and_drop():
    """The seal stores the capture's last bytes of each page, drops the
    pages equal to the parent's, and counts only what it keeps."""
    parent = CheckpointImage(name="parent")
    parent.add_cpu_page(1, b"b" * 64)
    parent.finalize(0.0)
    capture = CheckpointImage(name="x")
    capture.add_cpu_page(0, b"a" * 64)
    capture.add_cpu_page(1, b"b" * 64)   # equal to the parent's: dropped
    capture.add_cpu_page(0, b"c" * 32)   # overwrite shrinks
    image = seal_delta(capture, parent, parent)
    assert image.cpu_pages == {0: b"c" * 32}
    assert image.stored_page_bytes == 32
    assert image.stored_bytes() == 32
    assert capture.cpu_pages == {}       # the capture keeps no copy


def test_cpu_page_batches_keep_the_same_aggregates():
    """``add_cpu_pages`` is the dump's batch insert: same table as one
    ``add_cpu_page`` per page (so the same sealed byte count), and the
    finalized check comes before the first page lands."""
    batched, single = CheckpointImage(name="x"), CheckpointImage(name="y")
    steps = [([0, 1, 2], [b"a" * 64, b"b" * 64, b"c" * 16]),
             ([2, 0, 7], [b"d" * 64, b"e" * 8, b"f" * 16]),  # two overwrites
             ([], [])]
    for indices, datas in steps:
        batched.add_cpu_pages(indices, datas)
        for index, data in zip(indices, datas):
            single.add_cpu_page(index, data)
        assert batched.cpu_pages == single.cpu_pages
    batched.finalize(0.0)
    with pytest.raises(CheckpointError, match="finalized"):
        batched.add_cpu_pages([9], [b"z" * 16])
    assert 9 not in batched.cpu_pages
    sealed = [seal_delta(image, None, None).stored_page_bytes
              for image in (batched, single)]
    assert sealed == [8 + 64 + 64 + 16] * 2


# -- ProtocolConfig content_chunk_bytes -------------------------------------

@pytest.mark.parametrize("bad", [0, -256, 3, 100, 257])
def test_content_chunk_bytes_must_be_power_of_two(bad):
    with pytest.raises(CheckpointError, match="power of two"):
        ProtocolConfig(content_chunk_bytes=bad)


@pytest.mark.parametrize("ok", [1, 64, 256, 1024, 1 << 20])
def test_content_chunk_bytes_accepts_powers_of_two(ok):
    assert ProtocolConfig(content_chunk_bytes=ok).content_chunk_bytes == ok


def test_continuous_config_validation():
    with pytest.raises(CheckpointError, match="rounds"):
        ProtocolConfig(rounds=0)
    with pytest.raises(CheckpointError, match="interval"):
        ProtocolConfig(interval=-1.0)

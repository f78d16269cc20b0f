"""Incremental, deduplicated checkpoint images (delta chains).

A full checkpoint re-ships every buffer; the §A.1 frequency model says
the real fault-tolerance lever is checkpoint *frequency*, which means
per-checkpoint cost must scale with *dirty* bytes.  This module is the
storage half of that: a :class:`DeltaImage` stores, per buffer, a
content-addressed chunk table (one hash per fixed-size chunk of the
buffer's captured bytes) plus **only the chunks that changed** since a
named parent image.  Everything else is a reference into the parent.
A buffer typically has a handful of chunks, so nothing here is paid
per chunk object or per small array: a record is three packed values
(:class:`DeltaBufferRecord`) and the extent→chunk math is integer
arithmetic (:func:`dirty_chunk_intervals`).

The rules:

* a delta names exactly one parent by catalog id (``parent_id``); a
  chain root has ``parent_id=None`` and carries all of its chunks
  locally (a self-contained "full" delta);
* :func:`materialize` walks the parent references — with cycle and
  missing/revoked-parent detection — and reassembles a plain, full
  :class:`~repro.storage.image.CheckpointImage`, verifying every chunk
  against its recorded hash on the way (a corrupt or mismatched parent
  surfaces as :class:`~repro.errors.TornImageError`, never as silently
  wrong bytes);
* a buffer absent from the delta's table did not exist at the delta's
  checkpoint time (it was freed) — the table is authoritative;
* :class:`~repro.storage.image.ImageCatalog` enforces the commit-order
  side: a delta commits only while its parent is committed and
  unrevoked, and revoking a parent revokes the whole descendant chain.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import lt
from typing import Callable, Iterable, Optional

from repro import obs
from repro.errors import TornImageError
from repro.storage.image import CheckpointImage, GpuBufferRecord

#: Default content chunk (applies to the captured payload bytes).
CHUNK_BYTES = 256

#: blake2b digest length for chunk addresses (16 bytes ~ no collisions
#: at simulator scale, half the metadata of a full 32-byte digest).
DIGEST_SIZE = 16


#: An empty hasher of that size.  Copying it costs less than building
#: one per chunk; it is never updated itself.
_EMPTY_HASHER = hashlib.blake2b(digest_size=DIGEST_SIZE)


def hash_chunk(chunk) -> bytes:
    """The content address of one chunk (bytes or memoryview)."""
    hasher = _EMPTY_HASHER.copy()
    hasher.update(chunk)
    return hasher.digest()


def chunk_table(data: bytes, chunk_bytes: int = CHUNK_BYTES) -> bytes:
    """Content addresses of every chunk of ``data``, in order, back to
    back — the packed form a :class:`DeltaBufferRecord` stores."""
    fresh = _EMPTY_HASHER.copy
    digests = []
    for off in range(0, len(data), chunk_bytes):
        hasher = fresh()
        hasher.update(data[off : off + chunk_bytes])
        digests.append(hasher.digest())
    return b"".join(digests)


def chunk_count(data_len: int, chunk_bytes: int) -> int:
    return (data_len + chunk_bytes - 1) // chunk_bytes


def differing_chunks(got: bytes, want: bytes, base: int = 0) -> list[int]:
    """Indices (from ``base``) of ``want``'s digests that ``got`` does not
    hold at the same place; a ``got`` that ends early differs from its
    first missing digest on."""
    ds = DIGEST_SIZE
    return [base + off // ds for off in range(0, len(want), ds)
            if got[off : off + ds] != want[off : off + ds]]


def dirty_chunk_intervals(ranges: Iterable[tuple[int, int]], data_len: int,
                          chunk_bytes: int) -> list[tuple[int, int]]:
    """Merged, ascending, inclusive chunk intervals overlapped by
    half-open byte ranges.

    Plain integer arithmetic: each ``[start, end)`` is clipped to
    ``[0, data_len)`` and becomes ``[start // cb, (end - 1) // cb]``; the
    intervals are sorted only when they do not already arrive ascending
    (a :class:`~repro.gpu.ranges.RangeSet` iterates sorted and disjoint)
    and touching or overlapping neighbours are merged.  A range entirely
    outside the materialized payload touches no chunk.
    """
    if data_len <= 0:
        return []
    spans = []
    ascending = True
    prev = 0
    for start, end in ranges:
        if end <= 0 or start >= data_len or end <= start:
            continue
        lo = start // chunk_bytes if start > 0 else 0
        if lo < prev:
            ascending = False
        prev = lo
        spans.append((lo, ((end if end < data_len else data_len) - 1)
                      // chunk_bytes))
    if len(spans) < 2:
        return spans
    if not ascending:
        spans.sort()
    merged = []
    cur_lo, cur_hi = spans[0]
    for lo, hi in spans:
        if lo > cur_hi + 1:
            merged.append((cur_lo, cur_hi))
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    merged.append((cur_lo, cur_hi))
    return merged


def dirty_chunk_span_bytes(ranges: Iterable[tuple[int, int]], data_len: int,
                           chunk_bytes: int) -> int:
    """Total bytes of the chunk-aligned spans overlapping ``ranges``.

    This is the payload a dirty-scaled transfer ships: every chunk any
    dirty byte lands in, rounded to chunk boundaries (the final chunk
    is clipped to the payload length).
    """
    spans = dirty_chunk_intervals(ranges, data_len, chunk_bytes)
    if not spans:
        return 0
    nbytes = sum([hi - lo + 1 for lo, hi in spans]) * chunk_bytes
    tail = data_len - spans[-1][1] * chunk_bytes
    if tail < chunk_bytes:
        nbytes -= chunk_bytes - tail
    return nbytes


@dataclass
class DeltaBufferRecord:
    """One buffer in a delta image: full chunk table, partial payload.

    Three packed, immutable values: ``table`` is the content address of
    every chunk of the buffer's captured payload (``data_len`` bytes),
    ``DIGEST_SIZE`` bytes each, back to back; ``index`` names, ascending,
    the chunks this delta stores itself and ``payload`` is those chunks'
    bytes back to back — their order in the v2 blob section.  Every
    other chunk is resolved from the parent image at materialize time.
    Packed ``bytes`` rather than arrays because a typical buffer has a
    handful of chunks: a slice compare is one ``memcmp`` and value
    equality comes with the type.
    """

    buffer_id: int
    addr: int
    size: int            # logical buffer size (what the cost model charges)
    data_len: int        # captured payload length (materialized prefix)
    tag: str = ""
    table: bytes = b""
    index: tuple[int, ...] = ()
    payload: bytes = b""

    def stored_bytes(self) -> int:
        return len(self.payload)

    def validate(self, image_name: str, chunk_bytes: int) -> None:
        """Raise unless ``index`` ascends inside the payload's chunks and
        ``payload`` is exactly those chunks' bytes — what every reader of
        the packed fields (materialize, the v2 writer) relies on."""
        index = self.index
        if index and not (
                0 <= index[0] and index[-1] * chunk_bytes < self.data_len
                and all(map(lt, index, index[1:]))):
            raise TornImageError(
                f"delta image {image_name!r}: buffer {self.buffer_id} stores "
                f"chunks {index}, not an ascending run inside its "
                f"{self.data_len}-byte payload"
            )
        stored = len(index) * chunk_bytes
        if index:   # the payload's last chunk may be a short one
            stored -= max(0, (index[-1] + 1) * chunk_bytes - self.data_len)
        if len(self.payload) != stored:
            raise _torn_payload(image_name, self)


def _torn_payload(image_name: str, rec: DeltaBufferRecord) -> TornImageError:
    return TornImageError(
        f"delta image {image_name!r}: buffer {rec.buffer_id} stores "
        f"{len(rec.payload)} payload bytes for {len(rec.index)} chunks of "
        f"its {rec.data_len}-byte payload"
    )


@dataclass
class DeltaImage(CheckpointImage):
    """A checkpoint image that stores only chunks changed vs a parent.

    Built sealed by :func:`seal_delta` from a run's plain capture (or
    read back by the v2 loader): per-buffer chunk tables in
    ``delta_gpu``, only the CPU pages that differ from the parent's in
    ``cpu_pages``, and running aggregates so no size query re-walks the
    tables.
    """

    parent_id: Optional[str] = None
    parent_name: str = ""
    #: Direct reference to the parent image while both live in one
    #: process (cleared by serialization; restore falls back to catalog
    #: resolution by ``parent_id``).
    parent_ref: Optional[CheckpointImage] = None
    chunk_bytes: int = CHUNK_BYTES
    #: ``gpu index -> buffer id -> DeltaBufferRecord``.
    delta_gpu: dict[int, dict[int, DeltaBufferRecord]] = field(
        default_factory=dict
    )
    #: Logical CPU page count of the materialized state (stored pages
    #: may be far fewer: pages equal to the parent's are dropped).
    cpu_logical_pages: int = 0
    chunks_written: int = 0
    chunks_reused: int = 0
    #: Running aggregates: :meth:`add_delta_record` keeps the chunk
    #: ones; ``stored_page_bytes`` is set once the stored pages are
    #: known.
    stored_chunk_bytes: int = 0
    stored_page_bytes: int = 0
    reused_buffers: int = 0
    gpu_logical: dict[int, int] = field(default_factory=dict)

    # -- record insertion ----------------------------------------------------
    def add_delta_record(self, gpu_index: int, rec: "DeltaBufferRecord") -> None:
        """Insert one sealed buffer record, updating running aggregates.

        The record must be complete (chunk table + local chunks filled)
        before insertion.  Re-inserting a buffer id, an ``index`` that
        is not ascending inside the payload's chunks, or a ``payload``
        that is not exactly those chunks' bytes is a sealing bug (or a
        tampered file) and raises.
        """
        table = self.delta_gpu.setdefault(gpu_index, {})
        if rec.buffer_id in table:
            raise TornImageError(
                f"delta image {self.name!r}: buffer {rec.buffer_id} "
                f"recorded twice on gpu {gpu_index}"
            )
        rec.validate(self.name, self.chunk_bytes)
        n_local = len(rec.index)
        table[rec.buffer_id] = rec
        self.stored_chunk_bytes += len(rec.payload)
        self.chunks_written += n_local
        self.chunks_reused += len(rec.table) // DIGEST_SIZE - n_local
        if not n_local:
            self.reused_buffers += 1
        self.gpu_logical[gpu_index] = (
            self.gpu_logical.get(gpu_index, 0) + rec.size
        )

    # -- sizes ---------------------------------------------------------------
    def gpu_bytes(self, gpu_index: Optional[int] = None) -> int:
        """Logical bytes of the *materialized* GPU state."""
        if gpu_index is not None:
            return self.gpu_logical.get(gpu_index, 0)
        return sum(self.gpu_logical.values())

    def cpu_bytes(self) -> int:
        """Logical bytes of the *materialized* CPU state."""
        return self.cpu_logical_pages * self.cpu_page_size

    def buffer_count(self, gpu_index: int) -> int:
        return len(self.delta_gpu.get(gpu_index, {}))

    def total_buffer_count(self) -> int:
        return sum(len(per_gpu) for per_gpu in self.delta_gpu.values())

    def stored_bytes(self) -> int:
        """Bytes this delta actually stores (its own chunks + pages)."""
        return self.stored_chunk_bytes + self.stored_page_bytes


def seal_delta(capture: CheckpointImage,
               parent: Optional[CheckpointImage],
               parent_full: Optional[CheckpointImage], *,
               reused: Optional[dict[int, set[int]]] = None,
               freed: Optional[dict[int, set[int]]] = None,
               cache=None, promote: bool = True,
               chunk_bytes: int = CHUNK_BYTES) -> DeltaImage:
    """The delta representation of a run's plain capture.

    ``parent`` is the image the delta chains onto and ``parent_full``
    its *materialized* state (both None for a chain root).  The delta
    takes the capture's id, name and metadata — the catalog entry
    staged for the capture commits it — and holds chunk tables of
    ``chunk_bytes`` chunks plus the CPU pages that differ from the
    parent's.  The capture's GPU records and CPU pages are cleared, so
    a session that still references it keeps no second copy alive.

    ``reused`` names, per GPU, the buffers the protocol skipped
    entirely because the write-heat history proved them unwritten since
    the parent — they get a pure-reference record (full hash table,
    zero local chunks).  ``freed`` buffers are dropped: they do not
    exist at the delta's checkpoint time.

    ``cache`` is an optional
    :class:`~repro.storage.hashcache.BufferHashCache`.  When a buffer's
    cache entry names this image's parent and its layout is unchanged,
    the parent's chunk hashes come straight from the cache and only the
    chunks overlapping the entry's pending dirty ranges are rehashed —
    the host-side sealing cost then scales with *dirty* bytes, not
    state size.  A valid entry can never change the sealed bytes: clean
    chunks are byte-identical to the parent by construction (dirty
    tracking over-approximates writes), so the cached hash *is* the
    recomputed hash.  A lookup that misses rehashes every chunk.
    With ``promote`` (a seal of a quiesced process) every sealed buffer's
    entry is then rebound to this image; a seal of a running process
    (a CoW child) only looks the cache up.

    Besides the written/reused/hash counters, each seal reports why it
    stored what it stored: ``storage/chunks-stored{reason}`` —
    ``new-buffer`` (no parent record of the same layout),
    ``dirty-changed`` (cache hit, tracked dirty, rehashed different),
    ``rehash-changed`` (cache miss, rehashed different); they sum to
    ``storage/chunks-written`` — and ``storage/chunks-false-dirty``,
    the chunks the tracker called dirty that rehashed equal.
    """
    if isinstance(capture, DeltaImage):
        raise TornImageError(f"delta image {capture.name!r} sealed twice")
    image = DeltaImage(
        name=capture.name, id=capture.id,
        cpu_control=capture.cpu_control,
        kernel_objects=capture.kernel_objects,
        gpu_modules=capture.gpu_modules, context_meta=capture.context_meta,
        cpu_page_size=capture.cpu_page_size,
        parent_id=parent.id if parent is not None else None,
        parent_name=parent.name if parent is not None else "",
        parent_ref=parent, chunk_bytes=chunk_bytes,
    )
    cb = chunk_bytes
    ds = DIGEST_SIZE
    reused = reused or {}
    freed = freed or {}
    use_cache = cache is not None and image.parent_id is not None
    n_hit = n_miss = rehash_bytes = 0
    n_new = n_dirty_changed = n_rehash_changed = n_false_dirty = 0

    def cache_entry(buf_id: int, addr: int, size: int, data_len: int):
        if not use_cache:
            return None
        return cache.valid_entry(buf_id, parent_id=image.parent_id,
                                 addr=addr, size=size, data_len=data_len,
                                 chunk_bytes=cb)

    # Captured buffers: diff their payload chunk-by-chunk vs the parent.
    for gpu, records in sorted(capture.gpu_buffers.items()):
        gone = freed.get(gpu, set())
        parent_records = (parent_full.gpu_buffers.get(gpu, {})
                          if parent_full is not None else {})
        for buf_id, rec in sorted(records.items()):
            if buf_id in gone:
                continue
            data = rec.data
            data_len = len(data)
            prec = parent_records.get(buf_id)
            layout_ok = (prec is not None and prec.addr == rec.addr
                         and prec.size == rec.size
                         and len(prec.data) == data_len)
            entry = cache_entry(buf_id, rec.addr, rec.size, data_len)
            if entry is not None and layout_ok:
                # Fast path: parent table from the cache; rehash only
                # the chunk intervals overlapped by writes since the
                # parent, a joined segment each, and splice the
                # segments into the table.
                old = entry.table
                pieces = []
                changed = []
                n_dirty = done = 0
                for lo, hi in dirty_chunk_intervals(entry.pending, data_len, cb):
                    span = data[lo * cb : (hi + 1) * cb]
                    segment = chunk_table(span, cb)
                    n_dirty += hi - lo + 1
                    rehash_bytes += len(span)
                    was = old[lo * ds : (hi + 1) * ds]
                    if segment != was:
                        changed += differing_chunks(segment, was, lo)
                        pieces += (old[done : lo * ds], segment)
                        done = (hi + 1) * ds
                table = (b"".join(pieces) + old[done:]) if pieces else old
                n_hit += len(old) // ds - n_dirty
                n_miss += n_dirty
                n_dirty_changed += len(changed)
                n_false_dirty += n_dirty - len(changed)
            else:
                table = chunk_table(data, cb)
                n_chunks = len(table) // ds
                n_miss += n_chunks
                rehash_bytes += data_len
                if layout_ok:
                    was = chunk_table(prec.data, cb)
                    rehash_bytes += data_len
                    changed = differing_chunks(table, was) if table != was else []
                    n_rehash_changed += len(changed)
                else:
                    # New buffer or layout change: every chunk is local.
                    changed = range(n_chunks)
                    n_new += n_chunks
            if len(changed) * ds == len(table):
                payload = bytes(data)     # wholly changed or new: no copy
            else:
                payload = b"".join([data[i * cb : (i + 1) * cb] for i in changed])
            image.add_delta_record(gpu, DeltaBufferRecord(
                buffer_id=rec.buffer_id, addr=rec.addr, size=rec.size,
                data_len=data_len, tag=rec.tag, table=table,
                index=tuple(changed), payload=payload,
            ))
            if promote and cache is not None:
                cache.promote(buf_id, image_id=image.id, addr=rec.addr,
                              size=rec.size, data_len=data_len,
                              chunk_bytes=cb, table=table)

    # Untouched buffers the protocol never captured: pure references.
    for gpu, ids in sorted(reused.items()):
        sealed = image.delta_gpu.setdefault(gpu, {})
        gone = freed.get(gpu, set())
        for buf_id in sorted(ids):
            if buf_id in sealed or buf_id in gone:
                continue  # recaptured (written mid-window) or freed
            prec = (parent_full.gpu_buffers.get(gpu, {}).get(buf_id)
                    if parent_full is not None else None)
            if prec is None:
                raise TornImageError(
                    f"delta image {image.name!r} reuses buffer {buf_id} "
                    "which the parent does not hold"
                )
            entry = cache_entry(buf_id, prec.addr, prec.size, len(prec.data))
            if entry is not None and not entry.pending:
                table = entry.table
                n_hit += len(table) // ds
            else:
                table = chunk_table(prec.data, cb)
                rehash_bytes += len(prec.data)
                n_miss += len(table) // ds
            image.add_delta_record(gpu, DeltaBufferRecord(
                buffer_id=prec.buffer_id, addr=prec.addr, size=prec.size,
                data_len=len(prec.data), tag=prec.tag, table=table,
            ))
            if promote and cache is not None:
                cache.promote(buf_id, image_id=image.id, addr=prec.addr,
                              size=prec.size, data_len=len(prec.data),
                              chunk_bytes=cb, table=table)

    # Freed buffers no longer exist: their cache entries go with them.
    if cache is not None:
        for gpu, ids in sorted(freed.items()):
            for buf_id in ids:
                cache.forget(buf_id)

    # CPU pages: keep the ones whose content the parent does not store.
    parent_pages = parent_full.cpu_pages if parent_full is not None else {}
    image.cpu_pages = {i: data for i, data in capture.cpu_pages.items()
                       if parent_pages.get(i) != data}
    image.stored_page_bytes = sum(map(len, image.cpu_pages.values()))
    image.cpu_logical_pages = int(
        image.context_meta.get("cpu_pages", len(image.cpu_pages))
    )
    capture.gpu_buffers.clear()
    capture.cpu_pages.clear()
    obs.counter("storage/chunks-written").inc(image.chunks_written)
    obs.counter("storage/chunks-reused").inc(image.chunks_reused)
    obs.counter("storage/delta-bytes").inc(image.stored_bytes())
    obs.counter("storage/hash-hit").inc(n_hit)
    obs.counter("storage/hash-miss").inc(n_miss)
    obs.counter("storage/hash-rehash-bytes").inc(rehash_bytes)
    # Why each stored chunk was stored (the three sum to chunks-written),
    # and how many chunks the write tracker called dirty that rehashed
    # equal to the parent's.
    obs.counter("storage/chunks-stored", reason="new-buffer").inc(n_new)
    obs.counter("storage/chunks-stored",
                reason="dirty-changed").inc(n_dirty_changed)
    obs.counter("storage/chunks-stored",
                reason="rehash-changed").inc(n_rehash_changed)
    obs.counter("storage/chunks-false-dirty").inc(n_false_dirty)
    return image


def materialize(image: CheckpointImage,
                resolve: Optional[Callable[[str],
                                           Optional[CheckpointImage]]] = None
                ) -> CheckpointImage:
    """A full image equivalent to ``image``, walking its parent chain.

    Full images pass through unchanged.  For a delta, the chain is
    walked via ``parent_ref`` (same-process) or ``resolve(parent_id)``
    (a catalog lookup); a cycle, a missing parent, or a revoked parent
    raises :class:`TornImageError`.  Every chunk — local or inherited —
    is verified against its recorded content address.
    """
    if not isinstance(image, DeltaImage):
        return image
    image.require_finalized()
    chain: list[DeltaImage] = []
    seen: set[str] = set()
    base: Optional[CheckpointImage] = None
    node: CheckpointImage = image
    while isinstance(node, DeltaImage):
        if node.id in seen:
            raise TornImageError(
                f"delta chain of image {image.name!r} contains a cycle "
                f"(image id {node.id!r} seen twice)"
            )
        seen.add(node.id)
        chain.append(node)
        if node.parent_id is None:
            break
        parent = node.parent_ref
        if parent is None and resolve is not None:
            parent = resolve(node.parent_id)
        if parent is None:
            raise TornImageError(
                f"delta image {node.name!r} names parent "
                f"{node.parent_id!r} which cannot be resolved; the chain "
                "is broken"
            )
        parent.require_finalized()
        if not isinstance(parent, DeltaImage):
            base = parent
            break
        node = parent
    full = base
    for delta in reversed(chain):
        full = _apply_delta(delta, full)
    return full


def _apply_delta(delta: DeltaImage,
                 parent_full: Optional[CheckpointImage]) -> CheckpointImage:
    """One chain step: parent's materialized state + this delta."""
    cb = delta.chunk_bytes
    full = CheckpointImage(name=delta.name)
    full.cpu_page_size = delta.cpu_page_size
    full.cpu_control = dict(delta.cpu_control)
    full.kernel_objects = list(delta.kernel_objects)
    full.gpu_modules = {g: list(m) for g, m in delta.gpu_modules.items()}
    full.context_meta = dict(delta.context_meta)
    if parent_full is not None:
        full.cpu_pages.update(parent_full.cpu_pages)
    full.cpu_pages.update(delta.cpu_pages)
    ds = DIGEST_SIZE
    name = delta.name
    for gpu, table in delta.delta_gpu.items():
        parent_records = (parent_full.gpu_buffers.get(gpu, {})
                          if parent_full is not None else {})
        records = {}
        for buf_id, rec in table.items():
            n_chunks = (rec.data_len + cb - 1) // cb
            want = rec.table
            if len(want) != n_chunks * ds:
                raise TornImageError(
                    f"delta image {name!r}: buffer {buf_id} chunk "
                    f"table has {len(want) // ds} entries for "
                    f"{n_chunks} chunks"
                )
            prec = parent_records.get(buf_id)
            index, payload = rec.index, rec.payload
            if len(index) == n_chunks or not index:
                # All local or all inherited: the buffer's bytes are one
                # value.  Hash it once into a joined table and compare
                # whole; only a failure looks for the chunk to name.
                if index or not n_chunks:
                    data, used = payload, rec.data_len
                elif prec is None or len(prec.data) != rec.data_len:
                    raise _not_inherited(name, buf_id, 0)
                else:
                    data, used = bytes(prec.data), 0
                got = chunk_table(data, cb)
                if got != want:
                    bad = differing_chunks(got, want)
                    if bad:
                        raise _bad_address(name, buf_id, bad[0])
            else:
                # Mixed: the per-chunk walk, in chunk order.
                parts = []
                used = k = 0
                for i in range(n_chunks):
                    if k < len(index) and index[k] == i:
                        k += 1
                        size = min(cb, rec.data_len - i * cb)
                        chunk = payload[used : used + size]
                        used += size
                    elif prec is None or len(prec.data) != rec.data_len:
                        raise _not_inherited(name, buf_id, i)
                    else:
                        chunk = prec.data[i * cb : (i + 1) * cb]
                    if hash_chunk(chunk) != want[i * ds : (i + 1) * ds]:
                        raise _bad_address(name, buf_id, i)
                    parts.append(chunk)
                data = b"".join(parts)
            if used != len(payload):
                raise _torn_payload(name, rec)
            records[buf_id] = GpuBufferRecord(
                rec.buffer_id, rec.addr, rec.size, data, rec.tag)
        if records:
            full.gpu_buffers[gpu] = records
    full.finalize(delta.checkpoint_time)
    return full


def _not_inherited(name: str, buf_id: int, i: int) -> TornImageError:
    return TornImageError(
        f"delta image {name!r}: buffer {buf_id} chunk {i} is inherited "
        "but the parent does not hold matching bytes"
    )


def _bad_address(name: str, buf_id: int, i: int) -> TornImageError:
    return TornImageError(
        f"delta image {name!r}: buffer {buf_id} chunk {i} fails its "
        "content-address check (corrupt chunk or wrong parent)"
    )

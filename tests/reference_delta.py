"""The reference delta storage plane: per-chunk lists and dicts, kept as the oracle.

Until PR 21 these definitions *were* ``repro.storage.delta``,
``repro.storage.serial`` and ``repro.storage.hashcache``.  The
production record is now three packed values (``table`` / ``index`` /
``payload``), the extent→chunk math is integer arithmetic and the v2
reader and writer work a record at a time; this copy stays here,
outside ``src/``, with a ``DeltaBufferRecord`` of ``hashes: list[bytes]``
+ ``chunks: dict[int, bytes]``, the numpy interval pipeline, one
``reserve``/``take`` per chunk and one ``blake2b`` call per chunk per
chain level, so ``test_property_delta.py`` can demand the same files
byte for byte, the same aggregates and counters, the same materialized
bytes and the same errors (type and message) from both.  Everything
below is the old code verbatim — including what the same PR fixed in
production (malformed v2 metadata escaping as ``ValueError`` /
``TypeError`` / ``KeyError``, a short digest loading, a repeated chunk
key overwriting) — so feed it well-formed metadata only.  Do not
optimise it.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.cpu.process import KernelObject
from repro.errors import CheckpointError, TornImageError
from repro.gpu.ranges import RangeSet
from repro.storage.image import CheckpointImage, GpuBufferRecord

# -- repro/storage/delta.py at PR 20 ---------------------------------------

#: Default content chunk (applies to the captured payload bytes).
CHUNK_BYTES = 256

#: blake2b digest length for chunk addresses (16 bytes ~ no collisions
#: at simulator scale, half the metadata of a full 32-byte digest).
DIGEST_SIZE = 16


def hash_chunk(chunk) -> bytes:
    """The content address of one chunk (bytes or memoryview)."""
    return hashlib.blake2b(chunk, digest_size=DIGEST_SIZE).digest()


def chunk_hashes(data, chunk_bytes: int = CHUNK_BYTES) -> list[bytes]:
    """Content addresses of every chunk of ``data``, in order.

    Slices through a memoryview so the hasher reads the payload in
    place — no per-chunk ``bytes`` copies.
    """
    view = memoryview(data)
    blake2b = hashlib.blake2b
    ds = DIGEST_SIZE
    return [blake2b(view[off : off + chunk_bytes], digest_size=ds).digest()
            for off in range(0, len(view), chunk_bytes)]


def chunk_count(data_len: int, chunk_bytes: int) -> int:
    return (data_len + chunk_bytes - 1) // chunk_bytes


def dirty_chunk_indices(ranges: Iterable[tuple[int, int]], data_len: int,
                        chunk_bytes: int) -> np.ndarray:
    """Sorted unique chunk indices overlapped by half-open byte ranges.

    The range→chunk math is vectorized: each ``[start, end)`` pair
    becomes a ``[start // cb, (end - 1) // cb]`` chunk interval, the
    intervals are expanded with ``np.repeat``/``np.arange`` and merged
    with ``np.unique``.  Ranges are clipped to ``[0, data_len)``; a
    range entirely past the materialized payload touches no chunk.
    """
    if data_len <= 0:
        return np.empty(0, dtype=np.int64)
    pairs = [(s, e) for s, e in ranges if e > 0 and s < data_len and e > s]
    if not pairs:
        return np.empty(0, dtype=np.int64)
    arr = np.asarray(pairs, dtype=np.int64)
    lo = np.maximum(arr[:, 0], 0) // chunk_bytes
    hi = (np.minimum(arr[:, 1], data_len) - 1) // chunk_bytes
    counts = hi - lo + 1
    total = int(counts.sum())
    starts = np.repeat(lo, counts)
    bases = np.repeat(np.cumsum(counts) - counts, counts)
    return np.unique(starts + (np.arange(total, dtype=np.int64) - bases))


def dirty_chunk_span_bytes(ranges: Iterable[tuple[int, int]], data_len: int,
                           chunk_bytes: int) -> int:
    """Total bytes of the chunk-aligned spans overlapping ``ranges``.

    This is the payload a dirty-scaled transfer ships: every chunk any
    dirty byte lands in, rounded to chunk boundaries (the final chunk
    is clipped to the payload length).
    """
    idx = dirty_chunk_indices(ranges, data_len, chunk_bytes)
    if idx.size == 0:
        return 0
    nbytes = int(idx.size) * chunk_bytes
    last = int(idx[-1])
    tail = data_len - last * chunk_bytes
    if tail < chunk_bytes:
        nbytes -= chunk_bytes - tail
    return nbytes


@dataclass
class DeltaBufferRecord:
    """One buffer in a delta image: full chunk table, partial payload.

    ``hashes`` covers the buffer's complete captured payload
    (``data_len`` bytes); ``chunks`` holds the payload of only the
    chunks this delta stores itself — every other chunk is resolved
    from the parent image at materialize time.
    """

    buffer_id: int
    addr: int
    size: int            # logical buffer size (what the cost model charges)
    data_len: int        # captured payload length (materialized prefix)
    tag: str = ""
    hashes: list[bytes] = field(default_factory=list)
    chunks: dict[int, bytes] = field(default_factory=dict)

    def stored_bytes(self) -> int:
        return sum(len(c) for c in self.chunks.values())


@dataclass
class DeltaImage(CheckpointImage):
    """A checkpoint image that stores only chunks changed vs a parent.

    During the protocol run it accumulates captured buffers in the
    inherited ``gpu_buffers`` / ``cpu_pages`` exactly like a full image
    (the data movers are unchanged); :func:`seal_delta` then converts
    the captured state into the chunk tables and drops every byte the
    parent already holds.
    """

    parent_id: Optional[str] = None
    parent_name: str = ""
    #: Direct reference to the parent image while both live in one
    #: process (cleared by serialization; restore falls back to catalog
    #: resolution by ``parent_id``).
    parent_ref: Optional[CheckpointImage] = None
    chunk_bytes: int = CHUNK_BYTES
    #: ``gpu index -> buffer id -> DeltaBufferRecord`` (after sealing).
    delta_gpu: dict[int, dict[int, DeltaBufferRecord]] = field(
        default_factory=dict
    )
    #: Logical CPU page count of the materialized state (stored pages
    #: may be far fewer: pages equal to the parent's are dropped).
    cpu_logical_pages: int = 0
    sealed: bool = False
    chunks_written: int = 0
    chunks_reused: int = 0
    #: Running aggregates, maintained by :meth:`add_delta_record` /
    #: :meth:`add_cpu_page` so no size query ever re-walks the tables.
    stored_chunk_bytes: int = 0
    stored_page_bytes: int = 0
    reused_buffers: int = 0
    gpu_logical: dict[int, int] = field(default_factory=dict)

    # -- record insertion ----------------------------------------------------
    def add_delta_record(self, gpu_index: int, rec: "DeltaBufferRecord") -> None:
        """Insert one sealed buffer record, updating running aggregates.

        The record must be complete (hash table + local chunks filled)
        before insertion; re-inserting a buffer id is a sealing bug and
        raises.
        """
        table = self.delta_gpu.setdefault(gpu_index, {})
        if rec.buffer_id in table:
            raise TornImageError(
                f"delta image {self.name!r}: buffer {rec.buffer_id} "
                f"recorded twice on gpu {gpu_index}"
            )
        table[rec.buffer_id] = rec
        n_local = len(rec.chunks)
        self.stored_chunk_bytes += rec.stored_bytes()
        self.chunks_written += n_local
        self.chunks_reused += len(rec.hashes) - n_local
        if not rec.chunks:
            self.reused_buffers += 1
        self.gpu_logical[gpu_index] = (
            self.gpu_logical.get(gpu_index, 0) + rec.size
        )

    def add_cpu_page(self, index: int, data: bytes) -> None:
        prev = self.cpu_pages.get(index)
        super().add_cpu_page(index, data)
        self.stored_page_bytes += len(data) - (0 if prev is None else len(prev))

    def add_cpu_pages(self, indices: Sequence[int], datas: Sequence[bytes]) -> None:
        pages = self.cpu_pages
        replaced = sum(len(pages[i]) for i in indices if i in pages)
        super().add_cpu_pages(indices, datas)
        self.stored_page_bytes += sum(map(len, datas)) - replaced

    def drop_cpu_page(self, index: int) -> None:
        """Remove one stored page (it matched the parent's content)."""
        data = self.cpu_pages.pop(index, None)
        if data is not None:
            self.stored_page_bytes -= len(data)

    # -- sizes ---------------------------------------------------------------
    def gpu_bytes(self, gpu_index: Optional[int] = None) -> int:
        """Logical bytes of the *materialized* GPU state."""
        if not self.sealed:
            return super().gpu_bytes(gpu_index)
        if gpu_index is not None:
            return self.gpu_logical.get(gpu_index, 0)
        return sum(self.gpu_logical.values())

    def cpu_bytes(self) -> int:
        """Logical bytes of the *materialized* CPU state."""
        if not self.sealed:
            return super().cpu_bytes()
        return self.cpu_logical_pages * self.cpu_page_size

    def buffer_count(self, gpu_index: int) -> int:
        if not self.sealed:
            return super().buffer_count(gpu_index)
        return len(self.delta_gpu.get(gpu_index, {}))

    def total_buffer_count(self) -> int:
        if not self.sealed:
            return super().total_buffer_count()
        return sum(len(per_gpu) for per_gpu in self.delta_gpu.values())

    def stored_bytes(self) -> int:
        """Bytes this delta actually stores (its own chunks + pages)."""
        return self.stored_chunk_bytes + self.stored_page_bytes


def seal_delta(image: DeltaImage,
               parent_full: Optional[CheckpointImage],
               reused: Optional[dict[int, set[int]]] = None,
               freed: Optional[dict[int, set[int]]] = None,
               cache=None) -> None:
    """Convert an image's captured state into its delta representation.

    ``parent_full`` is the parent's *materialized* state (None for a
    chain root).  ``reused`` names, per GPU, the buffers the protocol
    skipped entirely because the write-heat history proved them
    unwritten since the parent — they get a pure-reference record (full
    hash table, zero local chunks).  ``freed`` buffers are dropped:
    they do not exist at the delta's checkpoint time.

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
    """
    if image.sealed:
        raise TornImageError(f"delta image {image.name!r} sealed twice")
    cb = image.chunk_bytes
    reused = reused or {}
    freed = freed or {}
    parent_hash_cache: dict[tuple[int, int], list[bytes]] = {}
    use_cache = cache is not None and image.parent_id is not None
    n_hit = n_miss = rehash_bytes = 0

    def parent_record(gpu: int, buf_id: int):
        if parent_full is None:
            return None
        return parent_full.gpu_buffers.get(gpu, {}).get(buf_id)

    def parent_hashes(gpu: int, buf_id: int, rec) -> list[bytes]:
        nonlocal rehash_bytes
        key = (gpu, buf_id)
        if key not in parent_hash_cache:
            parent_hash_cache[key] = chunk_hashes(rec.data, cb)
            rehash_bytes += len(rec.data)
        return parent_hash_cache[key]

    def cache_entry(buf_id: int, addr: int, size: int, data_len: int):
        if not use_cache:
            return None
        return cache.valid_entry(buf_id, parent_id=image.parent_id,
                                 addr=addr, size=size, data_len=data_len,
                                 chunk_bytes=cb)

    # Captured buffers: diff their payload chunk-by-chunk vs the parent.
    for gpu, records in sorted(image.gpu_buffers.items()):
        gone = freed.get(gpu, set())
        for buf_id, rec in sorted(records.items()):
            if buf_id in gone:
                continue
            data_len = len(rec.data)
            prec = parent_record(gpu, buf_id)
            layout_ok = (prec is not None and prec.addr == rec.addr
                         and prec.size == rec.size
                         and len(prec.data) == data_len)
            entry = cache_entry(buf_id, rec.addr, rec.size, data_len)
            delta_rec = DeltaBufferRecord(
                buffer_id=rec.buffer_id, addr=rec.addr, size=rec.size,
                data_len=data_len, tag=rec.tag,
            )
            if entry is not None and layout_ok:
                # Fast path: parent hashes from the cache; rehash only
                # the chunks overlapped by writes since the parent.
                hashes = list(entry.hashes)
                view = memoryview(rec.data)
                dirty = dirty_chunk_indices(entry.pending, data_len, cb)
                for i in map(int, dirty):
                    piece = view[i * cb : (i + 1) * cb]
                    h = hash_chunk(piece)
                    rehash_bytes += len(piece)
                    if h != hashes[i]:
                        hashes[i] = h
                        delta_rec.chunks[i] = bytes(piece)
                n_hit += len(hashes) - int(dirty.size)
                n_miss += int(dirty.size)
            else:
                hashes = chunk_hashes(rec.data, cb)
                n_miss += len(hashes)
                rehash_bytes += data_len
                if layout_ok:
                    phashes = parent_hashes(gpu, buf_id, prec)
                    for i, h in enumerate(hashes):
                        if h != phashes[i]:
                            delta_rec.chunks[i] = rec.data[i * cb : (i + 1) * cb]
                else:
                    # New buffer or layout change: every chunk is local.
                    for i in range(len(hashes)):
                        delta_rec.chunks[i] = rec.data[i * cb : (i + 1) * cb]
            delta_rec.hashes = hashes
            image.add_delta_record(gpu, delta_rec)
            if cache is not None:
                cache.promote(buf_id, image_id=image.id, addr=rec.addr,
                              size=rec.size, data_len=data_len,
                              chunk_bytes=cb, hashes=hashes)

    # Untouched buffers the protocol never captured: pure references.
    for gpu, ids in sorted(reused.items()):
        table = image.delta_gpu.setdefault(gpu, {})
        gone = freed.get(gpu, set())
        for buf_id in sorted(ids):
            if buf_id in table or buf_id in gone:
                continue  # recaptured (written mid-window) or freed
            prec = parent_record(gpu, buf_id)
            if prec is None:
                raise TornImageError(
                    f"delta image {image.name!r} reuses buffer {buf_id} "
                    "which the parent does not hold"
                )
            entry = cache_entry(buf_id, prec.addr, prec.size, len(prec.data))
            if entry is not None and not entry.pending:
                hashes = list(entry.hashes)
                n_hit += len(hashes)
            else:
                hashes = list(parent_hashes(gpu, buf_id, prec))
                n_miss += len(hashes)
            image.add_delta_record(gpu, DeltaBufferRecord(
                buffer_id=prec.buffer_id, addr=prec.addr, size=prec.size,
                data_len=len(prec.data), tag=prec.tag, hashes=hashes,
            ))
            if cache is not None:
                cache.promote(buf_id, image_id=image.id, addr=prec.addr,
                              size=prec.size, data_len=len(prec.data),
                              chunk_bytes=cb, hashes=hashes)

    # Freed buffers no longer exist: their cache entries go with them.
    if cache is not None:
        for gpu, ids in sorted(freed.items()):
            for buf_id in ids:
                cache.forget(buf_id)

    # CPU pages: drop the ones whose content the parent already stores.
    if parent_full is not None:
        for index in [i for i, data in image.cpu_pages.items()
                      if parent_full.cpu_pages.get(i) == data]:
            image.drop_cpu_page(index)
    image.cpu_logical_pages = int(
        image.context_meta.get("cpu_pages", len(image.cpu_pages))
    )
    image.gpu_buffers.clear()
    image.sealed = True
    obs.counter("storage/chunks-written").inc(image.chunks_written)
    obs.counter("storage/chunks-reused").inc(image.chunks_reused)
    obs.counter("storage/delta-bytes").inc(image.stored_bytes())
    obs.counter("storage/hash-hit").inc(n_hit)
    obs.counter("storage/hash-miss").inc(n_miss)
    obs.counter("storage/hash-rehash-bytes").inc(rehash_bytes)


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
    for gpu, table in delta.delta_gpu.items():
        for buf_id, rec in table.items():
            n_chunks = chunk_count(rec.data_len, cb)
            if len(rec.hashes) != n_chunks:
                raise TornImageError(
                    f"delta image {delta.name!r}: buffer {buf_id} chunk "
                    f"table has {len(rec.hashes)} entries for "
                    f"{n_chunks} chunks"
                )
            prec = (parent_full.gpu_buffers.get(gpu, {}).get(buf_id)
                    if parent_full is not None else None)
            parts = []
            for i, want in enumerate(rec.hashes):
                chunk = rec.chunks.get(i)
                if chunk is None:
                    if prec is None or len(prec.data) != rec.data_len:
                        raise TornImageError(
                            f"delta image {delta.name!r}: buffer {buf_id} "
                            f"chunk {i} is inherited but the parent does "
                            "not hold matching bytes"
                        )
                    chunk = prec.data[i * cb : (i + 1) * cb]
                if hash_chunk(chunk) != want:
                    raise TornImageError(
                        f"delta image {delta.name!r}: buffer {buf_id} "
                        f"chunk {i} fails its content-address check "
                        "(corrupt chunk or wrong parent)"
                    )
                parts.append(chunk)
            data = b"".join(parts)
            full.gpu_buffers.setdefault(gpu, {})[buf_id] = GpuBufferRecord(
                buffer_id=rec.buffer_id, addr=rec.addr, size=rec.size,
                data=data, tag=rec.tag,
            )
    full.finalize(delta.checkpoint_time)
    return full


# -- repro/storage/serial.py at PR 20 --------------------------------------

MAGIC = b"PHOSIMG1"
FORMAT_VERSION = 1
DELTA_FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (FORMAT_VERSION, DELTA_FORMAT_VERSION)

_HEADER = struct.Struct("<8sII")  # magic, version, metadata length
_TRAILER = struct.Struct("<I")    # crc32


def save_image(image: CheckpointImage, path: Union[str, Path]) -> int:
    """Persist a finalized image; returns the file size in bytes.

    Full images write format v1 (byte-identical to the historical
    writer); sealed delta images write format v2.  Streams straight to
    the file handle: blob *offsets* are computed from lengths alone (no
    staging copy of the blob section), then the header, metadata, and
    each blob's bytes are written through ``memoryview`` with a rolling
    CRC-32.
    """
    image.require_finalized()
    if isinstance(image, DeltaImage):
        if not image.sealed:
            raise CheckpointError(
                f"delta image {image.name!r} is not sealed; it has no "
                "chunk tables to persist"
            )
        version = DELTA_FORMAT_VERSION
        metadata, blobs = _layout_v2(image)
    else:
        version = FORMAT_VERSION
        metadata, blobs = _layout_v1(image)
    meta_bytes = json.dumps(metadata, separators=(",", ":")).encode()

    # Stream header, metadata, and blobs with a rolling CRC.  The write
    # is atomic: everything goes to a temporary sibling first and
    # ``os.replace`` publishes it in one step, so a writer dying
    # mid-stream can only ever leave a stray ``.tmp`` behind — never a
    # truncated file under the image's real name.
    crc = 0
    size = 0
    path = Path(path)
    tmp_path = path.with_name(path.name + ".tmp")
    try:
        with open(tmp_path, "wb") as fh:
            def emit(chunk) -> None:
                nonlocal crc, size
                view = memoryview(chunk)
                fh.write(view)
                crc = zlib.crc32(view, crc)
                size += view.nbytes

            emit(_HEADER.pack(MAGIC, version, len(meta_bytes)))
            emit(meta_bytes)
            for data in blobs:
                emit(data)
            fh.write(_TRAILER.pack(crc))
            size += _TRAILER.size
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return size


def _layout_v1(image: CheckpointImage) -> tuple[dict, list]:
    """Metadata + ordered blob list for a full image (format v1)."""
    offset = 0

    def reserve(data) -> tuple[int, int]:
        nonlocal offset
        ref = (offset, len(data))
        offset += len(data)
        return ref

    blobs: list = []
    cpu_index = {}
    for page_idx, data in sorted(image.cpu_pages.items()):
        cpu_index[str(page_idx)] = reserve(data)
        blobs.append(data)
    gpu_index: dict[str, dict] = {}
    for gpu, records in sorted(image.gpu_buffers.items()):
        per_gpu = {}
        for buf_id, rec in sorted(records.items()):
            blob_offset, length = reserve(rec.data)
            blobs.append(rec.data)
            per_gpu[str(buf_id)] = {
                "addr": rec.addr, "size": rec.size, "tag": rec.tag,
                "blob": [blob_offset, length],
            }
        gpu_index[str(gpu)] = per_gpu
    metadata = {
        "name": image.name,
        "checkpoint_time": image.checkpoint_time,
        "cpu_page_size": image.cpu_page_size,
        "cpu_control": image.cpu_control,
        "kernel_objects": [
            {"kind": o.kind, "description": o.description, "state": o.state}
            for o in image.kernel_objects
        ],
        "gpu_modules": {str(k): v for k, v in image.gpu_modules.items()},
        "context_meta": image.context_meta,
        "cpu_pages": cpu_index,
        "gpu_buffers": gpu_index,
    }
    return metadata, blobs


def _layout_v2(image: DeltaImage) -> tuple[dict, list]:
    """Metadata + ordered blob list for a delta image (format v2)."""
    offset = 0

    def reserve(data) -> tuple[int, int]:
        nonlocal offset
        ref = (offset, len(data))
        offset += len(data)
        return ref

    blobs: list = []
    cpu_index = {}
    for page_idx, data in sorted(image.cpu_pages.items()):
        cpu_index[str(page_idx)] = reserve(data)
        blobs.append(data)
    gpu_index: dict[str, dict] = {}
    for gpu, table in sorted(image.delta_gpu.items()):
        per_gpu = {}
        for buf_id, rec in sorted(table.items()):
            chunk_refs = {}
            for idx, chunk in sorted(rec.chunks.items()):
                chunk_refs[str(idx)] = reserve(chunk)
                blobs.append(chunk)
            per_gpu[str(buf_id)] = {
                "addr": rec.addr, "size": rec.size,
                "data_len": rec.data_len, "tag": rec.tag,
                "hashes": [h.hex() for h in rec.hashes],
                "chunks": chunk_refs,
            }
        gpu_index[str(gpu)] = per_gpu
    metadata = {
        "name": image.name,
        "checkpoint_time": image.checkpoint_time,
        "cpu_page_size": image.cpu_page_size,
        "cpu_control": image.cpu_control,
        "kernel_objects": [
            {"kind": o.kind, "description": o.description, "state": o.state}
            for o in image.kernel_objects
        ],
        "gpu_modules": {str(k): v for k, v in image.gpu_modules.items()},
        "context_meta": image.context_meta,
        "cpu_pages": cpu_index,
        "delta": {
            "parent_id": image.parent_id,
            "parent_name": image.parent_name,
            "chunk_bytes": image.chunk_bytes,
            "cpu_logical_pages": image.cpu_logical_pages,
            "chunks_written": image.chunks_written,
            "chunks_reused": image.chunks_reused,
            "gpu": gpu_index,
        },
    }
    return metadata, blobs


def load_image(path: Union[str, Path]) -> CheckpointImage:
    """Load and validate an image written by :func:`save_image`."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size + _TRAILER.size:
        raise TornImageError(f"{path}: file too short to be a PHOS image")
    body, trailer = raw[: -_TRAILER.size], raw[-_TRAILER.size :]
    (crc,) = _TRAILER.unpack(trailer)
    if zlib.crc32(body) != crc:
        raise TornImageError(f"{path}: CRC mismatch (corrupt image)")
    magic, version, meta_len = _HEADER.unpack_from(body)
    if magic != MAGIC:
        raise CheckpointError(f"{path}: not a PHOS image (bad magic)")
    if version not in SUPPORTED_VERSIONS:
        supported = "/".join(str(v) for v in SUPPORTED_VERSIONS)
        raise CheckpointError(
            f"{path}: unsupported format version {version} "
            f"(this build reads {supported})"
        )
    meta_start = _HEADER.size
    metadata = json.loads(body[meta_start : meta_start + meta_len])
    blobs = body[meta_start + meta_len :]

    def take(ref) -> bytes:
        offset, length = ref
        if offset < 0 or length < 0:
            raise TornImageError(
                f"{path}: negative blob reference ({offset}, {length})"
            )
        if offset + length > len(blobs):
            raise TornImageError(f"{path}: blob reference out of range")
        return bytes(blobs[offset : offset + length])

    if version == DELTA_FORMAT_VERSION:
        return _load_v2(path, metadata, take)
    return _load_v1(path, metadata, take)


def _load_common(image: CheckpointImage, metadata: dict, take) -> None:
    image.cpu_page_size = metadata["cpu_page_size"]
    image.cpu_control = metadata["cpu_control"]
    image.kernel_objects = [
        KernelObject(kind=o["kind"], description=o["description"],
                     state=o.get("state", {}))
        for o in metadata["kernel_objects"]
    ]
    image.gpu_modules = {
        int(k): list(v) for k, v in metadata["gpu_modules"].items()
    }
    image.context_meta = metadata["context_meta"]
    for page_idx, ref in metadata["cpu_pages"].items():
        image.add_cpu_page(int(page_idx), take(ref))


def _load_v1(path, metadata: dict, take) -> CheckpointImage:
    image = CheckpointImage(name=metadata["name"])
    _load_common(image, metadata, take)
    for gpu, per_gpu in metadata["gpu_buffers"].items():
        for buf_id, rec in per_gpu.items():
            data = take(rec["blob"])
            if rec["size"] < 0 or len(data) > rec["size"]:
                # The captured payload is a materialized prefix of the
                # logical buffer, never longer than it: the cost model
                # charges ``size``, restore writes ``data``, and a blob
                # outgrowing its declared size means a writer bug or a
                # tampered index — both unrestorable.
                raise TornImageError(
                    f"{path}: GPU buffer {buf_id} declares size "
                    f"{rec['size']} but stores a {len(data)}-byte blob"
                )
            image.add_gpu_buffer(int(gpu), GpuBufferRecord(
                buffer_id=int(buf_id), addr=rec["addr"], size=rec["size"],
                data=data, tag=rec["tag"],
            ))
    image.finalize(metadata["checkpoint_time"])
    return image


def _load_v2(path, metadata: dict, take) -> DeltaImage:
    delta_meta = metadata["delta"]
    chunk_bytes = int(delta_meta["chunk_bytes"])
    if chunk_bytes <= 0:
        raise TornImageError(f"{path}: non-positive chunk size {chunk_bytes}")
    image = DeltaImage(
        name=metadata["name"],
        parent_id=delta_meta["parent_id"],
        parent_name=delta_meta.get("parent_name", ""),
        chunk_bytes=chunk_bytes,
        cpu_logical_pages=int(delta_meta.get("cpu_logical_pages", 0)),
    )
    _load_common(image, metadata, take)
    for gpu, per_gpu in delta_meta["gpu"].items():
        for buf_id, rec in per_gpu.items():
            size, data_len = rec["size"], rec["data_len"]
            if size < 0 or data_len < 0 or data_len > size:
                raise TornImageError(
                    f"{path}: GPU buffer {buf_id} declares size {size} "
                    f"with a {data_len}-byte payload"
                )
            hashes = [bytes.fromhex(h) for h in rec["hashes"]]
            if len(hashes) != chunk_count(data_len, chunk_bytes):
                raise TornImageError(
                    f"{path}: GPU buffer {buf_id} chunk table has "
                    f"{len(hashes)} entries for a {data_len}-byte payload"
                )
            chunks: dict[int, bytes] = {}
            for idx_s, ref in rec["chunks"].items():
                idx = int(idx_s)
                if idx < 0 or idx >= len(hashes):
                    raise TornImageError(
                        f"{path}: GPU buffer {buf_id} stores chunk {idx} "
                        "outside its chunk table"
                    )
                chunk = take(ref)
                want = min(chunk_bytes, data_len - idx * chunk_bytes)
                if len(chunk) != want:
                    raise TornImageError(
                        f"{path}: GPU buffer {buf_id} chunk {idx} is "
                        f"{len(chunk)} bytes, expected {want}"
                    )
                chunks[idx] = chunk
            # Routed through add_delta_record so the image's running
            # aggregates (stored bytes, chunk counts, reused buffers)
            # are rebuilt from the records themselves.
            image.add_delta_record(int(gpu), DeltaBufferRecord(
                buffer_id=int(buf_id), addr=rec["addr"], size=size,
                data_len=data_len, tag=rec["tag"], hashes=hashes,
                chunks=chunks,
            ))
    want_written = int(delta_meta.get("chunks_written", image.chunks_written))
    want_reused = int(delta_meta.get("chunks_reused", image.chunks_reused))
    if (image.chunks_written, image.chunks_reused) != (want_written, want_reused):
        raise TornImageError(
            f"{path}: chunk counts in the container header "
            f"({want_written} written / {want_reused} reused) do not match "
            f"its records ({image.chunks_written} / {image.chunks_reused})"
        )
    image.sealed = True
    image.finalize(metadata["checkpoint_time"])
    return image


# -- repro/storage/hashcache.py at PR 20 -----------------------------------

@dataclass
class HashCacheEntry:
    """Chunk hashes of one buffer as of image ``image_id``, plus the
    byte ranges written since that image sealed."""

    buffer_id: int
    image_id: str
    addr: int
    size: int
    data_len: int
    chunk_bytes: int
    hashes: list[bytes]
    pending: RangeSet = field(default_factory=RangeSet)


class BufferHashCache:
    """Per-process (per-frontend) chunk-hash cache with dirty tracking."""

    def __init__(self) -> None:
        self.entries: dict[int, HashCacheEntry] = {}

    # -- dirty feed (frontend write tracking) --------------------------------
    def note_write(self, buffer_id: int, start: int, end: int) -> None:
        """Record that ``[start, end)`` (buffer-relative bytes) was written.

        No-op for buffers without an entry: a buffer never sealed has no
        hashes to invalidate, and its first seal hashes everything.
        """
        if end <= start:
            return
        entry = self.entries.get(buffer_id)
        if entry is not None:
            entry.pending.add(start, end)

    def forget(self, buffer_id: int) -> None:
        """Drop a buffer's entry (it was freed)."""
        self.entries.pop(buffer_id, None)

    # -- seal-side API -------------------------------------------------------
    def valid_entry(self, buffer_id: int, *, parent_id: str, addr: int,
                    size: int, data_len: int,
                    chunk_bytes: int) -> Optional[HashCacheEntry]:
        """The entry for ``buffer_id`` iff it matches the named parent
        image and the buffer's layout is unchanged; else None (miss)."""
        entry = self.entries.get(buffer_id)
        if entry is None:
            return None
        if (entry.image_id != parent_id or entry.addr != addr
                or entry.size != size or entry.data_len != data_len
                or entry.chunk_bytes != chunk_bytes):
            return None
        return entry

    def promote(self, buffer_id: int, *, image_id: str, addr: int, size: int,
                data_len: int, chunk_bytes: int,
                hashes: list[bytes]) -> None:
        """(Re)bind a buffer's entry to a freshly sealed image.

        Called with the process quiesced, so clearing ``pending`` races
        with nothing: the hashes describe the buffer's bytes exactly as
        of the sealing image.
        """
        self.entries[buffer_id] = HashCacheEntry(
            buffer_id=buffer_id, image_id=image_id, addr=addr, size=size,
            data_len=data_len, chunk_bytes=chunk_bytes, hashes=hashes,
        )

    # -- transfer-side API ---------------------------------------------------
    def dirty_extent(self, buffer_id: int, *, parent_id: str, addr: int,
                     size: int, data_len: int) -> Optional[RangeSet]:
        """Pending dirty ranges vs ``parent_id``, or None when unknown.

        None means the transfer path must ship the full buffer (no
        entry, wrong epoch, or layout change).  Chunk-size mismatch is
        irrelevant here — pending ranges are plain byte offsets.
        """
        entry = self.entries.get(buffer_id)
        if entry is None:
            return None
        if (entry.image_id != parent_id or entry.addr != addr
                or entry.size != size or entry.data_len != data_len):
            return None
        return entry.pending

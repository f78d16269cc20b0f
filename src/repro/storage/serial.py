"""On-disk serialization of checkpoint images.

A real OS-level C/R tool persists its images; this module gives
:class:`~repro.storage.image.CheckpointImage` a simple, robust binary
container format:

* an 8-byte magic + format version;
* a JSON metadata block (names, control state, kernel objects, the
  per-buffer/per-page index with blob offsets);
* a contiguous blob section holding the raw bytes;
* a CRC-32 trailer over everything before it.

Two format versions share that container:

* **v1** — full images: one blob per CPU page and per GPU buffer
  (unchanged on disk since the first release; old images keep
  loading);
* **v2** — delta images (:class:`~repro.storage.delta.DeltaImage`):
  the metadata carries the parent reference and the per-buffer
  content-addressed chunk tables, and the blob section holds only the
  chunks this delta stores itself (see :mod:`repro.storage.delta`).

The format is self-contained (no pickle), versioned, and validated on
load — truncation, bit-rot, out-of-range blob references,
metadata/blob size mismatches, and metadata that is ill-formed under a
valid CRC (a metadata block that is not a JSON object or runs past the
body, a missing field or one of the wrong type, a reference that is not
a pair of integers, a digest that is not ``DIGEST_SIZE`` hex bytes, a
chunk stored twice) are detected (:class:`TornImageError`), not
silently restored and not leaked as ``KeyError``/``ValueError``/
``TypeError``/``AttributeError``.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path
from typing import Optional, Union

import os

from repro.cpu.process import KernelObject
from repro.errors import CheckpointError, TornImageError
from repro.storage.delta import (
    DIGEST_SIZE,
    DeltaBufferRecord,
    DeltaImage,
    chunk_count,
)
from repro.storage.image import CheckpointImage, GpuBufferRecord

MAGIC = b"PHOSIMG1"
FORMAT_VERSION = 1
DELTA_FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (FORMAT_VERSION, DELTA_FORMAT_VERSION)

_HEADER = struct.Struct("<8sII")  # magic, version, metadata length
_TRAILER = struct.Struct("<I")    # crc32


def save_image(image: CheckpointImage, path: Union[str, Path]) -> int:
    """Persist a finalized image; returns the file size in bytes.

    Full images write format v1 (byte-identical to the historical
    writer); delta images write format v2.  Streams straight to
    the file handle: blob *offsets* are computed from lengths alone (no
    staging copy of the blob section), then the header, metadata, and
    each blob's bytes are written through ``memoryview`` with a rolling
    CRC-32.
    """
    image.require_finalized()
    if isinstance(image, DeltaImage):
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


def _header(image: CheckpointImage) -> tuple[dict, list, int]:
    """The metadata keys both versions share, in their on-disk order,
    with the CPU pages as the first blobs; returns the metadata, the
    blob list and the offset where the next blob starts."""
    offset = 0
    blobs: list = []
    cpu_index = {}
    for page_idx, data in sorted(image.cpu_pages.items()):
        cpu_index[str(page_idx)] = (offset, len(data))
        offset += len(data)
        blobs.append(data)
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
    }
    return metadata, blobs, offset


def _layout_v1(image: CheckpointImage) -> tuple[dict, list]:
    """Metadata + ordered blob list for a full image (format v1)."""
    metadata, blobs, offset = _header(image)
    gpu_index: dict[str, dict] = {}
    for gpu, records in sorted(image.gpu_buffers.items()):
        per_gpu = {}
        for buf_id, rec in sorted(records.items()):
            blobs.append(rec.data)
            per_gpu[str(buf_id)] = {
                "addr": rec.addr, "size": rec.size, "tag": rec.tag,
                "blob": [offset, len(rec.data)],
            }
            offset += len(rec.data)
        gpu_index[str(gpu)] = per_gpu
    metadata["gpu_buffers"] = gpu_index
    return metadata, blobs


def _layout_v2(image: DeltaImage) -> tuple[dict, list]:
    """Metadata + ordered blob list for a delta image (format v2)."""
    metadata, blobs, offset = _header(image)
    cb = image.chunk_bytes
    gpu_index: dict[str, dict] = {}
    for gpu, table in sorted(image.delta_gpu.items()):
        per_gpu = {}
        for buf_id, rec in sorted(table.items()):
            # One blob per record: ``payload`` is its chunks in index
            # order, so each chunk's reference is the previous one's end.
            rec.validate(image.name, cb)
            end = offset + len(rec.payload)
            chunk_refs = {}
            for idx in rec.index:
                chunk_refs[str(idx)] = (offset, cb)
                offset += cb
            if offset != end:   # validated: the last one is the short tail
                chunk_refs[str(rec.index[-1])] = (offset - cb,
                                                  end - (offset - cb))
                offset = end
            blobs.append(rec.payload)
            per_gpu[str(buf_id)] = {
                "addr": rec.addr, "size": rec.size,
                "data_len": rec.data_len, "tag": rec.tag,
                "hashes": (rec.table.hex(" ", DIGEST_SIZE).split(" ")
                           if rec.table else []),
                "chunks": chunk_refs,
            }
        gpu_index[str(gpu)] = per_gpu
    metadata["delta"] = {
        "parent_id": image.parent_id,
        "parent_name": image.parent_name,
        "chunk_bytes": image.chunk_bytes,
        "cpu_logical_pages": image.cpu_logical_pages,
        "chunks_written": image.chunks_written,
        "chunks_reused": image.chunks_reused,
        "gpu": gpu_index,
    }
    return metadata, blobs


def load_image(path: Union[str, Path]) -> CheckpointImage:
    """Load and validate an image written by :func:`save_image`."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size + _TRAILER.size:
        raise TornImageError(f"{path}: file too short to be a PHOS image")
    body = memoryview(raw)[: -_TRAILER.size]   # one copy of the file, not three
    (crc,) = _TRAILER.unpack_from(raw, len(body))
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
    if meta_start + meta_len > len(body):
        raise TornImageError(
            f"{path}: metadata length {meta_len} runs past the image body")
    try:
        metadata = json.loads(raw[meta_start : meta_start + meta_len])
    except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
        raise TornImageError(f"{path}: metadata is not JSON ({exc})") from None
    if type(metadata) is not dict:
        raise TornImageError(f"{path}: metadata is not a JSON object")
    blobs = body[meta_start + meta_len :]

    def take(ref) -> bytes:
        error = _bad_reference(path, ref, len(blobs))
        if error is not None:
            raise error
        offset, length = ref
        return bytes(blobs[offset : offset + length])

    try:
        if version == DELTA_FORMAT_VERSION:
            return _load_v2(path, metadata, take, blobs)
        return _load_v1(path, metadata, take)
    except KeyError as missing:
        raise TornImageError(
            f"{path}: metadata lacks the field {missing}"
        ) from None
    except (AttributeError, TypeError, ValueError) as exc:
        # A field of the wrong JSON type: a list where a table belongs,
        # a string where a number does, a key that is not an integer.
        raise TornImageError(
            f"{path}: ill-formed metadata ({type(exc).__name__}: {exc})"
        ) from None


def _bad_reference(path, ref, blob_len: int,
                   owner: str = "") -> Optional[TornImageError]:
    """What is wrong with a blob reference, or None: it must be an
    ``[offset, length]`` pair of integers inside the blob section."""
    try:
        offset, length = ref
    except (TypeError, ValueError):
        offset = length = None
    if type(offset) is not int or type(length) is not int:
        return TornImageError(
            f"{path}: {owner}blob reference {ref!r} is not an "
            "[offset, length] pair of integers"
        )
    if offset < 0 or length < 0:
        return TornImageError(
            f"{path}: negative blob reference ({offset}, {length})"
        )
    if offset + length > blob_len:
        return TornImageError(f"{path}: blob reference out of range")
    return None


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


def _load_v2(path, metadata: dict, take, blobs) -> DeltaImage:
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
    hex_len = 2 * DIGEST_SIZE
    n_blob = len(blobs)
    for gpu, per_gpu in delta_meta["gpu"].items():
        for buf_id, rec in per_gpu.items():
            try:
                addr, size, data_len, tag, digests, refs = (
                    rec["addr"], rec["size"], rec["data_len"], rec["tag"],
                    rec["hashes"], rec["chunks"])
            except KeyError as missing:
                raise TornImageError(
                    f"{path}: GPU buffer {buf_id} lacks the field {missing}"
                ) from None
            if type(digests) is not list or type(refs) is not dict:
                raise TornImageError(
                    f"{path}: GPU buffer {buf_id} needs a list of hashes "
                    "and a table of chunks"
                )
            if (type(size) is not int or type(data_len) is not int
                    or size < 0 or data_len < 0 or data_len > size):
                raise TornImageError(
                    f"{path}: GPU buffer {buf_id} declares size {size} "
                    f"with a {data_len}-byte payload"
                )
            # One fromhex per record; it skips whitespace, so each
            # entry's own length is checked beside the total.
            try:
                table = bytes.fromhex("".join(digests))
                well_formed = (len(table) == len(digests) * DIGEST_SIZE
                               and not set(map(len, digests)) - {hex_len})
            except (TypeError, ValueError):
                well_formed = False
            if not well_formed:
                raise TornImageError(
                    f"{path}: GPU buffer {buf_id} chunk table holds an entry "
                    f"that is not a {DIGEST_SIZE}-byte hex digest"
                )
            n_chunks = len(digests)
            if n_chunks != chunk_count(data_len, chunk_bytes):
                raise TornImageError(
                    f"{path}: GPU buffer {buf_id} chunk table has "
                    f"{n_chunks} entries for a {data_len}-byte payload"
                )
            # Every reference passes ``take``'s checks (inline: one call
            # per chunk is what this loop exists to avoid); the payload
            # is then one slice when the references ascend back to back
            # (what the writer produces), else gathered per reference.
            spans = []
            packed = True
            last, end = -1, None
            for idx_s, ref in refs.items():
                try:
                    idx = int(idx_s)
                except ValueError:
                    raise TornImageError(
                        f"{path}: GPU buffer {buf_id} chunk key {idx_s!r} "
                        "is not an integer"
                    ) from None
                if idx < 0 or idx >= n_chunks:
                    raise TornImageError(
                        f"{path}: GPU buffer {buf_id} stores chunk {idx} "
                        "outside its chunk table"
                    )
                try:
                    offset, length = ref
                except (TypeError, ValueError):
                    offset = length = None
                if (type(offset) is not int or type(length) is not int
                        or offset < 0 or length < 0
                        or offset + length > n_blob):
                    raise _bad_reference(
                        path, ref, n_blob, f"GPU buffer {buf_id} chunk {idx} ")
                want = min(chunk_bytes, data_len - idx * chunk_bytes)
                if length != want:
                    raise TornImageError(
                        f"{path}: GPU buffer {buf_id} chunk {idx} is "
                        f"{length} bytes, expected {want}"
                    )
                if idx <= last or (end is not None and offset != end):
                    packed = False
                last, end = idx, offset + length
                spans.append((idx, offset, end))
            if not packed:
                spans.sort()
            index = tuple([idx for idx, _, _ in spans])
            if packed:
                payload = bytes(blobs[spans[0][1] : end]) if spans else b""
            elif len(set(index)) != len(index):
                raise TornImageError(
                    f"{path}: GPU buffer {buf_id} stores a chunk twice "
                    f"(chunk keys {list(refs)})"
                )
            else:
                payload = b"".join([blobs[at:stop] for _, at, stop in spans])
            # Routed through add_delta_record so the image's running
            # aggregates (stored bytes, chunk counts, reused buffers)
            # are rebuilt from the records themselves.
            image.add_delta_record(int(gpu), DeltaBufferRecord(
                buffer_id=int(buf_id), addr=addr, size=size,
                data_len=data_len, tag=tag, table=table,
                index=index, payload=payload,
            ))
    want_written = int(delta_meta.get("chunks_written", image.chunks_written))
    want_reused = int(delta_meta.get("chunks_reused", image.chunks_reused))
    if (image.chunks_written, image.chunks_reused) != (want_written, want_reused):
        raise TornImageError(
            f"{path}: chunk counts in the container header "
            f"({want_written} written / {want_reused} reused) do not match "
            f"its records ({image.chunks_written} / {image.chunks_reused})"
        )
    image.stored_page_bytes = sum(map(len, image.cpu_pages.values()))
    image.finalize(metadata["checkpoint_time"])
    return image

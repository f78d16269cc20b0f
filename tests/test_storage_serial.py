"""Unit tests for on-disk image serialization."""

import json
import struct
import zlib
from pathlib import Path

import pytest

from repro.errors import CheckpointError, TornImageError
from repro.storage.image import CheckpointImage
from repro.storage.serial import FORMAT_VERSION, load_image, save_image

from tests.toyapp import ToyApp, image_gpu_state

GOLDENS = Path(__file__).parent / "goldens"

_HEADER_SIZE = 16  # magic(8) + version(4) + metadata length(4)


def rewrite_container(path, mutate):
    """Hand-corrupt an image's JSON index and blob section, keeping the
    CRC valid.

    This is what a *buggy writer* produces (as opposed to bit-rot,
    which the CRC catches): the container checks out, the metadata
    lies.  ``mutate(meta, blobs)`` edits the parsed metadata dict in
    place and may return a replacement for the blob section (a
    ``bytearray`` it is handed).
    """
    raw = path.read_bytes()
    body = raw[:-4]
    magic, version, meta_len = struct.unpack_from("<8sII", body)
    meta = json.loads(body[_HEADER_SIZE : _HEADER_SIZE + meta_len])
    blobs = bytearray(body[_HEADER_SIZE + meta_len:])
    blobs = mutate(meta, blobs) or blobs
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode()
    new_body = (struct.pack("<8sII", magic, version, len(meta_bytes))
                + meta_bytes + bytes(blobs))
    path.write_bytes(new_body + struct.pack("<I", zlib.crc32(new_body)))


def rewrite_metadata(path, mutate):
    """:func:`rewrite_container` for a ``mutate(meta)`` that leaves the
    blob section alone."""
    def meta_only(meta, blobs):
        mutate(meta)

    rewrite_container(path, meta_only)


@pytest.fixture
def image(eng, process):
    """A real checkpoint image from a toy run."""
    from repro.core.daemon import Phos

    phos = Phos(eng, process.machine, use_context_pool=False)
    phos.attach(process)
    app = ToyApp(process)

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        img, session = yield phos.checkpoint(process, mode="cow")
        assert not session.aborted
        return img

    img = eng.run_process(driver(eng))
    eng.run()
    return img


def test_roundtrip_preserves_everything(image, tmp_path):
    path = tmp_path / "ckpt.phos"
    size = save_image(image, path)
    assert size == path.stat().st_size
    loaded = load_image(path)
    assert loaded.finalized
    assert loaded.name == image.name
    assert loaded.checkpoint_time == image.checkpoint_time
    assert loaded.cpu_page_size == image.cpu_page_size
    assert loaded.cpu_control == image.cpu_control
    assert loaded.cpu_pages == image.cpu_pages
    assert image_gpu_state(loaded) == image_gpu_state(image)
    assert loaded.gpu_modules == image.gpu_modules
    assert loaded.context_meta == image.context_meta
    # Buffer metadata survives (tags drive workload rebinding).
    for gpu, records in image.gpu_buffers.items():
        for buf_id, rec in records.items():
            got = loaded.gpu_buffers[gpu][buf_id]
            assert (got.addr, got.size, got.tag) == (rec.addr, rec.size, rec.tag)


def test_restore_from_loaded_image(image, tmp_path, eng):
    """A loaded image is restorable exactly like the in-memory one."""
    from repro.cluster import Machine
    from repro.core.daemon import Phos

    path = tmp_path / "ckpt.phos"
    save_image(image, path)
    loaded = load_image(path)
    machine2 = Machine(eng, name="m2", n_gpus=1)
    phos2 = Phos(eng, machine2, use_context_pool=False)

    def driver(eng):
        result = yield from phos2.restore(
            loaded, gpu_indices=[0], machine=machine2
        )
        process2, _, session = result
        yield session.done
        return process2

    process2 = eng.run_process(driver(eng))
    eng.run()
    by_addr = {b.addr: b.snapshot() for b in process2.runtime.allocations[0]}
    for rec in image.gpu_buffers[0].values():
        assert by_addr[rec.addr] == rec.data


def test_unfinalized_image_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        save_image(CheckpointImage(), tmp_path / "x.phos")


def test_corruption_detected(image, tmp_path):
    path = tmp_path / "ckpt.phos"
    save_image(image, path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF  # flip a bit in the middle
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="CRC"):
        load_image(path)


def test_truncation_detected(image, tmp_path):
    path = tmp_path / "ckpt.phos"
    save_image(image, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError):
        load_image(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.phos"
    import struct
    import zlib

    body = struct.pack("<8sII", b"NOTPHOS!", FORMAT_VERSION, 2) + b"{}"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CheckpointError, match="magic"):
        load_image(path)


def test_future_version_rejected(tmp_path):
    path = tmp_path / "future.phos"
    import struct
    import zlib

    body = struct.pack("<8sII", b"PHOSIMG1", FORMAT_VERSION + 9, 2) + b"{}"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CheckpointError, match="version"):
        load_image(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.phos"
    path.write_bytes(b"")
    with pytest.raises(CheckpointError, match="too short"):
        load_image(path)


# -- buggy-writer metadata (PR-6 regression: valid CRC, lying index) ----------------

def _first_gpu_buffer(meta):
    gpu = sorted(meta["gpu_buffers"])[0]
    buf = sorted(meta["gpu_buffers"][gpu], key=int)[0]
    return meta["gpu_buffers"][gpu][buf]


def test_negative_blob_offset_rejected(image, tmp_path):
    path = tmp_path / "ckpt.phos"
    save_image(image, path)

    def mutate(meta):
        rec = _first_gpu_buffer(meta)
        rec["blob"][0] = -rec["blob"][0] - 1

    rewrite_metadata(path, mutate)
    with pytest.raises(TornImageError, match="negative blob reference"):
        load_image(path)


def test_negative_blob_length_rejected(image, tmp_path):
    path = tmp_path / "ckpt.phos"
    save_image(image, path)
    rewrite_metadata(path, lambda m: _first_gpu_buffer(m)["blob"]
                     .__setitem__(1, -8))
    with pytest.raises(TornImageError, match="negative blob reference"):
        load_image(path)


def test_blob_reference_past_end_rejected(image, tmp_path):
    path = tmp_path / "ckpt.phos"
    save_image(image, path)
    rewrite_metadata(path, lambda m: _first_gpu_buffer(m)["blob"]
                     .__setitem__(1, 1 << 30))
    with pytest.raises(TornImageError, match="out of range"):
        load_image(path)


def test_size_smaller_than_blob_rejected(image, tmp_path):
    """A buffer whose declared logical size is below its stored payload
    loads as wrong state (the cost model charges ``size``, restore
    writes ``data``) — it must be rejected, not restored."""
    path = tmp_path / "ckpt.phos"
    save_image(image, path)
    rewrite_metadata(path,
                     lambda m: _first_gpu_buffer(m).__setitem__("size", 8))
    with pytest.raises(TornImageError, match="declares size"):
        load_image(path)


def test_negative_size_rejected(image, tmp_path):
    path = tmp_path / "ckpt.phos"
    save_image(image, path)
    rewrite_metadata(path,
                     lambda m: _first_gpu_buffer(m).__setitem__("size", -1))
    with pytest.raises(TornImageError, match="declares size"):
        load_image(path)


# -- v1 golden fixture (backward compatibility) -------------------------------------

def make_golden_image():
    """The deterministic toy image pinned as ``goldens/image_v1.phos``.

    Regenerate the fixture with::

        PYTHONPATH=src python -c "from tests.test_storage_serial import \\
            write_golden; write_golden()"
    """
    from repro.api.runtime import GpuProcess
    from repro.cluster import Machine
    from repro.core.daemon import Phos
    from repro.gpu.context import GpuContext
    from repro.sim import Engine

    eng = Engine()
    machine = Machine(eng, name="node0", n_gpus=1)
    phos = Phos(eng, machine, use_context_pool=False)
    proc = GpuProcess(eng, machine, name="app", gpu_indices=[0], cpu_pages=8)
    proc.runtime.adopt_context(0, GpuContext(gpu_index=0))
    phos.attach(proc)
    app = ToyApp(proc)

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        img, _ = yield phos.checkpoint(proc, mode="stop-world",
                                       name="golden-v1")
        return img

    img = eng.run_process(driver(eng))
    eng.run()
    return img


def write_golden(path=GOLDENS / "image_v1.phos"):
    save_image(make_golden_image(), path)


def test_v1_golden_loads_and_writer_is_stable(tmp_path):
    """The committed v1 fixture keeps loading, and today's writer still
    produces byte-identical v1 output — old images never go stale."""
    golden = GOLDENS / "image_v1.phos"
    loaded = load_image(golden)
    assert loaded.finalized
    assert loaded.name == "golden-v1"
    assert type(loaded) is CheckpointImage  # v1 loads as a plain image
    fresh = make_golden_image()
    assert image_gpu_state(loaded) == image_gpu_state(fresh)
    assert loaded.cpu_pages == fresh.cpu_pages
    assert loaded.checkpoint_time == fresh.checkpoint_time
    # Writer stability: re-serializing the loaded image reproduces the
    # committed v1 bytes exactly (buffer ids live in the file, so this
    # is byte-deterministic whatever ran before this test).
    out = tmp_path / "rewrite.phos"
    save_image(loaded, out)
    assert out.read_bytes() == golden.read_bytes()


# -- v2 golden fixtures (the delta container, pinned before its writer changed) -----

def make_golden_v2_chain():
    """The deterministic (root, delta) toy chain pinned as
    ``goldens/image_v2_root.phos`` / ``image_v2_delta.phos``.

    Built by hand (no simulation) with explicit ids — a default id
    embeds ``os.getpid()`` and the delta's file stores its parent's.
    64-byte chunks; buffer 1 has a short tail chunk and is partially
    changed (chunk 1 and the tail), buffer 2 is a pure-reuse record,
    buffer 3 is freed, buffer 5 is new at buffer 3's address with an
    empty payload, GPU 1's buffer 4 is rewritten whole; CPU page 0
    equals the parent's (dropped at seal), page 1 changed (kept).
    Regenerate with::

        PYTHONPATH=src python -c "from tests.test_storage_serial import \\
            write_golden_v2; write_golden_v2()"
    """
    from repro.storage.delta import materialize, seal_delta
    from repro.storage.hashcache import BufferHashCache
    from repro.storage.image import CheckpointImage, GpuBufferRecord

    cb = 64
    cache = BufferHashCache()
    payload = {
        1: bytes(range(200)),                       # 3 chunks + 8-byte tail
        2: bytes(range(128, 256)),                  # 2 chunks
        3: b"\x33" * 64,
        4: bytes((7 * i) % 251 for i in range(100)),
    }
    layout = {1: (0, 0x1000, 4096, "weights"), 2: (0, 0x2000, 128, "frozen"),
              3: (0, 0x3000, 64, "scratch"), 4: (1, 0x1000, 256, "acts"),
              5: (0, 0x3000, 64, "")}

    def capture(image, buf_id, data):
        gpu, addr, size, tag = layout[buf_id]
        image.add_gpu_buffer(gpu, GpuBufferRecord(
            buffer_id=buf_id, addr=addr, size=size, data=data, tag=tag))

    def dress(image, pc):
        image.cpu_control = {"pc": pc, "sp": 0x7FF0}
        image.gpu_modules = {0: ["toy.cubin"], 1: ["toy.cubin"]}
        image.context_meta = {"cpu_pages": 2, "n_gpus": 2}
        image.cpu_page_size = 64

    root = CheckpointImage(name="golden-v2-root", id="golden.1")
    dress(root, 0x401)
    for buf_id in (1, 2, 3, 4):
        capture(root, buf_id, payload[buf_id])
    root.add_cpu_page(0, b"\xa0" * 64)
    root.add_cpu_page(1, b"\xa1" * 64)
    root = seal_delta(root, None, None, cache=cache, chunk_bytes=cb)
    root.finalize(1.0)

    changed = bytearray(payload[1])
    changed[70:75] = b"DELTA"          # chunk 1
    changed[195:200] = b"TAIL!"        # the 8-byte tail chunk (index 3)
    cache.note_write(1, 70, 75)
    cache.note_write(1, 195, 200)
    cache.note_write(4, 0, 100)
    delta = CheckpointImage(name="golden-v2-delta", id="golden.2")
    dress(delta, 0x402)
    capture(delta, 1, bytes(changed))
    capture(delta, 4, bytes(reversed(payload[4])))
    capture(delta, 5, b"")
    delta.add_cpu_page(0, b"\xa0" * 64)
    delta.add_cpu_page(1, b"\xb1" * 64)
    delta = seal_delta(delta, root, materialize(root), reused={0: {2}},
                       freed={0: {3}}, cache=cache, chunk_bytes=cb)
    delta.finalize(2.0)
    want = {(0, 0x1000): bytes(changed), (0, 0x2000): payload[2],
            (1, 0x1000): bytes(reversed(payload[4])), (0, 0x3000): b""}
    return root, delta, want


def write_golden_v2(directory=GOLDENS):
    root, delta, _ = make_golden_v2_chain()
    save_image(root, directory / "image_v2_root.phos")
    save_image(delta, directory / "image_v2_delta.phos")


def test_v2_goldens_load_materialize_and_writer_is_stable(tmp_path):
    """The committed v2 fixtures (written by the PR-20 writer, before
    records were packed) keep loading, the delta materializes through
    the root to the pinned bytes, and both today's sealer + writer and
    a load → save round trip reproduce the files byte for byte."""
    from repro.storage.delta import DeltaImage, materialize

    root_path = GOLDENS / "image_v2_root.phos"
    delta_path = GOLDENS / "image_v2_delta.phos"
    root, delta = load_image(root_path), load_image(delta_path)
    assert isinstance(root, DeltaImage) and root.parent_id is None
    assert isinstance(delta, DeltaImage) and delta.parent_id == "golden.1"
    assert (root.chunks_written, root.chunks_reused) == (9, 0)
    assert (delta.chunks_written, delta.chunks_reused) == (4, 4)
    assert delta.reused_buffers == 2          # buffer 2 and the empty one
    assert delta.cpu_pages == {1: b"\xb1" * 64}
    assert 3 not in delta.delta_gpu[0]

    fresh_root, fresh_delta, want = make_golden_v2_chain()
    full = materialize(delta, resolve={"golden.1": root}.get)
    assert image_gpu_state(full) == want
    assert full.cpu_pages == {0: b"\xa0" * 64, 1: b"\xb1" * 64}
    assert image_gpu_state(materialize(fresh_delta)) == want

    for golden, loaded, fresh in ((root_path, root, fresh_root),
                                  (delta_path, delta, fresh_delta)):
        for i, image in enumerate((loaded, fresh)):
            out = tmp_path / f"{golden.stem}-{i}.phos"
            save_image(image, out)
            assert out.read_bytes() == golden.read_bytes()


# -- malformed v2 metadata under a valid CRC (PR-21 regression) ---------------------

def _golden_rec(meta, buf_id="1"):
    """Buffer 1 of the golden delta: 4 digests, chunks "1" and "3" stored."""
    return meta["delta"]["gpu"]["0"][buf_id]


def _set(field, value):
    return lambda meta: _golden_rec(meta).__setitem__(field, value)


def _edit_hashes(edit):
    return lambda meta: edit(_golden_rec(meta)["hashes"])


def _edit_chunks(edit):
    return lambda meta: edit(_golden_rec(meta)["chunks"])


_HEX = "0123456789abcdef" * 2

MALFORMED_V2 = {
    "non-hex digest": (
        _edit_hashes(lambda h: h.__setitem__(0, "zz" * 16)), "hex digest"),
    "non-string digest": (
        _edit_hashes(lambda h: h.__setitem__(1, 7)), "hex digest"),
    "3-byte digest": (
        _edit_hashes(lambda h: h.__setitem__(2, "abcdef")), "hex digest"),
    "digest padded with whitespace": (
        _edit_hashes(lambda h: h.__setitem__(0, " " + h[0] + " ")),
        "hex digest"),
    "whitespace inside a digest": (
        _edit_hashes(lambda h: h.__setitem__(0, _HEX[:15] + "  " + _HEX[:15])),
        "hex digest"),
    "hashes not a list": (_set("hashes", _HEX * 4), "list of hashes"),
    "chunks not a table": (_set("chunks", [[0, 64]]), "table of chunks"),
    "one-element reference": (
        _edit_chunks(lambda c: c.__setitem__("1", [0])), "pair of integers"),
    "fractional reference": (
        _edit_chunks(lambda c: c.__setitem__("1", [0.5, 64])),
        "pair of integers"),
    "string reference": (
        _edit_chunks(lambda c: c.__setitem__("1", "ab")), "pair of integers"),
    "boolean reference": (
        _edit_chunks(lambda c: c.__setitem__("1", [True, 64])),
        "pair of integers"),
    "non-integer chunk key": (
        _edit_chunks(lambda c: c.__setitem__("x", c.pop("3"))),
        "chunk key 'x'"),
    "duplicate chunk index": (
        _edit_chunks(lambda c: c.__setitem__("01", c["1"])),
        "stores a chunk twice"),
    "missing tag": (lambda meta: _golden_rec(meta).pop("tag"),
                    "lacks the field 'tag'"),
    "missing hashes": (lambda meta: _golden_rec(meta).pop("hashes"),
                       "lacks the field 'hashes'"),
    "string size": (_set("size", "4096"), "declares size"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_V2))
def test_malformed_v2_metadata_is_a_torn_image(case, tmp_path):
    """A buggy writer's v2 index — valid CRC, lying or ill-typed metadata —
    is rejected as a ``TornImageError`` that names the file and the
    buffer.  At PR 20 these escaped as ``ValueError`` / ``TypeError`` /
    ``KeyError`` / ``AttributeError``, or loaded: a 3-byte digest only
    failed later, at materialize, blaming the chunk; chunk keys "1" and
    "01" both loaded, the second silently overwriting the first."""
    mutate, message = MALFORMED_V2[case]
    path = tmp_path / "delta.phos"
    path.write_bytes((GOLDENS / "image_v2_delta.phos").read_bytes())
    load_image(path)                      # the fixture itself is sound
    rewrite_metadata(path, mutate)
    with pytest.raises(TornImageError, match=message) as caught:
        load_image(path)
    assert str(path) in str(caught.value)
    assert "GPU buffer 1" in str(caught.value)


@pytest.mark.parametrize("meta_len, meta, message", [
    (1000, b"{}", "runs past the image body"),
    (None, b"{not json", "not JSON"),
    (None, b'{"name": "\xff"}', "not JSON"),
    (None, b"[]", "not a JSON object"),
], ids=["length-past-body", "not-json", "not-utf8", "top-level-list"])
def test_ill_formed_metadata_block_is_a_torn_image(meta_len, meta, message,
                                                   tmp_path):
    """The container checks out (magic, version, CRC) but its metadata
    block cannot be read as a JSON object.  Unchecked, these leak as
    ``UnicodeDecodeError``, ``JSONDecodeError`` and ``TypeError``."""
    body = struct.pack("<8sII", b"PHOSIMG1", FORMAT_VERSION,
                       len(meta) if meta_len is None else meta_len) + meta
    path = tmp_path / "raw.phos"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(TornImageError, match=message) as caught:
        load_image(path)
    assert str(path) in str(caught.value)


@pytest.mark.parametrize("golden, mutate, message", [
    ("image_v2_delta.phos", lambda meta: meta.pop("delta"),
     "lacks the field 'delta'"),
    ("image_v2_delta.phos",
     lambda meta: meta["cpu_pages"].__setitem__("1", [0]),
     "pair of integers"),
    ("image_v1.phos", lambda meta: _first_gpu_buffer(meta).pop("tag"),
     "lacks the field 'tag'"),
    ("image_v1.phos", lambda meta: meta.pop("gpu_modules"),
     "lacks the field 'gpu_modules'"),
    ("image_v1.phos",
     lambda meta: _first_gpu_buffer(meta).__setitem__("blob", [0, 8.0]),
     "pair of integers"),
    ("image_v1.phos", lambda meta: meta["cpu_pages"].__setitem__("a", [0, 0]),
     "ill-formed metadata"),
    ("image_v1.phos", lambda meta: _first_gpu_buffer(meta).__setitem__(
        "size", "9"), "ill-formed metadata"),
    ("image_v2_delta.phos", lambda meta: meta.__setitem__("gpu_modules", []),
     "ill-formed metadata"),
    ("image_v1.phos", lambda meta: meta.__setitem__("cpu_pages", []),
     "ill-formed metadata"),
    ("image_v1.phos", lambda meta: meta.__setitem__("kernel_objects", [1]),
     "ill-formed metadata"),
], ids=["v2-no-delta-block", "v2-cpu-page-ref", "v1-no-tag",
        "v1-no-gpu-modules", "v1-fractional-ref", "v1-cpu-page-key",
        "v1-string-size", "v2-gpu-modules-list", "v1-cpu-pages-list",
        "v1-kernel-object-not-a-table"])
def test_missing_fields_and_malformed_references_in_either_format(
        golden, mutate, message, tmp_path):
    """The same escapes one level up: a missing field anywhere in the
    metadata and an ill-formed blob reference in the shared ``take`` —
    v1 images and CPU pages included — are torn images too."""
    path = tmp_path / golden
    path.write_bytes((GOLDENS / golden).read_bytes())
    rewrite_metadata(path, mutate)
    with pytest.raises(TornImageError, match=message) as caught:
        load_image(path)
    assert str(path) in str(caught.value)

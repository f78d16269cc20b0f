"""Delta checkpoint images: chunking, chains, format v2, chaos.

Covers the storage tentpole end to end: content-addressed chunk
tables, :func:`seal_delta`/:func:`materialize` round trips, chain
walking with cycle/missing-parent detection, the catalog's delta
commit/revocation rules, the v2 on-disk format, and the acceptance
criterion that a delta-chain restore is bit-identical to the
equivalent full-image restore on fig16's workload.  Every kernel shape
these tests launch is pinned in the plan-vs-interpreter fuzz of
``tests/test_perf_fastpath.py``.
"""

import pytest

from repro import chaos
from repro.api.runtime import GpuProcess
from repro.chaos import FaultPlan, FaultSpec
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.protocols import ProtocolConfig
from repro.core.quiesce import quiesce
from repro.core.sdk import PhosSdk
from repro.errors import CheckpointError, TornImageError
from repro.gpu.context import GpuContext
from repro.sim import Engine
from repro.storage.delta import (
    CHUNK_BYTES,
    DeltaImage,
    DIGEST_SIZE,
    chunk_count,
    chunk_table,
    hash_chunk,
    materialize,
    seal_delta,
)
from repro.storage.image import CheckpointImage, GpuBufferRecord, ImageCatalog
from repro.storage.serial import load_image, save_image

from tests.toyapp import ToyApp, image_gpu_state, snapshot_process


@pytest.fixture(autouse=True)
def _chaos_clean():
    chaos.uninstall()
    yield
    chaos.uninstall()


def make_world(buf_size=4096):
    eng = Engine()
    machine = Machine(eng, n_gpus=1)
    phos = Phos(eng, machine, use_context_pool=False)
    process = GpuProcess(eng, machine, name="app", gpu_indices=[0],
                         cpu_pages=8)
    process.runtime.adopt_context(0, GpuContext(gpu_index=0))
    phos.attach(process)
    app = ToyApp(process, buf_size=buf_size)
    return eng, machine, phos, process, app


# -- chunk primitives ---------------------------------------------------------------

def test_chunk_math():
    assert chunk_count(0, 256) == 0
    assert chunk_count(1, 256) == 1
    assert chunk_count(256, 256) == 1
    assert chunk_count(257, 256) == 2
    data = bytes(range(256)) * 3  # 768 bytes -> 3 chunks
    table = chunk_table(data, 256)
    assert len(table) == 3 * DIGEST_SIZE
    assert table == hash_chunk(data[:256]) * 3
    assert chunk_table(b"", 256) == b""


def test_chunk_hash_is_content_addressed():
    a, b = b"x" * 256, b"y" * 256
    assert hash_chunk(a) == hash_chunk(bytes(a))
    assert hash_chunk(a) != hash_chunk(b)


# -- seal + materialize (unit level) ------------------------------------------------

def _full_image(name="base", payloads=(b"a" * 512, b"b" * 512)):
    img = CheckpointImage(name=name)
    for i, data in enumerate(payloads):
        img.add_gpu_buffer(0, GpuBufferRecord(
            buffer_id=i, addr=0x1000 * (i + 1), size=4096, data=data,
            tag=f"buf{i}"))
    img.add_cpu_page(0, b"p" * 64)
    img.context_meta = {"cpu_pages": 1}
    img.finalize(1.0)
    return img


def _delta_on(parent, changed: bytes, name="child"):
    """A delta that recaptures buffer 0 with ``changed`` payload and
    reuses buffer 1 untouched."""
    capture = CheckpointImage(name=name)
    capture.add_gpu_buffer(0, GpuBufferRecord(
        buffer_id=0, addr=0x1000, size=4096, data=changed, tag="buf0"))
    capture.add_cpu_page(0, b"p" * 64)  # unchanged -> dropped at seal
    capture.context_meta = {"cpu_pages": 1}
    delta = seal_delta(capture, parent, parent, reused={0: {1}})
    delta.finalize(2.0)
    return delta


def _chain_onto(a):
    """A delta ``b`` on ``a`` that reuses both of its buffers."""
    capture = CheckpointImage(name="b")
    capture.context_meta = {"cpu_pages": 1}
    b = seal_delta(capture, a, materialize(a), reused={0: {0, 1}})
    b.finalize(3.0)
    return b


def test_seal_stores_only_changed_chunks():
    parent = _full_image()
    changed = b"a" * 256 + b"Z" * 256  # second chunk differs
    delta = _delta_on(parent, changed)
    rec = delta.delta_gpu[0][0]
    assert rec.index == (1,)
    assert rec.payload == b"Z" * 256
    assert len(rec.table) == 2 * DIGEST_SIZE
    # The reused buffer carries hashes but no local chunks.
    reused = delta.delta_gpu[0][1]
    assert (reused.index, reused.payload) == ((), b"")
    assert delta.chunks_written == 1
    assert delta.chunks_reused == 1 + 2
    # The unchanged CPU page was dropped; logical accounting survives.
    assert delta.cpu_pages == {}
    assert delta.cpu_logical_pages == 1
    assert delta.stored_bytes() == 256
    assert delta.gpu_bytes() == 2 * 4096


def test_materialize_reassembles_exact_bytes():
    parent = _full_image()
    changed = b"a" * 256 + b"Z" * 256
    delta = _delta_on(parent, changed)
    full = materialize(delta)
    assert full.gpu_buffers[0][0].data == changed
    assert full.gpu_buffers[0][1].data == b"b" * 512
    assert full.cpu_pages == {0: b"p" * 64}
    assert full.checkpoint_time == 2.0
    # Full images pass through untouched.
    assert materialize(parent) is parent


def test_seal_counts_why_each_chunk_was_stored():
    """``storage/chunks-stored{reason}`` splits ``chunks-written`` three
    ways and ``storage/chunks-false-dirty`` counts what the write
    tracker over-reported, per seal."""
    from repro import obs
    from repro.storage.hashcache import BufferHashCache

    def seal(capture, parent, cache, **kwargs):
        with obs.observed(Engine()) as observer:
            image = seal_delta(capture, parent,
                               None if parent is None else materialize(parent),
                               cache=cache, **kwargs)
        image.finalize(0.0)
        why = {inst.labels["reason"]: inst.value for inst in observer.metrics
               if inst.name == "storage/chunks-stored"}
        assert sum(why.values()) == image.chunks_written == (
            observer.metrics.get("storage/chunks-written").value)
        return image, why, (
            observer.metrics.get("storage/chunks-false-dirty").value)

    def capture(image, buf_id, data):
        image.add_gpu_buffer(0, GpuBufferRecord(
            buffer_id=buf_id, addr=0x1000 * buf_id, size=4096, data=data))

    cache = BufferHashCache()
    root = CheckpointImage(name="root")
    capture(root, 1, b"a" * 1024)
    capture(root, 2, b"b" * 512)
    root, *counts = seal(root, None, cache)
    assert counts == [
        {"new-buffer": 6, "dirty-changed": 0, "rehash-changed": 0}, 0]

    # Buffer 1: chunks 0-2 reported dirty, only chunk 1 really changed.
    cache.note_write(1, 0, 700)
    cache.forget(2)     # buffer 2 lost its entry: rehashed whole, 1 changed
    child = CheckpointImage(name="child")
    capture(child, 1, b"a" * 256 + b"X" * 256 + b"a" * 512)
    capture(child, 2, b"b" * 256 + b"Y" * 256)
    capture(child, 3, b"c" * 300)
    child, *counts = seal(child, root, cache)
    assert counts == [
        {"new-buffer": 2, "dirty-changed": 1, "rehash-changed": 1}, 2]
    assert child.delta_gpu[0][1].index == (1,)


def test_seal_twice_rejected():
    parent = _full_image()
    delta = _delta_on(parent, b"c" * 512)
    with pytest.raises(TornImageError, match="sealed twice"):
        seal_delta(delta, parent, parent)


def test_reuse_of_buffer_parent_lacks_rejected():
    parent = _full_image()
    capture = CheckpointImage(name="bad")
    with pytest.raises(TornImageError, match="parent does not hold"):
        seal_delta(capture, parent, parent, reused={0: {99}})


def test_materialize_detects_missing_parent():
    parent = _full_image()
    delta = _delta_on(parent, b"c" * 512)
    delta.parent_ref = None  # simulate a load with no catalog
    with pytest.raises(TornImageError, match="cannot be resolved"):
        materialize(delta)
    # A resolve callback that finds the parent fixes it.
    full = materialize(delta, resolve={parent.id: parent}.get)
    assert full.gpu_buffers[0][0].data == b"c" * 512


def test_materialize_detects_cycle():
    parent = _full_image()
    a = _delta_on(parent, b"c" * 512, name="a")
    b = _chain_onto(a)
    a.parent_ref = b  # corrupt the chain into a loop
    a.parent_id = b.id
    with pytest.raises(TornImageError, match="cycle"):
        materialize(b)


def test_materialize_rejects_revoked_parent():
    parent = _full_image()
    delta = _delta_on(parent, b"c" * 512)
    parent.revoke("test: torn")
    with pytest.raises(TornImageError, match="revoked"):
        materialize(delta)


def test_corrupt_chunk_fails_content_address_check():
    parent = _full_image()
    delta = _delta_on(parent, b"a" * 256 + b"Z" * 256)
    delta.delta_gpu[0][0].payload = b"!" * 256  # bit-rot the stored chunk
    with pytest.raises(TornImageError, match="content-address"):
        materialize(delta)
    # Corrupting the *parent's* bytes is caught the same way.
    delta2 = _delta_on(parent, b"a" * 256 + b"Z" * 256, name="child2")
    parent.gpu_buffers[0][1].data = b"?" * 512
    with pytest.raises(TornImageError, match="content-address"):
        materialize(delta2)


# -- catalog chain rules ------------------------------------------------------------

def test_delta_commit_requires_committed_parent():
    catalog = ImageCatalog()
    parent = _full_image()
    delta = _delta_on(parent, b"c" * 512)
    catalog.stage(delta)
    with pytest.raises(CheckpointError, match="not committed"):
        catalog.commit(delta)
    assert delta.revoked
    assert catalog.staged_images() == []


def test_revoking_parent_revokes_descendant_chain():
    catalog = ImageCatalog()
    parent = _full_image()
    a = _delta_on(parent, b"c" * 512, name="a")
    b = _chain_onto(a)
    for img in (parent, a, b):
        catalog.stage(img)
        catalog.commit(img)
    assert all(catalog.is_committed(i) for i in (parent, a, b))
    catalog.revoke(parent, "test: torn root")
    for img in (parent, a, b):
        assert not catalog.is_committed(img)
        assert img.revoked
    assert "revoked" in b.revoked_reason or "parent" in b.revoked_reason
    with pytest.raises(TornImageError):
        materialize(b, resolve=catalog.lookup)


# -- the incremental protocol end to end --------------------------------------------

def test_parentless_incremental_is_self_contained_root():
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        yield from quiesce(eng, [process])
        expected, _ = snapshot_process(process)
        image, session = yield phos.checkpoint(process, mode="incremental")
        return expected, image, session

    expected, image, session = eng.run_process(driver(eng))
    eng.run()
    assert isinstance(image, DeltaImage)
    assert image.parent_id is None
    # A chain root carries every chunk locally: restorable with no parent.
    image.parent_ref = None
    assert image_gpu_state(image) == expected
    assert not session.aborted


def test_delta_chain_restore_bit_identical_to_full():
    """A 3-link chain materializes to exactly the bytes a from-scratch
    full checkpoint captures at the same virtual instant."""
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        image, _ = yield phos.checkpoint(process, mode="incremental",
                                         name="root")
        for i in range(2):
            yield from app.run(1, start=1 + i)
            image, session = yield phos.checkpoint(
                process, mode="incremental", name=f"d{i}",
                config=ProtocolConfig(parent=image))
            assert not session.aborted
        yield from quiesce(eng, [process])
        expected, _ = snapshot_process(process)
        full, _ = yield phos.checkpoint(process, mode="stop-world",
                                        name="full")
        return expected, image, full

    expected, tip, full = eng.run_process(driver(eng))
    eng.run()
    assert tip.parent_id is not None
    assert image_gpu_state(tip) == expected
    assert image_gpu_state(tip) == image_gpu_state(full)
    # Chain restore through the daemon works off the catalog too.
    materialized = materialize(tip, resolve=phos.medium.images.lookup)
    assert image_gpu_state(materialized) == expected


def test_delta_stores_less_than_root():
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        root, _ = yield phos.checkpoint(process, mode="incremental")
        yield from app.run(1, start=2)
        delta, session = yield phos.checkpoint(
            process, mode="incremental",
            config=ProtocolConfig(parent=root))
        return root, delta, session

    root, delta, session = eng.run_process(driver(eng))
    eng.run()
    assert delta.stored_bytes() < root.stored_bytes()
    assert delta.chunks_reused > 0
    # Logical accounting is unchanged: the delta *represents* the full
    # process state even though it stores only changed chunks.
    assert delta.gpu_bytes() == root.gpu_bytes()
    assert session.stats.bytes_skipped_incremental > 0


def test_freed_buffer_absent_from_delta():
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        root, _ = yield phos.checkpoint(process, mode="incremental")
        old = app.bufs.pop("out")
        yield from process.runtime.free(0, old)
        delta, _ = yield phos.checkpoint(
            process, mode="incremental",
            config=ProtocolConfig(parent=root))
        yield from quiesce(eng, [process])
        expected, _ = snapshot_process(process)
        return expected, root, delta

    expected, root, delta = eng.run_process(driver(eng))
    eng.run()
    tags = {r.tag for r in delta.delta_gpu[0].values()}
    assert "out" not in tags
    assert image_gpu_state(delta) == expected


def test_sdk_auto_chains_incremental_checkpoints():
    eng, machine, phos, process, app = make_world()
    sdk = PhosSdk(phos, process)

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        assert sdk.checkpoint(name="c0", mode="incremental")
        yield from sdk.wait_inflight()
        yield from app.run(1, start=1)
        assert sdk.checkpoint(name="c1", mode="incremental")
        yield from sdk.wait_inflight()

    eng.run_process(driver(eng))
    eng.run()
    root, child = sdk.images
    assert root.parent_id is None
    assert child.parent_id == root.id
    assert child.parent_name == root.name


# -- chaos: a checkpointer dying mid-delta-write ------------------------------------

def test_crash_mid_delta_write_leaves_parent_restorable():
    """Killing the checkpointer in the delta's transfer phase must not
    disturb the committed parent; the torn delta is revoked and never
    becomes visible in the catalog."""
    eng, machine, phos, process, app = make_world()
    from repro.core.protocols import registry

    def setup_driver(eng):
        yield from app.setup()
        yield from app.run(2)
        parent, _ = yield phos.checkpoint(process, mode="incremental",
                                          name="base")
        return parent, image_gpu_state(parent)

    parent, parent_state = eng.run_process(setup_driver(eng))
    eng.run()
    catalog = phos.medium.images
    assert catalog.is_committed(parent)

    protocol = registry.create(
        "incremental",
        config=ProtocolConfig(parent=parent))
    chaos.install(FaultPlan(faults=(
        FaultSpec(kind="crash-checkpointer", protocol="incremental",
                  phase="transfer"),
    )), killer=phos.kill)

    def doomed_driver(eng):
        yield from app.run(1, start=2)
        gen = protocol.checkpoint(
            eng, process=process, frontend=phos.frontend_of(process),
            medium=phos.medium, criu=phos.criu, name="doomed",
        )
        try:
            yield from gen
        except CheckpointError as err:
            return err
        return None

    err = eng.run_process(doomed_driver(eng))
    eng.run()
    chaos.uninstall()
    assert err is not None and "chaos" in str(err)
    doomed = protocol.last_context.image
    assert doomed.revoked
    assert not catalog.is_committed(doomed)
    assert catalog.staged_images() == []
    # The parent chain is untouched: still committed, bytes intact.
    assert catalog.is_committed(parent)
    assert not parent.revoked
    assert image_gpu_state(parent) == parent_state

    def epilogue(eng):
        phos.kill(process)
        new_process, _f, session = yield from phos.restore(
            parent, gpu_indices=[0])
        yield session.done
        got, _ = snapshot_process(new_process)
        return got

    got = eng.run_process(epilogue(eng))
    eng.run()
    for key, data in parent_state.items():
        assert got[key] == data


# -- format v2 on disk --------------------------------------------------------------

@pytest.fixture
def chain(tmp_path):
    """A committed (root, delta) pair from a toy run, plus the catalog."""
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        root, _ = yield phos.checkpoint(process, mode="incremental",
                                        name="root")
        yield from app.run(1, start=2)
        delta, _ = yield phos.checkpoint(
            process, mode="incremental", name="delta",
            config=ProtocolConfig(parent=root))
        return root, delta

    root, delta = eng.run_process(driver(eng))
    eng.run()
    return root, delta, phos.medium.images


def test_v2_roundtrip_preserves_everything(chain, tmp_path):
    root, delta, _catalog = chain
    path = tmp_path / "delta.phos"
    size = save_image(delta, path)
    assert size == path.stat().st_size
    loaded = load_image(path)
    assert isinstance(loaded, DeltaImage)
    assert loaded.parent_id == delta.parent_id
    assert loaded.parent_name == delta.parent_name
    assert loaded.chunk_bytes == delta.chunk_bytes
    assert loaded.chunks_written == delta.chunks_written
    assert loaded.chunks_reused == delta.chunks_reused
    assert loaded.cpu_pages == delta.cpu_pages
    assert loaded.stored_bytes() == delta.stored_bytes()
    for gpu, table in delta.delta_gpu.items():
        for buf_id, rec in table.items():
            got = loaded.delta_gpu[gpu][buf_id]
            assert (got.addr, got.size, got.data_len, got.tag) == (
                rec.addr, rec.size, rec.data_len, rec.tag)
            assert got.table == rec.table
            assert (got.index, got.payload) == (rec.index, rec.payload)
    # The loaded delta materializes identically via parent resolution.
    resolve = {root.id: root}.get
    assert (image_gpu_state(materialize(loaded, resolve=resolve))
            == image_gpu_state(delta))


def test_v2_roundtrip_through_saved_parent(chain, tmp_path):
    """Chain fully persisted: both links reloaded from disk, then
    materialized — bit-identical to the in-memory chain."""
    root, delta, _catalog = chain
    root_path, delta_path = tmp_path / "root.phos", tmp_path / "delta.phos"
    save_image(root, root_path)
    save_image(delta, delta_path)
    root2, delta2 = load_image(root_path), load_image(delta_path)
    # A reloaded chain root is itself a v2 delta with no parent.
    assert isinstance(root2, DeltaImage) and root2.parent_id is None
    by_id = {delta2.parent_id: root2}
    got = materialize(delta2, resolve=by_id.get)
    assert image_gpu_state(got) == image_gpu_state(delta)
    assert got.cpu_pages == materialize(delta).cpu_pages


def test_v2_chunk_size_mismatch_rejected(chain, tmp_path):
    import json
    import struct
    import zlib

    _root, delta, _catalog = chain
    path = tmp_path / "delta.phos"
    save_image(delta, path)
    raw = path.read_bytes()
    body = raw[:-4]
    magic, version, meta_len = struct.unpack_from("<8sII", body)
    meta = json.loads(body[16 : 16 + meta_len])
    meta["delta"]["chunk_bytes"] = CHUNK_BYTES * 2  # tables no longer fit
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode()
    new_body = (struct.pack("<8sII", magic, version, len(meta_bytes))
                + meta_bytes + body[16 + meta_len:])
    path.write_bytes(new_body + struct.pack("<I", zlib.crc32(new_body)))
    with pytest.raises(TornImageError):
        load_image(path)


# -- fig16 workload acceptance ------------------------------------------------------

def test_fig16_workload_chain_restore_bit_identical():
    """Acceptance: on fig16's workload (llama2-13b-train), restoring a
    delta chain equals restoring an equivalent full image, byte for
    byte.  CI runs this with the fast path on and off."""
    from repro.experiments import harness
    from repro.tasks.worker import new_world

    world = new_world("llama2-13b-train")
    harness.setup_app(world)
    eng, phos, process = world.engine, world.phos, world.process

    def driver(eng):
        yield from world.workload.run(1)
        root, _ = yield phos.checkpoint(
            process, mode="incremental", name="root",
            config=harness.experiment_config())
        yield from world.workload.run(1, start=1)
        delta, _ = yield phos.checkpoint(
            process, mode="incremental", name="delta",
            config=harness.experiment_config(parent=root))
        yield from quiesce(eng, [process])
        expected, _ = snapshot_process(process)
        full, _ = yield phos.checkpoint(process, mode="stop-world",
                                        name="full")
        return root, delta, expected, full

    root, delta, expected, full = eng.run_process(driver(eng))
    eng.run()
    assert delta.stored_bytes() < root.stored_bytes()
    chain_state = image_gpu_state(delta)
    assert chain_state == image_gpu_state(full)
    assert chain_state == expected

    # Restore both through the daemon onto fresh machines; the restored
    # byte state must match exactly.
    def restore_one(image):
        machine2 = Machine(eng, name=f"m-{image.name}",
                           n_gpus=world.spec.n_gpus)
        phos2 = Phos(eng, machine2, use_context_pool=False)

        def rdriver(eng):
            new_process, _f, session = yield from phos2.restore(
                image, machine=machine2)
            if session is not None:
                yield session.done
            got, _ = snapshot_process(new_process)
            return got

        got = eng.run_process(rdriver(eng))
        eng.run()
        return got

    assert restore_one(delta) == restore_one(full)

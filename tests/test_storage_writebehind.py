"""Unit tests: the asynchronous tiered write-behind drainer."""

import pytest

from repro import chaos
from repro.chaos import FaultPlan, FaultSpec
from repro.errors import ReproError
from repro.sim.engine import Engine
from repro.storage.delta import DeltaBufferRecord, DeltaImage, hash_chunk
from repro.storage.image import CheckpointImage, GpuBufferRecord
from repro.storage.media import DramMedia, Medium, tier_stack
from repro.storage.writebehind import (
    DRAIN_PROTOCOL,
    WriteBehindDrainer,
    tier_replica,
)
from repro.units import GB


def _full_image(name="img", nbytes=1 << 20):
    image = CheckpointImage(name=name)
    image.gpu_buffers = {0: {1: GpuBufferRecord(1, 0x1000, nbytes, b"x" * 64)}}
    image.add_cpu_page(0, b"p" * 4096)
    image.finalize(0.0)
    return image


def _delta_image(name="delta", parent_id=None):
    image = DeltaImage(name=name, parent_id=parent_id)
    image.add_delta_record(0, DeltaBufferRecord(
        buffer_id=1, addr=0x1000, size=1 << 20, data_len=512,
        table=hash_chunk(b"c" * 256) + hash_chunk(b"d" * 256),
        index=(0,), payload=b"c" * 256))
    image.finalize(0.0)
    return image


def _world(depth=2):
    eng = Engine()
    dram = DramMedia(eng)
    tiers = tier_stack(eng, dram)
    drainer = WriteBehindDrainer(eng, tiers, depth=depth)
    drainer.start()
    return eng, dram, tiers, drainer


# -- payload / replica helpers ----------------------------------------------

def test_a_hop_moves_stored_bytes_delta_vs_full():
    """What a tier hop moves is ``stored_bytes()``: the full logical
    state of a full image, only its own chunks and pages for a delta."""
    assert _full_image().stored_bytes() == (1 << 20) + 4096
    assert _delta_image().stored_bytes() == 256


def test_tier_replica_shares_payload_with_fresh_flags():
    image = _delta_image()
    replica = tier_replica(image)
    assert replica.id == image.id
    assert replica.delta_gpu is image.delta_gpu
    assert replica.cpu_pages is image.cpu_pages
    assert replica.parent_ref is None
    assert replica.finalized and not replica.committed
    assert replica.stored_bytes() == image.stored_bytes()
    # Committing the replica must not mark the original committed.
    catalog_flags = (image.committed, image.revoked)
    replica.committed = True
    assert (image.committed, image.revoked) == catalog_flags
    # A committed full image's replica starts uncommitted too.
    full = _full_image()
    full.committed = True
    replica = tier_replica(full)
    assert replica.id == full.id and not replica.committed
    assert replica.gpu_buffers is full.gpu_buffers


def test_tier_stack_shape():
    eng = Engine()
    dram = DramMedia(eng, name="d")
    tiers = tier_stack(eng, dram)
    assert tiers[0] is dram
    assert [t.name for t in tiers] == ["d", "d-ssd", "d-remote"]


def test_drainer_requires_two_tiers_and_positive_depth():
    eng = Engine()
    dram = DramMedia(eng)
    with pytest.raises(ReproError, match="two tiers"):
        WriteBehindDrainer(eng, [dram])
    with pytest.raises(ReproError, match="depth"):
        WriteBehindDrainer(eng, tier_stack(eng, dram), depth=0)


# -- happy path --------------------------------------------------------------

def test_drain_replicates_down_the_stack():
    eng, dram, tiers, drainer = _world()
    image = _full_image()
    dram.images.stage(image)
    dram.images.commit(image)

    def producer():
        yield from drainer.enqueue(image)
        drainer.finish()

    eng.spawn(producer(), name="producer")
    eng.run(until=drainer.done)
    assert drainer.stats.images_drained == 1
    assert drainer.failed is None
    nbytes = image.stored_bytes()
    for tier in tiers[1:]:
        replica = tier.images.lookup(image.id)
        assert replica is not None and replica.committed
        assert drainer.stats.bytes_per_tier[tier.name] == nbytes
    # The SSD hop is the slow link: virtual time reflects its bandwidth.
    assert eng.now > 0


def test_drain_preserves_delta_chain_order():
    """A delta only commits on a tier after its parent did there."""
    eng, dram, tiers, drainer = _world()
    root = _delta_image("root")
    child = _delta_image("child", parent_id=root.id)
    for image in (root, child):
        dram.images.stage(image)
        dram.images.commit(image)

    def producer():
        yield from drainer.enqueue(root)
        yield from drainer.enqueue(child)
        drainer.finish()

    eng.spawn(producer(), name="producer")
    eng.run(until=drainer.done)
    assert drainer.failed is None
    for tier in tiers[1:]:
        assert tier.images.lookup(child.id).committed
        assert tier.images.lookup(root.id).committed


def test_backpressure_blocks_when_queue_full():
    eng = Engine()
    dram = DramMedia(eng)
    slow = Medium(eng, "slow", write_bw=1 * GB, read_bw=1 * GB)
    drainer = WriteBehindDrainer(eng, [dram, slow], depth=1)
    drainer.start()
    images = [_full_image(f"i{k}", nbytes=1 << 30) for k in range(4)]
    for image in images:
        dram.images.stage(image)
        dram.images.commit(image)

    def producer():
        for image in images:
            yield from drainer.enqueue(image)
        drainer.finish()

    eng.spawn(producer(), name="producer")
    eng.run(until=drainer.done)
    assert drainer.stats.images_drained == 4
    assert drainer.stats.backpressure_waits > 0


def test_enqueue_after_finish_is_dropped():
    eng, dram, tiers, drainer = _world()
    image = _full_image()
    dram.images.stage(image)
    dram.images.commit(image)
    drainer.finish()

    def producer():
        accepted = yield from drainer.enqueue(image)
        return accepted

    accepted = eng.run_process(producer())
    eng.run(until=drainer.done)
    assert accepted is False
    assert drainer.stats.images_dropped == 1
    assert tiers[1].images.lookup(image.id) is None


# -- crash mid-drain ---------------------------------------------------------

@pytest.mark.parametrize("phase,ssd_committed", [
    ("drain:t1", False),    # dies before the SSD hop moves bytes
    ("publish:t1", False),  # dies after the move, before the commit
    ("drain:t2", True),     # SSD committed, remote never staged
    ("publish:t2", True),   # SSD committed, remote staged-then-revoked
])
def test_crash_mid_drain_revokes_partial_replica(phase, ssd_committed):
    eng, dram, tiers, drainer = _world()
    image = _full_image()
    dram.images.stage(image)
    dram.images.commit(image)
    plan = FaultPlan(faults=(FaultSpec(
        kind="crash-checkpointer", protocol=DRAIN_PROTOCOL, phase=phase,
    ),), seed=1)
    injector = chaos.install(plan)
    try:
        def producer():
            yield from drainer.enqueue(image)
            drainer.finish()

        eng.spawn(producer(), name="producer")
        eng.run(until=drainer.done)
    finally:
        chaos.uninstall()

    assert len(injector.injected) == 1
    assert drainer.failed is not None
    assert not drainer.alive
    # DRAM original is untouched and still restorable.
    assert dram.images.is_committed(image)
    assert not image.revoked
    ssd, remote = tiers[1], tiers[2]
    # No tier ever exposes a staged (torn) replica.
    for tier in (ssd, remote):
        assert not tier.images.staged_images()
    assert (ssd.images.lookup(image.id) is not None) == ssd_committed
    assert remote.images.lookup(image.id) is None
    if phase in ("publish:t1", "publish:t2"):
        assert drainer.stats.revoked_partials == 1


def test_dead_drainer_unblocks_waiting_producer():
    """A producer blocked on backpressure must not deadlock when the
    drainer dies: its enqueue returns False."""
    eng = Engine()
    dram = DramMedia(eng)
    slow = Medium(eng, "slow", write_bw=1 * GB, read_bw=1 * GB)
    drainer = WriteBehindDrainer(eng, [dram, slow], depth=1)
    drainer.start()
    images = [_full_image(f"i{k}", nbytes=1 << 30) for k in range(3)]
    for image in images:
        dram.images.stage(image)
        dram.images.commit(image)
    plan = FaultPlan(faults=(FaultSpec(
        kind="crash-checkpointer", protocol=DRAIN_PROTOCOL,
        phase="drain:t1", occurrence=2,
    ),), seed=1)
    chaos.install(plan)
    try:
        def producer():
            results = []
            for image in images:
                accepted = yield from drainer.enqueue(image)
                results.append(accepted)
            return results

        results = eng.run_process(producer())
        eng.run()
    finally:
        chaos.uninstall()
    assert drainer.failed is not None
    assert results[0] is True          # first image drained
    assert False in results            # a later one was dropped
    assert drainer.stats.images_dropped >= 1

"""Integration tests: the ``continuous`` streaming checkpoint protocol."""

import pytest

from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.protocols import registry
from repro.core.protocols.base import ProtocolConfig
from repro.core.protocols.continuous import ContinuousCheckpoint
from repro.core.sdk import PhosSdk
from repro.errors import ReproError
from repro.gpu.context import GpuContext
from repro.sim import Engine
from repro.storage.media import tier_stack

from tests.toyapp import ToyApp, image_gpu_state, snapshot_process


def make_world(buf_size=1 << 20):
    eng = Engine()
    machine = Machine(eng, n_gpus=1)
    phos = Phos(eng, machine, use_context_pool=False)
    process = GpuProcess(eng, machine, name="app", gpu_indices=[0],
                        cpu_pages=8)
    process.runtime.adopt_context(0, GpuContext(gpu_index=0))
    phos.attach(process)
    app = ToyApp(process, buf_size=buf_size)
    return eng, machine, phos, process, app


def test_registered_and_streaming():
    assert "continuous" in registry.names("checkpoint")
    cls = registry.get("continuous", "checkpoint")
    assert cls is ContinuousCheckpoint
    assert getattr(cls, "streaming", False) is True


def test_stream_commits_a_restorable_chain():
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        last, stream = yield phos.checkpoint(
            process, mode="continuous", name="s",
            config=ProtocolConfig(rounds=3))
        expected, _cpu = snapshot_process(process)
        return last, stream, expected

    last, stream, expected = eng.run_process(driver(eng))
    eng.run()
    assert stream.complete and stream.rounds_committed == 3
    catalog = machine.dram.images
    for i, image in enumerate(stream.images):
        assert catalog.is_committed(image)
        if i:
            assert image.parent_id == stream.images[i - 1].id
    assert stream.images[0].parent_id is None  # round 0 is the chain root
    assert image_gpu_state(last) == expected


def test_stream_replicates_to_lower_tiers():
    eng, machine, phos, process, app = make_world()
    tiers = tier_stack(eng, machine.dram)

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        return (yield phos.checkpoint(
            process, mode="continuous",
            config=ProtocolConfig(rounds=2, drain_tiers=tiers)))

    last, stream = eng.run_process(driver(eng))
    eng.run()
    assert stream.drain_stats.images_drained == 2
    for tier in tiers[1:]:
        for image in stream.images:
            replica = tier.images.lookup(image.id)
            assert replica is not None and replica.committed
            assert replica is not image  # per-tier object
        assert not tier.images.staged_images()


def test_interval_paces_rounds():
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        t0 = eng.now
        _, stream = yield phos.checkpoint(
            process, mode="continuous",
            config=ProtocolConfig(rounds=3, interval=0.5))
        return eng.now - t0, stream

    elapsed, stream = eng.run_process(driver(eng))
    eng.run()
    assert stream.rounds_committed == 3
    assert elapsed >= 2 * 0.5  # two inter-round gaps


def test_deltas_are_dirty_scaled():
    """Rounds after the root store only what changed between rounds."""
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        return (yield phos.checkpoint(
            process, mode="continuous",
            config=ProtocolConfig(rounds=3)))

    last, stream = eng.run_process(driver(eng))
    eng.run()
    root, *deltas = stream.images
    for delta in deltas:
        assert delta.stored_bytes() <= root.stored_bytes()
        # Logical state is complete even when little is stored.
        assert delta.gpu_bytes() == root.gpu_bytes()


def test_drain_tiers_must_start_at_the_medium():
    eng, machine, phos, process, app = make_world()
    other = tier_stack(eng, machine.dram)[1:]  # does not start at dram

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        try:
            yield phos.checkpoint(
                process, mode="continuous",
                config=ProtocolConfig(drain_tiers=other))
        except ReproError as err:
            return str(err)
        return None

    msg = eng.run_process(driver(eng))
    eng.run()
    assert msg is not None and "drain_tiers[0]" in msg


def test_reachable_from_the_sdk():
    eng, machine, phos, process, app = make_world()
    sdk = PhosSdk(phos, process)
    assert "continuous" in sdk.protocols()

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        assert sdk.checkpoint(
            mode="continuous",
            config=ProtocolConfig(rounds=2))
        yield from sdk.wait_inflight()
        return sdk.last_image

    last = eng.run_process(driver(eng))
    eng.run()
    assert last is not None and machine.dram.images.is_committed(last)


def test_unsupported_tunable_rejected():
    with pytest.raises(ReproError, match="does not support"):
        ContinuousCheckpoint(ProtocolConfig(precopy_rounds=2))

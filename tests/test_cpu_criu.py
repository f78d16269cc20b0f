"""Unit tests for the CRIU-equivalent CPU checkpoint/restore engine."""

import pytest

from repro.cpu.criu import CriuEngine
from repro.cpu.memory import PAGE_DATA_SIZE
from repro.cpu.process import HostProcess
from repro.errors import CheckpointError
from repro.sim import Engine
from repro.storage.image import CheckpointImage
from repro.storage.media import DramMedia


def page_bytes(fill):
    return bytes([fill % 256] * PAGE_DATA_SIZE)


@pytest.fixture
def eng():
    return Engine()


@pytest.fixture
def medium(eng):
    return DramMedia(eng)


def make_process(n_pages=16):
    proc = HostProcess(n_pages=n_pages, name="app")
    for i in range(n_pages):
        proc.memory.write(i, page_bytes(i + 1))
    proc.registers["pc"] = 42
    proc.open_connection("10.0.0.2:443")
    return proc


def test_cow_dump_captures_start_state(eng, medium):
    """A write racing the dump must not leak into the image."""
    proc = make_process()
    criu = CriuEngine(eng)
    image = CheckpointImage(name="ckpt")

    def dump(eng):
        result = yield from criu.dump_cow(proc, image, medium)
        return result

    def racer(eng):
        yield eng.timeout(1e-9)  # while the dump is in flight
        proc.memory.write(0, page_bytes(200))
        proc.memory.write(15, page_bytes(201))

    d = eng.spawn(dump(eng))
    eng.spawn(racer(eng))
    eng.run()
    # Image reflects pre-write content for every page.
    for i in range(16):
        assert image.cpu_pages[i] == page_bytes(i + 1)
    # Process itself kept the new writes.
    assert proc.memory.read(0) == page_bytes(200)
    assert d.result.cow_faults == 2
    assert d.result.pages_copied == 16


def test_cow_dump_without_race_has_no_faults(eng, medium):
    proc = make_process()
    criu = CriuEngine(eng)
    image = CheckpointImage()

    def dump(eng):
        return (yield from criu.dump_cow(proc, image, medium))

    d = eng.spawn(dump(eng))
    eng.run()
    assert d.result.cow_faults == 0
    assert len(image.cpu_pages) == 16


def test_cow_dump_unprotects_all_pages_after(eng, medium):
    proc = make_process()
    criu = CriuEngine(eng)

    def dump(eng):
        yield from criu.dump_cow(proc, CheckpointImage(), medium)

    eng.run_process(dump(eng))
    assert not proc.memory.write_protected.any()
    proc.memory.write(3, page_bytes(99))  # must not fault


def test_dump_captures_control_state_and_kernel_objects(eng, medium):
    proc = make_process()
    criu = CriuEngine(eng)
    image = CheckpointImage()

    def dump(eng):
        yield from criu.dump_cow(proc, image, medium)

    eng.run_process(dump(eng))
    assert image.cpu_control["pc"] == 42
    assert image.kernel_objects[0].kind == "tcp-connection"


def test_tracked_dump_reports_dirty_pages(eng, medium):
    proc = make_process()
    criu = CriuEngine(eng)
    image = CheckpointImage()

    def dump(eng):
        return (yield from criu.dump_tracked(proc, image, medium))

    def racer(eng):
        yield eng.timeout(1e-9)
        proc.memory.write(2, page_bytes(100))

    d = eng.spawn(dump(eng))
    eng.spawn(racer(eng))
    eng.run()
    assert d.result.dirty_after_copy == [2]


def test_recopy_dirty_overwrites_image(eng, medium):
    proc = make_process()
    criu = CriuEngine(eng)
    image = CheckpointImage()

    def flow(eng):
        yield from criu.dump_tracked(proc, image, medium)
        proc.memory.write(2, page_bytes(100))
        dirty = proc.memory.dirty_pages()
        yield from criu.recopy_dirty(proc, image, medium, dirty)

    eng.run_process(flow(eng))
    assert image.cpu_pages[2] == page_bytes(100)


def test_restore_full_roundtrip(eng, medium):
    proc = make_process()
    criu = CriuEngine(eng)
    image = CheckpointImage()

    def flow(eng):
        yield from criu.dump_cow(proc, image, medium)
        image.finalize(eng.now)
        fresh = HostProcess(n_pages=16, name="restored")
        yield from criu.restore(image, fresh, medium)
        return fresh

    fresh = eng.run_process(flow(eng))
    assert fresh.memory.snapshot_all() == proc.memory.snapshot_all()
    assert fresh.registers["pc"] == 42
    assert fresh.kernel_objects[0].description == "10.0.0.2:443"


def test_restore_requires_finalized_image(eng, medium):
    criu = CriuEngine(eng)
    image = CheckpointImage()

    def flow(eng):
        yield from criu.restore(image, HostProcess(4), medium)

    with pytest.raises(CheckpointError, match="finalized"):
        eng.run_process(flow(eng))


def test_restore_takes_time_proportional_to_pages():
    def timed_restore(n_pages):
        local_eng = Engine()
        local_medium = DramMedia(local_eng)
        local_criu = CriuEngine(local_eng)
        proc = HostProcess(n_pages)
        image = CheckpointImage()

        def flow(e):
            yield from local_criu.dump_cow(proc, image, local_medium)
            image.finalize(e.now)
            t0 = e.now
            yield from local_criu.restore(image, HostProcess(n_pages), local_medium)
            return e.now - t0

        return local_eng.run_process(flow(local_eng))

    small = timed_restore(1024)
    large = timed_restore(4096)
    assert large == pytest.approx(4 * small, rel=0.01)


def test_lazy_restore_serves_faults_and_completes(eng, medium):
    proc = make_process()
    criu = CriuEngine(eng)
    image = CheckpointImage()

    def flow(eng):
        yield from criu.dump_cow(proc, image, medium)
        image.finalize(eng.now)
        fresh = HostProcess(n_pages=16, name="restored")
        gen = criu.restore(image, fresh, medium, on_demand=True)
        session = yield from _drain(gen, eng)
        # Touch a page immediately: must fault-load with correct bytes.
        assert fresh.memory.read(7) == page_bytes(8)
        assert session.faults >= 1
        assert session.take_stall_charge() > 0
        assert session.take_stall_charge() == 0  # drained
        yield session.done
        assert fresh.memory.snapshot_all() == proc.memory.snapshot_all()

    eng.run_process(flow(eng))


def _drain(gen, eng):
    """Run a generator that may yield events and return its value."""
    result = yield from gen
    return result


def criu_restore(eng, image, proc, medium, on_demand):
    session = yield from CriuEngine(eng).restore(image, proc, medium,
                                                 on_demand=on_demand)
    if session is not None:
        yield session.done


@pytest.mark.parametrize("on_demand", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("stray", [-1, 4, 9])
def test_restore_rejects_a_page_outside_the_address_space(eng, medium,
                                                          on_demand, stray):
    """An image key beyond the process (a loaded file supplies them) must
    fail the restore before a single page, bit or register changes: -1
    used to overwrite the last page first, 9 used to kill one worker
    (eager: reported as success; lazy: ``done`` never fired)."""
    image = CheckpointImage(name="bad-keys")
    for index in (0, 1, stray, 3):
        image.add_cpu_page(index, page_bytes(0xAA))
    image.cpu_control = {"pc": 7}
    image.finalize(0.0)
    proc = make_process(n_pages=4)
    before = proc.memory.snapshot_all()
    handler = proc.memory.fault_handler

    def flow(eng):
        yield from criu_restore(eng, image, proc, medium, on_demand)

    with pytest.raises(CheckpointError,
                       match=rf"'bad-keys' holds CPU page {stray}, outside"):
        eng.run_process(flow(eng))
    eng.run()  # nothing was left running behind the raise
    assert proc.memory.snapshot_all() == before
    assert proc.memory.present.all()
    assert proc.memory.fault_handler is handler
    assert proc.registers["pc"] == 42


def test_restore_drops_the_soft_dirty_epoch(eng, medium):
    """A dump stamps the memory with its image's id so the next delta
    dump may trust the soft-dirty bits; a restore rewrites pages behind
    those bits, so it must drop the stamp and force the full compare."""
    proc = make_process(n_pages=8)
    criu = CriuEngine(eng)
    first = CheckpointImage(name="first")
    other = CheckpointImage(name="other")
    for index in range(8):
        other.add_cpu_page(index, page_bytes(0x40 if index in (2, 5)
                                             else index + 1))
    other.finalize(0.0)
    delta = CheckpointImage(name="delta")

    def flow(eng):
        assert proc.memory.delta_epoch is None
        yield from criu.dump_tracked(proc, first, medium)
        assert proc.memory.delta_epoch == first.id
        yield from criu.restore(other, proc, medium)
        assert proc.memory.delta_epoch is None
        assert proc.memory.dirty_pages() == []  # the bits saw nothing
        yield from criu.dump_tracked(proc, delta, medium, first.cpu_pages,
                                     parent_id=first.id)

    eng.run_process(flow(eng))
    assert sorted(delta.cpu_pages) == [2, 5]
    assert proc.memory.delta_epoch == delta.id

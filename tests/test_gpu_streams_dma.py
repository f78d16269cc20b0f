"""Unit tests for streams, DMA engine arbitration, and the device."""

import random

import pytest

from repro import obs, units
from repro.core.engine import DataMover
from repro.core.protocols import ProtocolConfig
from repro.gpu.cost_model import GpuSpec
from repro.gpu.device import Gpu
from repro.gpu.dma import APP_PRIORITY, CHECKPOINT_PRIORITY, AppCopy, Direction
from repro.sim import Engine
from repro.sim.resources import acquired
from repro.storage.media import Medium


@pytest.fixture
def eng():
    return Engine()


@pytest.fixture
def gpu(eng):
    return Gpu(eng, index=0)


def timed(eng, log, name, duration):
    """``(start, effect)`` of an op that runs ``duration`` and logs its end."""
    def effect():
        log.append((name, eng.now))
        return name

    return (lambda: duration), effect


def test_stream_runs_ops_in_order(eng, gpu):
    s = gpu.create_stream()
    log = []
    s.submit("a", *timed(eng, log, "a", 2.0))
    s.submit("b", *timed(eng, log, "b", 1.0))
    eng.run()
    assert log == [("a", 2.0), ("b", 3.0)]


def test_streams_run_concurrently(eng, gpu):
    s1, s2 = gpu.create_stream(), gpu.create_stream()
    log = []
    s1.submit("a", *timed(eng, log, "a", 2.0))
    s2.submit("b", *timed(eng, log, "b", 2.0))
    eng.run()
    assert dict(log) == {"a": 2.0, "b": 2.0}


def test_stream_synchronize_waits_for_prior_ops(eng, gpu):
    s = gpu.create_stream()
    log = []

    def proc(eng):
        s.submit("a", *timed(eng, log, "a", 3.0))
        yield s.synchronize()
        return eng.now

    assert eng.run_process(proc(eng)) == 3.0


def test_synchronize_on_empty_stream_fires_immediately(eng, gpu):
    s = gpu.create_stream()

    def proc(eng):
        yield s.synchronize()
        return eng.now

    assert eng.run_process(proc(eng)) == 0.0


def test_op_done_carries_result(eng, gpu):
    s = gpu.create_stream()
    log = []

    def proc(eng):
        op = s.submit("a", *timed(eng, log, "a", 1.0))
        got = yield op.done
        return got

    assert eng.run_process(proc(eng)) == "a"


def test_op_failure_propagates_to_waiters(eng, gpu):
    s = gpu.create_stream()

    def bad_effect():
        raise RuntimeError("kernel fault")

    def proc(eng):
        op = s.submit("bad", lambda: 1.0, bad_effect)
        try:
            yield op.done
        except RuntimeError as err:
            return str(err)

    assert eng.run_process(proc(eng)) == "kernel fault"


def test_op_failure_does_not_kill_stream(eng, gpu):
    s = gpu.create_stream()
    log = []

    def bad_effect():
        raise RuntimeError("boom")

    s.submit("bad", lambda: 1.0, bad_effect)
    s.submit("good", *timed(eng, log, "good", 1.0))
    eng.run()
    assert log == [("good", 2.0)]


def test_pre_exec_runs_before_body(eng, gpu):
    s = gpu.create_stream()
    log = []

    def pre():
        yield eng.timeout(5.0)
        log.append(("pre", eng.now))

    s.submit("k", *timed(eng, log, "k", 1.0), pre_exec=pre)
    eng.run()
    assert log == [("pre", 5.0), ("k", 6.0)]


def test_device_synchronize_drains_all_streams(eng, gpu):
    s1, s2 = gpu.create_stream(), gpu.create_stream()
    log = []
    s1.submit("a", *timed(eng, log, "a", 2.0))
    s2.submit("b", *timed(eng, log, "b", 4.0))

    def proc(eng):
        yield from gpu.synchronize()
        return eng.now

    assert eng.run_process(proc(eng)) == 4.0
    assert gpu.pending_ops == 0


# --- scheduler records per stream op ----------------------------------------


def _records_per_call(issue, n=10):
    """Marginal engine records of one ``issue(app)`` call: a ToyApp on
    one GPU under PHOS (no checkpoint, so no guard) issues it n and 2n
    times after a warm iteration, then drains its stream."""
    from tests.test_protocol_recopy import make_world

    def records(count):
        eng, _machine, _phos, _process, app = make_world(buf_size=4096)

        def driver(eng):
            yield from app.setup()
            yield from app.run(1)
            before = eng.events_executed
            for _ in range(count):
                yield from issue(app)
            yield from app.rt.device_synchronize(0)
            return eng.events_executed - before

        return eng.run_process(driver(eng))

    return (records(2 * n) - records(n)) / n


def test_stream_op_records_per_op_budget():
    """An unguarded kernel or library call completes on one timer record
    and an uncontended memcpy on at most two; the API call around each
    op costs what a ``cudaMalloc`` does (its overhead timer and the
    caller's resume).  The dispatcher-process stream spent 5 records per
    kernel/lib op and 6 per memcpy.  Counts are exact."""
    from tests.toyapp import N_WORDS

    api = _records_per_call(lambda app: app.rt.malloc(0, 64))
    ops = {
        "kernel": lambda app: app.rt.launch_kernel(
            0, app.scale, [app.bufs["input"].addr, app.bufs["act"].addr,
                           N_WORDS], N_WORDS, cost=app.cost),
        "lib": lambda app: app.rt.lib_compute(
            0, "gemm", reads=[app.bufs["act"]], writes=[app.bufs["grad"]],
            cost=app.cost, salt=1),
        "h2d": lambda app: app.rt.memcpy_h2d(0, app.bufs["input"], payload=7),
        "d2h": lambda app: app.rt.memcpy_d2h(0, app.bufs["out"], sync=False),
    }
    per_op = {kind: _records_per_call(issue) - api
              for kind, issue in ops.items()}
    assert per_op["kernel"] <= 2 and per_op["lib"] <= 2, per_op
    assert per_op["h2d"] <= 4 and per_op["d2h"] <= 4, per_op


def test_fig16_cow_cell_record_ceiling():
    """fig16's PHOS CoW cell (llama2-13b-train, a CoW checkpoint with its
    guards mid-run) stays under a scheduler-record ceiling; the
    dispatcher-process stream spent 95 346."""
    from repro.experiments import fig16_cow_breakdown as fig16

    built = []
    plain_init = Engine.__init__

    def init(self):
        plain_init(self)
        built.append(self)

    (cell,) = [c for c in fig16.cells() if c.key[0] == "phos-cow"]
    Engine.__init__ = init
    try:
        fig16.run_cell(cell)
    finally:
        Engine.__init__ = plain_init
    assert sum(e.events_executed for e in built) <= 75_000


# --- DMA ---------------------------------------------------------------------


def app_copy(eng, gpu, direction, nbytes, bandwidth):
    """Generator: one application copy on a stream of its own; returns
    the bytes moved (a ``cudaMemcpy``)."""
    copy = AppCopy(eng, gpu.dma, direction, nbytes, bandwidth=bandwidth)
    op = gpu.create_stream().submit("memcpy", copy.start, copy.finish,
                                    hold=copy.hold)
    return (yield op.done)


def test_transfer_time_matches_bandwidth(eng, gpu):
    nbytes = 100 * units.MB

    def proc(eng):
        moved = yield from app_copy(
            eng, gpu, Direction.D2H, nbytes, bandwidth=units.GB
        )
        return (moved, eng.now)

    moved, t = eng.run_process(proc(eng))
    assert moved == nbytes
    assert t == pytest.approx(0.1)


def test_zero_byte_transfer_is_instant(eng, gpu):
    def proc(eng):
        moved = yield from app_copy(eng, gpu, Direction.H2D, 0, bandwidth=units.GB)
        return (moved, eng.now)

    assert eng.run_process(proc(eng)) == (0, 0.0)


def test_directions_share_the_engine_pool(eng, gpu):
    """§5: the transfer engines are shared, so opposite-direction
    transfers serialize on the single default engine."""
    done = {}

    def mover(eng, name, direction):
        yield from app_copy(eng, gpu, direction, units.GB, bandwidth=units.GB)
        done[name] = eng.now

    eng.spawn(mover(eng, "down", Direction.D2H))
    eng.spawn(mover(eng, "up", Direction.H2D))
    eng.run()
    assert sorted(done.values()) == [1.0, 2.0]


def test_same_direction_serializes(eng, gpu):
    done = {}

    def mover(eng, name):
        yield from app_copy(eng, gpu, Direction.D2H, units.GB, bandwidth=units.GB)
        done[name] = eng.now

    eng.spawn(mover(eng, "one"))
    eng.spawn(mover(eng, "two"))
    eng.run()
    assert sorted(done.values()) == [1.0, 2.0]


# --- the §5 prioritized checkpoint copy (DataMover.move) ---------------------


@pytest.fixture
def slow_gpu(eng):
    """A GPU behind a 1 GB/s link, so seconds read as gigabytes."""
    return Gpu(eng, index=0, spec=GpuSpec(pcie_bw=units.GB))


def fast_medium(eng):
    """A medium far faster than PCIe: every move is PCIe-bound."""
    return Medium(eng, "dram", write_bw=100 * units.GB,
                  read_bw=100 * units.GB)


def checkpoint_move(eng, gpu, medium, nbytes, prioritized=True,
                    chunk_bytes=None):
    """Generator: one checkpoint-side D2H buffer move."""
    config = ProtocolConfig(prioritized=prioritized, chunk_bytes=chunk_bytes)
    return DataMover(eng, config, workers=[]).move(
        gpu, medium, nbytes, Direction.D2H)


def bulk_then_app(eng, gpu, prioritized):
    """A 10 GB checkpoint move with a 1 GB app transfer arriving at 1 s."""
    done = {}

    def bulk():
        yield from checkpoint_move(eng, gpu, fast_medium(eng), 10 * units.GB,
                                   prioritized=prioritized)
        done["bulk"] = eng.now

    def app():
        yield eng.timeout(1.0)  # arrives mid-bulk
        yield from app_copy(eng, gpu, Direction.H2D, units.GB,
                            bandwidth=units.GB)
        done["app"] = eng.now

    eng.spawn(bulk())
    eng.spawn(app())
    eng.run()
    return done


def test_unchunked_bulk_blocks_app_transfer(eng, slow_gpu):
    """Without chunking, an app transfer waits behind the whole bulk copy."""
    done = bulk_then_app(eng, slow_gpu, prioritized=False)
    assert done["app"] == pytest.approx(11.0)  # waited for all 10 GB


def test_chunked_bulk_lets_app_preempt(eng, slow_gpu):
    """With 4 MB chunks, the app transfer preempts at a chunk boundary."""
    done = bulk_then_app(eng, slow_gpu, prioritized=True)
    # The app waits at most one chunk (~4 ms at 1 GB/s) then transfers 1 s.
    assert done["app"] == pytest.approx(2.0, abs=0.05)
    # Bulk finishes after its 10 s of work plus the 1 s preemption.
    assert done["bulk"] == pytest.approx(11.0, abs=0.05)


def test_transfer_reports_bytes_when_observed(eng, gpu):
    """With an observer installed, moves count bytes per priority."""
    with obs.observed(eng) as observer:
        eng.run_process(checkpoint_move(eng, gpu, fast_medium(eng),
                                        8 * units.MB,
                                        chunk_bytes=4 * units.MB))
        counter = observer.metrics.get(
            f"dma/{gpu.dma.name}/bytes",
            priority=CHECKPOINT_PRIORITY, cls="bulk", direction="d2h",
        )
        assert counter is not None and counter.value == 8 * units.MB


# The checkpoint mover holds the engine across a chunk boundary unless a
# request is queued.  The claims below compare it with the loop it
# replaces, which releases and re-acquires at every boundary.

CHUNK = 4 * units.MIB
BULK = 256 * units.MIB


def release_every_chunk(eng, gpu, medium, nbytes, boundaries):
    """Generator: the per-chunk acquire/flow/release reference loop."""
    moved = 0
    while moved < nbytes:
        this = min(CHUNK, nbytes - moved)
        req = yield from acquired(gpu.dma, priority=CHECKPOINT_PRIORITY)
        try:
            yield from medium.write_link.flow(this, rate_cap=gpu.spec.pcie_bw)
        finally:
            gpu.dma.release(req)
        moved += this
        boundaries.append(eng.now)


def dma_run(use_mover, injections):
    """Bulk move + app transfers; ``(stamps, grants, events, boundaries)``."""
    eng = Engine()
    gpu = Gpu(eng, index=0)
    medium = fast_medium(eng)
    stamps, grants, boundaries = [], {}, []

    def bulk():
        if use_mover:
            yield from checkpoint_move(eng, gpu, medium, BULK,
                                       chunk_bytes=CHUNK)
        else:
            yield from release_every_chunk(eng, gpu, medium, BULK, boundaries)
        stamps.append(("bulk", eng.now))

    def app(i, delay, nbytes):
        # An application copy, with the grant instant recorded.
        yield eng.timeout(delay)
        req = yield from acquired(gpu.dma, priority=APP_PRIORITY)
        grants[i] = eng.now
        try:
            yield eng.timeout(units.transfer_time(nbytes, gpu.spec.pcie_bw))
        finally:
            gpu.dma.release(req)
        stamps.append((f"app{i}", eng.now))

    eng.spawn(bulk())
    for i, (delay, nbytes) in enumerate(injections):
        eng.spawn(app(i, delay, nbytes))
    eng.run()
    return stamps, grants, eng.events_executed, boundaries


def test_dma_coalescing_uncontended_event_count():
    """Uncontended: one grant for the whole buffer, n - 1 boundaries
    coalesced, and the same completion stamp as the per-chunk loop."""
    eng = Engine()
    gpu = Gpu(eng, index=0)
    with obs.observed(eng) as observer:
        eng.run_process(checkpoint_move(eng, gpu, fast_medium(eng), BULK,
                                        chunk_bytes=CHUNK))
        grants = observer.metrics.get(f"resource/{gpu.dma.name}/grant-wait",
                                      priority=CHECKPOINT_PRIORITY)
        coalesced = observer.metrics.get(
            f"dma/{gpu.dma.name}/chunks-coalesced",
            priority=CHECKPOINT_PRIORITY, cls="bulk", direction="d2h")
    n_chunks = BULK // CHUNK
    assert grants.count == 1
    assert coalesced.value == n_chunks - 1
    fast, _, fast_events, _ = dma_run(True, [])
    slow, _, slow_events, _ = dma_run(False, [])
    assert fast == slow
    # The loop pays a resume per re-acquire the mover skips.
    assert slow_events - fast_events >= n_chunks - 1


def test_dma_coalescing_releases_at_first_boundary_after_a_waiter():
    """Contended: an app request queued mid-chunk is granted at the end
    of that chunk, exactly where the per-chunk loop would release."""
    _, _, _, boundaries = dma_run(False, [])
    for arrival in (0.1 * boundaries[0], boundaries[9] + 1e-6,
                    0.5 * (boundaries[30] + boundaries[31])):
        _, grants, _, _ = dma_run(True, [(arrival, units.MIB)])
        assert grants[0] == min(b for b in boundaries if b >= arrival)


def test_dma_coalescing_preserves_exact_completion_stamps():
    """Mover vs per-chunk loop: bit-identical stamps under app traffic."""
    for seed in range(24):
        rng = random.Random(777 + seed)
        injections = [
            (rng.uniform(0.0, 0.02), rng.choice([1, 4, 8, 32]) * units.MIB)
            for _ in range(rng.randrange(1, 5))
        ]
        fast, fast_grants, fast_events, _ = dma_run(True, injections)
        slow, slow_grants, slow_events, _ = dma_run(False, injections)
        assert fast == slow, f"stamps diverged for seed={seed}: {injections}"
        assert fast_grants == slow_grants
        assert fast_events < slow_events

"""Edge-case tests for the frontend: sessions, heat tracking, guards."""

import pytest

from repro.api.calls import ApiCall, ApiCategory
from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.core.frontend import IPC_OVERHEAD, PhosFrontend
from repro.core.session import BufState, CheckpointSession
from repro.errors import CheckpointError
from repro.gpu.context import GpuContext
from repro.gpu.interpreter import AccessKind, Violation
from repro.gpu.program import build_fill
from repro.gpu.ranges import RangeSet
from repro.storage.image import CheckpointImage


@pytest.fixture
def world(eng):
    machine = Machine(eng, n_gpus=1)
    process = GpuProcess(eng, machine, name="p", gpu_indices=[0], cpu_pages=4)
    process.runtime.adopt_context(0, GpuContext(gpu_index=0))
    frontend = PhosFrontend(eng, process)
    process.runtime.interceptor = frontend
    return machine, process, frontend


def test_invalid_mode_rejected(eng):
    machine = Machine(eng, n_gpus=1)
    process = GpuProcess(eng, machine, name="p", gpu_indices=[0])
    with pytest.raises(CheckpointError, match="mode"):
        PhosFrontend(eng, process, mode="rpc")


def test_ipc_mode_adds_overhead(eng, world):
    machine, process, _ = world
    frontend = PhosFrontend(eng, process, mode="ipc")
    call = ApiCall(ApiCategory.OPAQUE_KERNEL, "k", 0,
                   program=build_fill(), args=[0, 0, 0], n_threads=1)
    plan = frontend.plan(call)
    assert plan.frontend_overhead == IPC_OVERHEAD


def test_two_kernels_named_alike_keep_their_own_signatures(eng, world):
    """Speculation parses each program's own declaration: a second
    kernel that shares the first one's name but swaps which pointer is
    const writes its first argument, not the first kernel's second."""
    from repro.gpu.isa import ProgramBuilder

    machine, _, _ = world
    frontend = PhosFrontend(eng, world[1], always_instrument=True)
    memory = machine.gpu(0).memory
    a, b = memory.alloc(512, tag="a"), memory.alloc(512, tag="b")
    for buf in (a, b):
        frontend.tables[0].register(buf)
    writes = []
    for decl in ("void k(const long* x, long* y)",
                 "void k(long* x, const long* y)"):
        program = ProgramBuilder("k", decl).exit().build()
        plan = frontend.plan(ApiCall(
            ApiCategory.OPAQUE_KERNEL, "k", 0, program=program,
            args=[a.addr, b.addr], n_threads=1))
        ranges = plan.validation.write_ranges
        writes.append([buf.tag for buf in (a, b) if buf.addr in ranges])
    assert writes == [["b"], ["a"]]


def test_double_begin_checkpoint_rejected(eng, world):
    _, _, frontend = world
    s1 = CheckpointSession(eng, "cow", CheckpointImage())
    frontend.begin_checkpoint(s1)
    s2 = CheckpointSession(eng, "cow", CheckpointImage())
    with pytest.raises(CheckpointError, match="already active"):
        frontend.begin_checkpoint(s2)
    frontend.end_checkpoint()
    with pytest.raises(CheckpointError, match="no checkpoint session"):
        frontend.end_checkpoint()


def test_bad_hot_order_rejected(eng, world):
    _, _, frontend = world
    with pytest.raises(CheckpointError, match="hot_order"):
        frontend.begin_checkpoint(
            CheckpointSession(eng, "cow", CheckpointImage()),
            hot_order="random",
        )


def test_end_restore_without_begin_rejected(eng, world):
    _, _, frontend = world
    with pytest.raises(CheckpointError, match="no restore session"):
        frontend.end_restore()


def test_predicted_next_write_tracks_period(eng, world):
    machine, process, frontend = world

    def app(rt):
        buf = yield from rt.malloc(0, 512, tag="b")
        # Two writes 1 s apart establish the period.
        yield from rt.memcpy_h2d(0, buf, payload=1, sync=True)
        yield eng.timeout(1.0 - (eng.now % 1.0))
        t_second = eng.now
        yield from rt.memcpy_h2d(0, buf, payload=2, sync=True)
        return buf, t_second

    buf, t_second = eng.run_process(app(process.runtime))
    predicted = frontend.predicted_next_write(buf)
    history = frontend.write_history[buf.id]
    assert predicted == pytest.approx(history[1] + (history[1] - history[0]))
    assert predicted > history[1]


def test_predicted_next_write_unwritten_is_inf(eng, world):
    machine, process, frontend = world

    def app(rt):
        buf = yield from rt.malloc(0, 512)
        return buf

    buf = eng.run_process(app(process.runtime))
    assert frontend.predicted_next_write(buf) == float("inf")


def test_single_write_is_inf(eng, world):
    machine, process, frontend = world

    def app(rt):
        buf = yield from rt.malloc(0, 512)
        yield from rt.memcpy_h2d(0, buf, payload=1, sync=True)
        return buf

    buf = eng.run_process(app(process.runtime))
    assert frontend.predicted_next_write(buf) == float("inf")


def test_hot_first_plan_orders_by_prediction(eng, world):
    machine, process, frontend = world

    def app(rt):
        cold = yield from rt.malloc(0, 512, tag="cold")
        hot = yield from rt.malloc(0, 512, tag="hot")
        slow = yield from rt.malloc(0, 512, tag="slow")
        # hot: written every ~1 ms; slow: every ~1 s; cold: never.
        for i in range(2):
            yield from rt.memcpy_h2d(0, hot, payload=i, sync=True)
            yield eng.timeout(1e-3)
        yield from rt.memcpy_h2d(0, slow, payload=1, sync=True)
        yield eng.timeout(1.0)
        yield from rt.memcpy_h2d(0, slow, payload=2, sync=True)
        return cold, hot, slow

    cold, hot, slow = eng.run_process(app(process.runtime))
    session = CheckpointSession(eng, "cow", CheckpointImage())
    frontend.begin_checkpoint(session, hot_order="hot-first")
    plan_tags = [b.tag for b in session.plan[0]]
    assert plan_tags.index("hot") < plan_tags.index("slow") < plan_tags.index("cold")
    frontend.end_checkpoint()


def test_on_free_outside_session_is_not_deferred(eng, world):
    machine, process, frontend = world

    def app(rt):
        buf = yield from rt.malloc(0, 512)
        yield from rt.free(0, buf)
        return buf

    buf = eng.run_process(app(process.runtime))
    assert buf.freed  # physically freed right away
    assert machine.gpu(0).memory.used == 0


def test_new_buffer_state_is_new_during_session(eng, world):
    machine, process, frontend = world

    def app(rt):
        old = yield from rt.malloc(0, 512, tag="old")
        session = CheckpointSession(eng, "cow", CheckpointImage())
        frontend.begin_checkpoint(session)
        new = yield from rt.malloc(0, 512, tag="new")
        states = (session.state_of(old), session.state_of(new))
        frontend.end_checkpoint()
        return states

    old_state, new_state = eng.run_process(app(process.runtime))
    assert old_state is BufState.NOT_STARTED
    assert new_state is BufState.NEW


# -- completion rules: sessions are fixed when the call is planned ----------

def _malloc(eng, process, size=512, tag="b"):
    def app(rt):
        return (yield from rt.malloc(0, size, tag=tag))

    return eng.run_process(app(process.runtime))


def _h2d_call(buf):
    return ApiCall(ApiCategory.MEMCPY_H2D, "memcpy_h2d", 0,
                   writes=[buf], nbytes=buf.size)


def test_recopy_launch_planned_before_session_is_not_marked_dirty(eng, world):
    _, process, frontend = world
    buf = _malloc(eng, process)
    before = _h2d_call(buf)
    plan_before = frontend.plan(before)
    session = CheckpointSession(eng, "recopy", CheckpointImage())
    frontend.begin_checkpoint(session)
    inside = _h2d_call(buf)
    plan_inside = frontend.plan(inside)
    session.set_state(buf, BufState.DONE)
    plan_before.on_complete(before, None)
    assert session.dirty[0] == set()
    plan_inside.on_complete(inside, None)  # control: same write, planned inside
    assert session.dirty[0] == {buf.id}
    frontend.end_checkpoint()


def test_launch_planned_inside_session_applies_its_rule_after_end(eng, world):
    _, process, frontend = world
    buf = _malloc(eng, process)
    recopy = CheckpointSession(eng, "recopy", CheckpointImage())
    frontend.begin_checkpoint(recopy)
    call = _h2d_call(buf)
    plan = frontend.plan(call)
    recopy.set_state(buf, BufState.DONE)
    assert frontend.end_checkpoint() is recopy
    plan.on_complete(call, None)
    assert recopy.dirty[0] == {buf.id}

    cow = CheckpointSession(eng, "cow", CheckpointImage())
    frontend.begin_checkpoint(cow)
    kernel = ApiCall(ApiCategory.OPAQUE_KERNEL, "k", 0,
                     program=build_fill(), args=[0, 0, 0], n_threads=1)
    plan = frontend.plan(kernel)
    frontend.end_checkpoint()
    plan.validation.violations.append(
        Violation("k", buf.addr, AccessKind.WRITE, 0))
    plan.on_complete(kernel, None)
    assert cow.aborted  # mis-speculated write to a NOT_STARTED buffer
    assert cow.stats.violations_handled == 1


def test_two_write_violations_on_one_buffer_each_count(eng, world):
    _, process, frontend = world
    buf = _malloc(eng, process)
    frontend.hash_cache.promote(buf.id, image_id="parent", addr=buf.addr,
                                size=buf.size, data_len=buf.data_size,
                                chunk_bytes=64, table=b"")
    frontend.always_instrument = True
    kernel = ApiCall(ApiCategory.OPAQUE_KERNEL, "k", 0,
                     program=build_fill(), args=[0, 0, 0], n_threads=2)
    plan = frontend.plan(kernel)
    plan.validation.violations.extend([
        Violation("k", buf.addr + 16, AccessKind.WRITE, 0),
        Violation("k", buf.addr + 40, AccessKind.WRITE, 1),
    ])
    eng.run(until=0.5)
    plan.on_complete(kernel, None)
    t = eng.now
    assert frontend.write_history[buf.id] == (t, t)
    assert frontend.hash_cache.entries[buf.id].pending == \
        RangeSet([(16, 24), (40, 48)])



def test_write_history_forgets_freed_buffers(eng, world):
    machine, process, frontend = world

    def app(rt):
        for i in range(200):
            buf = yield from rt.malloc(0, 256)
            yield from rt.memcpy_h2d(0, buf, payload=i, sync=True)
            yield from rt.free(0, buf)

    eng.run_process(app(process.runtime))
    assert len(frontend.tables[0]) == 0
    assert frontend.write_history == {}

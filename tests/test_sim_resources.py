"""Unit tests for Resource and Store."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Resource, Store


@pytest.fixture
def eng():
    return Engine()


def hold(eng, res, log, name, work, priority=0):
    """A process that acquires, works, and releases."""
    req = yield res.acquire(priority=priority)
    log.append(("start", name, eng.now))
    yield eng.timeout(work)
    res.release(req)
    log.append(("end", name, eng.now))


def test_single_slot_serializes(eng):
    res = Resource(eng, capacity=1)
    log = []
    eng.spawn(hold(eng, res, log, "a", 2.0))
    eng.spawn(hold(eng, res, log, "b", 3.0))
    eng.run()
    assert log == [
        ("start", "a", 0.0),
        ("end", "a", 2.0),
        ("start", "b", 2.0),
        ("end", "b", 5.0),
    ]


def test_two_slots_run_in_parallel(eng):
    res = Resource(eng, capacity=2)
    log = []
    for name in ("a", "b", "c"):
        eng.spawn(hold(eng, res, log, name, 2.0))
    eng.run()
    starts = {name: t for kind, name, t in log if kind == "start"}
    assert starts == {"a": 0.0, "b": 0.0, "c": 2.0}


def test_fifo_ordering(eng):
    res = Resource(eng, capacity=1)
    log = []
    for name in ("a", "b", "c", "d"):
        eng.spawn(hold(eng, res, log, name, 1.0))
    eng.run()
    started = [name for kind, name, _ in log if kind == "start"]
    assert started == ["a", "b", "c", "d"]


def test_capacity_validation(eng):
    with pytest.raises(SimulationError):
        Resource(eng, capacity=0)


def test_double_release_rejected(eng):
    res = Resource(eng, capacity=1)

    def proc(eng):
        req = yield res.acquire()
        res.release(req)
        res.release(req)

    with pytest.raises(SimulationError):
        eng.run_process(proc(eng))


def test_in_use_and_queue_len(eng):
    res = Resource(eng, capacity=1)
    snapshots = []

    def holder(eng):
        req = yield res.acquire()
        yield eng.timeout(2.0)
        res.release(req)

    def observer(eng):
        yield eng.timeout(1.0)
        snapshots.append((res.in_use, res.queue_len, res.busy))

    eng.spawn(holder(eng))
    eng.spawn(holder(eng))
    eng.spawn(observer(eng))
    eng.run()
    assert snapshots == [(1, 1, True)]
    assert res.in_use == 0 and res.queue_len == 0


def test_priority_resource_orders_by_priority(eng):
    res = Resource(eng, capacity=1)
    log = []

    def submit(eng):
        # Occupy the slot, then submit low/high priority waiters.
        req = yield res.acquire()
        eng.spawn(hold(eng, res, log, "low", 1.0, priority=10))
        eng.spawn(hold(eng, res, log, "high", 1.0, priority=0))
        yield eng.timeout(1.0)
        res.release(req)

    eng.run_process(submit(eng))
    eng.run()
    started = [name for kind, name, _ in log if kind == "start"]
    assert started == ["high", "low"]


def test_priority_ties_are_fifo(eng):
    res = Resource(eng, capacity=1)
    log = []

    def submit(eng):
        req = yield res.acquire()
        for name in ("first", "second", "third"):
            eng.spawn(hold(eng, res, log, name, 1.0, priority=5))
        yield eng.timeout(1.0)
        res.release(req)

    eng.run_process(submit(eng))
    eng.run()
    started = [name for kind, name, _ in log if kind == "start"]
    assert started == ["first", "second", "third"]


# --- release / cancellation contract (regression tests) ----------------------


def test_priority_release_of_foreign_request_raises(eng):
    """Regression: release silently accepted requests it had never
    seen, so a cross-resource release bug went unnoticed (and re-ran
    the grant loop on the wrong pool).  Here the foreign request is
    still waiting on its own resource."""
    res_a = Resource(eng, capacity=1, name="a")
    res_b = Resource(eng, capacity=1, name="b")

    def proc(eng):
        yield res_a.acquire()
        yield res_b.acquire()
        res_b.acquire()                      # res_b has a waiter too
        foreign = res_a.acquire(priority=5)  # waiting on res_a
        res_b.release(foreign)

    with pytest.raises(SimulationError, match="unknown request"):
        eng.run_process(proc(eng))


def test_fifo_release_of_foreign_request_raises(eng):
    """Same, for a request already granted on its own resource."""
    res_a = Resource(eng, capacity=1, name="a")
    res_b = Resource(eng, capacity=1, name="b")

    def proc(eng):
        req = yield res_a.acquire()
        res_b.release(req)

    with pytest.raises(SimulationError, match="unknown request"):
        eng.run_process(proc(eng))


def test_cancel_waiting_request_withdraws_it(eng):
    """Releasing a not-yet-granted request cancels it: the slot later
    goes to the next live waiter, never to the cancelled one."""
    res = Resource(eng, capacity=1)
    order = []

    def holder(eng):
        req = yield res.acquire()
        yield eng.timeout(2.0)
        res.release(req)

    def canceller(eng):
        req = res.acquire(priority=0)  # front of the queue
        yield eng.timeout(1.0)
        res.release(req)  # withdraw before being granted

    def waiter(eng):
        req = yield res.acquire(priority=10)
        order.append(eng.now)
        res.release(req)

    eng.spawn(holder(eng))
    eng.spawn(canceller(eng))
    eng.spawn(waiter(eng))
    eng.run()
    # Were the cancelled request granted, the slot would leak and the
    # low-priority waiter would never start.
    assert order == [2.0]


def test_cancelled_waiter_double_release_raises(eng):
    res = Resource(eng, capacity=1)

    def proc(eng):
        held = yield res.acquire()
        waiting = res.acquire(priority=5)
        res.release(waiting)
        res.release(waiting)
        res.release(held)  # unreached

    with pytest.raises(SimulationError, match="double release"):
        eng.run_process(proc(eng))


def test_priority_queue_len_skips_cancelled_entries(eng):
    """Lazy deletion keeps cancelled entries in the heap; queue_len and
    iter_waiting must not count them."""
    res = Resource(eng, capacity=1)

    def proc(eng):
        held = yield res.acquire()
        w1 = res.acquire(priority=5)
        w2 = res.acquire(priority=5)
        assert res.queue_len == 2
        res.release(w1)
        assert res.queue_len == 1
        assert list(res.iter_waiting()) == [w2]
        res.release(held)
        res.release(w2)  # granted synchronously when held was released
        assert res.queue_len == 0 and res.in_use == 0
        yield eng.timeout(0.0)

    eng.run_process(proc(eng))


def test_iter_users_and_iter_waiting_snapshots(eng):
    res = Resource(eng, capacity=1)
    seen = []

    def holder(eng):
        req = yield res.acquire()
        yield eng.timeout(1.0)
        res.release(req)

    def waiter(eng):
        req = yield res.acquire()
        res.release(req)

    def observer(eng):
        yield eng.timeout(0.5)
        seen.append((list(res.iter_users()), list(res.iter_waiting())))

    eng.spawn(holder(eng))
    eng.spawn(waiter(eng))
    eng.spawn(observer(eng))
    eng.run()
    (users, waiting), = seen
    assert len(users) == 1 and len(waiting) == 1
    assert users[0].resource is res and waiting[0].resource is res


def test_store_put_then_get(eng):
    store = Store(eng)
    store.put("x")

    def getter(eng):
        item = yield store.get()
        return item

    assert eng.run_process(getter(eng)) == "x"


def test_store_get_blocks_until_put(eng):
    store = Store(eng)

    def getter(eng):
        item = yield store.get()
        return (item, eng.now)

    def putter(eng):
        yield eng.timeout(3.0)
        store.put("late")

    g = eng.spawn(getter(eng))
    eng.spawn(putter(eng))
    eng.run()
    assert g.result == ("late", 3.0)


def test_store_fifo_order(eng):
    store = Store(eng)
    got = []

    def getter(eng):
        item = yield store.get()
        got.append(item)

    eng.spawn(getter(eng))
    eng.spawn(getter(eng))

    def putter(eng):
        yield eng.timeout(1.0)
        store.put(1)
        store.put(2)

    eng.spawn(putter(eng))
    eng.run()
    assert got == [1, 2]


def test_store_len(eng):
    store = Store(eng)
    store.put("a")
    store.put("b")
    assert len(store) == 2

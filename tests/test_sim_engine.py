"""Unit tests for the discrete-event engine core."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Engine
from repro.sim.engine import Interrupt
from tests.reference_engine import HeapEngine


@pytest.fixture
def eng():
    return Engine()


def test_clock_starts_at_zero(eng):
    assert eng.now == 0.0


def test_timeout_advances_clock(eng):
    def proc(eng):
        yield eng.timeout(2.5)
        return eng.now

    assert eng.run_process(proc(eng)) == 2.5
    assert eng.now == 2.5


def test_timeout_carries_value(eng):
    def proc(eng):
        got = yield eng.timeout(1.0, value="payload")
        return got

    assert eng.run_process(proc(eng)) == "payload"


def test_negative_timeout_rejected(eng):
    with pytest.raises(SimulationError):
        eng.timeout(-1.0)


def test_process_return_value(eng):
    def proc(eng):
        yield eng.timeout(0)
        return 42

    p = eng.spawn(proc(eng))
    eng.run()
    assert p.result == 42


def test_spawn_requires_generator(eng):
    with pytest.raises(SimulationError):
        eng.spawn(lambda: None)  # type: ignore[arg-type]


def test_processes_interleave_deterministically(eng):
    order = []

    def worker(eng, name, delay):
        yield eng.timeout(delay)
        order.append(name)

    eng.spawn(worker(eng, "b", 2.0))
    eng.spawn(worker(eng, "a", 1.0))
    eng.spawn(worker(eng, "c", 2.0))
    eng.run()
    assert order == ["a", "b", "c"]  # ties broken by spawn order


def test_same_time_fifo(eng):
    order = []

    def worker(eng, name):
        yield eng.timeout(1.0)
        order.append(name)

    for name in "xyz":
        eng.spawn(worker(eng, name))
    eng.run()
    assert order == ["x", "y", "z"]


def test_wait_on_another_process(eng):
    def child(eng):
        yield eng.timeout(3.0)
        return "child-result"

    def parent(eng):
        c = eng.spawn(child(eng))
        got = yield c
        return (got, eng.now)

    assert eng.run_process(parent(eng)) == ("child-result", 3.0)


def test_wait_on_finished_process(eng):
    def child(eng):
        yield eng.timeout(1.0)
        return 7

    def parent(eng):
        c = eng.spawn(child(eng))
        yield eng.timeout(5.0)
        got = yield c  # already finished: resumes immediately
        return (got, eng.now)

    assert eng.run_process(parent(eng)) == (7, 5.0)


def test_exception_propagates_through_wait(eng):
    def child(eng):
        yield eng.timeout(1.0)
        raise ValueError("boom")

    def parent(eng):
        try:
            yield eng.spawn(child(eng))
        except ValueError as err:
            return str(err)
        return "no error"

    assert eng.run_process(parent(eng)) == "boom"


def test_unhandled_exception_raises_from_run(eng):
    def child(eng):
        yield eng.timeout(1.0)
        raise RuntimeError("unhandled")

    with pytest.raises(RuntimeError, match="unhandled"):
        eng.run_process(child(eng))


def test_run_until_deadline(eng):
    hits = []

    def ticker(eng):
        while True:
            yield eng.timeout(1.0)
            hits.append(eng.now)

    eng.spawn(ticker(eng))
    eng.run(until=3.5)
    assert hits == [1.0, 2.0, 3.0]
    assert eng.now == 3.5


def test_run_until_past_deadline_rejected(eng):
    def proc(eng):
        yield eng.timeout(5.0)

    eng.run_process(proc(eng))
    with pytest.raises(SimulationError):
        eng.run(until=1.0)


def test_deadlock_detection(eng):
    def waiter(eng):
        yield eng.event("never")

    with pytest.raises(DeadlockError):
        eng.run_process(waiter(eng))


def test_interrupt_mid_wait(eng):
    def victim(eng):
        try:
            yield eng.timeout(100.0)
        except Interrupt:
            return ("interrupted", eng.now)
        return "not interrupted"

    def attacker(eng, victim_proc):
        yield eng.timeout(2.0)
        victim_proc.interrupt()

    v = eng.spawn(victim(eng))
    eng.spawn(attacker(eng, v))
    eng.run()
    assert v.result == ("interrupted", 2.0)


def test_interrupt_finished_process_rejected(eng):
    def quick(eng):
        yield eng.timeout(0)

    p = eng.spawn(quick(eng))
    eng.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_yield_non_event_fails_process(eng):
    def bad(eng):
        yield 42  # type: ignore[misc]

    with pytest.raises(SimulationError):
        eng.run_process(bad(eng))


def test_event_fire_twice_rejected(eng):
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_fire_rejected(eng):
    ev = eng.event("pending")
    with pytest.raises(SimulationError):
        _ = ev.value


def test_all_of_collects_values_in_order(eng):
    def proc(eng):
        evs = [eng.timeout(2.0, "b"), eng.timeout(1.0, "a")]
        vals = yield eng.all_of(evs)
        return (vals, eng.now)

    assert eng.run_process(proc(eng)) == (["b", "a"], 2.0)


def test_all_of_empty_fires_immediately(eng):
    def proc(eng):
        vals = yield eng.all_of([])
        return (vals, eng.now)

    assert eng.run_process(proc(eng)) == ([], 0.0)


def test_any_of_returns_first(eng):
    def proc(eng):
        evs = [eng.timeout(5.0, "slow"), eng.timeout(1.0, "fast")]
        idx, val = yield eng.any_of(evs)
        return (idx, val, eng.now)

    assert eng.run_process(proc(eng)) == (1, "fast", 1.0)


def test_all_of_with_pre_fired_events(eng):
    ev = eng.event()
    ev.succeed("already")

    def proc(eng):
        vals = yield eng.all_of([ev, eng.timeout(1.0, "later")])
        return vals

    assert eng.run_process(proc(eng)) == ["already", "later"]


def _lockstep_children(eng, order):
    """One process per entry of ``order`` ("ok"/"bad"), all ending at t=1."""
    def ok(eng):
        yield eng.timeout(1.0)
        return "fine"

    def bad(eng):
        yield eng.timeout(1.0)
        raise ValueError("boom")

    bodies = {"ok": ok, "bad": bad}
    return [eng.spawn(bodies[kind](eng)) for kind in order]


@pytest.mark.parametrize("order", [
    ("ok", "bad"),          # the successful child's callback comes first
    ("bad", "ok"),
    ("ok", "ok", "bad", "ok"),
])
@pytest.mark.parametrize("engine_cls", [Engine, HeapEngine])
def test_all_of_fails_when_a_same_instant_sibling_failed(engine_cls, order):
    """Lockstep children (eight copiers ending on one timer) have all
    fired before the first callback is delivered; a successful child's
    callback must not report the conjunction as a success with the
    sibling's exception sitting in its value list."""
    eng = engine_cls()
    conj = eng.all_of(_lockstep_children(eng, order))
    with pytest.raises(ValueError, match="boom"):
        eng.run(conj)
    assert eng.now == 1.0 and not conj.ok


def test_all_of_reports_the_first_failed_child_in_child_order(eng):
    first, second = eng.event("first"), eng.event("second")
    done = eng.timeout(1.0)

    def fire_both(_):
        second.fail(KeyError("second"))  # fires first, listed second
        first.fail(ValueError("first"))

    done.add_callback(fire_both)
    # ``done``'s own callback is delivered before either failure's.
    conj = eng.all_of([done, first, second])
    with pytest.raises(ValueError, match="first"):
        eng.run(conj)


def test_all_of_with_a_duplicate_failed_child(eng):
    ok, bad = _lockstep_children(eng, ("ok", "bad"))
    conj = eng.all_of([ok, bad, ok, bad])
    with pytest.raises(ValueError, match="boom"):
        eng.run(conj)


def test_all_of_over_children_already_failed_at_construction(eng):
    ok, bad = _lockstep_children(eng, ("ok", "bad"))
    eng.run()
    assert ok.ok and not bad.ok
    conj = eng.all_of([ok, bad])  # fires in the constructor
    assert conj.triggered and not conj.ok
    assert isinstance(conj.value, ValueError)
    # One pending sibling: the failure is reported when its callback is
    # delivered, without waiting for the sibling.
    late = eng.all_of([ok, bad, eng.timeout(5.0)])
    with pytest.raises(ValueError, match="boom"):
        eng.run(late)
    assert eng.now == 1.0


def test_any_of_reports_the_child_whose_callback_comes_first(eng):
    """``AnyOf`` cannot mask a failure the way ``AllOf`` did: it reports
    exactly one child, the one delivered first, success or failure."""
    ok, bad = _lockstep_children(eng, ("ok", "bad"))
    assert eng.run(eng.any_of([ok, bad])) == (0, "fine")
    eng2 = Engine()
    bad2, ok2 = _lockstep_children(eng2, ("bad", "ok"))
    with pytest.raises(ValueError, match="boom"):
        eng2.run(eng2.any_of([bad2, ok2]))


def test_schedule_in_past_rejected(eng):
    def proc(eng):
        yield eng.timeout(5.0)

    eng.run_process(proc(eng))
    with pytest.raises(SimulationError):
        eng.call_at(1.0, lambda _arg: None)


def test_schedule_nan_rejected(eng):
    with pytest.raises(SimulationError):
        eng.call_at(float("nan"), lambda _arg: None)


def test_call_at_is_one_record_in_fifo_position(eng):
    """``call_at`` runs ``fn(arg)`` at the instant, where it was queued:
    ahead of a timeout's waiter (that wake-up is a second record, pushed
    when the timeout fires) and with no event or process behind it."""
    seen = []

    def waiter(eng):
        yield eng.timeout(1.0)
        seen.append(("waiter", eng.now))

    eng.spawn(waiter(eng))
    eng.run(until=0.5)
    eng.call_at(1.0, lambda arg: seen.append((arg, eng.now)), "timer")
    eng.call_at(1.0, seen.append)
    before = eng.events_executed
    eng.run()
    assert seen == [("timer", 1.0), None, ("waiter", 1.0)]
    assert eng.events_executed - before == 4  # fire, 2 timers, resume
    with pytest.raises(SimulationError):
        eng.call_at(0.5, seen.append)


# -- interrupt edge cases under record dispatch -----------------------------------

def test_stale_wakeup_after_interrupt_retarget(eng):
    """An interrupt re-targets the victim onto a new wait; the *old*
    event still fires later and its queued wakeup must be dropped."""
    ev_a = eng.event("a")

    def victim(eng):
        try:
            yield ev_a
        except Interrupt:
            pass
        got = yield eng.timeout(1.0, "fresh")  # the re-targeted wait
        return (got, eng.now)

    def attacker(eng, v):
        yield eng.timeout(0.5)
        v.interrupt()
        yield eng.timeout(0.1)
        ev_a.succeed("stale")  # victim is long since waiting elsewhere

    v = eng.spawn(victim(eng))
    eng.spawn(attacker(eng, v))
    eng.run()
    assert v.result == ("fresh", 1.5)


def test_stale_wakeup_after_victim_finished(eng):
    """The victim finishes on interrupt; the old event's queued wakeup
    then targets a *fired* process and must be a no-op."""
    ev_a = eng.event("a")

    def victim(eng):
        try:
            yield ev_a
        except Interrupt:
            return ("done", eng.now)

    def attacker(eng, v):
        yield eng.timeout(1.0)
        v.interrupt()
        yield eng.timeout(0.0)
        ev_a.succeed("too-late")

    v = eng.spawn(victim(eng))
    eng.spawn(attacker(eng, v))
    eng.run()
    assert v.result == ("done", 1.0)


def test_interrupt_when_event_fires_same_timestamp(eng):
    """FIFO within a timestamp: the victim's timeout fired (and its
    wakeup was queued) before the attacker ran, so the value is
    delivered normally and the interrupt lands on the *next* wait —
    all within one scheduler timestamp."""
    def victim(eng):
        got = yield eng.timeout(2.0, "on-time")
        try:
            yield eng.timeout(50.0)
        except Interrupt:
            return (got, "interrupted-next", eng.now)
        return (got, "never-interrupted", eng.now)

    def attacker(eng, v):
        yield eng.timeout(2.0)  # the same instant the victim's fires
        v.interrupt()

    v = eng.spawn(victim(eng))
    eng.spawn(attacker(eng, v))
    eng.run()
    assert v.result == ("on-time", "interrupted-next", 2.0)


def test_interrupt_then_stop_iteration_wakes_waiters_in_order(eng):
    """Interrupt → generator returns → the process event fires; every
    waiter resumes at the interrupt timestamp, in registration order."""
    order = []

    def victim(eng):
        try:
            yield eng.timeout(100.0)
        except Interrupt:
            return "stopped"

    def watcher(eng, v, name):
        got = yield v
        order.append((name, eng.now, got))

    v = eng.spawn(victim(eng))
    eng.spawn(watcher(eng, v, "w1"))
    eng.spawn(watcher(eng, v, "w2"))

    def attacker(eng):
        yield eng.timeout(3.0)
        v.interrupt()

    eng.spawn(attacker(eng))
    eng.run()
    assert v.result == "stopped"
    assert order == [("w1", 3.0, "stopped"), ("w2", 3.0, "stopped")]


def test_interrupt_with_custom_exception(eng):
    class Abort(Exception):
        pass

    def victim(eng):
        try:
            yield eng.timeout(10.0)
        except Abort:
            return "aborted"

    def attacker(eng, v):
        yield eng.timeout(1.0)
        v.interrupt(Abort())

    v = eng.spawn(victim(eng))
    eng.spawn(attacker(eng, v))
    eng.run()
    assert v.result == "aborted"


# -- Process-level order semantics ------------------------------------------------
#
# Both live in ``Process`` itself, which every scheduler shares, so the
# differential oracle (tests/reference_engine.py) cannot see them.  The
# worker path depends on them: a baseline checkpoint is a spawned daemon
# handle its driver yields — often after it already finished — where it
# used to be an inline ``yield from``.

@pytest.mark.parametrize("new_engine", [Engine, HeapEngine],
                         ids=["calendar", "heap"])
def test_yielding_an_already_fired_event_resumes_next_turn_not_inline(
        new_engine):
    """The wakeup is queued at ``now`` behind what is already scheduled
    there — exactly where a callback on a not-yet-fired event would
    have landed — instead of the generator being re-entered inline."""
    eng = new_engine()
    done = eng.event()
    done.succeed("v")
    eng.run()
    order = []

    def early(eng):
        order.append("early:yield")
        got = yield done
        order.append(f"early:resumed:{got}@{eng.now}")

    def late(eng):
        order.append("late")
        yield eng.timeout(0)

    eng.spawn(early(eng))
    eng.spawn(late(eng))
    eng.run()
    assert order == ["early:yield", "late", "early:resumed:v@0.0"]


@pytest.mark.parametrize("new_engine", [Engine, HeapEngine],
                         ids=["calendar", "heap"])
def test_interrupt_queues_a_step_at_now_not_inline(new_engine):
    """``interrupt`` returns before the victim runs: the throw is a
    queued step at the current timestamp, so the interrupter's own turn
    finishes first and the victim's handler sees the same ``now``."""
    eng = new_engine()
    order = []

    def victim(eng):
        try:
            yield eng.timeout(10.0)
        except Interrupt:
            order.append(("victim:handler", eng.now))

    def killer(eng, target):
        yield eng.timeout(1.0)
        target.interrupt()
        order.append(("killer:after-call", eng.now))

    target = eng.spawn(victim(eng))
    eng.spawn(killer(eng, target))
    eng.run()
    assert order == [("killer:after-call", 1.0), ("victim:handler", 1.0)]


# -- executed vs scheduled accounting ---------------------------------------------

def test_events_executed_excludes_never_fired(eng):
    """A deadline run leaves scheduled-but-unfired records behind;
    events_executed must not count them (the bench's events/s
    denominator is this number)."""
    def ticker(eng):
        while True:
            yield eng.timeout(1.0)

    eng.spawn(ticker(eng))
    eng.run(until=2.5)
    assert eng.events_executed < eng.events_scheduled
    assert eng.events_pending >= 1
    assert (eng.events_executed + eng.events_pending
            == eng.events_scheduled)


def test_events_executed_equals_scheduled_when_drained(eng):
    def proc(eng):
        yield eng.timeout(1.0)
        yield eng.timeout(1.0)

    eng.run_process(proc(eng))
    assert eng.events_executed == eng.events_scheduled
    assert eng.events_pending == 0


# -- legacy heap reference (tests/reference_engine.py) ---------------------------

# A single case: the "arg" id keeps the name this test has in suite
# listings (its "env" sibling went with the switch it exercised).
@pytest.mark.parametrize("how", ["arg"])
def test_legacy_heap_mode_matches(how):
    eng = HeapEngine()
    order = []

    def worker(eng, name, delay):
        yield eng.timeout(delay)
        order.append((name, eng.now))

    eng.spawn(worker(eng, "b", 2.0))
    eng.spawn(worker(eng, "a", 1.0))
    eng.spawn(worker(eng, "c", 2.0))
    eng.run()
    assert order == [("a", 1.0), ("b", 2.0), ("c", 2.0)]
    assert eng.events_executed == eng.events_scheduled


def test_nested_spawn_depth(eng):
    def leaf(eng):
        yield eng.timeout(1.0)
        return 1

    def middle(eng):
        got = yield eng.spawn(leaf(eng))
        return got + 1

    def root(eng):
        got = yield eng.spawn(middle(eng))
        return got + 1

    assert eng.run_process(root(eng)) == 3

"""Unit tests for clock domains, channels, and the conservative loop."""

import pytest

from repro import obs
from repro.cluster import Cluster, Machine, RdmaLink
from repro.core.daemon import Phos
from repro.errors import DeadlockError, InvalidValueError, SimulationError
from repro.sim import Engine
from repro.sim.domains import MIN_LOOKAHEAD, ClockDomain, DomainChannel, World
from repro.sim.events import Event
from repro.sim.resources import Resource, acquired


def two_domains():
    world = World()
    return world, world.domain("a"), world.domain("b")


# --- topology validation --------------------------------------------------------


def test_duplicate_domain_name_rejected():
    world = World()
    world.domain("a")
    with pytest.raises(InvalidValueError):
        world.domain("a")


def test_self_channel_rejected():
    world = World()
    a = world.domain("a")
    with pytest.raises(InvalidValueError):
        world.channel(a, a, 1e-6)


@pytest.mark.parametrize("latency", [0.0, -1e-6, float("nan"),
                                     float("inf"), MIN_LOOKAHEAD / 2])
def test_channel_latency_must_be_lookahead(latency):
    world, a, b = two_domains()
    with pytest.raises(InvalidValueError):
        world.channel(a, b, latency)
    with pytest.raises(InvalidValueError):
        DomainChannel.local(Engine(), latency)


def test_channel_endpoints_must_belong_to_world():
    world, a, _ = two_domains()
    other = World().domain("x")
    with pytest.raises(InvalidValueError):
        world.channel(a, other, 1e-6)
    with pytest.raises(InvalidValueError):
        world.channel(Engine(), a, 1e-6)


def test_distinct_engines_need_a_world():
    with pytest.raises(InvalidValueError):
        DomainChannel(None, Engine(), Engine(), 1e-6)


def test_empty_world_cannot_run():
    with pytest.raises(SimulationError):
        World().run()


# --- channel semantics ----------------------------------------------------------


def test_degenerate_channel_delivers_at_latency():
    eng = Engine()
    ch = DomainChannel.local(eng, 0.5)

    def receiver():
        val = yield ch.recv()
        return val, eng.now

    ch.send("hello")
    assert eng.run_process(receiver()) == ("hello", 0.5)


def test_cross_domain_send_recv_timing():
    world, a, b = two_domains()
    ch = world.channel(a, b, 5e-6)
    got = {}

    def sender():
        yield a.timeout(1.0)
        ch.send("x")

    def receiver():
        got["val"] = yield ch.recv()
        got["t"] = b.now

    a.spawn(sender())
    b.spawn(receiver())
    world.run()
    assert got == {"val": "x", "t": pytest.approx(1.0 + 5e-6, abs=0)}


def test_subscribe_hands_every_value_to_the_handler():
    world, a, b = two_domains()
    ch = world.channel(a, b, 5e-6)
    seen = []
    ch.subscribe(lambda value: seen.append((value, b.now)))

    def sender():
        yield a.timeout(1.0)
        ch.send("x")
        yield a.timeout(1e-3)
        ch.send("y")

    a.spawn(sender())
    world.run()
    assert seen == [("x", pytest.approx(1.0 + 5e-6, abs=0)),
                    ("y", pytest.approx(1.0 + 1e-3 + 5e-6, abs=0))]
    # Two bare records a message (delivery, wake-up) plus the sender's
    # spawn step and two timeout fires and resumes: no Store, Event or
    # generator.
    assert world.events_executed == 2 * 2 + 5


def test_subscribed_channel_refuses_recv_and_a_second_subscriber():
    eng = Engine()
    ch = DomainChannel.local(eng, 0.5)
    ch.subscribe(print)
    with pytest.raises(SimulationError):
        ch.recv()
    with pytest.raises(SimulationError):
        ch.subscribe(print)


def test_subscribe_refuses_a_channel_already_received():
    eng = Engine()
    waited = DomainChannel.local(eng, 0.5)
    waited.recv()
    with pytest.raises(SimulationError):
        waited.subscribe(print)
    queued = DomainChannel.local(eng, 0.5)
    queued.send("x")
    eng.run()
    with pytest.raises(SimulationError):
        queued.subscribe(print)


def test_subscriber_error_propagates_out_of_run():
    """A listener process that raises fails silently (nobody waits on
    it); a handler is the scheduler's own call, so run() raises."""
    eng = Engine()
    ch = DomainChannel.local(eng, 0.5)

    def boom(value):
        raise ValueError(value)

    ch.subscribe(boom)
    ch.send("x")
    with pytest.raises(ValueError):
        eng.run()


# --- domain-affinity guards -----------------------------------------------------


def test_direct_foreign_interrupt_rejected():
    world, a, b = two_domains()
    failure = {}

    def victim():
        yield b.timeout(10.0)

    victim_proc = b.spawn(victim())

    def attacker():
        yield a.timeout(1.0)
        try:
            victim_proc.interrupt()
        except SimulationError as exc:
            failure["msg"] = str(exc)

    a.spawn(attacker())
    world.run(until=2.0)
    assert "DomainChannel" in failure["msg"]


def run_and_catch(world, domain, body):
    """Spawn ``body`` in ``domain``; run; return the failure exception."""
    proc = domain.spawn(body)
    world.run()
    assert proc.triggered and not proc.ok
    return proc.value


def test_foreign_timeout_rejected():
    world, a, b = two_domains()

    def bad():
        yield b.timeout(1.0)

    exc = run_and_catch(world, a, bad())
    assert isinstance(exc, SimulationError)


def test_foreign_resource_rejected():
    world, a, b = two_domains()
    res = Resource(b, capacity=1, name="rb")

    def bad():
        yield from acquired(res)

    exc = run_and_catch(world, a, bad())
    assert isinstance(exc, SimulationError)
    assert "rb" in str(exc)


def test_foreign_event_wait_rejected():
    world, a, b = two_domains()
    ev = Event(b, name="foreign")

    def bad():
        yield ev

    a.spawn(bad())
    # Registering as a waiter on a foreign-domain event is a structural
    # misuse: it fails the whole run, not just the offending process.
    with pytest.raises(SimulationError, match="cross-domain"):
        world.run()


def test_foreign_channel_send_and_recv_rejected():
    world, a, b = two_domains()
    ch = world.channel(a, b, 1e-6)

    def bad_send():
        yield b.timeout(0.0)
        ch.send("x")  # channel sends from a, but b is executing

    exc = run_and_catch(world, b, bad_send())
    assert isinstance(exc, SimulationError)

    world2 = World()
    a2 = world2.domain("a")
    b2 = world2.domain("b")
    ch2 = world2.channel(a2, b2, 1e-6)

    def bad_recv():
        yield ch2.recv()  # received in b's domain, but a is executing

    exc = run_and_catch(world2, a2, bad_recv())
    assert isinstance(exc, SimulationError)


# --- world run semantics --------------------------------------------------------


def test_run_until_deadline_advances_all_clocks():
    world, a, b = two_domains()

    def ticker(eng):
        while True:
            yield eng.timeout(1.0)

    a.spawn(ticker(a))
    world.run(until=3.5)
    assert a.now == 3.5
    assert b.now == 3.5  # idle domain still lands on the deadline
    assert world.now == 3.5


def test_run_deadline_in_past_rejected():
    world, a, _ = two_domains()

    def step():
        yield a.timeout(2.0)

    world.run(a.spawn(step()))
    with pytest.raises(SimulationError):
        world.run(until=1.0)


def test_run_until_event_returns_value():
    world, a, b = two_domains()
    ch = world.channel(a, b, 5e-6)

    def sender():
        yield a.timeout(1.0)
        ch.send("v")

    def receiver():
        val = yield ch.recv()
        return val

    a.spawn(sender())
    proc = b.spawn(receiver())
    assert world.run(proc) == "v"


def test_run_until_event_deadlock():
    world, _, b = two_domains()
    never = Event(b, name="never")
    with pytest.raises(DeadlockError):
        world.run(never)


def test_run_process_and_reentrancy():
    world, a, _ = two_domains()

    def outer():
        yield a.timeout(1.0)
        world.run()  # re-entrant: must be rejected

    exc = run_and_catch(world, a, outer())
    assert isinstance(exc, SimulationError)
    assert "re-entrant" in str(exc)

    def inner():
        yield a.timeout(1.0)
        return "done"

    assert world.run_process(inner()) == "done"


def test_domain_run_delegates_to_world():
    world, a, b = two_domains()

    def step(eng):
        yield eng.timeout(1.0)

    a.spawn(step(a))
    b.spawn(step(b))
    a.run()  # Engine-typed call sites keep working on a domain
    assert a.now == 1.0 and b.now == 1.0


def test_rounds_and_skew_accounting():
    world, a, b = two_domains()
    ch = world.channel(a, b, 5e-6)

    def sender():
        yield a.timeout(1.0)
        ch.send("x")
        yield a.timeout(1.0)

    def receiver():
        yield ch.recv()

    a.spawn(sender())
    b.spawn(receiver())
    world.run()
    assert world.rounds >= 1
    # a ran to 2.0 while b stopped at the 1.0+5us arrival.
    assert world.skew_max > 0.0


# --- the min-timestamp-first schedule, by call counts ----------------------------


@pytest.fixture
def drains(monkeypatch):
    """Names of the domains ``_drain_window`` was called on, in order."""
    calls = []
    inner = Engine._drain_window

    def counting(self, *args):
        calls.append(self.name)
        return inner(self, *args)

    monkeypatch.setattr(Engine, "_drain_window", counting)
    return calls


def _ping_pong(world, a, b, volleys=20):
    there = world.channel(a, b, 5e-6)
    back = world.channel(b, a, 5e-6)

    def server():
        for _ in range(volleys):
            yield back.recv()
            yield a.timeout(0.25)
            there.send("ping")

    def client():
        for _ in range(volleys):
            back.send("pong")
            yield there.recv()
            yield b.timeout(0.5)

    a.spawn(server())
    b.spawn(client())


def test_idle_and_drained_domains_cost_no_drain_calls(drains):
    small = World()
    _ping_pong(small, small.domain("a"), small.domain("b"))
    small.run()
    baseline = len(drains)
    assert baseline > 40

    big = World()
    a, b = big.domain("a"), big.domain("b")
    idle = [big.domain(f"idle{i}") for i in range(15)]
    spent = [big.domain(f"spent{i}") for i in range(15)]
    for i, dom in enumerate(spent):
        # Fully connected to the talkers, so they are bounded like them.
        big.channel(a, dom, 5e-6)
        big.channel(dom, b, 5e-6)
        dom.spawn(_advance(dom, 0.1 * i))
    for dom in idle:
        big.channel(dom, a, 5e-6)
    big.run()  # the spent domains run dry here
    del drains[:]
    _ping_pong(big, a, b)
    big.run()
    assert len(drains) == baseline
    assert set(drains) == {"a", "b"}


def test_one_domain_world_runs_in_one_drain_call(drains):
    world = World()
    dom = world.domain("only")

    def ticker():
        for _ in range(50):
            yield dom.timeout(0.5)

    dom.spawn(ticker())
    world.run()
    assert drains == ["only"]
    assert dom.now == 25.0 and world.rounds == 1


def test_domains_tied_at_lbts_run_in_domain_order(drains):
    world = World()
    doms = [world.domain(n) for n in "abc"]
    for i, dom in enumerate(doms):
        world.channel(dom, doms[(i + 1) % 3], 5e-6)
        dom.spawn(_advance(dom, 1.0))
    doms[1].spawn(_advance(doms[1], 0.5))
    world.run()
    # t=0: everyone's first step; t=0.5: b alone; t=1.0: everyone again.
    assert drains == ["a", "b", "c", "b", "a", "b", "c"]
    assert world.rounds == 3


def test_channel_added_between_runs_is_honoured():
    world, a, b = two_domains()
    log = []

    def ticks(n):
        for _ in range(n):
            log.append(("tick", b.now))
            yield b.timeout(0.1)

    def send_after(ch, delay, value):
        yield a.timeout(delay)
        ch.send(value)

    def receiver(ch):
        log.append(((yield ch.recv()), b.now))

    b.spawn(ticks(3))
    world.run()  # no channel yet: b is unbounded
    t0 = world.now
    assert a.now == b.now == t0

    # A stale "unbounded" window would run all of b's ticks before a's
    # send and trip the conservative-violation check.
    slow = world.channel(a, b, 0.25)
    b.spawn(ticks(6))
    b.spawn(receiver(slow))
    a.spawn(send_after(slow, 0.15, "slow"))
    world.run()
    assert ("slow", pytest.approx(t0 + 0.15 + 0.25, abs=0)) in log
    t1 = world.now

    # Same again with a *shorter* second channel: a stale 0.25 s window
    # would carry b past the arrival of a message sent over it.
    fast = world.channel(a, b, 0.01)
    b.spawn(ticks(4))
    b.spawn(receiver(fast))
    a.spawn(send_after(fast, 0.15, "fast"))
    world.run()
    assert ("fast", pytest.approx(t1 + 0.15 + 0.01, abs=0)) in log
    times = [t for _, t in log]
    assert times == sorted(times)


def test_conservative_violation_checked_at_send():
    world, a, b = two_domains()
    ch = world.channel(a, b, 5e-6)
    # Stopping on an event leaves the clocks apart (no quiescent
    # re-join): b is at 3.0 while a never left 0.0.
    world.run(b.spawn(_advance(b, 3.0)))
    assert (a.now, b.now) == (0.0, 3.0)
    with pytest.raises(SimulationError, match="conservative violation"):
        ch.send("late")
    assert ch.messages_sent == 0 and b.events_pending == 0


# --- clock monotonicity assertion (satellite) -----------------------------------


def test_check_clock_accepts_normal_runs():
    eng = Engine()

    def body():
        yield eng.timeout(1.0)
        yield eng.timeout(0.0)
        return eng.now

    assert eng.run_process(body()) == 1.0


def test_check_clock_catches_backwards_time():
    from repro.sim.events import K_CALL1

    eng = Engine()
    eng.run_process(_advance(eng, 1.0))
    # Forge a record behind the clock (bypassing _push's own guard).
    eng._buckets[0.5] = [(K_CALL1, lambda _arg: None, None)]
    import heapq

    heapq.heappush(eng._theap, 0.5)
    with pytest.raises(SimulationError):
        eng.run()


def _advance(eng, dt):
    yield eng.timeout(dt)


# --- cluster integration --------------------------------------------------------


def test_cluster_duplicate_machine_names_rejected():
    eng = Engine()
    with pytest.raises(InvalidValueError) as err:
        Cluster(eng, [Machine(eng, "n0", 1), Machine(eng, "n0", 1)])
    assert "n0" in str(err.value)


def test_rdma_self_link_rejected():
    eng = Engine()
    m = Machine(eng, "n0", 1)
    with pytest.raises(InvalidValueError):
        RdmaLink(eng, m, m)
    with pytest.raises(InvalidValueError):
        RdmaLink(eng, m, Machine(eng, "n0", 1))  # same name, distinct object


@pytest.mark.parametrize("latency", [0.0, -5e-6, float("nan")])
def test_rdma_link_latency_validated(latency):
    eng = Engine()
    a, b = Machine(eng, "a", 1), Machine(eng, "b", 1)
    with pytest.raises(InvalidValueError):
        RdmaLink(eng, a, b, latency=latency)


def test_rdma_bandwidth_validated():
    eng = Engine()
    a, b = Machine(eng, "a", 1), Machine(eng, "b", 1)
    with pytest.raises(InvalidValueError):
        RdmaLink(eng, a, b, bandwidth=0.0)


def test_machines_on_distinct_engines_need_world():
    with pytest.raises(InvalidValueError):
        RdmaLink(Engine(), Machine(Engine(), "a", 1),
                 Machine(Engine(), "b", 1))


def test_testbed_per_machine_domains():
    world = World()
    cluster = Cluster.testbed(world, n_machines=2, n_gpus=2)
    src, dst = cluster.machines
    assert isinstance(src.engine, ClockDomain)
    assert src.engine is not dst.engine
    link = cluster.link(src, dst)
    got = {}

    def sender():
        # 1 s of drain at the link bandwidth, then notify the far side.
        yield from link.deliver(src, dst, link.bandwidth, value="blob")
        got["sent_at"] = src.engine.now

    def receiver():
        got["val"] = yield link.receive(src, dst)
        got["recv_at"] = dst.engine.now

    src.engine.spawn(sender())
    dst.engine.spawn(receiver())
    world.run()
    assert got["val"] == "blob"
    # Sender resumes at drain end; receiver one propagation later.
    assert got["recv_at"] == pytest.approx(got["sent_at"] + link.latency)


def test_testbed_mode_validation():
    with pytest.raises(InvalidValueError):
        Cluster.testbed(Engine(), clock_domains="per-machine")
    with pytest.raises(InvalidValueError):
        Cluster.testbed(World(), clock_domains="per-banana")
    with pytest.raises(InvalidValueError):
        Cluster.testbed(World(), clock_domains="per-gpu")


def test_phos_pinned_to_machine_domain():
    world, a, b = two_domains()
    machine = Machine(a, "m", 1)
    with pytest.raises(InvalidValueError):
        Phos(b, machine)


# --- observability --------------------------------------------------------------


def test_domain_obs_counters_and_skew_gauge():
    world, a, b = two_domains()
    ch = world.channel(a, b, 5e-6)

    def sender():
        yield a.timeout(1.0)
        ch.send("x")

    def receiver():
        yield ch.recv()

    with obs.observed(a) as ob:
        a.spawn(sender())
        b.spawn(receiver())
        world.run()
    assert ob.metrics.counter("domain/a/events-executed").value > 0
    assert ob.metrics.counter("domain/b/events-executed").value > 0
    assert ob.metrics.gauge("domain/skew-max").value == world.skew_max
    assert world.skew_max > 0.0


def test_domain_events_counted_once():
    world, a, b = two_domains()
    ch = world.channel(a, b, 5e-6)

    def sender():
        yield a.timeout(1.0)
        ch.send("x")

    def receiver():
        yield ch.recv()

    with obs.observed(a) as ob:
        a.spawn(sender())
        b.spawn(receiver())
        world.run()
    total = (ob.metrics.counter("domain/a/events-executed").value
             + ob.metrics.counter("domain/b/events-executed").value)
    assert total == world.events_executed

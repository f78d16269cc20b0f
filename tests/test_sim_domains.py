"""Unit tests for homes, channels, and the affinity rule."""

import pytest

from repro.cluster import Cluster, Machine, RdmaLink
from repro.core.daemon import Phos
from repro.errors import DeadlockError, InvalidValueError, SimulationError
from repro.sim import Engine
from repro.sim.domains import DomainChannel, Home
from repro.sim.events import Event
from repro.sim.fluid import FluidLink
from repro.sim.resources import Resource, acquired


def two_homes():
    core = Engine()
    return core, Home(core, "a"), Home(core, "b")


# --- topology validation --------------------------------------------------------


def test_duplicate_domain_name_rejected():
    core = Engine()
    Home(core, "a")
    with pytest.raises(InvalidValueError):
        Home(core, "a")
    Home(Engine(), "a")  # names are per core


@pytest.mark.parametrize("latency", [0.0, -1e-6, float("nan"),
                                     float("inf")])
def test_channel_latency_must_be_lookahead(latency):
    _, a, b = two_homes()
    with pytest.raises(InvalidValueError):
        DomainChannel(a, b, latency)
    with pytest.raises(InvalidValueError):
        DomainChannel.local(Engine(), latency)


def test_channel_endpoints_must_belong_to_world():
    core, a, _ = two_homes()
    with pytest.raises(InvalidValueError):
        DomainChannel(a, Home(Engine(), "x"), 1e-6)
    with pytest.raises(InvalidValueError):
        DomainChannel(Engine(), a, 1e-6)
    with pytest.raises(InvalidValueError):
        DomainChannel(core, a, 1e-6)  # a core is not one of its homes


def test_distinct_engines_need_a_world():
    with pytest.raises(InvalidValueError):
        DomainChannel(Engine(), Engine(), 1e-6)


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
    core, a, b = two_homes()
    ch = DomainChannel(a, b, 5e-6)
    got = {}

    def sender():
        yield a.timeout(1.0)
        ch.send("x")

    def receiver():
        got["val"] = yield ch.recv()
        got["t"] = b.now

    a.spawn(sender())
    b.spawn(receiver())
    core.run()
    assert got == {"val": "x", "t": pytest.approx(1.0 + 5e-6, abs=0)}


def test_subscribe_hands_every_value_to_the_handler():
    core, a, b = two_homes()
    ch = DomainChannel(a, b, 5e-6)
    seen = []
    ch.subscribe(lambda value: seen.append((value, b.now)))

    def sender():
        yield a.timeout(1.0)
        ch.send("x")
        yield a.timeout(1e-3)
        ch.send("y")

    a.spawn(sender())
    core.run()
    assert seen == [("x", pytest.approx(1.0 + 5e-6, abs=0)),
                    ("y", pytest.approx(1.0 + 1e-3 + 5e-6, abs=0))]
    # Two bare records a message (delivery, wake-up) plus the sender's
    # spawn step and two timeout fires and resumes: no Store, Event or
    # generator.
    assert core.events_executed == 2 * 2 + 5


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


# --- the affinity rule ------------------------------------------------------------


def test_direct_foreign_interrupt_rejected():
    core, a, b = two_homes()
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
    core.run(until=2.0)
    assert "DomainChannel" in failure["msg"]


def run_and_catch(home, body):
    """Spawn ``body`` on ``home``; run; return the failure exception."""
    proc = home.spawn(body)
    home.run()
    assert proc.triggered and not proc.ok
    return proc.value


def test_foreign_timeout_rejected():
    _, a, b = two_homes()

    def bad():
        yield b.timeout(1.0)

    exc = run_and_catch(a, bad())
    assert isinstance(exc, SimulationError)


def test_foreign_resource_rejected():
    # Waiting on another home's request is a structural misuse, whether
    # the grant already fired or is still queued: it fails the run.
    for held in (False, True):
        core, a, b = two_homes()
        res = Resource(b, capacity=1, name="rb")
        if held:
            b.spawn(_hold(res, 5.0))

        def bad():
            yield from acquired(res)

        a.spawn(bad())
        with pytest.raises(SimulationError, match="rb"):
            core.run()


def _hold(res, dt):
    req = yield from acquired(res)
    yield res.engine.timeout(dt)
    res.release(req)


def test_foreign_event_wait_rejected():
    core, a, b = two_homes()
    ev = Event(b, name="foreign")

    def bad():
        yield ev

    a.spawn(bad())
    # Registering as a waiter on a foreign-home event is a structural
    # misuse: it fails the whole run, not just the offending process.
    with pytest.raises(SimulationError, match="cross-home"):
        core.run()

    fired = Event(b, name="fired").succeed()
    a.spawn(_wait(fired))
    with pytest.raises(SimulationError, match="fired"):
        core.run()


def _wait(ev):
    yield ev


def test_foreign_channel_send_and_recv_rejected():
    _, a, b = two_homes()
    ch = DomainChannel(a, b, 1e-6)

    def bad_send():
        yield b.timeout(0.0)
        ch.send("x")  # channel sends from a, but b is executing

    exc = run_and_catch(b, bad_send())
    assert isinstance(exc, SimulationError)

    _, a2, b2 = two_homes()
    ch2 = DomainChannel(a2, b2, 1e-6)

    def bad_recv():
        yield ch2.recv()  # received on b, but a is executing

    exc = run_and_catch(a2, bad_recv())
    assert isinstance(exc, SimulationError)


def test_foreign_fluid_link_rejected():
    _, a, b = two_homes()
    link = FluidLink(b, 1e9, name="lb")

    def bad():
        yield from link.flow(1e6)

    exc = run_and_catch(a, bad())
    assert isinstance(exc, SimulationError)
    assert "DomainChannel" in str(exc)


def test_foreign_touch_from_a_callback_rejected():
    """A timer or a channel handler runs as a record of its home."""
    core, a, b = two_homes()
    a.call_at(1.0, lambda _: b.call_at(2.0, print))
    with pytest.raises(SimulationError, match="home 'a' cannot"):
        core.run()

    core, a, b = two_homes()
    ch = DomainChannel(a, b, 1e-6)
    ch.subscribe(lambda value: a.call_at(a.now, print, value))
    ch.send("x")
    with pytest.raises(SimulationError, match="home 'b' cannot"):
        core.run()


def test_plain_engines_carry_no_check():
    one, other = Engine(), Engine()
    seen = []

    def crosses():
        other.call_at(1.0, seen.append, "other")  # no homes, no rule
        yield one.timeout(1.0)

    one.run_process(crosses())
    other.run()
    assert seen == ["other"]


# --- runs go to the core ----------------------------------------------------------


def test_run_until_deadline_advances_all_clocks():
    core, a, b = two_homes()

    def ticker(eng):
        while True:
            yield eng.timeout(1.0)

    a.spawn(ticker(a))
    a.run(until=3.5)
    assert a.now == b.now == core.now == 3.5


def test_run_deadline_in_past_rejected():
    core, a, _ = two_homes()

    def step():
        yield a.timeout(2.0)

    a.run(a.spawn(step()))
    with pytest.raises(SimulationError):
        core.run(until=1.0)


def test_run_until_event_returns_value():
    _, a, b = two_homes()
    ch = DomainChannel(a, b, 5e-6)

    def sender():
        yield a.timeout(1.0)
        ch.send("v")

    def receiver():
        val = yield ch.recv()
        return val

    a.spawn(sender())
    proc = b.spawn(receiver())
    assert a.run(proc) == "v"


def test_run_until_event_deadlock():
    _, _, b = two_homes()
    never = Event(b, name="never")
    with pytest.raises(DeadlockError):
        b.run(never)


def test_run_process_and_reentrancy():
    _, a, b = two_homes()

    def outer():
        yield a.timeout(1.0)
        b.run()  # re-entrant: must be rejected

    exc = run_and_catch(a, outer())
    assert isinstance(exc, SimulationError)
    assert "re-entrant" in str(exc)

    def inner():
        yield a.timeout(1.0)
        return "done"

    assert a.run_process(inner()) == "done"


def test_domain_run_delegates_to_world():
    _, a, b = two_homes()

    def step(eng):
        yield eng.timeout(1.0)

    a.spawn(step(a))
    b.spawn(step(b))
    a.run()  # Engine-typed call sites keep working on a home
    assert a.now == 1.0 and b.now == 1.0


# --- a home is not a scheduler -----------------------------------------------------


@pytest.fixture
def drains(monkeypatch):
    """Names of the engines ``_drain_window`` was called on, in order."""
    calls = []
    inner = Engine._drain_window

    def counting(self, *args):
        calls.append(self.name)
        return inner(self, *args)

    monkeypatch.setattr(Engine, "_drain_window", counting)
    return calls


def _ping_pong(a, b, volleys=20):
    there = DomainChannel(a, b, 5e-6)
    back = DomainChannel(b, a, 5e-6)

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
    """Any number of idle or drained homes leaves a run at the core's
    one drain call and the same record count."""
    small = Engine()
    _ping_pong(Home(small, "a"), Home(small, "b"))
    small.run()
    assert drains == ["engine"]

    big = Engine()
    a, b = Home(big, "a"), Home(big, "b")
    for i in range(15):
        Home(big, f"idle{i}")
        spent = Home(big, f"spent{i}")
        spent.spawn(_advance(spent, 0.1 * i))
    big.run()  # the spent homes run dry here
    del drains[:]
    before = big.events_executed
    _ping_pong(a, b)
    big.run()
    assert drains == ["engine"]
    assert big.events_executed - before == small.events_executed


def test_one_domain_world_runs_in_one_drain_call(drains):
    core = Engine()
    home = Home(core, "only")

    def ticker():
        for _ in range(50):
            yield home.timeout(0.5)

    home.spawn(ticker())
    home.run()
    assert drains == ["engine"]
    assert home.now == core.now == 25.0


def test_channel_added_between_runs_is_honoured():
    core, a, b = two_homes()
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
    core.run()
    t0 = core.now
    assert a.now == b.now == t0

    slow = DomainChannel(a, b, 0.25)
    b.spawn(ticks(6))
    b.spawn(receiver(slow))
    a.spawn(send_after(slow, 0.15, "slow"))
    core.run()
    assert ("slow", pytest.approx(t0 + 0.15 + 0.25, abs=0)) in log
    t1 = core.now

    fast = DomainChannel(a, b, 0.01)
    b.spawn(ticks(4))
    b.spawn(receiver(fast))
    a.spawn(send_after(fast, 0.15, "fast"))
    core.run()
    assert ("fast", pytest.approx(t1 + 0.15 + 0.01, abs=0)) in log
    times = [t for _, t in log]
    assert times == sorted(times)


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


@pytest.mark.parametrize("latency", [0.0, -5e-6, float("nan"),
                                     float("inf")])
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
    with pytest.raises(InvalidValueError):
        RdmaLink(Engine(), Machine(Home(Engine(), "a"), "a", 1),
                 Machine(Home(Engine(), "b"), "b", 1))


def test_testbed_per_machine_domains():
    core = Engine()
    cluster = Cluster.testbed(core, n_machines=2, n_gpus=2,
                              clock_domains="per-machine")
    src, dst = cluster.machines
    assert isinstance(src.engine, Home) and src.engine.core is core
    assert src.engine is not dst.engine
    link = cluster.link(src, dst)
    done = DomainChannel(src.engine, dst.engine, link.latency)
    got = {}

    def sender():
        # 1 s of drain at the link bandwidth plus the propagation tail,
        # then notify the far side.
        yield from link.flow(src, dst, link.bandwidth)
        got["sent_at"] = src.engine.now
        done.send("blob")

    def receiver():
        got["val"] = yield done.recv()
        got["recv_at"] = dst.engine.now

    src.engine.spawn(sender())
    dst.engine.spawn(receiver())
    core.run()
    assert got["val"] == "blob"
    assert got["sent_at"] == pytest.approx(1.0 + link.latency)
    assert got["recv_at"] == got["sent_at"] + link.latency

    def pushes_for_src():
        yield from link.flow(src, dst, 1e6)  # src's direction, from dst

    proc = dst.engine.spawn(pushes_for_src())
    core.run()
    assert isinstance(proc.value, SimulationError)


def test_testbed_mode_validation():
    with pytest.raises(InvalidValueError):
        Cluster.testbed(Engine(), clock_domains="per-banana")
    with pytest.raises(InvalidValueError):
        Cluster.testbed(Engine(), clock_domains="per-gpu")


def test_phos_pinned_to_machine_domain():
    _, a, b = two_homes()
    machine = Machine(a, "m", 1)
    with pytest.raises(InvalidValueError):
        Phos(b, machine)


# --- counting ---------------------------------------------------------------------


def test_domain_events_counted_once(monkeypatch):
    """Homes are views of their core, not engines: summing
    ``events_executed`` over every engine built (as the bench does)
    counts each record once, and every home reads the core's count."""
    built = []
    plain_init = Engine.__init__

    def remembering_init(self):
        plain_init(self)
        built.append(self)

    monkeypatch.setattr(Engine, "__init__", remembering_init)
    core, a, b = two_homes()
    ch = DomainChannel(a, b, 5e-6)

    def sender():
        yield a.timeout(1.0)
        ch.send("x")

    def receiver():
        yield ch.recv()

    a.spawn(sender())
    b.spawn(receiver())
    core.run()
    assert built == [core]
    assert a.events_executed == b.events_executed == core.events_executed
    assert a.events_scheduled == core.events_scheduled == 6

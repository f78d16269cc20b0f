"""Differential property test: per-machine homes vs. one plain engine.

Putting each machine on its own :class:`Home` of one core engine arms
the affinity rule and must change nothing else: same per-process firing
traces, same final clock, same event counts as the plain engine.  This
suite generates randomized 2–4-machine topologies (ring channels plus
random extras) and a random program per machine — timeouts, contended
resource holds, ``AllOf``/``AnyOf`` fan-ins, channel sends/receives —
then runs the identical program three ways:

* ``single``  — one plain :class:`Engine`, channels in degenerate
  (same-engine) mode;
* ``world1``  — one :class:`Home` for every machine (the configuration
  the ``domain`` golden-figure cases in ``test_protocol_engine.py`` run);
* ``multi``   — one :class:`Home` per machine.

All three must agree on everything observable, and the program never
trips the affinity rule (only channels cross machines).  The program is
built as a seed-derived op list first and interpreted second, so the
only variable between runs is the substrate.

Two more shapes ride the same interpreter: a **hub-and-spoke**
request/response world (the fleet's gateway/agent control plane: the
spokes only ever speak when spoken to) and an **acyclic pipeline**.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import Engine
from repro.sim.domains import DomainChannel, Home
from repro.sim.resources import Resource, acquired

#: Few distinct delays: same-timestamp collisions *within* a machine are
#: the hard case for FIFO-within-timestamp equivalence.
DELAYS = [0.0, 0.25, 0.5, 0.5, 1.0, 1.0, 2.0]

OP_KINDS = ["timeout", "timeout", "acquire", "send", "recv",
            "anyof", "allof"]


def build_topology(seed: int, shape: str = "ring") -> dict:
    """A deterministic random topology + program (channel latencies off
    the DELAYS grid, as physical link latencies are)."""
    rng = random.Random(seed)
    pairs = set()
    if shape == "ring":
        n_machines = rng.randrange(2, 5)
        # Directed ring both ways, plus a few random extra channel pairs.
        for i in range(n_machines):
            pairs.add((i, (i + 1) % n_machines))
            pairs.add(((i + 1) % n_machines, i))
        for _ in range(rng.randrange(0, n_machines)):
            a, b = rng.sample(range(n_machines), 2)
            pairs.add((a, b))
    elif shape == "hub":
        n_machines = rng.randrange(3, 6)
        for i in range(1, n_machines):
            pairs.add((0, i))
            pairs.add((i, 0))
    else:  # "pipeline": stage i feeds stage i + 1, nothing flows back
        n_machines = rng.randrange(3, 5)
        for i in range(n_machines - 1):
            pairs.add((i, i + 1))
    channels = {p: rng.uniform(2e-6, 9e-6) for p in sorted(pairs)}
    if shape == "hub":
        return {"n_machines": n_machines, "channels": channels,
                "machines": _hub_program(rng, n_machines)}
    out_of = {m: sorted(d for (s, d) in channels if s == m)
              for m in range(n_machines)}
    into = {m: sorted(s for (s, d) in channels if d == m)
            for m in range(n_machines)}

    machines = []
    for m in range(n_machines):
        n_procs = rng.randrange(2, 4)
        capacity = rng.randrange(1, 3)
        # A pipeline's end stages lack one direction; every ring machine
        # has both, so the ring soups draw from the full list.
        kinds = [k for k in OP_KINDS
                 if (out_of[m] or k != "send")
                 and (into[m] or k != "recv")]
        procs = []
        for _ in range(n_procs):
            steps = []
            for _ in range(rng.randrange(2, 6)):
                kind = rng.choice(kinds)
                if kind == "timeout":
                    steps.append(("timeout", rng.choice(DELAYS)))
                elif kind == "acquire":
                    steps.append(("acquire", rng.choice(DELAYS)))
                elif kind == "send":
                    # A continuous jitter before every cross-machine
                    # emission.
                    steps.append(("send", rng.choice(out_of[m]),
                                  rng.randrange(100),
                                  rng.uniform(1e-7, 9e-7)))
                elif kind == "recv":
                    steps.append(("recv", rng.choice(into[m])))
                else:
                    steps.append((kind, [rng.choice(DELAYS)
                                         for _ in range(rng.randrange(1, 4))]))
            procs.append(steps)
        machines.append({"n_procs": n_procs, "capacity": capacity,
                         "procs": procs})
    return {"n_machines": n_machines, "channels": channels,
            "machines": machines}


def _hub_program(rng: random.Random, n_machines: int) -> list:
    """Request/response: hub clients call spokes, spokes only answer."""
    calls = {spoke: 0 for spoke in range(1, n_machines)}
    clients = []
    for _ in range(rng.randrange(2, 4)):
        steps = []
        for _ in range(rng.randrange(2, 6)):
            if rng.random() < 0.7:
                spoke = rng.randrange(1, n_machines)
                calls[spoke] += 1
                steps.append(("call", spoke, rng.randrange(100),
                              rng.choice(DELAYS), rng.uniform(1e-7, 9e-7)))
            else:
                steps.append(("timeout", rng.choice(DELAYS)))
        clients.append(steps)
    machines = [{"capacity": 1, "procs": clients}]
    for spoke in range(1, n_machines):
        # One server per spoke, answering exactly the calls aimed at it
        # (a spoke nobody calls stays idle for the whole run).
        machines.append({"capacity": 1, "procs": [[
            ("serve", 0, calls[spoke], rng.choice(DELAYS),
             rng.uniform(1e-7, 9e-7))]]})
    return machines


def run_topology(topo: dict, mode: str) -> tuple:
    """Interpret the topology's program on one scheduling substrate."""
    n = topo["n_machines"]
    core = Engine()
    engines = substrate(core, n, mode)
    chans = {(a, b): DomainChannel(engines[a], engines[b], lat,
                                   name=f"c{a}->{b}")
             for (a, b), lat in topo["channels"].items()}
    resources = [Resource(engines[m], capacity=topo["machines"][m]["capacity"],
                          name=f"r{m}") for m in range(n)]

    traces: dict = {}
    procs: dict = {}

    def body(m: int, p: int, steps: list):
        tr = traces[(m, p)]
        eng = engines[m]
        res = resources[m]
        for i, step in enumerate(steps):
            kind = step[0]
            if kind == "timeout":
                yield eng.timeout(step[1])
                tr.append(("t", i, eng.now))
            elif kind == "acquire":
                req = yield from acquired(res)
                try:
                    yield eng.timeout(step[1])
                finally:
                    res.release(req)
                tr.append(("r", i, eng.now))
            elif kind == "send":
                _, dst, token, jitter = step
                yield eng.timeout(jitter)
                chans[(m, dst)].send((m, p, i, token))
                tr.append(("s", i, eng.now))
            elif kind == "recv":
                _, src = step
                val = yield chans[(src, m)].recv()
                tr.append(("g", i, eng.now, val))
            elif kind == "call":
                _, dst, token, delay, jitter = step
                yield eng.timeout(delay + jitter)
                chans[(m, dst)].send((m, p, i, token))
                reply = yield chans[(dst, m)].recv()
                tr.append(("c", i, eng.now, reply))
            elif kind == "serve":
                _, peer, n_calls, service, jitter = step
                for _ in range(n_calls):
                    req = yield chans[(peer, m)].recv()
                    yield eng.timeout(service + jitter)
                    chans[(m, peer)].send(("re", req))
                    tr.append(("v", i, eng.now, req))
            elif kind == "anyof":
                idx, _ = yield eng.any_of(
                    [eng.timeout(d) for d in step[1]])
                tr.append(("any", i, eng.now, idx))
            else:
                vals = yield eng.all_of(
                    [eng.timeout(d, value=j)
                     for j, d in enumerate(step[1])])
                tr.append(("all", i, eng.now, tuple(vals)))
        return p

    procs_per = {m: topo["machines"][m]["procs"] for m in range(n)}
    for m in range(n):
        for p, steps in enumerate(procs_per[m]):
            traces[(m, p)] = []
    for m in range(n):
        for p, steps in enumerate(procs_per[m]):
            procs[(m, p)] = engines[m].spawn(body(m, p, steps),
                                             name=f"m{m}p{p}")
    core.run()
    finished = {k: (p.triggered, p.ok if p.triggered else None)
                for k, p in procs.items()}
    return (traces, finished, core.now, core.events_scheduled,
            core.events_executed)


def substrate(core: Engine, n: int, mode: str) -> list:
    """The engine each of ``n`` machines runs on."""
    if mode == "single":
        return [core] * n
    if mode == "world1":
        return [Home(core, "all")] * n
    if mode == "multi":
        return [Home(core, f"m{i}") for i in range(n)]
    raise ValueError(mode)  # pragma: no cover - suite misuse


@pytest.mark.parametrize("seed", range(24))
def test_multi_domain_matches_single(seed):
    topo = build_topology(seed)
    single = run_topology(topo, "single")
    world1 = run_topology(topo, "world1")
    multi = run_topology(topo, "multi")
    assert world1[0] == single[0], "one-home trace diverged"
    assert world1[1:] == single[1:], "one-home state diverged"
    assert multi[0] == single[0], "multi-home trace diverged"
    assert multi[1] == single[1], "multi-home completion state diverged"
    assert multi[2] == pytest.approx(single[2], abs=0.0), \
        "multi-home frontier clock diverged"
    assert multi[3:] == single[3:], "multi-home event counts diverged"


@pytest.mark.parametrize("mode", ["single", "multi"])
def test_same_instant_arrival_keeps_scheduling_order(mode):
    """An arrival sent at 0.125 and a timer b set at 0.375 both land on
    0.625: the arrival was scheduled first, so it runs first, whether
    the two ends are one engine or two homes."""
    core = Engine()
    a, b = substrate(core, 2, mode)
    ch = DomainChannel(a, b, 0.5)
    seen = []
    ch.subscribe(lambda value: seen.append((value, b.now)))

    def sender():
        yield a.timeout(0.125)
        ch.send("arrival")

    def timer():
        yield b.timeout(0.375)
        yield b.timeout(0.25)
        seen.append(("timer", b.now))

    a.spawn(sender())
    b.spawn(timer())
    core.run()
    assert seen == [("arrival", 0.625), ("timer", 0.625)]


@pytest.mark.parametrize("shape", ["hub", "pipeline"])
@pytest.mark.parametrize("seed", range(24))
def test_shaped_topology_matches_single(seed, shape):
    topo = build_topology(seed, shape)
    single = run_topology(topo, "single")
    multi = run_topology(topo, "multi")
    assert multi[0] == single[0], f"{shape} trace diverged"
    assert multi[1] == single[1], f"{shape} completion state diverged"
    assert multi[2] == pytest.approx(single[2], abs=0.0), \
        f"{shape} frontier clock diverged"
    assert multi[3:] == single[3:], f"{shape} event counts diverged"


def test_hub_spokes_answer_every_call():
    """Sanity: the hub soups really are request/response traffic."""
    topo = build_topology(3, "hub")
    traces, finished, _, _, _ = run_topology(topo, "multi")
    calls = [e for tr in traces.values() for e in tr if e[0] == "c"]
    served = [e for tr in traces.values() for e in tr if e[0] == "v"]
    assert calls and len(calls) == len(served)
    assert all(done == (True, True) for done in finished.values())


@pytest.mark.parametrize("seed", [2, 9])
def test_topologies_actually_cross_domains(seed):
    """Sanity: the soups really send cross-domain traffic (guards
    against a silently-degenerate generator)."""
    topo = build_topology(seed)
    assert topo["n_machines"] >= 2
    traces, _, _, _, _ = run_topology(topo, "multi")
    ops = [entry[0] for tr in traces.values() for entry in tr]
    assert "s" in ops, "no cross-domain sends in the soup"


# --------------------------------------------------------------------------
# push-style receive: DomainChannel.subscribe vs a recv() listener process
# --------------------------------------------------------------------------

#: ``subscribe(handler)`` claims to run the handler on exactly the
#: scheduler turn a ``while True: handler((yield ch.recv()))`` process
#: would.  Both styles are built from this one helper, so the only
#: variable between two runs is how the channel is received.
RECEIVE_STYLES = ("recv", "subscribe")


def attach(eng, ch: DomainChannel, handler, receive: str) -> None:
    if receive == "subscribe":
        ch.subscribe(handler)
        return

    def listener():
        while True:
            handler((yield ch.recv()))

    eng.spawn(listener(), name=f"listen-{ch.name}")


def build_control_plane(seed: int) -> dict:
    """The hub shape as the fleet uses it: every node reacts to messages
    from a handler, the hub's timers fire bursts of commands.

    Latencies come from three values, so bursts to different spokes —
    and their replies — land on the hub *at one instant on different
    channels*: the case where the listener's one-value-per-channel-per-
    turn round robin decides the order.
    """
    rng = random.Random(seed * 7919 + 11)
    n_machines = rng.randrange(3, 6)
    channels = {}
    for spoke in range(1, n_machines):
        channels[(0, spoke)] = rng.choice([3e-6, 3e-6, 5e-6])
        channels[(spoke, 0)] = rng.choice([3e-6, 3e-6, 5e-6])
    bursts = []
    token = 0
    for _ in range(rng.randrange(3, 7)):
        commands = []
        for _ in range(rng.randrange(1, 6)):
            token += 1
            commands.append((
                rng.randrange(1, n_machines),          # spoke
                token,
                rng.choice(["echo", "echo", "work", "twice"]),
                rng.choice(DELAYS),                    # "work" service time
                rng.randrange(0, 3),                   # hub forwards left
            ))
        bursts.append((rng.choice(DELAYS), commands))
    return {"n_machines": n_machines, "channels": channels, "bursts": bursts}


def run_control_plane(topo: dict, mode: str, receive: str) -> tuple:
    """Run the control-plane program; return (per-node traces, executed
    records, listeners attached).  A trace entry is ``(what, message,
    handler timestamp, global order)``."""
    n = topo["n_machines"]
    core = Engine()
    engines = substrate(core, n, mode)
    chans = {(a, b): DomainChannel(engines[a], engines[b], lat,
                                   name=f"c{a}->{b}")
             for (a, b), lat in topo["channels"].items()}
    traces = {m: [] for m in range(n)}
    order = [0]

    def note(m, what, msg):
        traces[m].append((what, msg, engines[m].now, order[0]))
        order[0] += 1

    def spoke_handler(m):
        eng = engines[m]
        reply = chans[(m, 0)].send

        def handle(msg):
            _, token, kind, service, hops = msg
            note(m, "cmd", msg)
            # A record the handler pushes at `now` must run before this
            # channel's next value is handed over.
            eng.call_at(eng.now, lambda arg: note(m, "same-instant", arg),
                        token)
            if kind == "work":
                eng.call_at(eng.now + service, reply,
                            ("re", token, kind, service, hops))
            else:
                reply(("re", token, kind, service, hops))
                if kind == "twice":
                    reply(("re2", token, kind, service, 0))
        return handle

    def hub_handler(spoke):
        def handle(msg):
            what, token, kind, service, hops = msg
            note(0, f"from{spoke}", msg)
            if hops:
                dst = 1 + (spoke + token) % (n - 1)
                chans[(0, dst)].send(
                    ("cmd", token, kind, service, hops - 1))
        return handle

    for spoke in range(1, n):
        attach(engines[spoke], chans[(0, spoke)], spoke_handler(spoke),
               receive)
        attach(engines[0], chans[(spoke, 0)], hub_handler(spoke), receive)

    def hub_timers():
        for delay, commands in topo["bursts"]:
            yield engines[0].timeout(delay)
            for spoke, token, kind, service, hops in commands:
                chans[(0, spoke)].send(("cmd", token, kind, service, hops))

    engines[0].spawn(hub_timers(), name="hub-timers")
    core.run()
    return traces, core.events_executed, 2 * (n - 1)


@pytest.mark.parametrize("mode", ["single", "world1", "multi"])
@pytest.mark.parametrize("seed", range(24))
def test_subscriber_runs_on_the_listeners_turn(seed, mode):
    topo = build_control_plane(seed)
    pulled, pulled_executed, listeners = run_control_plane(topo, mode, "recv")
    pushed, pushed_executed, _ = run_control_plane(topo, mode, "subscribe")
    assert pushed == pulled, "handler order or timestamps diverged"
    # Message for message the same two records; the listener processes
    # additionally cost their spawn step.
    assert pulled_executed - pushed_executed == listeners
    if mode == "world1":
        assert pushed == run_control_plane(topo, "single", "subscribe")[0]


def test_control_plane_soups_really_burst():
    """Sanity: some hub turn serves several channels at one instant, and
    some channel carries several values at one instant (guards against
    a silently-degenerate generator)."""
    cross = same = False
    for seed in range(24):
        traces, _, _ = run_control_plane(build_control_plane(seed),
                                         "single", "subscribe")
        hub = [e for e in traces[0] if e[0].startswith("from")]
        for a, b in zip(hub, hub[1:]):
            if a[2] == b[2]:
                cross |= a[0] != b[0]
                same |= a[0] == b[0]
    assert cross and same


@pytest.mark.parametrize("receive", RECEIVE_STYLES)
def test_same_instant_arrivals_are_served_round_robin(receive):
    """a0, a1, a2, b0 arriving at one instant are handled a0, b0, a1,
    a2 — one value per channel per turn.  Running the handler at the
    delivery record instead would yield a0, a1, a2, b0."""
    eng = Engine()
    a = DomainChannel.local(eng, 0.5, name="a")
    b = DomainChannel.local(eng, 0.5, name="b")
    seen = []
    attach(eng, a, seen.append, receive)
    attach(eng, b, seen.append, receive)
    for value in ("a0", "a1", "a2"):
        a.send(value)
    b.send("b0")
    eng.run()
    assert seen == ["a0", "b0", "a1", "a2"]


@pytest.mark.parametrize("receive", RECEIVE_STYLES)
def test_handler_pushes_run_before_the_channels_next_value(receive):
    """The wake-up for the next pending value is queued *after* the
    handler returns, so what the handler schedules at ``now`` comes
    first — as after a listener's ``handler(msg)`` and before its next
    ``recv()``."""
    eng = Engine()
    ch = DomainChannel.local(eng, 0.5)
    seen = []

    def handler(value):
        seen.append(value)
        eng.call_at(eng.now, seen.append, f"after-{value}")

    attach(eng, ch, handler, receive)
    ch.send("m0")
    ch.send("m1")
    eng.run()
    assert seen == ["m0", "after-m0", "m1", "after-m1"]

"""Clock domains: sharding one world into independently-clocked engines.

A :class:`World` is a set of :class:`ClockDomain` objects — each is a
full :class:`~repro.sim.engine.Engine` (own calendar queue, own clock,
own resident processes and resources) — plus the
:class:`DomainChannel` links between them.  A channel carries values:
``send`` on the source side, ``recv`` or ``subscribe`` on the
destination side, and nothing else crosses a domain boundary.  The
plain single-``Engine`` world is the degenerate one-domain case: every
existing call site keeps working unchanged, and a channel whose two
ends are the same engine degrades to a local schedule at
``now + latency``.

Conservative synchronization
----------------------------

Cross-domain interaction is only legal through a channel, and every
channel declares a minimum latency (``>= MIN_LOOKAHEAD``).  That latency
is the *lookahead* of classic conservative parallel discrete-event
simulation (Chandy–Misra–Bryant): a message sent at ``t`` cannot affect
its destination before ``t + latency``.

A send is delivered *directly*: the channel checks the arrival against
the destination's clock (behind it is a "conservative violation" — the
schedule below never lets that happen, the check is the tripwire) and
appends the delivery record to the destination's calendar bucket there
and then.  Nothing is ever in flight outside a calendar, so a domain's
*floor* — the earliest thing it could still do — is simply the head of
its own queue.

``World.run`` is min-timestamp-first.  Each step takes the lower-bound
timestamp ``LBTS = min(floors)`` and runs only the domain(s) sitting on
it (ties in domain order), each through the window::

    t <= LBTS  or  t < LBTS + lookahead[D]

where ``lookahead[D]`` is the smallest latency over the channels *into*
``D`` — static topology, refreshed by ``World.channel()``.  Every other
domain's earliest action is at ``>= LBTS``, so whatever it sends — now,
or later after being woken by a third party — reaches ``D`` no earlier
than ``LBTS + lookahead[D]``; and because float addition is monotone,
``send time + latency`` never rounds below that single add.
The inclusive leg guarantees progress (the globally-earliest timestamp
is always fully consumed) even where the add is absorbed by rounding.  A
domain no channel leads into is unbounded, which makes the one-domain
world exactly one drain call.  A step costs a scan of the queue heads
plus one drain window per domain that actually runs; idle and drained
domains cost nothing more.  Letting non-minimal domains race ahead to
their own (transitive) bounds was measured on fleet traffic and saved
17 steps in 141 k, so it is not done.

Ordering equivalence
--------------------

Within a domain, execution order is exactly the single-engine order:
same calendar queue, same FIFO-within-timestamp batched dispatch, one
dispatch loop (``Engine._drain_window``).  Across domains, any two
causally-related occurrences are separated by at least one channel
latency (> 0), and the destination has not executed the arrival instant
yet when the record is queued.  An arrival takes its position within its
bucket at send time, as on a single engine.  The one exception remains
*same-instant cross-domain collisions*: if an arrival lands on the exact
timestamp of a local record, the two are queued in the order their
domains happened to run, which inside a lookahead window need not be
timestamp order, so their order *within* the shared bucket can differ
from the single-engine run.  Keep channel latencies off the
natural timestamp grid of the workload (the 5 µs RDMA latency
already is) and the case never arises; the differential
property suite in ``tests/test_property_domains.py`` pins exactly this
equivalence over randomized ring, hub-and-spoke and pipeline topologies.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional

from repro import obs
from repro.errors import DeadlockError, InvalidValueError, SimulationError
from repro.sim.engine import _INF, Engine
from repro.sim.events import K_CALL1, Event
from repro.sim.resources import Store

#: Smallest admissible channel latency.  Zero-latency channels would
#: give the conservative loop zero lookahead (no domain could ever run
#: ahead of any peer), so latency is validated as load-bearing.
MIN_LOOKAHEAD = 1e-9


class DomainChannel:
    """A directed, latency-bearing link that carries values between domains.

    A value sent at ``t`` is delivered in the destination domain at
    ``t + latency``: into an inbox read with :meth:`recv`, or handed to
    the handler registered with :meth:`subscribe`.  A send cannot be
    recalled; a sender that changes its mind sends a token the receiver
    checks.  The degenerate form — both ends the same plain engine,
    built with :meth:`local` — keeps identical delivery timestamps by
    scheduling directly on that engine, which is what makes
    single-domain and multi-domain runs comparable record for record.
    """

    def __init__(self, world: Optional["World"], src: Engine, dst: Engine,
                 latency: float, name: str = "") -> None:
        if not MIN_LOOKAHEAD <= latency < _INF:  # also catches NaN
            raise InvalidValueError(
                f"channel latency must be finite and >= {MIN_LOOKAHEAD:g}s, "
                f"got {latency!r}; the latency is the conservative "
                "lookahead and cannot be zero or negative"
            )
        if world is None and src is not dst:
            raise InvalidValueError(
                "a channel between two distinct domains must be created "
                "through World.channel(); only the degenerate same-engine "
                "form may be built without a world"
            )
        self.world = world
        self.src = src
        self.dst = dst
        self.latency = float(latency)
        self.name = name or f"{src.name}->{dst.name}"
        self._inbox = Store(dst, name=f"{self.name}-inbox")
        #: Push-style receive (see :meth:`subscribe`): the handler and
        #: the sent values it has not finished with.  Non-empty means a
        #: wake-up record is queued (or running) for the head.
        self._handler: Optional[Callable[[Any], None]] = None
        self._pending: deque[Any] = deque()
        self.messages_sent = 0

    @classmethod
    def local(cls, engine: Engine, latency: float,
              name: str = "") -> "DomainChannel":
        """The degenerate channel: both ends on ``engine``."""
        return cls(None, engine, engine, latency, name=name)

    # -- sending -------------------------------------------------------------
    def send(self, value: Any = None) -> None:
        """Deliver ``value`` to the destination one latency from now."""
        src = self.src
        dst = self.dst
        world = self.world
        if world is not None:
            ex = world._executing
            if ex is not None and ex is not src:
                raise SimulationError(
                    f"channel {self.name!r} sends from domain {src.name!r} "
                    f"but domain {ex.name!r} is executing"
                )
        arrival = src._now + self.latency
        if dst is src:
            # Degenerate: delivery is a local schedule at the same
            # timestamp a cross-domain delivery would use.
            src._push(arrival, K_CALL1, self._deliver, value)
        else:
            if arrival < dst._now:
                raise SimulationError(
                    f"conservative violation: message on {self.name!r} "
                    f"arrives at t={arrival:g} behind domain "
                    f"{dst.name!r} clock t={dst._now:g}"
                )
            dst._accept(arrival, self._deliver, value)
        self.messages_sent += 1

    def _deliver(self, value: Any) -> None:
        """Executed in the destination domain at the arrival timestamp."""
        if self._handler is None:
            self._inbox.put(value)
            return
        if not self._pending:
            dst = self.dst
            dst._push(dst._now, K_CALL1, self._wake, None)
        self._pending.append(value)

    # -- receiving -----------------------------------------------------------
    def subscribe(self, handler: Callable[[Any], None]) -> None:
        """Run ``handler(value)`` in the destination for every sent value.

        The push-style twin of ``while True: handler((yield ch.recv()))``
        and scheduled exactly like that listener process: an arrival
        queues one wake-up record at ``now`` unless one is already
        queued; the record hands over *one* value and re-queues itself
        *after* the handler returns while more are pending.  Same-instant
        arrivals on several channels into one engine are therefore served
        one value per channel per turn, round robin, and records the
        handler pushes run before this channel's next value — delivery
        order is part of the contract.  Costs two bare records a message
        and no ``Store``, ``Event`` or generator.
        """
        if self._handler is not None:
            raise SimulationError(
                f"channel {self.name!r} already has a subscriber")
        if len(self._inbox) or self._inbox._getters:
            raise SimulationError(
                f"channel {self.name!r} is already received with recv(); "
                "subscribe before any traffic")
        self._handler = handler

    def _wake(self, _arg: Any) -> None:
        pending = self._pending
        self._handler(pending[0])
        pending.popleft()
        if pending:
            dst = self.dst
            dst._push(dst._now, K_CALL1, self._wake, None)

    def recv(self) -> Event:
        """An event (destination side) firing with the next sent value."""
        if self._handler is not None:
            raise SimulationError(
                f"channel {self.name!r} has a subscriber; recv() would "
                "steal its messages")
        world = self.world
        if world is not None:
            ex = world._executing
            if ex is not None and ex is not self.dst:
                raise SimulationError(
                    f"channel {self.name!r} is received in domain "
                    f"{self.dst.name!r} but domain {ex.name!r} is executing"
                )
        return self._inbox.get()

    def __repr__(self) -> str:
        return f"<DomainChannel {self.name} latency={self.latency:g}>"


class ClockDomain(Engine):
    """One shard of a :class:`World`: an engine with a name and peers.

    Everything resident in the domain — processes, resources, fluid
    links, GPUs — schedules on it exactly as on a plain engine.  Only
    the main loop differs: ``run`` delegates to the world's conservative
    loop, so ``domain.run(...)``, ``run_process`` and ``Engine``-typed
    call sites keep working unchanged.
    """

    def __init__(self, world: "World", name: str) -> None:
        super().__init__()
        self.name = name
        self.world = world
        self._world = world
        self._obs_labels = {"domain": name}
        #: Smallest latency over the channels into this domain — how far
        #: past the world's lower-bound timestamp it may safely run.  A
        #: domain nothing can reach is unbounded.
        self._lookahead = _INF

    def _accept(self, when: float, deliver: Callable[[Any], None],
                value: Any) -> None:
        """Queue ``deliver(value)``: a channel arrival from a *foreign* domain.

        The one sanctioned way around :meth:`Engine._push`'s
        executing-domain guard; the arrival takes its FIFO position in
        the ``when`` bucket now, at send time, as on a single engine.
        """
        if when < self._now or when != when:  # second clause: NaN guard
            raise SimulationError(
                f"cannot schedule in the past ({when} < {self._now})")
        self._n_scheduled += 1
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [(K_CALL1, deliver, value)]
            heapq.heappush(self._theap, when)
        else:
            bucket.append((K_CALL1, deliver, value))

    def run(self, until: Optional[Event | float] = None) -> Any:
        return self.world.run(until)

    def __repr__(self) -> str:
        return f"<ClockDomain {self.name} t={self._now:g}>"


class World:
    """A set of clock domains plus the channels connecting them."""

    def __init__(self) -> None:
        self._domains: list[ClockDomain] = []
        self._names: set[str] = set()
        #: The domain currently executing a drain window (None between
        #: windows).  Engines use it to reject foreign-domain touches.
        self._executing: Optional[ClockDomain] = None
        self._running = False
        #: Largest clock spread between domains ever observed at a
        #: step boundary (exported as the ``domain/skew-max`` gauge).
        self.skew_max = 0.0
        #: Conservative steps taken (one lower-bound timestamp each).
        self.rounds = 0
        #: Per-domain executed counts already reported to obs counters.
        self._reported: dict[ClockDomain, int] = {}

    # -- topology ------------------------------------------------------------
    def domain(self, name: str) -> ClockDomain:
        """Create a new, uniquely named clock domain."""
        if name in self._names:
            raise InvalidValueError(f"duplicate clock-domain name {name!r}")
        dom = ClockDomain(self, name)
        self._domains.append(dom)
        self._names.add(name)
        return dom

    @property
    def domains(self) -> list[ClockDomain]:
        return list(self._domains)

    def channel(self, src: Engine, dst: Engine, latency: float,
                name: str = "") -> DomainChannel:
        """Create a directed channel between two domains of this world."""
        if src is dst:
            raise InvalidValueError(
                f"channel endpoints must be distinct domains, got "
                f"{src.name!r} twice (use DomainChannel.local for a "
                "same-engine channel)"
            )
        for end in (src, dst):
            if getattr(end, "_world", None) is not self:
                raise InvalidValueError(
                    f"engine {end.name!r} is not a domain of this world"
                )
        ch = DomainChannel(self, src, dst, latency, name=name)
        if ch.latency < dst._lookahead:
            dst._lookahead = ch.latency
        return ch

    # -- clocks --------------------------------------------------------------
    @property
    def now(self) -> float:
        """The most advanced domain clock (the world's frontier)."""
        return max((d._now for d in self._domains), default=0.0)

    @property
    def events_scheduled(self) -> int:
        return sum(d._n_scheduled for d in self._domains)

    @property
    def events_executed(self) -> int:
        return sum(d._n_executed for d in self._domains)

    # -- main loop -----------------------------------------------------------
    def run(self, until: Optional[Event | float] = None) -> Any:
        """Run all domains conservatively until drained/deadline/event.

        Mirrors :meth:`Engine.run`: ``until`` may be a float deadline
        (every domain clock ends there), an :class:`Event` resident in
        any domain (returns its value; :class:`DeadlockError` if the
        world drains first), or None to drain everything.
        """
        if self._running:
            raise SimulationError("world is already running (re-entrant run())")
        if not self._domains:
            raise SimulationError("world has no clock domains")
        deadline: Optional[float] = None
        stop_event: Optional[Event] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            deadline = float(until)
            for dom in self._domains:
                if deadline < dom._now:
                    raise SimulationError(
                        f"deadline {deadline} is in the past of domain "
                        f"{dom.name!r} (t={dom._now:g})"
                    )
        self._running = True
        try:
            value = self._run_steps(deadline, stop_event)
        finally:
            self._executing = None
            self._running = False
            self._note_stop()
        if stop_event is None:
            # Drained (or at the deadline) is a global quiescent point:
            # nothing at or before the frontier is queued anywhere, so
            # advancing the laggards to it cannot reorder anything.
            # This mirrors the single shared clock of a plain engine —
            # work scheduled after sequential run() calls starts at the
            # same timestamp in both modes, and later cross-domain
            # sends stay causal.
            rejoin = deadline if deadline is not None else self.now
            for dom in self._domains:
                if dom._now < rejoin:
                    dom._now = rejoin
        return value

    def _run_steps(self, deadline: Optional[float],
                   stop_event: Optional[Event]) -> Any:
        domains = self._domains
        horizon = _INF if deadline is None else deadline
        while True:
            if stop_event is not None and stop_event._fired:
                return self._stop_value(stop_event)
            # A domain's floor is the head of its calendar: arrivals are
            # queued at send time, so nothing is in flight outside it.
            lbts = _INF
            for dom in domains:
                theap = dom._theap
                if theap and theap[0] < lbts:
                    lbts = theap[0]
            if lbts == _INF or lbts > horizon:
                break
            # Only the domain(s) sitting on the lower bound run.  Every
            # other domain's earliest action is >= lbts, so no arrival
            # can land before lbts + (smallest incoming latency): float
            # addition is monotone, so ``send time + latency``
            # never rounds below this one add.
            for dom in domains:
                theap = dom._theap
                if theap and theap[0] == lbts:
                    incl = lbts
                    bound = lbts + dom._lookahead
                    if bound > horizon:
                        # A window that would cross the deadline ends on it.
                        incl = bound = horizon
                    self._executing = dom
                    fired = dom._drain_window(incl, bound, stop_event)
                    self._executing = None
                    if fired:
                        return self._stop_value(stop_event)
            self.rounds += 1
        if stop_event is not None:
            raise DeadlockError(
                f"world drained at t={self.now:g} but "
                f"{stop_event.name!r} never fired"
            )
        return None

    @staticmethod
    def _stop_value(stop_event: Event) -> Any:
        if not stop_event._ok:
            raise stop_event._value
        return stop_event._value

    def _note_stop(self) -> None:
        """Skew high-water mark and obs export, once per stopped run."""
        clocks = [dom._now for dom in self._domains]
        self.skew_max = max(self.skew_max, max(clocks) - min(clocks))
        ob = obs.active()
        if ob is None:
            return
        metrics = ob.metrics
        reported = self._reported
        for dom in self._domains:
            delta = dom._n_executed - reported.get(dom, 0)
            if delta:
                reported[dom] = dom._n_executed
                metrics.counter(f"domain/{dom.name}/events-executed").inc(delta)
        metrics.gauge("domain/skew-max").set(self.skew_max)

    def run_process(self, body, name: str = "") -> Any:
        """Spawn ``body`` on the first domain and run until it finishes."""
        if not self._domains:
            raise SimulationError("world has no clock domains")
        return self.run(self._domains[0].spawn(body, name=name))

    def __repr__(self) -> str:
        return (f"<World domains={[d.name for d in self._domains]} "
                f"t={self.now:g}>")

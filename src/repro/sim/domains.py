"""Homes on one calendar, and the channels that carry values between them.

A :class:`Home` is one machine's identity on a shared *core*
:class:`~repro.sim.engine.Engine`: it has its own name, its own
``domain=<name>`` obs labels and its own resident processes, resources,
fluid links and GPUs, but no calendar or clock of its own.  Every record
a home schedules goes onto the core's calendar, so all homes of one core
run in the core's single FIFO-within-timestamp order.  A per-machine run
(``Cluster.testbed(engine, clock_domains="per-machine")``) is therefore
the single-engine run by construction — same records, same buckets, same
order — and ``tests/test_property_domains.py`` holds the two equal over
randomized ring, hub-and-spoke and pipeline topologies.

The affinity rule
-----------------

While a record a home scheduled runs (a process step, a timer, an event
callback, a channel delivery), that home is *executing*.  Touching
another home then raises :class:`~repro.errors.SimulationError`:
scheduling on it (a timeout, a spawn, a ``call_at``, an interrupt, a
flow through one of its fluid links), firing its events, or waiting on
its events (a granted request of one of its resources included).  The
one sanctioned crossing is a value on a :class:`DomainChannel`: ``send``
on the source side, ``recv`` or ``subscribe`` on the destination side.

Only homes pay for the rule.  A home dispatches each of its records
through :meth:`Home._run`, which marks it executing; a plain ``Engine``
has no check at all.  Homes are not counted as engines: the core counts
every record once.
"""

from __future__ import annotations

import heapq
import weakref
from collections import deque
from typing import Any, Callable, Optional

from repro.errors import InvalidValueError, SimulationError
from repro.sim.engine import _INF, Engine
from repro.sim.events import K_CALL1, K_FIRE, K_RESUME, Event
from repro.sim.resources import Store

#: Per core engine, the names its homes took (names label obs metrics).
_home_names: "weakref.WeakKeyDictionary[Engine, set]" = \
    weakref.WeakKeyDictionary()


class _Running:
    """The home whose record is running, innermost first (None between
    records, and throughout a run with no homes).  A slot, not a class
    attribute: writing one of those would invalidate every attribute
    cache of the class, once per record."""

    __slots__ = ("home",)

    def __init__(self) -> None:
        self.home: Optional[Home] = None


_running = _Running()


class Home(Engine):
    """A named view of ``core``: its calendar and clock, its own identity.

    ``spawn``, ``timeout``, ``call_at`` and every other scheduling call
    work exactly as on a plain engine; ``run`` and ``run_process`` run
    the core.  ``Engine.__init__`` is deliberately not run: a home owns
    no calendar, clock or counters.
    """

    def __init__(self, core: Engine, name: str) -> None:
        if core.core is not None:  # a home of a home is one of its core
            core = core.core
        names = _home_names.setdefault(core, set())
        if name in names:
            raise InvalidValueError(f"duplicate home name {name!r}")
        names.add(name)
        self.core = core
        self.name = name
        self._obs_labels = {"domain": name}
        self._buckets = core._buckets
        self._theap = core._theap
        self._active_process = None
        #: Bound once: every record this home schedules is a call of it.
        self._runner = self._run

    @property
    def now(self) -> float:
        return self.core._now

    @property
    def _now(self) -> float:
        return self.core._now

    @property
    def _n_scheduled(self) -> int:
        return self.core._n_scheduled

    @property
    def _n_executed(self) -> int:
        return self.core._n_executed

    def _refuse(self, ex: "Home", what: str) -> None:
        raise SimulationError(
            f"home {ex.name!r} cannot {what} home {self.name!r}; "
            "cross-home effects must go through a DomainChannel"
        )

    def _push(self, when: float, kind: int, target, payload) -> None:
        ex = _running.home
        if ex is not self and ex is not None:
            self._refuse(ex, "schedule on")
        if kind == K_RESUME and payload.engine is not self:
            # A process waiting on an event that already fired.
            raise SimulationError(
                f"home {self.name!r} cannot wait on {payload.name!r}, "
                f"homed in {payload.engine.name!r}; hand the completion "
                "off through a DomainChannel"
            )
        # Engine._push on the core, inlined: that call and a bound
        # method per record were a tenth of a per-machine fleet replay.
        core = self.core
        if when < core._now or when != when:  # second clause: NaN guard
            raise SimulationError(
                f"cannot schedule in the past ({when} < {core._now})")
        core._n_scheduled += 1
        record = (K_CALL1, self._runner, (kind, target, payload))
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [record]
            heapq.heappush(self._theap, when)
        else:
            bucket.append(record)

    def _push_callbacks(self, event: Event, cbs: list) -> None:
        ex = _running.home
        if ex is not self and ex is not None:
            self._refuse(ex, "fire the waiters of an event homed in")
        push = self.core._push
        now = self.core._now
        for cb in cbs:
            kind = K_RESUME if isinstance(cb, Event) else K_CALL1
            push(now, K_CALL1, self._runner, (kind, cb, event))

    def _run(self, record: tuple) -> None:
        """Dispatch one of this home's records with the home executing."""
        kind, target, payload = record
        outer = _running.home
        _running.home = self
        try:
            if kind == K_CALL1:
                target(payload)
            elif kind == K_RESUME:
                target._resume(payload)
            elif kind == K_FIRE:
                target._fire(True, payload)
            else:  # K_STEP
                target._step(None, payload)
        finally:
            _running.home = outer

    def run(self, until: Optional[Event | float] = None) -> Any:
        return self.core.run(until)

    def __repr__(self) -> str:
        return f"<Home {self.name} t={self._now:g}>"


class DomainChannel:
    """A directed, latency-bearing link that carries values.

    A value sent at ``t`` is delivered at the destination at
    ``t + latency``: into an inbox read with :meth:`recv`, or handed to
    the handler registered with :meth:`subscribe`.  A send cannot be
    recalled; a sender that changes its mind sends a token the receiver
    checks.  The two ends are one engine (:meth:`local`) or two homes of
    one core; either way the delivery is one record at the same
    timestamp, which is what makes single-engine and per-machine runs
    equal record for record.
    """

    def __init__(self, src: Engine, dst: Engine, latency: float,
                 name: str = "") -> None:
        if not 0 < latency < _INF:  # also catches NaN
            raise InvalidValueError(
                f"channel latency must be positive and finite, got "
                f"{latency!r}"
            )
        if src is not dst and (src.core is None or src.core is not dst.core):
            raise InvalidValueError(
                f"channel ends {src.name!r} and {dst.name!r} must be one "
                "engine or two homes of one core"
            )
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
        return cls(engine, engine, latency, name=name)

    # -- sending -------------------------------------------------------------
    def send(self, value: Any = None) -> None:
        """Deliver ``value`` to the destination one latency from now."""
        src = self.src
        dst = self.dst
        arrival = src._now + self.latency
        if dst is src:
            src._push(arrival, K_CALL1, self._deliver, value)
        else:
            # The sanctioned crossing: checked against the source, run
            # as a record of the destination.
            ex = _running.home
            if ex is not src and ex is not None:
                src._refuse(ex, f"send on channel {self.name!r} from")
            src.core._push(arrival, K_CALL1, dst._runner,
                           (K_CALL1, self._deliver, value))
        self.messages_sent += 1

    def _deliver(self, value: Any) -> None:
        """Executed at the destination at the arrival timestamp."""
        if self._handler is None:
            self._inbox.put(value)
            return
        if not self._pending:
            dst = self.dst
            dst._push(dst._now, K_CALL1, self._wake, None)
        self._pending.append(value)

    # -- receiving -----------------------------------------------------------
    def subscribe(self, handler: Callable[[Any], None]) -> None:
        """Run ``handler(value)`` at the destination for every sent value.

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
        ex = _running.home
        if ex is not self.dst and ex is not None:
            self.dst._refuse(ex, f"receive on channel {self.name!r} into")
        return self._inbox.get()

    def __repr__(self) -> str:
        return f"<DomainChannel {self.name} latency={self.latency:g}>"

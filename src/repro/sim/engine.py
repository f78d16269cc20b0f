"""The discrete-event engine: virtual clock, scheduler, and processes.

A :class:`Process` wraps a generator.  The generator yields
:class:`~repro.sim.events.Event` objects; when a yielded event fires the
process resumes with the event's value (or the event's exception is
thrown into the generator).  Returning from the generator fires the
process's ``done`` event with the return value.

Scheduler structure (the hot path)
----------------------------------

The queue is a two-level *calendar*:

* level 1 — a dict mapping each exact timestamp to a FIFO bucket (a
  plain list) of ``(kind, target, payload)`` records;
* level 2 — a heap of the *distinct* timestamps currently holding a
  bucket.

Scheduling an event at a timestamp that already has a bucket is a dict
lookup plus a list append — no heap operation, no closure allocation.
Simulation timestamps cluster heavily (DMA chunk boundaries, kernel
completions, fire→resume cascades at the same instant), so most pushes
take this O(1) path; the heap is touched once per distinct timestamp.

``run`` drains one bucket per outer iteration in a tight inner loop —
*batched dispatch*: all records sharing a timestamp are fired in one
scheduler turn, including records appended to the bucket mid-turn by
same-time cascades.  Records are dispatched through an inlined jump
table on the kind constants from :mod:`repro.sim.events`.

FIFO-within-timestamp is exact: bucket append order is scheduling
order, which is precisely the ``(when, seq)`` order of the historical
single-heap scheduler.  That heap survives only as the test oracle
``tests/reference_engine.py``; ``tests/test_property_scheduler.py``
drives random event soups through both and asserts identical firing
order.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import (
    K_CALL1,
    K_FIRE,
    K_RESUME,
    K_STEP,
    AllOf,
    AnyOf,
    Event,
    Timeout,
)

ProcessBody = Generator[Event, Any, Any]

_INF = float("inf")


class Process(Event):
    """A running simulation process.

    A process *is* an event: it fires when the generator returns, which
    lets other processes wait for its completion simply by yielding it.
    """

    __slots__ = ("_body", "_waiting_on")

    def __init__(self, engine: "Engine", body: ProcessBody, name: str = "") -> None:
        super().__init__(engine, name=name or getattr(body, "__name__", "proc"))
        if not hasattr(body, "send"):
            raise SimulationError(
                f"spawn() needs a generator, got {type(body).__name__}; "
                "did you forget to call the process function?"
            )
        self._body = body
        self._waiting_on: Optional[Event] = None
        engine._push(engine._now, K_STEP, self, None)

    @property
    def result(self) -> Any:
        """The generator's return value.  Only valid once finished."""
        return self.value

    def interrupt(self, exc: Optional[BaseException] = None) -> None:
        """Throw an exception into the process at the current time.

        The default exception is :class:`Interrupt`.  A process that is
        mid-wait stops waiting on its event (the event itself still fires
        normally for other waiters).

        A process resident in another :class:`~repro.sim.domains.Home`
        cannot be interrupted directly: the interrupt is a record on the
        process's home, which refuses it (send a message over a
        :class:`~repro.sim.domains.DomainChannel` instead and act on it
        in the process's own home).
        """
        if self._fired:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        exc = exc if exc is not None else Interrupt()
        self.engine._push(self.engine._now, K_STEP, self, exc)

    def end(self) -> None:
        """End the process where it waits, without running another step.

        The process stops waiting, its generator is closed (its
        ``finally`` blocks run) and it never fires: its own waiters are
        dropped, not woken, and no exception is stored.  This is how the
        application processes of a torn-down machine go, which nothing
        will resume (:meth:`repro.core.daemon.Phos.kill`).
        """
        if self._fired:
            return
        self._waiting_on = None
        self._callbacks = None
        self._body.close()

    # -- internal stepping ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._fired:
            return  # interrupted and finished before the event fired
        if self._waiting_on is not event:
            return  # stale wakeup after an interrupt re-targeted the process
        self._waiting_on = None
        if event._ok:
            self._step(event._value, None)
        else:
            self._step(None, event._value)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._fired:
            return
        self._waiting_on = None
        # Expose the stepping process so observers (repro.obs span
        # tracing) can attribute work to it; restored on exit because
        # steps nest when an event fires synchronously.
        engine = self.engine
        previous = engine._active_process
        engine._active_process = self
        try:
            if exc is not None:
                target = self._body.throw(exc)
            else:
                target = self._body.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - propagate via the event
            self.fail(err)
            return
        finally:
            engine._active_process = previous
        if not isinstance(target, Event):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes must yield Event objects"
                )
            )
            return
        self._waiting_on = target
        if target._fired:
            # Already fired: resume on the next scheduler turn at `now`,
            # exactly where add_callback would have queued the wakeup.
            engine._push(engine._now, K_RESUME, self, target)
        else:
            target._add_waiter(self)


class Interrupt(Exception):
    """Raised inside a process that was interrupted."""


class Engine:
    """Virtual clock plus event queue.

    The engine is single-threaded and deterministic: events scheduled for
    the same timestamp run in FIFO scheduling order.
    """

    #: The engine whose calendar and clock a :class:`~repro.sim.domains.Home`
    #: shares; None on a plain engine, which carries no affinity check.
    core: Optional["Engine"] = None

    def __init__(self) -> None:
        self._now = 0.0
        #: Human label; a Home overrides it with its own name.
        self.name = "engine"
        #: Extra labels merged into obs metrics minted against this
        #: engine ({"domain": name} on a Home, {} otherwise).
        self._obs_labels: dict = {}
        #: Calendar level 1: exact timestamp -> FIFO record bucket.
        self._buckets: dict[float, list] = {}
        #: Calendar level 2: heap of distinct timestamps with buckets.
        self._theap: list[float] = []
        #: Total records ever pushed onto the event queue.
        self._n_scheduled = 0
        #: Records actually dispatched by run().  Differs from
        #: _n_scheduled when a deadline run leaves events queued — the
        #: wall-clock bench divides by *this* for an honest events/s.
        self._n_executed = 0
        self._running = False
        #: The Process currently stepping (None between steps).  Used by
        #: the observability layer to keep one span stack per process.
        self._active_process: Optional[Process] = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Total event-queue records pushed since construction."""
        return self._n_scheduled

    @property
    def events_executed(self) -> int:
        """Total records dispatched by :meth:`run` since construction.

        A deadline run can leave scheduled-but-never-fired records in
        the queue; throughput denominators should use this count.
        """
        return self._n_executed

    @property
    def events_pending(self) -> int:
        """Records currently waiting in the queue."""
        return sum(len(b) for b in self._buckets.values())

    # -- factory helpers -----------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def all_of(self, events) -> AllOf:
        """An event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """An event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    def spawn(self, body: ProcessBody, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, body, name=name)

    # -- scheduling ------------------------------------------------------------
    def _push(self, when: float, kind: int, target, payload) -> None:
        """Schedule one ``(kind, target, payload)`` record at ``when``."""
        if when < self._now or when != when:  # second clause: NaN guard
            raise SimulationError(f"cannot schedule in the past ({when} < {self._now})")
        self._n_scheduled += 1
        b = self._buckets.get(when)
        if b is None:
            self._buckets[when] = [(kind, target, payload)]
            heapq.heappush(self._theap, when)
        else:
            b.append((kind, target, payload))

    def _push_callbacks(self, event: Event, cbs: list) -> None:
        """Batch-schedule an event's waiters at the current time.

        One engine call fires N waiters (the AllOf/fan-in case): each
        Process waiter becomes a ``K_RESUME`` record, each plain
        callable a ``K_CALL1`` record, appended to the current bucket
        in registration order.
        """
        now = self._now
        b = self._buckets.get(now)
        if b is None:
            b = self._buckets[now] = []
            heapq.heappush(self._theap, now)
        for cb in cbs:
            if isinstance(cb, Event):
                b.append((K_RESUME, cb, event))
            else:
                b.append((K_CALL1, cb, event))
        self._n_scheduled += len(cbs)

    def call_at(self, when: float, fn: Callable[[Any], None],
                arg: Any = None) -> None:
        """Run ``fn(arg)`` at virtual time ``when``: one bare record.

        The timer for a wake-up that runs one function — no process, no
        event, no closure.  There is no cancel: pass a token in ``arg``
        and have ``fn`` ignore a superseded one.  Its users: a stream
        op's completion (``gpu/stream.py``), the fluid link's next
        finish (``sim/fluid.py``) and the fleet's arrivals, service ends
        and barriers (``fleet/scheduler.py``).
        """
        self._push(when, K_CALL1, fn, arg)

    # -- main loop ---------------------------------------------------------------
    def run(self, until: Optional[Event | float] = None) -> Any:
        """Run until the queue drains, a deadline, or an event fires.

        ``until`` may be a virtual-time deadline (float), an event to run
        up to, or None to drain the queue.  Returns the event's value when
        an event was given.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        deadline: Optional[float] = None
        stop_event: Optional[Event] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(f"deadline {deadline} is in the past")
        self._running = True
        try:
            if self._drain_window(_INF if deadline is None else deadline,
                                  stop_event):
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
            if stop_event is not None and not stop_event._fired:
                raise DeadlockError(
                    f"event queue drained at t={self._now:g} but "
                    f"{stop_event.name!r} never fired"
                )
            if deadline is not None:
                self._now = deadline
            return None
        finally:
            self._running = False

    def _drain_window(self, limit: float,
                      stop_event: Optional[Event]) -> bool:
        """Dispatch queued records with ``t <= limit``.

        The one dispatch loop of the calendar queue: ``run`` is a single
        window up to its deadline, if any, and the homes of
        ``sim/domains.py`` share this engine's calendar rather than
        running one of their own.  Returns True when ``stop_event``
        fired mid-drain.
        """
        buckets = self._buckets
        theap = self._theap
        while theap:
            t = theap[0]
            if t > limit:
                return False
            # Defence in depth: _push already rejects past timestamps,
            # so only a forged record gets here.
            if t < self._now:
                raise SimulationError(
                    f"clock went backwards in {self.name!r}: "
                    f"record at t={t!r} behind now={self._now!r}"
                )
            self._now = t
            bucket = buckets[t]
            # Batched dispatch: fire the whole timestamp bucket in one
            # scheduler turn.  Same-time cascades (fire -> resume ->
            # fire ...) append to this bucket mid-loop and are drained
            # in the same pass — `n` is refreshed after every record.
            i = 0
            n = len(bucket)
            try:
                if stop_event is None:
                    while i < n:
                        kind, target, payload = bucket[i]
                        i += 1
                        if kind == K_RESUME:
                            target._resume(payload)
                        elif kind == K_FIRE:
                            target._fire(True, payload)
                        elif kind == K_CALL1:
                            target(payload)
                        else:  # K_STEP
                            target._step(None, payload)
                        n = len(bucket)
                else:
                    while i < n:
                        kind, target, payload = bucket[i]
                        i += 1
                        if kind == K_RESUME:
                            target._resume(payload)
                        elif kind == K_FIRE:
                            target._fire(True, payload)
                        elif kind == K_CALL1:
                            target(payload)
                        else:  # K_STEP
                            target._step(None, payload)
                        if stop_event._fired:
                            return True
                        n = len(bucket)
            finally:
                # Consumed records leave the bucket even on an early
                # return or a propagating exception, so a later run()
                # resumes exactly where this one stopped.
                self._n_executed += i
                if i < len(bucket):
                    buckets[t] = bucket[i:]
                else:
                    del buckets[t]
                    heapq.heappop(theap)
        return False

    def run_process(self, body: ProcessBody, name: str = "") -> Any:
        """Spawn ``body`` and run the engine until it finishes."""
        return self.run(self.spawn(body, name=name))

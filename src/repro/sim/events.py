"""Event primitives for the discrete-event engine.

An :class:`Event` is a one-shot synchronization cell: it starts pending,
is fired exactly once with :meth:`Event.succeed` (or :meth:`Event.fail`),
and then invokes its callbacks.  Processes wait on events by yielding
them from their generator body.

Scheduling representation
-------------------------

The engine's queue holds compact ``(kind, target, payload)`` records —
no closures — dispatched by a jump table in ``Engine.run`` (see
``sim/engine.py``).  The kind constants live here so both modules can
share them without a circular import:

* ``K_RESUME`` — wake ``target`` (a waiting :class:`Process`) because
  ``payload`` (the event it yielded) fired;
* ``K_FIRE`` — fire ``target`` (a :class:`Timeout`) successfully with
  value ``payload``;
* ``K_CALL1`` — invoke ``target(payload)`` (event callbacks,
  ``Engine.call_at`` timers, channel deliveries);
* ``K_STEP`` — step ``target`` (a :class:`Process`): ``payload`` is the
  exception to throw in, or ``None`` for the initial ``send(None)``.

Events keep their waiters in one ``_callbacks`` list that holds either
plain callables or :class:`~repro.sim.engine.Process` objects directly
(a process *is* an event, so ``isinstance(cb, Event)`` distinguishes the
two) — a waiting process costs a list append, not a bound-method
allocation per step.  Firing hands the whole list to the engine in one
batched call, which appends one record per waiter to the current
timestamp bucket in registration order.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.errors import SimulationError

#: Queue-record kinds (see module docstring).  Plain ints: the engine's
#: dispatch loop compares these with ``==`` in hotness order.
K_RESUME, K_FIRE, K_CALL1, K_STEP = range(4)


class Event:
    """A one-shot event that processes can wait on.

    Events are created against an engine; firing one schedules its
    callbacks to run immediately (at the current virtual time).
    """

    __slots__ = ("engine", "_name", "_fired", "_ok", "_value", "_callbacks")

    def __init__(self, engine: "Engine", name: str = "") -> None:  # noqa: F821
        self.engine = engine
        self._name = name
        self._fired = False
        self._ok: Optional[bool] = None
        self._value: Any = None
        #: Waiters: callables and/or Processes, in registration order.
        #: ``None`` until the first waiter registers (most Timeouts get
        #: exactly one waiter; pending-free events get none at all).
        self._callbacks: Optional[list] = None

    # -- identity ----------------------------------------------------------
    @property
    def name(self) -> str:
        """Human label; subclasses compute theirs lazily (hot path)."""
        return self._name

    @name.setter
    def name(self, value: str) -> None:
        self._name = value

    # -- state -------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been fired (succeeded or failed)."""
        return self._fired

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self._fired:
            raise SimulationError(f"event {self.name!r} has not fired yet")
        assert self._ok is not None
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception carried by the event."""
        if not self._fired:
            raise SimulationError(f"event {self.name!r} has not fired yet")
        return self._value

    # -- firing ------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Fire the event successfully, waking all waiters."""
        self._fire(True, value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Fire the event with an exception that waiters will re-raise."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._fire(False, exc)
        return self

    def _fire(self, ok: bool, value: Any) -> None:
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._fired = True
        self._ok = ok
        self._value = value
        cbs = self._callbacks
        if cbs:
            self._callbacks = None
            self.engine._push_callbacks(self, cbs)

    # -- waiting -----------------------------------------------------------
    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb(event)``; runs now if the event already fired."""
        if self._fired:
            self.engine._push(self.engine._now, K_CALL1, cb, self)
        else:
            cbs = self._callbacks
            if cbs is None:
                self._callbacks = [cb]
            else:
                cbs.append(cb)

    def _add_waiter(self, process: "Event") -> None:
        """Register a Process to be resumed when this event fires.

        The process object itself is stored (no bound method); the
        engine's batched callback push tells the two apart.
        """
        peng = process.engine
        if peng is not self.engine and (peng.core or self.engine.core):
            raise SimulationError(
                f"process {process.name!r} (home {peng.name!r}) cannot "
                f"wait on {self.name!r} (home {self.engine.name!r}); "
                "cross-home completion must be handed off through a "
                "DomainChannel"
            )
        cbs = self._callbacks
        if cbs is None:
            self._callbacks = [process]
        else:
            cbs.append(process)

    def end_waiters(self) -> None:
        """End every process waiting on this event, where it waits (see
        :meth:`~repro.sim.engine.Process.end`), and drop the other
        callbacks: the event may still fire, to nobody."""
        cbs, self._callbacks = self._callbacks, None
        for cb in cbs or ():
            if isinstance(cb, Event):  # a waiting Process
                cb.end()

    def __repr__(self) -> str:
        state = "fired" if self._fired else "pending"
        return f"<Event {self.name or id(self):} {state}>"


class Timeout(Event):
    """An event that fires automatically after a virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        # Event.__init__ inlined: a Timeout is minted for nearly every
        # simulated wait, so the extra super() call is measurable.
        self.engine = engine
        self._name = ""
        self._fired = False
        self._ok = None
        self._value = None
        self._callbacks = None
        self.delay = delay
        engine._push(engine._now + delay, K_FIRE, self, value)

    @property
    def name(self) -> str:
        # Computed on demand: formatting the delay eagerly used to cost
        # more than the rest of Timeout construction combined.
        return f"timeout({self.delay:g})"


class _Composite(Event):
    """Shared machinery for :class:`AllOf` and :class:`AnyOf`."""

    __slots__ = ("events",)

    def __init__(self, engine: "Engine", events: Iterable[Event], name: str) -> None:  # noqa: F821
        super().__init__(engine, name=name)
        self.events = list(events)
        if not self.events:
            # An empty conjunction/disjunction is immediately satisfied.
            self.succeed([])
            return
        for ev in self.events:
            if ev.engine is not engine and (engine.core or ev.engine.core):
                raise SimulationError(
                    f"{name} mixes events from homes {engine.name!r} and "
                    f"{ev.engine.name!r}; compose within one home and "
                    "hand results across through a DomainChannel"
                )
            ev.add_callback(self._child_fired)

    def _fire(self, ok: bool, value: Any) -> None:
        Event._fire(self, ok, value)
        # Settled: drop the children.  One that has not fired keeps this
        # composite in its callbacks, so holding it here would be a
        # cycle that only the collector frees.
        self.events = ()

    def _child_fired(self, ev: Event) -> None:
        raise NotImplementedError


class AllOf(_Composite):
    """Fires when every child event has fired.

    Succeeds with the list of child values in the original order; fails
    as soon as a failed child's callback is delivered, and — when
    several children fired within one instant and a successful one's
    callback is delivered first — with the first failed child in the
    original order once the last one has fired.  The all-children scan
    in ``_child_fired`` is deliberate: it fires the conjunction at the
    *same dispatch point* the historical implementation did even for
    duplicate children or children that fire between registration and
    callback delivery — a countdown would fire one record early in
    those interleavings and reorder same-timestamp events downstream.
    """

    __slots__ = ()

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:  # noqa: F821
        super().__init__(engine, events, name="all_of")
        # Children already fired at construction deliver their callback
        # only on a later turn, so account for them here.
        if not self.triggered and all(ev.triggered for ev in self.events):
            self._settle()

    def _child_fired(self, ev: Event) -> None:
        if self._fired:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        if all(child._fired for child in self.events):
            self._settle()

    def _settle(self) -> None:
        """Every child has fired: fail with the first failure, else succeed."""
        for child in self.events:
            if not child._ok:
                self.fail(child._value)
                return
        self.succeed([child._value for child in self.events])


class AnyOf(_Composite):
    """Fires as soon as any child event fires, with ``(index, value)``."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:  # noqa: F821
        super().__init__(engine, events, name="any_of")

    def _child_fired(self, ev: Event) -> None:
        if self._fired:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self.succeed((self.events.index(ev), ev.value))

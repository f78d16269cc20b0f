"""Contended resources for the discrete-event engine.

:class:`Resource` models a pool of identical slots (a GPU's DMA
engines).  Each request carries a priority — lower numbers acquire
first, ties FIFO — which is how application PCIe transfers preempt bulk
checkpoint traffic at chunk boundaries (§5 of the paper).
:class:`Store` is an unbounded FIFO mailbox used for IPC between the
PHOS frontend and daemon.

Cancellation: releasing a request that was never granted withdraws it
from the wait queue under a *lazy-deletion* contract (the heap entry
stays behind, marked released, and the grant loop skips it), so a
cancel is O(queue) only in the membership check and never disturbs the
heap invariant.  Releasing a request the resource has never seen
raises :class:`~repro.errors.SimulationError`.

When a :mod:`repro.obs` observer is installed, every resource reports
queue depth (time-weighted), per-priority slot occupancy, and
grant-wait latency — the instruments behind the Fig. 16(b) DMA
starvation breakdown.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Iterator

from repro import obs
from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import Event


class Request(Event):
    """A pending acquisition.  Fires with the request itself as value."""

    __slots__ = ("resource", "priority", "released", "requested_at")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        # Event.__init__ inlined: requests are minted once per acquire
        # on the DMA hot path and the extra call shows up in profiles.
        engine = resource.engine
        self.engine = engine
        self._name = ""
        self._fired = False
        self._ok = None
        self._value = None
        self._callbacks = None
        self.resource = resource
        self.priority = priority
        self.released = False
        #: When the request was submitted (for grant-wait latency).
        self.requested_at = engine._now

    @property
    def name(self) -> str:
        # Lazily formatted: requests are minted on every acquire and the
        # label is only read for error messages and span names.
        return f"req({self.resource.name})"


class Resource:
    """A pool of ``capacity`` identical slots; waiters queue by priority.

    Lower priority numbers acquire first and ties are served FIFO, so a
    resource used at one priority is a plain FIFO queue.

    Usage from a process::

        req = yield from acquired(resource, priority=...)
        try:
            yield engine.timeout(work)
        finally:
            resource.release(req)
    """

    def __init__(self, engine: Engine, capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._users: list[Request] = []
        #: Waiters as ``(priority, arrival seq, request)``; cancelled
        #: entries stay behind, marked released (lazy deletion).
        self._heap: list[tuple[int, int, Request]] = []
        self._counter = itertools.count()
        #: Priorities ever granted here (so occupancy gauges report a
        #: zero when a class drains, not a stale last value).
        self._prio_seen: set[int] = set()

    # -- introspection -------------------------------------------------------
    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        """Number of requests waiting for a slot."""
        return sum(1 for _, _, req in self._heap if not req.released)

    @property
    def busy(self) -> bool:
        """True when all slots are held."""
        return len(self._users) >= self.capacity

    def iter_users(self) -> Iterator[Request]:
        """The requests currently holding a slot (snapshot)."""
        return iter(tuple(self._users))

    def iter_waiting(self) -> Iterator[Request]:
        """The requests waiting for a slot, in service order (snapshot)."""
        return iter(tuple(
            req for _, _, req in sorted(self._heap, key=lambda e: e[:2])
            if not req.released
        ))

    # -- acquire / release -----------------------------------------------------
    def acquire(self, priority: int = 0) -> Request:
        """Request a slot.  The returned event fires when granted."""
        req = Request(self, priority=priority)
        if len(self._users) < self.capacity and not self._heap:
            # Uncontended fast path: a free slot and nobody queued means
            # enqueue-then-grant would pop this request straight back
            # out.  Identical semantics (grant-wait 0, fired before the
            # caller can yield), without touching the heap.  A cancelled
            # entry left in the heap disables it; the slow path skips it.
            self._users.append(req)
            ob = obs.active()
            if ob is not None:
                ob.metrics.histogram(
                    f"resource/{self.name}/grant-wait", priority=req.priority,
                    **self.engine._obs_labels
                ).observe(0.0)
                self._note(ob)
            req.succeed(req)
            return req
        heapq.heappush(self._heap, (priority, next(self._counter), req))
        self._grant()
        self._note()
        return req

    def release(self, req: Request) -> None:
        """Return a granted slot to the pool, or cancel a waiting request."""
        if req.released:
            raise SimulationError(f"double release on {self.name}")
        if req in self._users:
            self._users.remove(req)
        elif not any(entry[2] is req for entry in self._heap):
            raise SimulationError(f"release of unknown request on {self.name}")
        # A waiting request is withdrawn by marking it: its heap entry
        # stays and ``_grant`` skips it.
        req.released = True
        if self._heap:
            self._grant()
        self._note()

    def _grant(self) -> None:
        heap = self._heap
        ob = None
        ob_fetched = False
        while len(self._users) < self.capacity and heap:
            req = heapq.heappop(heap)[2]
            if req.released:
                continue
            self._users.append(req)
            if not ob_fetched:
                ob = obs.active()
                ob_fetched = True
            if ob is not None:
                ob.metrics.histogram(
                    f"resource/{self.name}/grant-wait", priority=req.priority,
                    **self.engine._obs_labels
                ).observe(self.engine.now - req.requested_at)
            req.succeed(req)

    # -- observability -----------------------------------------------------------
    def _note(self, ob=None) -> None:
        """Sample occupancy and queueing (no-op without an observer)."""
        if ob is None:
            ob = obs.active()
            if ob is None:
                return
        metrics = ob.metrics
        labels = self.engine._obs_labels
        metrics.gauge(f"resource/{self.name}/capacity",
                      **labels).set(self.capacity)
        metrics.gauge(f"resource/{self.name}/in-use", **labels).set(self.in_use)
        metrics.histogram(f"resource/{self.name}/queue-depth",
                          **labels).update(self.queue_len)
        counts: dict[int, int] = {}
        for req in self._users:
            counts[req.priority] = counts.get(req.priority, 0) + 1
        self._prio_seen.update(counts)
        for priority in self._prio_seen:
            metrics.gauge(
                f"resource/{self.name}/in-use", priority=priority, **labels
            ).set(counts.get(priority, 0))


def acquired(resource: Resource, priority: int = 0):
    """Interrupt-safe acquire: ``req = yield from acquired(res, ...)``.

    The naked pattern ``req = yield res.acquire()`` leaks a slot when the
    waiting process is interrupted: the exception is thrown at the yield,
    the assignment never happens, and the queued (or just-granted)
    request is orphaned — permanently holding or eventually claiming a
    slot for a dead process.  This helper owns the request across the
    wait and cancels/returns it if anything is thrown in, relying on the
    release contract above (releasing a waiter withdraws it; releasing a
    granted request returns the slot).  Exactly one yield, so virtual
    timestamps are unchanged.
    """
    req = resource.acquire(priority=priority)
    try:
        yield req
    except BaseException:
        if not req.released:
            resource.release(req)
        raise
    return req


class Store:
    """An unbounded FIFO mailbox of items.

    ``put`` never blocks; ``get`` returns an event that fires with the
    next item (immediately if one is queued).
    """

    def __init__(self, engine: Engine, name: str = "store") -> None:
        self.engine = engine
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event that fires with the next available item."""
        ev = Event(self.engine, name=f"get({self.name})")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)

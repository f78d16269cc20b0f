"""The reference scheduler: one ``(when, seq, record)`` heap, kept as the oracle.

Until PR 7 this heap *was* the engine's event queue; until PR 16 it
lived on inside ``repro.sim.engine`` behind ``Engine(legacy_heap=True)``.
The production queue is the two-level calendar (timestamp buckets plus a
heap of distinct timestamps, whole buckets drained per scheduler turn);
this copy stays here, outside ``src/``, popping one record at a time in
``(when, seq)`` order, so ``test_property_scheduler.py`` can demand that
both fire the same records in the same order at the same virtual times.
It is the old ``if self._legacy`` arms of ``_push`` / ``_push_callbacks``
/ ``events_pending`` and the ``_run_legacy`` loop verbatim.  Do not
optimise it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Optional

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import Engine
from repro.sim.events import K_CALL1, K_FIRE, K_RESUME, K_STEP, Event


class HeapEngine(Engine):
    """``Engine`` on the historical single-heap queue (no buckets)."""

    def __init__(self) -> None:
        super().__init__()
        #: The whole queue: (when, seq, kind, target, payload).
        self._lheap: list[tuple] = []
        self._seq = itertools.count()

    @property
    def events_pending(self) -> int:
        return len(self._lheap)

    def _push(self, when: float, kind: int, target, payload) -> None:
        if when < self._now or when != when:  # second clause: NaN guard
            raise SimulationError(f"cannot schedule in the past ({when} < {self._now})")
        self._n_scheduled += 1
        heapq.heappush(self._lheap, (when, next(self._seq), kind, target, payload))

    def _push_callbacks(self, event: Event, cbs: list) -> None:
        now = self._now
        for cb in cbs:
            if isinstance(cb, Event):
                self._push(now, K_RESUME, cb, event)
            else:
                self._push(now, K_CALL1, cb, event)

    def run(self, until: Optional[Event | float] = None) -> Any:
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
            heap = self._lheap
            while heap:
                when = heap[0][0]
                if deadline is not None and when > deadline:
                    self._now = deadline
                    return None
                when, _, kind, target, payload = heapq.heappop(heap)
                if when < self._now:
                    raise SimulationError(
                        f"clock went backwards in {self.name!r}: "
                        f"record at t={when!r} behind now={self._now!r}"
                    )
                self._now = when
                self._n_executed += 1
                if kind == K_RESUME:
                    target._resume(payload)
                elif kind == K_FIRE:
                    target._fire(True, payload)
                elif kind == K_CALL1:
                    target(payload)
                elif kind == K_STEP:
                    target._step(None, payload)
                else:
                    target()
                if stop_event is not None and stop_event._fired:
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

"""CUDA-like streams: per-stream FIFO execution of GPU operations.

A :class:`Stream` is an op deque plus a busy flag.  Ops start in
submission order, each once its predecessor has settled — the in-order
guarantee CUDA streams give — and ops on *different* streams run
concurrently.  No process drives the queue: whatever settles the head
op starts the next one.

Every operation is a :class:`StreamOp`: ``start() -> duration``, run
when the op reaches the head of the stream (a kernel's module load and
validator-overhead counter happen here), and ``effect() -> result``,
the functional work, applied ``duration`` later.  The completion is one
``Engine.call_at(now + duration)`` record: it applies the effect, calls
``on_complete`` with the result (``None`` when the effect raised),
settles the op's ``done`` event (failing it with the exception, if
any) and starts the stream's next op.  An op may wait on one of two
things between ``start`` and the timer:

* ``hold`` — a :class:`~repro.sim.resources.Resource` acquired at
  application priority once ``start`` has run and released in the
  completion (a memcpy holds one of the GPU's DMA engines);
* ``after`` — an event that must have fired (an NCCL rank waits for
  every rank of the collective to arrive).

When the wait is already satisfied the timer is armed at once;
otherwise it is armed from the wait's callback, at the instant it fires.

An optional ``pre_exec`` generator runs immediately before ``start`` —
the hook the checkpoint protocols use to stall a kernel whose target
buffer is mid-checkpoint (§4.2) or whose input buffer has not been
restored yet (§6): enforcement happens at GPU execution time, not
merely at API-call time.  A guarded op is the one kind that runs as a
process: one generator per op, the guard followed by the timed path
above.  A guard that raises fails the op and skips ``start``.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Generator, Optional

from repro.gpu.dma import APP_PRIORITY
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.resources import Resource

_stream_ids = itertools.count(1)

Guard = Callable[[], Generator[Event, object, object]]


class StreamOp:
    """One unit of in-order stream work (kernel launch, memcpy, marker)."""

    __slots__ = ("kind", "start", "effect", "on_complete", "pre_exec",
                 "hold", "after", "done", "_duration", "_req")

    def __init__(
        self,
        engine: Engine,
        kind: str,
        start: Callable[[], float],
        effect: Optional[Callable[[], Any]] = None,
        on_complete: Optional[Callable[[Any], None]] = None,
        pre_exec: Optional[Guard] = None,
        hold: Optional[Resource] = None,
        after: Optional[Event] = None,
    ) -> None:
        self.kind = kind
        self.start = start
        self.effect = effect
        self.on_complete = on_complete
        self.pre_exec = pre_exec
        self.hold = hold
        self.after = after
        self.done = Event(engine, name=f"op-done({kind})")
        self._duration = 0.0
        self._req = None


class Stream:
    """An in-order GPU work queue."""

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.id = next(_stream_ids)
        self.name = name or f"stream{self.id}"
        #: Submitted ops waiting for the head op to settle.
        self._ops: deque[StreamOp] = deque()
        #: True from an op's start until the last queued op settles.
        self._busy = False
        self._inflight = 0

    # -- submission --------------------------------------------------------------
    def submit(
        self,
        kind: str,
        start: Callable[[], float],
        effect: Optional[Callable[[], Any]] = None,
        on_complete: Optional[Callable[[Any], None]] = None,
        pre_exec: Optional[Guard] = None,
        hold: Optional[Resource] = None,
        after: Optional[Event] = None,
    ) -> StreamOp:
        """Enqueue an operation; returns it immediately (async semantics)."""
        op = StreamOp(self.engine, kind, start, effect, on_complete,
                      pre_exec, hold, after)
        self._inflight += 1
        if self._busy:
            self._ops.append(op)
        else:
            self._busy = True
            self._begin(op)
        return op

    def synchronize(self) -> Event:
        """An event that fires once every op submitted so far has finished.

        Mirrors ``cudaStreamSynchronize``: ops submitted *after* this
        call do not delay it.
        """
        if self._inflight == 0:
            return self.engine.event(name=f"{self.name}-sync").succeed()
        return self.submit("sync-marker", _no_time).done

    @property
    def pending_ops(self) -> int:
        """Operations submitted but not yet completed."""
        return self._inflight

    # -- the op lifecycle --------------------------------------------------------
    def _begin(self, op: StreamOp) -> None:
        if op.pre_exec is None:
            self._start(op)
        else:
            self.engine.spawn(self._guarded(op), name=f"{self.name}-{op.kind}")

    def _guarded(self, op: StreamOp):
        try:
            yield from op.pre_exec()
        except Exception as err:  # noqa: BLE001 - fail the op's waiters
            self._settle(op, False, err)
            return
        self._start(op)

    def _start(self, op: StreamOp) -> None:
        try:
            op._duration = op.start()
        except Exception as err:  # noqa: BLE001 - fail the op's waiters
            self._settle(op, False, err)
            return
        wait = op.after
        if op.hold is not None:
            wait = op._req = op.hold.acquire(priority=APP_PRIORITY)
        if wait is None or wait._fired:
            self._arm(op)
        else:
            wait.add_callback(lambda _ev: self._arm(op))

    def _arm(self, op: StreamOp) -> None:
        engine = self.engine
        engine.call_at(engine._now + op._duration, self._complete, op)

    def _complete(self, op: StreamOp) -> None:
        if op._req is not None:
            op.hold.release(op._req)
        ok = True
        result = None
        if op.effect is not None:
            try:
                result = op.effect()
            except Exception as err:  # noqa: BLE001 - fail the op's waiters
                ok, result = False, err
        if op.on_complete is not None:
            # A failed effect may have landed part of its writes, so the
            # observer sees the completion either way.
            try:
                op.on_complete(result if ok else None)
            except Exception as err:  # noqa: BLE001
                ok, result = False, err
        self._settle(op, ok, result)

    def _settle(self, op: StreamOp, ok: bool, value: Any) -> None:
        self._inflight -= 1
        if ok:
            op.done.succeed(value)
        else:
            op.done.fail(value)
        if self._ops:
            self._begin(self._ops.popleft())
        else:
            self._busy = False


def _no_time() -> float:
    return 0.0

"""The reference stream: a dispatcher process per stream, kept as the oracle.

This class used to be ``repro.gpu.stream.Stream``.  It runs every
operation as a generator under its own ``Process``, spawned by a
dispatcher process that pops ops from a ``Store`` — five or six
scheduler records per kernel.  The production stream is now an op
deque plus a busy flag, and an unguarded timed op completes on one
timer record; this copy stays here, outside ``src/``, so
``test_property_stream.py`` can demand that both start and complete
the same ops at the same float instants, settle ``done`` with the same
values and exceptions, and report the same ``pending_ops``.  It is the
old module verbatim.  Do not optimise it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Generator, Optional

from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.resources import Store

_stream_ids = itertools.count(1)

OpBody = Callable[[], Generator[Event, object, object]]


class StreamOp:
    """One unit of in-order stream work (kernel launch, memcpy, marker)."""

    def __init__(
        self,
        engine: Engine,
        kind: str,
        body: OpBody,
        pre_exec: Optional[OpBody] = None,
        meta: Optional[dict] = None,
    ) -> None:
        self.kind = kind
        self.body = body
        self.pre_exec = pre_exec
        self.meta = meta or {}
        self.done = Event(engine, name=f"op-done({kind})")


class Stream:
    """An in-order GPU work queue."""

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.id = next(_stream_ids)
        self.name = name or f"stream{self.id}"
        self._queue: Store = Store(engine, name=f"{self.name}-ops")
        self._inflight = 0
        self._idle_waiters: list[Event] = []
        self._dispatcher = engine.spawn(self._dispatch(), name=f"{self.name}-dispatch")

    # -- submission --------------------------------------------------------------
    def submit(
        self,
        kind: str,
        body: OpBody,
        pre_exec: Optional[OpBody] = None,
        meta: Optional[dict] = None,
    ) -> StreamOp:
        """Enqueue an operation; returns it immediately (async semantics)."""
        op = StreamOp(self.engine, kind, body, pre_exec=pre_exec, meta=meta)
        self._inflight += 1
        self._queue.put(op)
        return op

    def synchronize(self) -> Event:
        """An event that fires once every op submitted so far has finished.

        Mirrors ``cudaStreamSynchronize``: ops submitted *after* this
        call do not delay it.
        """
        ev = self.engine.event(name=f"{self.name}-sync")
        if self._inflight == 0:
            ev.succeed()
        else:
            marker = self.submit("sync-marker", _noop_body(self.engine))
            marker.done.add_callback(lambda _: ev.succeed())
        return ev

    @property
    def pending_ops(self) -> int:
        """Operations submitted but not yet completed."""
        return self._inflight

    # -- dispatch loop ---------------------------------------------------------
    def _dispatch(self):
        while True:
            op: StreamOp = yield self._queue.get()
            try:
                if op.pre_exec is not None:
                    yield self.engine.spawn(
                        op.pre_exec(), name=f"{self.name}-pre({op.kind})"
                    )
                result = yield self.engine.spawn(
                    op.body(), name=f"{self.name}-{op.kind}"
                )
            except GeneratorExit:  # dispatcher reclaimed at teardown
                raise
            except BaseException as err:  # noqa: BLE001 - fail the op's waiters
                self._inflight -= 1
                op.done.fail(err)
                continue
            self._inflight -= 1
            op.done.succeed(result)


def _noop_body(engine: Engine) -> OpBody:
    def body():
        yield engine.timeout(0.0)

    return body

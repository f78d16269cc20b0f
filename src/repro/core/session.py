"""Checkpoint and restore session state.

A session holds the per-buffer protocol state shared between the
frontend guards (running in application streams) and the backend copy
engine.  The ``plan`` phase of ``cow`` and of the recopy family
(``recopy``, ``hw-dirty``, ``incremental``) creates a
:class:`CheckpointSession`, the concurrent restore a
:class:`RestoreSession`; stop-the-world runs return ``session=None``.
A ``hw-dirty`` session is never handed to a frontend: its dirty set is
read from the buffers' hardware bits.  State transitions:

Checkpoint (CoW)::

    NOT_STARTED --guard--> SHADOW_IN_FLIGHT --copy done--> SHADOWED
    NOT_STARTED --engine--> COPY_IN_FLIGHT --capture--> DONE
    (buffers allocated after the session starts are NEW: not in the image)

Checkpoint (recopy)::

    NOT_STARTED --engine--> COPY_IN_FLIGHT --> DONE
    any write completing while state != NOT_STARTED marks the buffer dirty
    (the t2 cut, taken once from the quiesced allocation list: NEW
    buffers still alive are captured whole, freed plan buffers dropped)

Restore::

    NOT_RESTORED --engine/demand--> LOAD_IN_FLIGHT --> RESTORED
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from repro import obs, units
from repro.errors import CheckpointError
from repro.gpu.memory import Buffer
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.storage.image import CheckpointImage

#: GPU memory reserved for copy-on-write shadows (§4.2: "a small 2 GB").
COW_POOL_BYTES = 2 * units.GIB


class BufState(enum.Enum):
    NOT_STARTED = "not-started"
    SHADOW_IN_FLIGHT = "shadow-in-flight"
    SHADOWED = "shadowed"
    COPY_IN_FLIGHT = "copy-in-flight"
    DONE = "done"
    #: Allocated after the checkpoint started: not in a t1 (CoW) image;
    #: a t2 (recopy) image captures the ones still alive at t2.
    NEW = "new"


class RestoreState(enum.Enum):
    NOT_RESTORED = "not-restored"
    LOAD_IN_FLIGHT = "load-in-flight"
    RESTORED = "restored"


@dataclass
class CheckpointStats:
    """Counters the breakdown figures are built from."""

    cow_stall_time: float = 0.0
    cow_shadow_copies: int = 0
    cow_shadow_bytes: int = 0
    cow_pool_waits: int = 0
    inflight_copy_waits: int = 0
    dirty_marks: int = 0
    bytes_copied: int = 0
    bytes_recopied: int = 0
    #: Bytes of the buffers a ``parent`` already held, skipped by the
    #: plan phase (the same parent path for a CoW or a recopy cut).
    bytes_skipped_incremental: int = 0
    violations_handled: int = 0


class CheckpointSession:
    """Shared state of one in-progress checkpoint."""

    #: Protocols whose frontend guards need per-buffer session state.
    SPECULATING_MODES = ("cow", "recopy")

    def __init__(self, engine: Engine, mode: str, image: CheckpointImage,
                 cow_pool_bytes: int = COW_POOL_BYTES) -> None:
        if mode not in self.SPECULATING_MODES:
            raise CheckpointError(
                f"unknown checkpoint mode {mode!r}: sessions exist for "
                f"{', '.join(self.SPECULATING_MODES)} only"
            )
        self.engine = engine
        self.mode = mode
        self.image = image
        self.stats = CheckpointStats()
        #: Buffers captured at quiesce, per GPU, in copy order.
        self.plan: dict[int, list[Buffer]] = {}
        self._state: dict[int, BufState] = {}
        self._events: dict[int, Event] = {}
        self.shadows: dict[int, Buffer] = {}
        #: Shadowed buffers awaiting their checkpoint copy, per GPU.
        #: The copy engine serves these first: copying a shadowed buffer
        #: releases its CoW pool quota, which is what keeps the small
        #: 2 GB pool from stalling writers (§4.2).
        self.shadow_ready: dict[int, deque[Buffer]] = {}
        self.dirty: dict[int, set[int]] = {}
        self.deferred_frees: dict[int, list[Buffer]] = {}
        #: Plan buffers freed during the window, per GPU: noted by the
        #: frontend as they go (pre-copy rounds skip them), then set
        #: authoritatively by :meth:`cut_t2`.
        self.freed_ids: dict[int, set[int]] = {}
        self.aborted = False
        self.abort_reason = ""
        #: Set by the recopy protocol: when the final quiesce began
        #: (migration downtime is measured from this instant).
        self.final_quiesce_start: float | None = None
        # CoW shadow memory pool: 2 GB reserved on *each* GPU (§4.2).
        self.cow_pool_bytes = cow_pool_bytes
        self._pool_free: dict[int, int] = {}
        self._pool_waiters: dict[int, deque[tuple[int, Event]]] = {}

    # -- plan / state ---------------------------------------------------------
    def set_plan(self, gpu_index: int, buffers: list[Buffer]) -> None:
        self.plan[gpu_index] = list(buffers)
        self.shadow_ready.setdefault(gpu_index, deque())
        self.dirty.setdefault(gpu_index, set())
        self.deferred_frees.setdefault(gpu_index, [])
        self.freed_ids.setdefault(gpu_index, set())
        self._pool_free.setdefault(gpu_index, self.cow_pool_bytes)
        self._pool_waiters.setdefault(gpu_index, deque())
        for buf in buffers:
            self._state[buf.id] = BufState.NOT_STARTED

    def covers_gpu(self, gpu_index: int) -> bool:
        return gpu_index in self.plan

    def state_of(self, buf: Buffer) -> BufState:
        return self._state.get(buf.id, BufState.NEW)

    def set_state(self, buf: Buffer, state: BufState) -> None:
        self._state[buf.id] = state

    def event_for(self, buf: Buffer, kind: str) -> Event:
        """The completion event for a buffer's in-flight shadow/copy."""
        key = buf.id
        ev = self._events.get(key)
        if ev is None:
            ev = self.engine.event(name=f"{kind}({buf.tag or buf.id})")
            self._events[key] = ev
        return ev

    def fire_event(self, buf: Buffer) -> None:
        ev = self._events.pop(buf.id, None)
        if ev is not None:
            ev.succeed()

    def mark_dirty(self, gpu_index: int, buf: Buffer) -> None:
        if buf.id not in self._state or self._state[buf.id] is BufState.NEW:
            return
        if buf.id not in self.dirty[gpu_index]:
            self.dirty[gpu_index].add(buf.id)
            self.stats.dirty_marks += 1

    def cut_t2(self, gpu_index: int, live: list[Buffer]) -> list[Buffer]:
        """One GPU's t2 cut against its quiesced allocation list ``live``.

        Plan buffers no longer alive have no t2 state: they become
        ``freed_ids`` and their image records are dropped.  Returns the
        live buffers outside the plan — NEW, allocated during the
        window, with no copy yet — in allocation order.  ``live`` is the
        list a stop-the-world checkpoint at t2 walks, so no dirty source
        can disagree with it.
        """
        planned = {buf.id for buf in self.plan[gpu_index]}
        freed = self.freed_ids[gpu_index] = planned - {b.id for b in live}
        records = self.image.gpu_buffers.get(gpu_index, {})
        for buf_id in freed:
            records.pop(buf_id, None)
        return [buf for buf in live if buf.id not in planned]

    def abort(self, reason: str = "") -> None:
        if not self.aborted:
            self.aborted = True
            self.abort_reason = reason

    # -- CoW shadow pool ---------------------------------------------------------
    def acquire_pool(self, gpu_index: int, nbytes: int):
        """Generator: reserve shadow memory, blocking while exhausted (K2)."""
        if nbytes > self.cow_pool_bytes:
            raise CheckpointError(
                f"buffer of {nbytes} bytes exceeds the CoW pool "
                f"({self.cow_pool_bytes} bytes)"
            )
        while self._pool_free[gpu_index] < nbytes:
            self.stats.cow_pool_waits += 1
            obs.counter("cow/pool-waits", gpu=gpu_index).inc()
            ev = self.engine.event(name="cow-pool-wait")
            self._pool_waiters[gpu_index].append((nbytes, ev))
            yield ev
        self._pool_free[gpu_index] -= nbytes
        self._note_pool(gpu_index)

    def release_pool(self, gpu_index: int, nbytes: int) -> None:
        self._pool_free[gpu_index] += nbytes
        waiters = self._pool_waiters[gpu_index]
        while waiters and waiters[0][0] <= self._pool_free[gpu_index]:
            _, ev = waiters.popleft()
            ev.succeed()
        self._note_pool(gpu_index)

    def _note_pool(self, gpu_index: int) -> None:
        """Sample CoW pool occupancy (time-weighted when observed)."""
        used = self.cow_pool_bytes - self._pool_free[gpu_index]
        obs.gauge("cow/pool-used-bytes", gpu=gpu_index).set(used)

    def pool_free(self, gpu_index: int) -> int:
        return self._pool_free[gpu_index]


class RestoreSession:
    """Shared state of one in-progress concurrent restore."""

    def __init__(self, engine: Engine, image: CheckpointImage) -> None:
        image.require_finalized()
        self.engine = engine
        self.image = image
        self._state: dict[int, RestoreState] = {}
        self._events: dict[int, Event] = {}
        #: On-demand requests per GPU (kernels are waiting on these).
        self.demand: dict[int, deque[Buffer]] = {}
        self.aborted = False
        self.abort_reason = ""
        self.abort_event: Event = engine.event(name="restore-abort")
        self.rolled_back = False
        self.stall_time = 0.0
        self.demand_fetches = 0
        self.done: Event = engine.event(name="restore-done")
        #: gpu index -> list of (new buffer, image record) in copy order.
        self.plan: dict[int, list] = {}

    def set_plan(self, gpu_index: int, pairs: list) -> None:
        self.plan[gpu_index] = list(pairs)
        self.demand.setdefault(gpu_index, deque())
        for buf, _record in pairs:
            self._state[buf.id] = RestoreState.NOT_RESTORED

    def covers_gpu(self, gpu_index: int) -> bool:
        return gpu_index in self.plan

    def state_of(self, buf: Buffer) -> RestoreState:
        return self._state.get(buf.id, RestoreState.RESTORED)

    def set_state(self, buf: Buffer, state: RestoreState) -> None:
        self._state[buf.id] = state

    def event_for(self, buf: Buffer) -> Event:
        ev = self._events.get(buf.id)
        if ev is None:
            ev = self.engine.event(name=f"restore({buf.tag or buf.id})")
            self._events[buf.id] = ev
        return ev

    def fire_event(self, buf: Buffer) -> None:
        ev = self._events.pop(buf.id, None)
        if ev is not None:
            ev.succeed()

    def abort(self, reason: str = "") -> None:
        """Signal mis-speculation; the rollback watcher takes over."""
        if not self.aborted:
            self.aborted = True
            self.abort_reason = reason
            self.abort_event.succeed()

    def request(self, gpu_index: int, buf: Buffer) -> None:
        """Queue an on-demand fetch (a kernel is blocked on this buffer)."""
        queue = self.demand.setdefault(gpu_index, deque())
        if self.state_of(buf) is RestoreState.NOT_RESTORED and buf not in queue:
            queue.append(buf)

    def all_restored(self) -> bool:
        return all(s is RestoreState.RESTORED for s in self._state.values())

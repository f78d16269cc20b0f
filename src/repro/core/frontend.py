"""The PHOS per-process frontend library (§3, component 2).

The frontend is installed as the process's API interceptor.  It keeps
the buffer table current, speculates every call's read/write sets, and
— while a checkpoint or restore session is active — returns launch
plans that enforce the protocols:

* **CoW checkpoint** — a guard runs in-stream before every write-
  bearing operation: buffers not yet checkpointed are shadow-copied
  on-device first (redirecting the checkpoint to the frozen shadow);
  buffers whose checkpoint copy is in flight stall the operation.
* **recopy checkpoint** — no stalls; every write completing against an
  already-copied buffer marks it dirty for the recopy pass.
* **concurrent restore** — a guard blocks the operation until every
  buffer it touches has been restored, pushing missing ones onto the
  on-demand queue.

Opaque kernels are swapped for their instrumented twins during active
sessions; validator reports are resolved against the buffer table and
handled per protocol (§4.2/§4.3/§6's mis-speculation rules).

:meth:`PhosFrontend.plan` fixes the sessions active when the call is
planned and binds two methods to them: one guard (the restore wait,
then the CoW shadow) and one completion, which resolves each
validator-reported write once and then applies the write tracking, the
access log and the session rules in that order.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro import obs, units
from repro.api.calls import ApiCall, ApiCategory, LaunchPlan
from repro.api.runtime import GpuProcess
from repro.core.session import BufState, CheckpointSession, RestoreSession, RestoreState
from repro.core.speculation import SpeculatedSets, speculate_call
from repro.core.tracker import BufferTable
from repro.core.validation import TwinCache
from repro.errors import CheckpointError
from repro.gpu.cost_model import on_device_copy_time
from repro.gpu.interpreter import AccessKind, ValidationState
from repro.gpu.memory import Buffer
from repro.sim.engine import Engine
from repro.storage.hashcache import BufferHashCache

#: Frontend-to-backend call overhead when they live in separate
#: processes (IPC mode, required for the context pool — §3).
IPC_OVERHEAD = 5 * units.USEC

_NAN = float("nan")  # "no earlier write" in a write-history pair

_KERNEL_CATEGORIES = (
    ApiCategory.OPAQUE_KERNEL,
    ApiCategory.LIB_COMPUTE,
    ApiCategory.COMM,
)


class PhosFrontend:
    """One process's interception state.

    The process's runtime owns its frontend (``runtime.interceptor``),
    so the frontend keeps the machine it plans against, not the
    process.
    """

    def __init__(self, engine: Engine, process: GpuProcess, mode: str = "lfc",
                 always_instrument: bool = False) -> None:
        if mode not in ("lfc", "ipc"):
            raise CheckpointError(f"unknown frontend mode {mode!r}")
        self.engine = engine
        self.machine = process.machine
        self.mode = mode
        self.tables: dict[int, BufferTable] = {
            i: BufferTable(i) for i in process.gpu_indices
        }
        self.twins = TwinCache()
        self.ckpt_session: Optional[CheckpointSession] = None
        self.restore_session: Optional[RestoreSession] = None
        #: Fig. 15 a/b ablation: keep twins active outside sessions.
        self.always_instrument = always_instrument
        #: Running log of speculated sets (drives the Fig. 20 heatmap).
        self.access_log: list[tuple[float, ApiCall, SpeculatedSets]] = []
        self.log_accesses = False
        #: Write history per buffer id: (previous, last) write times.
        #: Workload writes are periodic (per iteration / per token), so
        #: ``last + (last - previous)`` predicts the *next* write — the
        #: signal behind §5's coordinated copy ordering ("copying
        #: buffers that are unlikely to be written first").
        self.write_history: dict[int, tuple[float, float]] = {}
        #: Chunk-hash cache + per-buffer dirty ranges for the delta
        #: data plane, fed from the same write tracking as above.
        self.hash_cache = BufferHashCache()

    # -- session lifecycle ---------------------------------------------------------
    def begin_checkpoint(self, session: CheckpointSession,
                         hot_order: Optional[str] = None) -> None:
        """Snapshot the buffer plan and activate the session.

        ``hot_order`` applies §5's copy-ordering principle using the
        frontend's write-heat map: ``"hot-first"`` (CoW wants buffers
        about to be written checkpointed *before* the write arrives, so
        no shadow is needed).
        """
        if self.ckpt_session is not None:
            raise CheckpointError("a checkpoint session is already active")
        if hot_order not in (None, "hot-first"):
            raise CheckpointError(f"unknown hot_order {hot_order!r}")
        for gpu_index, table in self.tables.items():
            plan = list(table.buffers())
            if hot_order is not None:
                # Ascending predicted-next-write: buffers about to be
                # written go first, never-written ones last.
                plan.sort(key=self.predicted_next_write)
            session.set_plan(gpu_index, plan)
        self.ckpt_session = session

    def predicted_next_write(self, buf: Buffer) -> float:
        """Next expected write time; +inf for buffers never written twice."""
        history = self.write_history.get(buf.id)
        if history is None:
            return float("inf")
        prev, last = history
        if prev != prev:  # NaN sentinel: only one write observed
            return float("inf")
        return last + (last - prev)

    def end_checkpoint(self) -> CheckpointSession:
        session, self.ckpt_session = self.ckpt_session, None
        if session is None:
            raise CheckpointError("no checkpoint session to end")
        return session

    def begin_restore(self, session: RestoreSession) -> None:
        if self.restore_session is not None:
            raise CheckpointError("a restore session is already active")
        self.restore_session = session

    def end_restore(self) -> RestoreSession:
        session, self.restore_session = self.restore_session, None
        if session is None:
            raise CheckpointError("no restore session to end")
        return session

    # -- interceptor protocol --------------------------------------------------------
    def on_malloc(self, gpu_index: int, buf: Buffer) -> None:
        self.tables[gpu_index].register(buf)

    def on_free(self, gpu_index: int, buf: Buffer) -> bool:
        """Returns True when the physical free is deferred (PHOS owns it)."""
        self.tables[gpu_index].unregister(buf)
        # Buffer ids are never reused: a freed buffer's history is dead.
        self.write_history.pop(buf.id, None)
        self.hash_cache.forget(buf.id)
        session = self.ckpt_session
        if (session is not None and session.covers_gpu(gpu_index)
                and session.state_of(buf) is not BufState.NEW):
            session.deferred_frees[gpu_index].append(buf)
            session.freed_ids[gpu_index].add(buf.id)
            return True
        return False

    def plan(self, call: ApiCall) -> LaunchPlan:
        obs.counter("frontend/calls", mode=self.mode,
                    category=call.category.name.lower()).inc()
        plan = LaunchPlan(
            frontend_overhead=IPC_OVERHEAD if self.mode == "ipc" else 0.0
        )
        if call.category in (ApiCategory.MALLOC, ApiCategory.FREE, ApiCategory.SYNC):
            return plan
        table = self.tables[call.gpu_index]
        sets = speculate_call(call, table)
        # The sessions are fixed here: one that begins or ends before
        # the call completes is never consulted for it.
        ckpt = self.ckpt_session
        if ckpt is not None and (ckpt.aborted or not ckpt.covers_gpu(call.gpu_index)):
            ckpt = None
        restore = self.restore_session
        if restore is not None and (restore.aborted
                                    or not restore.covers_gpu(call.gpu_index)):
            restore = None
        instrument = call.is_opaque and (
            ckpt is not None or restore is not None or self.always_instrument
        )
        if call.category in _KERNEL_CATEGORIES:
            self.twins.observe_launch(call, instrumented=instrument)
        if instrument:
            plan.program = self.twins.twin_for(call.program,
                                               check_reads=restore is not None)
            plan.validation = ValidationState(read_ranges=sets.read_ranges(),
                                              write_ranges=sets.write_ranges())
        cow = ckpt if ckpt is not None and ckpt.mode == "cow" and sets.writes else None
        if restore is not None or cow is not None:
            plan.pre_exec = partial(self._guard, call, sets, restore, cow)
        log = self.log_accesses
        if sets.writes or log or restore is not None or ckpt is not None or instrument:
            plan.on_complete = partial(self._complete, table, sets,
                                       plan.validation, restore, ckpt, log)
        return plan

    # -- the in-stream guard: §6's restore wait, then §4.2's CoW ---------------------
    def _guard(self, call: ApiCall, sets: SpeculatedSets,
               restore: Optional[RestoreSession],
               cow: Optional[CheckpointSession]):
        engine = self.engine
        gpu_index = call.gpu_index
        if restore is not None:
            t0 = engine.now
            for buf in sets.touched():
                while ((state := restore.state_of(buf)) is not RestoreState.RESTORED
                       and not restore.aborted):
                    restore.request(gpu_index, buf)
                    yield restore.event_for(buf)
                if state is not RestoreState.RESTORED:
                    break  # aborted: stop waiting and record no stall
            else:
                stalled = engine.now - t0
                restore.stall_time += stalled
                if stalled > 0:
                    obs.record("restore/guard-stall", t0, call=call.name,
                               gpu=gpu_index)
        if cow is None:
            return
        gpu = self.machine.gpu(gpu_index)
        t0 = engine.now
        for buf in sets.writes:
            while True:
                state = cow.state_of(buf)
                if state in (BufState.DONE, BufState.SHADOWED, BufState.NEW):
                    break
                if state is BufState.SHADOW_IN_FLIGHT:
                    yield cow.event_for(buf, "shadow")
                    continue
                if state is BufState.COPY_IN_FLIGHT:
                    # The rare extra stall: the buffer is being
                    # checkpointed right now; wait for that copy.
                    cow.stats.inflight_copy_waits += 1
                    yield cow.event_for(buf, "copy")
                    continue
                # NOT_STARTED: this operation performs the CoW.
                # Acquire the pool quota *before* announcing the
                # shadow: if the state were flipped first, the copy
                # engine could block on this shadow while the quota
                # it would release sits in buffers behind it.
                yield from cow.acquire_pool(gpu_index, buf.size)
                if cow.state_of(buf) is not BufState.NOT_STARTED:
                    # The engine (or another guard) got here while
                    # we waited for quota; re-dispatch on the new state.
                    cow.release_pool(gpu_index, buf.size)
                    continue
                cow.set_state(buf, BufState.SHADOW_IN_FLIGHT)
                cow.event_for(buf, "shadow")
                shadow = gpu.memory.alloc(
                    buf.size, tag=f"cow:{buf.tag or buf.id}",
                    data_size=buf.data_size,
                )
                yield engine.timeout(on_device_copy_time(buf.size, gpu.spec))
                shadow.data[:] = buf.data  # capture the t1 content
                cow.shadows[buf.id] = shadow
                cow.stats.cow_shadow_copies += 1
                cow.stats.cow_shadow_bytes += buf.size
                cow.set_state(buf, BufState.SHADOWED)
                # Ask the copy engine to drain this buffer first so
                # its shadow's pool quota frees quickly.
                cow.shadow_ready[gpu_index].append(buf)
                cow.fire_event(buf)
                obs.counter("cow/shadow-copies", gpu=gpu_index).inc()
                obs.counter("cow/shadow-bytes", gpu=gpu_index).inc(buf.size)
                break
        stalled = engine.now - t0
        cow.stats.cow_stall_time += stalled
        if stalled > 0:
            # The stall extent is only known here: record it
            # retroactively so the phase tree still sums correctly.
            obs.record("cow/guard-stall", t0, call=call.name, gpu=gpu_index)

    # -- completion: validator report, write tracking, session rules -------------
    def _complete(self, table: BufferTable, sets: SpeculatedSets,
                  validation: Optional[ValidationState],
                  restore: Optional[RestoreSession],
                  ckpt: Optional[CheckpointSession], log: bool,
                  call: ApiCall, result) -> None:
        now = self.engine.now
        history = self.write_history
        violations = validation.violations if validation is not None else []
        # The buffer (None for a wild write) of each WRITE violation.
        written: list[Optional[Buffer]] = []
        if violations:
            self.twins.record_violations(violations)
            for v in violations:
                if v.kind is not AccessKind.WRITE:
                    continue
                buf = table.resolve(v.addr)
                written.append(buf)
                if buf is not None:
                    # Validator-observed writes also feed the write-heat
                    # history (incremental checkpoints must never skip a
                    # buffer that a hidden-pointer write touched) and the
                    # hash cache, word-granular (8 bytes covers every
                    # store width in the ISA).
                    prev = history.get(buf.id)
                    history[buf.id] = (prev[1] if prev else _NAN, now)
                    off = v.addr - buf.addr
                    self.hash_cache.note_write(buf.id, off, off + 8)
        # note_write ignores buffers without an entry, so with no entry
        # at all (nothing sealed yet) it is skipped.
        hash_cache = self.hash_cache if self.hash_cache.entries else None
        for buf in sets.writes:
            prev = history.get(buf.id)
            history[buf.id] = (prev[1] if prev else _NAN, now)
            if hash_cache is not None:
                # Speculated writes are buffer-granular: the whole
                # materialized payload counts as dirty.
                hash_cache.note_write(buf.id, 0, buf.data_size)
        if log:
            # Logged at *execution* time: the CPU enqueues ahead, but the
            # Fig. 20 heatmap is about when accesses hit the GPU.
            self.access_log.append((now, call, sets))
        if restore is not None and violations and not restore.rolled_back:
            # The kernel touched state outside the speculated sets — it
            # may have observed a partially-restored buffer.
            restore.abort()
        if ckpt is None:
            return
        if ckpt.mode == "cow":
            for buf in written:
                ckpt.stats.violations_handled += 1
                if buf is None or ckpt.state_of(buf) in (
                    BufState.DONE, BufState.SHADOWED, BufState.NEW,
                ):
                    continue  # wild write, or content captured before it
                ckpt.abort(
                    f"mis-speculated write to uncheckpointed buffer "
                    f"{buf.tag or buf.id} by {call.name}"
                )
            return
        # recopy: a write completing against a buffer whose copy started
        # already makes it dirty — speculated writes, then validator-
        # reported ones (mis-speculation).
        for buf in sets.writes:
            if ckpt.state_of(buf) in (BufState.COPY_IN_FLIGHT, BufState.DONE):
                ckpt.mark_dirty(call.gpu_index, buf)
        for buf in written:
            ckpt.stats.violations_handled += 1
            if buf is not None and ckpt.state_of(buf) in (
                BufState.COPY_IN_FLIGHT, BufState.DONE,
            ):
                ckpt.mark_dirty(call.gpu_index, buf)

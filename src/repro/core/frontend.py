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
"""

from __future__ import annotations

from typing import Optional

from repro import obs, units
from repro.api.calls import ApiCall, ApiCategory, LaunchPlan
from repro.api.runtime import GpuProcess
from repro.core.session import BufState, CheckpointSession, RestoreSession, RestoreState
from repro.core.signatures import SignatureCache
from repro.core.speculation import SpeculatedSets, speculate_call
from repro.core.tracker import BufferTable
from repro.core.validation import TwinCache
from repro.errors import CheckpointError
from repro.gpu.cost_model import on_device_copy_time
from repro.gpu.interpreter import AccessKind
from repro.gpu.memory import Buffer
from repro.sim.engine import Engine
from repro.storage.hashcache import BufferHashCache

#: Frontend-to-backend call overhead when they live in separate
#: processes (IPC mode, required for the context pool — §3).
IPC_OVERHEAD = 5 * units.USEC

_KERNEL_CATEGORIES = (
    ApiCategory.OPAQUE_KERNEL,
    ApiCategory.LIB_COMPUTE,
    ApiCategory.COMM,
)


class PhosFrontend:
    """One process's interception state."""

    def __init__(self, engine: Engine, process: GpuProcess, mode: str = "lfc",
                 always_instrument: bool = False) -> None:
        if mode not in ("lfc", "ipc"):
            raise CheckpointError(f"unknown frontend mode {mode!r}")
        self.engine = engine
        self.process = process
        self.mode = mode
        self.tables: dict[int, BufferTable] = {
            i: BufferTable(i) for i in process.gpu_indices
        }
        self.signatures = SignatureCache()
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
        sets = speculate_call(call, table, self.signatures)
        guards = []
        completions = []
        if sets.writes:
            def heat_completion(call_, result, violations, _writes=sets.writes):
                now = self.engine.now
                history = self.write_history
                # note_write ignores buffers without an entry, so with
                # no entry at all (nothing sealed yet) it is skipped.
                hash_cache = self.hash_cache if self.hash_cache.entries else None
                for buf in _writes:
                    prev = history.get(buf.id)
                    last = prev[1] if prev is not None else float("nan")
                    history[buf.id] = (last, now)
                    if hash_cache is not None:
                        # Speculated writes are buffer-granular: the whole
                        # materialized payload counts as dirty.
                        hash_cache.note_write(buf.id, 0, buf.data_size)

            completions.append(heat_completion)
        if self.log_accesses:
            # Log at *execution* time: the CPU enqueues ahead, but the
            # Fig. 20 heatmap is about when accesses hit the GPU.
            def log_completion(call_, result, violations, _sets=sets):
                self.access_log.append((self.engine.now, call_, _sets))

            completions.append(log_completion)
        ckpt = self.ckpt_session
        restore = self.restore_session
        ckpt_active = (ckpt is not None and ckpt.covers_gpu(call.gpu_index)
                       and not ckpt.aborted)
        restore_active = (restore is not None and restore.covers_gpu(call.gpu_index)
                          and not restore.aborted)
        needs_twin = call.is_opaque and (
            ckpt_active or restore_active or self.always_instrument
        )
        if call.category in _KERNEL_CATEGORIES:
            if call.is_opaque:
                self.twins.observe_launch(call.program, instrumented=needs_twin)
            else:
                self.twins.stats.kernels_seen.add(call.name)
                self.twins.stats.launches_total += 1
        if needs_twin:
            check_reads = restore_active
            twin = self.twins.twin_for(call.program, check_reads=check_reads)
            plan.program = twin
            plan.validation = self.twins.make_validation(
                sets.write_ranges(), sets.read_ranges()
            )
        if restore_active:
            guards.append(self._restore_guard(restore, call, sets))
            completions.append(self._restore_completion(restore, call, sets))
        if ckpt_active:
            if ckpt.mode == "cow":
                if sets.writes:
                    guards.append(self._cow_guard(ckpt, call, sets))
                completions.append(self._cow_completion(ckpt, call, sets))
            else:
                completions.append(self._recopy_completion(ckpt, call, sets))
        if guards:
            plan.pre_exec = _compose_guards(guards)
        if completions or plan.validation is not None:
            validation = plan.validation

            def on_complete(call_, result, _completions=completions,
                            _validation=validation, _table=table):
                violations = _validation.violations if _validation is not None else []
                if violations:
                    self.twins.record_violations(violations)
                    # Validator-observed writes also feed the write-heat
                    # history (incremental checkpoints must never skip a
                    # buffer that a hidden-pointer write touched).
                    now = self.engine.now
                    for v in violations:
                        if v.kind is AccessKind.WRITE:
                            buf = _table.resolve(v.addr)
                            if buf is not None:
                                prev = self.write_history.get(buf.id)
                                last = prev[1] if prev else float("nan")
                                self.write_history[buf.id] = (last, now)
                                # Word-granular dirty note (8 bytes
                                # covers every store width in the ISA).
                                off = v.addr - buf.addr
                                self.hash_cache.note_write(buf.id, off, off + 8)
                for fn in _completions:
                    fn(call_, result, violations)

            plan.on_complete = on_complete
        return plan

    # -- CoW protocol pieces (§4.2) --------------------------------------------------
    def _cow_guard(self, session: CheckpointSession, call: ApiCall,
                   sets: SpeculatedSets):
        gpu = self.process.machine.gpu(call.gpu_index)
        engine = self.engine
        writes = list(sets.writes)

        def guard():
            t0 = engine.now
            for buf in writes:
                while True:
                    state = session.state_of(buf)
                    if state in (BufState.DONE, BufState.SHADOWED, BufState.NEW):
                        break
                    if state is BufState.SHADOW_IN_FLIGHT:
                        yield session.event_for(buf, "shadow")
                        continue
                    if state is BufState.COPY_IN_FLIGHT:
                        # The rare extra stall: the buffer is being
                        # checkpointed right now; wait for that copy.
                        session.stats.inflight_copy_waits += 1
                        yield session.event_for(buf, "copy")
                        continue
                    # NOT_STARTED: this operation performs the CoW.
                    # Acquire the pool quota *before* announcing the
                    # shadow: if the state were flipped first, the copy
                    # engine could block on this shadow while the quota
                    # it would release sits in buffers behind it.
                    yield from session.acquire_pool(call.gpu_index, buf.size)
                    if session.state_of(buf) is not BufState.NOT_STARTED:
                        # The engine (or another guard) got here while
                        # we waited for quota; re-dispatch on the new state.
                        session.release_pool(call.gpu_index, buf.size)
                        continue
                    session.set_state(buf, BufState.SHADOW_IN_FLIGHT)
                    session.event_for(buf, "shadow")
                    shadow = gpu.memory.alloc(
                        buf.size, tag=f"cow:{buf.tag or buf.id}",
                        data_size=buf.data_size,
                    )
                    yield engine.timeout(on_device_copy_time(buf.size, gpu.spec))
                    shadow.data[:] = buf.data  # capture the t1 content
                    session.shadows[buf.id] = shadow
                    session.stats.cow_shadow_copies += 1
                    session.stats.cow_shadow_bytes += buf.size
                    session.set_state(buf, BufState.SHADOWED)
                    # Ask the copy engine to drain this buffer first so
                    # its shadow's pool quota frees quickly.
                    session.shadow_ready[call.gpu_index].append(buf)
                    session.fire_event(buf)
                    obs.counter("cow/shadow-copies",
                                gpu=call.gpu_index).inc()
                    obs.counter("cow/shadow-bytes",
                                gpu=call.gpu_index).inc(buf.size)
                    break
            stalled = engine.now - t0
            session.stats.cow_stall_time += stalled
            if stalled > 0:
                # The stall extent is only known here: record it
                # retroactively so the phase tree still sums correctly.
                obs.record("cow/guard-stall", t0, call=call.name,
                           gpu=call.gpu_index)

        return guard

    def _cow_completion(self, session: CheckpointSession, call: ApiCall,
                        sets: SpeculatedSets):
        table = self.tables[call.gpu_index]

        def on_complete(call_, result, violations) -> None:
            for v in violations:
                if v.kind is not AccessKind.WRITE:
                    continue
                session.stats.violations_handled += 1
                buf = table.resolve(v.addr)
                if buf is None:
                    continue  # wild write outside any buffer: not our state
                if session.state_of(buf) in (
                    BufState.DONE, BufState.SHADOWED, BufState.NEW,
                ):
                    continue  # content was captured before this write
                session.abort(
                    f"mis-speculated write to uncheckpointed buffer "
                    f"{buf.tag or buf.id} by {call_.name}"
                )

        return on_complete

    # -- recopy protocol pieces (§4.3) ---------------------------------------------
    def _recopy_completion(self, session: CheckpointSession, call: ApiCall,
                           sets: SpeculatedSets):
        table = self.tables[call.gpu_index]
        writes = list(sets.writes)

        def on_complete(call_, result, violations) -> None:
            # Speculated writes: dirty if their copy started already.
            for buf in writes:
                if session.state_of(buf) in (
                    BufState.COPY_IN_FLIGHT, BufState.DONE,
                ):
                    session.mark_dirty(call_.gpu_index, buf)
            # Validator-reported writes (mis-speculation): same rule.
            for v in violations:
                if v.kind is not AccessKind.WRITE:
                    continue
                session.stats.violations_handled += 1
                buf = table.resolve(v.addr)
                if buf is None:
                    continue
                if session.state_of(buf) in (
                    BufState.COPY_IN_FLIGHT, BufState.DONE,
                ):
                    session.mark_dirty(call_.gpu_index, buf)

        return on_complete

    # -- restore protocol pieces (§6) -------------------------------------------------
    def _restore_guard(self, session: RestoreSession, call: ApiCall,
                       sets: SpeculatedSets):
        engine = self.engine
        touched = sets.touched()
        gpu_index = call.gpu_index

        def guard():
            t0 = engine.now
            for buf in touched:
                while session.state_of(buf) is not RestoreState.RESTORED:
                    if session.aborted:
                        return
                    session.request(gpu_index, buf)
                    yield session.event_for(buf)
            stalled = engine.now - t0
            session.stall_time += stalled
            if stalled > 0:
                obs.record("restore/guard-stall", t0, call=call.name,
                           gpu=gpu_index)

        return guard

    def _restore_completion(self, session: RestoreSession, call: ApiCall,
                            sets: SpeculatedSets):
        def on_complete(call_, result, violations) -> None:
            if violations and not session.rolled_back:
                # The kernel touched state outside the speculated sets —
                # it may have observed a partially-restored buffer.
                session.abort()

        return on_complete


def _compose_guards(guards):
    def pre_exec():
        for g in guards:
            yield from g()

    return pre_exec

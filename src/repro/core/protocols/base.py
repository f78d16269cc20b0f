"""The protocol engine: phase-structured checkpoint/restore protocols.

Every C/R protocol in the paper shares one skeleton — admit the
request, quiesce the process, plan the copy set, move data (usually
concurrently with execution), validate that speculation held, then
commit the image or abort to the stop-the-world fallback.  This module
factors that skeleton out:

* :class:`ProtocolConfig` — one typed, validated bag of tunables that
  replaces the sprawling per-protocol kwarg lists (``coordinated``,
  ``prioritized``, ``chunk_bytes``, ``precopy_rounds``, ``parent``,
  ``keep_stopped``, …).  Universal value constraints are checked at
  construction; per-protocol *combination* constraints are checked when
  a protocol is instantiated (each protocol declares the fields it
  supports — anything else raises instead of being silently ignored).
* :class:`ProtocolContext` — the mutable per-run state threaded through
  the phases (engine, config, image, session, quiesce timestamps, …).
* :class:`Protocol` — the base class.  Subclasses override the phase
  hooks (``phase_admit``, ``phase_plan``, ``phase_transfer``,
  ``phase_validate``, ``phase_commit``/``phase_abort``); the drivers
  :meth:`Protocol.checkpoint` and :meth:`Protocol.restore` sequence
  them inside the protocol's obs span and hand each run one
  config-bound :class:`~repro.core.engine.DataMover`.

Concrete protocols register themselves by name in
:mod:`repro.core.protocols.registry`; the daemon, SDK, CLI and tasks all
dispatch through that registry.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass, field
from typing import Any, ClassVar, Optional

from repro import chaos, obs
from repro.core.engine import DataMover
from repro.core.quiesce import quiesce, resume
from repro.core.session import COW_POOL_BYTES, BufState, CheckpointSession
from repro.errors import CheckpointError, ReproError, SimulationError
from repro.storage.delta import (
    CHUNK_BYTES,
    dirty_chunk_span_bytes,
    materialize,
    seal_delta,
)

#: The declarative phase sequence of a checkpoint protocol run.
CHECKPOINT_PHASES = ("admit", "quiesce", "plan", "transfer", "validate",
                     "commit/abort")

#: Restore protocols admit (environment setup), plan the load set, move
#: data, and commit the runnable process; validation happens *after*
#: commit, live, via the restore session's rollback watch.
RESTORE_PHASES = ("admit", "plan", "transfer", "commit")

#: Retry tunables every hardened protocol supports (unioned into each
#: concrete protocol's ``supports`` so ``phos protocols`` lists them).
RETRY_SUPPORTS = frozenset({"max_retries"})


@dataclass(frozen=True)
class ProtocolConfig:
    """Typed tunables shared by every protocol.

    Only the fields a protocol lists in :attr:`Protocol.supports` may
    deviate from their defaults for that protocol; the rest are
    rejected at protocol construction (see
    :meth:`Protocol.validate_config`).
    """

    #: §5 coordination: complete the CPU dump before GPU copies start
    #: (and, for CoW, copy write-hot buffers first).
    coordinated: bool = True
    #: §5 prioritized data path: preemptible 4 MB chunking so
    #: application DMA preempts the bulk copy.
    prioritized: bool = True
    #: Override the 4 MB checkpoint chunk (None = default).
    chunk_bytes: Optional[int] = None
    #: On-device CoW shadow pool quota (§4.2).
    cow_pool_bytes: int = COW_POOL_BYTES
    #: Leave the process quiesced after commit (live migration resumes
    #: it on the target node instead).
    keep_stopped: bool = False
    #: Scale the per-GPU link bandwidth (RDMA-limited migration).
    bandwidth_scale: float = 1.0
    #: Iterative concurrent pre-copy rounds before the final quiesce
    #: (recopy's §4.3 iterative extension).
    precopy_rounds: int = 0
    #: Parent image: a ``cow``, ``recopy`` or ``incremental`` run then
    #: skips the buffers the parent holds and commits a
    #: :class:`~repro.storage.delta.DeltaImage` chained onto it, cut
    #: where the protocol cuts (the one parent path, below).
    parent: Optional[Any] = None
    #: Cost model of the system taking the checkpoint (stop-the-world
    #: baselines; None = PHOS itself).
    baseline: Optional[Any] = None
    #: Restore-side: mark all buffers resident immediately (GPU-direct
    #: migration already placed the data in device memory).
    skip_data_copy: bool = False
    #: Transient-failure budget: how many times a failed DMA move or
    #: context creation is retried before the run aborts.
    max_retries: int = 2
    #: Content-address chunk of the delta image format (None = the
    #: :data:`repro.storage.delta.CHUNK_BYTES` default).  Power of two;
    #: distinct from ``chunk_bytes``, which is the DMA preemption chunk.
    content_chunk_bytes: Optional[int] = None
    #: ``continuous`` protocol: virtual seconds between round commits.
    interval: float = 0.0
    #: ``continuous`` protocol: incremental rounds to stream.
    rounds: int = 2
    #: ``continuous`` protocol: write-behind tier stack override (a
    #: sequence of :class:`~repro.storage.media.Medium`; index 0 must be
    #: the DRAM-tier medium checkpoints commit to).  None = the default
    #: DRAM → SSD → remote stack.
    drain_tiers: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.precopy_rounds < 0:
            raise CheckpointError(
                f"precopy_rounds must be >= 0, got {self.precopy_rounds}"
            )
        if self.chunk_bytes is not None and self.chunk_bytes <= 0:
            raise CheckpointError(
                f"chunk_bytes must be positive, got {self.chunk_bytes}"
            )
        if self.cow_pool_bytes <= 0:
            raise CheckpointError(
                f"cow_pool_bytes must be positive, got {self.cow_pool_bytes}"
            )
        if self.bandwidth_scale <= 0:
            raise CheckpointError(
                f"bandwidth_scale must be positive, got {self.bandwidth_scale}"
            )
        if self.max_retries < 0:
            raise CheckpointError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        ccb = self.content_chunk_bytes
        if ccb is not None and (ccb <= 0 or ccb & (ccb - 1)):
            raise CheckpointError(
                f"content_chunk_bytes must be a positive power of two, "
                f"got {ccb}"
            )
        if self.interval < 0:
            raise CheckpointError(
                f"interval must be >= 0, got {self.interval}"
            )
        if self.rounds < 1:
            raise CheckpointError(f"rounds must be >= 1, got {self.rounds}")

    def tuned(self) -> dict[str, Any]:
        """The fields that deviate from their defaults."""
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is not f.default and value != f.default:
                out[f.name] = value
        return out


@dataclass
class ProtocolContext:
    """Mutable per-run state threaded through a protocol's phases."""

    engine: Any
    config: ProtocolConfig
    medium: Any
    criu: Any
    name: str = ""
    # checkpoint side
    process: Any = None
    frontend: Any = None
    image: Any = None
    session: Any = None
    #: Virtual time of the (first) quiesce point — CoW's cut time t1.
    t_quiesce: Optional[float] = None
    #: Virtual time the image represents, when it differs from
    #: ``t_quiesce`` (recopy's end time t2).
    t_image: Optional[float] = None
    #: ``config.parent`` materialized once by the plan phase, and the
    #: ids per GPU of the buffers the run took from it uncopied.
    parent_full: Any = None
    reused: Optional[dict] = None
    # restore side
    machine: Any = None
    gpu_indices: Any = None
    context_pool: Any = None
    #: Baseline cost model resolved for this run (stop-the-world).
    baseline: Any = None
    #: Scratch space for protocol-specific state.
    extras: dict = field(default_factory=dict)
    #: Every simulation process this run spawned (copiers, context
    #: creators, watches).  A failed run interrupts the untriggered
    #: ones so no orphaned generator keeps holding DMA engines or
    #: priority-resource slots; ``Phos.kill`` cancels them too.
    workers: list = field(default_factory=list)
    #: The run's data movers, sharing ``workers`` so the streams they
    #: spawn are cancellable on teardown too.
    mover: DataMover = field(init=False)

    def __post_init__(self) -> None:
        self.mover = DataMover(self.engine, self.config, self.workers)

    def spawn_worker(self, gen, name: str):
        """Spawn a child simulation process and track it for teardown."""
        return self.mover.spawn(gen, name)


class Protocol:
    """Base class: a named, phase-structured C/R protocol.

    Subclasses set the class attributes and override the phase hooks.
    A phase hook may be a plain method (returning a value or None) or a
    generator (when it must yield simulation events); the drivers
    handle both.
    """

    #: Registry name (also the obs span suffix and counter label).
    name: ClassVar[str] = ""
    #: "checkpoint" or "restore" — protocols are namespaced per kind.
    kind: ClassVar[str] = "checkpoint"
    #: Alternative registry names that resolve to this protocol.
    aliases: ClassVar[tuple[str, ...]] = ()
    #: ProtocolConfig fields this protocol honours; any other field set
    #: away from its default is a construction-time error.
    supports: ClassVar[frozenset] = frozenset()
    #: Whether the protocol requires an attached PHOS frontend
    #: (speculation-based protocols do; stop-the-world and the
    #: hardware-dirty-bit hypothetical do not).
    needs_frontend: ClassVar[bool] = False
    #: :class:`~repro.core.session.CheckpointSession` mode the plan
    #: phase opens ("cow" / "recopy"); None = the protocol runs without
    #: a session.
    session_mode: ClassVar[Optional[str]] = None
    #: Seal a :class:`~repro.storage.delta.DeltaImage` even without a
    #: ``parent`` (a self-contained chain root); with a parent, every
    #: protocol that supports one seals a delta.
    starts_chain: ClassVar[bool] = False
    #: A streaming run commits a chain of images and keeps the
    #: committed prefix when a fault ends it early (prefix-atomic, not
    #: abort-atomic); the chaos matrix judges it by that contract.
    streaming: ClassVar[bool] = False
    #: One-line description for ``phos protocols`` and the docs.
    summary: ClassVar[str] = ""

    def __init__(self, config: Optional[ProtocolConfig] = None) -> None:
        self.config = config if config is not None else ProtocolConfig()
        self.validate_config(self.config)
        #: The context of the most recent run started from this
        #: instance (protocol-specific results live in its ``extras``).
        self.last_context: Optional[ProtocolContext] = None

    # -- config validation ---------------------------------------------------------
    def validate_config(self, config: ProtocolConfig) -> None:
        """Reject config fields this protocol does not support."""
        unsupported = sorted(set(config.tuned()) - set(self.supports))
        if unsupported:
            supported = ", ".join(sorted(self.supports)) or "(none)"
            raise CheckpointError(
                f"protocol {self.name!r} does not support config field(s) "
                f"{', '.join(unsupported)}; supported tunables: {supported}"
            )

    @classmethod
    def phases(cls) -> tuple[str, ...]:
        return CHECKPOINT_PHASES if cls.kind == "checkpoint" else RESTORE_PHASES

    # -- drivers -------------------------------------------------------------------
    def checkpoint(self, engine, *, process, medium, criu, frontend=None,
                   name: str = ""):
        """Start a checkpoint run; returns the phase-driver generator.

        The generator's result is ``(image, session_or_None)``.
        Validation that can fail fast (wrong kind, missing frontend)
        happens here, at call time, before anything is spawned.
        """
        if self.kind != "checkpoint":
            raise CheckpointError(
                f"protocol {self.name!r} is a {self.kind} protocol, "
                "not a checkpoint protocol"
            )
        if self.needs_frontend and frontend is None:
            raise CheckpointError(
                f"process {process.name!r} is not attached to PHOS "
                f"(protocol {self.name!r} needs the speculation frontend)"
            )
        ctx = ProtocolContext(
            engine=engine, config=self.config, medium=medium, criu=criu,
            name=name, process=process, frontend=frontend,
        )
        self.last_context = ctx
        return self._run_checkpoint(ctx)

    def restore(self, engine, image, machine, gpu_indices, medium, criu, *,
                name: str = "restored", context_pool=None):
        """Start a restore run; returns the phase-driver generator.

        The generator's result is ``(process, frontend_or_None,
        session_or_None)``.
        """
        if self.kind != "restore":
            raise CheckpointError(
                f"protocol {self.name!r} is a {self.kind} protocol, "
                "not a restore protocol"
            )
        ctx = ProtocolContext(
            engine=engine, config=self.config, medium=medium, criu=criu,
            name=name, image=image, machine=machine,
            gpu_indices=gpu_indices, context_pool=context_pool,
        )
        self.last_context = ctx
        return self._run_restore(ctx)

    def _run_checkpoint(self, ctx: ProtocolContext):
        if self.config.parent is not None:
            self.config.parent.require_finalized()
        self.prepare(ctx)
        catalog = ctx.medium.images
        catalog.stage(ctx.image)
        committed = False
        try:
            with obs.span(f"checkpoint/{self.name}", **self.span_attrs(ctx)):
                yield from self._phase(self.phase_admit, ctx, "admit")
                yield from self._phase(self.phase_quiesce, ctx, "quiesce")
                yield from self._phase(self.phase_plan, ctx, "plan")
                yield from self._phase(self.phase_transfer, ctx, "transfer")
                self._chaos_enter("validate", ctx)
                if not self.phase_validate(ctx):
                    obs.counter("protocol/aborts", protocol=self.name,
                                outcome="mis-speculation").inc()
                    result = yield from self._phase(
                        self.phase_abort, ctx, "abort"
                    )
                    return result
                result = yield from self._phase(self.phase_commit, ctx,
                                                "commit")
                committed = True
            return result
        except BaseException as err:
            self._recover_failed_checkpoint(ctx, err)
            raise
        finally:
            if committed:
                catalog.commit(ctx.image)
            else:
                catalog.discard(
                    ctx.image,
                    reason=f"{self.name} checkpoint did not commit",
                )

    def _run_restore(self, ctx: ProtocolContext):
        self.prepare(ctx)
        try:
            yield from self._phase(self.phase_admit, ctx, "admit")
            with obs.span(f"restore/{self.name}", **self.span_attrs(ctx)):
                yield from self._phase(self.phase_plan, ctx, "plan")
                yield from self._phase(self.phase_transfer, ctx, "transfer")
            result = yield from self._phase(self.phase_commit, ctx, "commit")
            return result
        except BaseException as err:
            self._recover_failed_restore(ctx, err)
            raise

    def _phase(self, method, ctx, phase: str):
        """Run one phase hook, plain or generator, returning its result."""
        self._chaos_enter(phase, ctx)
        out = method(ctx)
        if inspect.isgenerator(out):
            out = yield from out
        return out

    def _chaos_enter(self, phase: str, ctx: ProtocolContext) -> None:
        """Report a phase entry to an armed fault injector (if any)."""
        if chaos._injector is not None:
            chaos._injector.enter_phase(self.name, phase, ctx)

    # -- crash recovery ------------------------------------------------------------
    def _recover_failed_checkpoint(self, ctx: ProtocolContext,
                                   err: BaseException) -> None:
        """Tear a dying checkpoint run down to a clean, resumed state.

        Runs synchronously from the driver's except clause whatever
        phase the failure hit: cancels in-flight copier processes,
        marks the session aborted (so already-resumed copier loops exit
        at their next buffer boundary), detaches the frontend session
        if this run still owns it, frees CoW shadows and deferred
        frees, and reopens the process's API gate.  Every step is
        idempotent — phase-level cleanup (e.g. CoW's transfer
        ``finally``) may already have run.
        """
        obs.counter("protocol/aborts", protocol=self.name,
                    outcome="crash").inc()
        self._cancel_workers(ctx, err)
        session = ctx.session
        if session is not None:
            session.abort(f"protocol-failure: {err}")
        frontend = ctx.frontend
        if (frontend is not None and session is not None
                and frontend.ckpt_session is session):
            frontend.end_checkpoint()
        if session is not None and ctx.process is not None:
            self._release_session_memory(session, ctx.process)
        if ctx.process is not None:
            resume([ctx.process])

    def _recover_failed_restore(self, ctx: ProtocolContext,
                                err: BaseException) -> None:
        """Tear a dying restore run down cleanly.

        The half-built process is abandoned: background loaders and
        watches are cancelled, the frontend's restore session is
        detached, and the partially-restored allocations are freed so
        the target machine's memory is not leaked.
        """
        obs.counter("protocol/aborts", protocol=self.name,
                    outcome="crash").inc()
        self._cancel_workers(ctx, err)
        session = ctx.session
        if session is not None:
            session.aborted = True
        frontend = ctx.frontend
        if (frontend is not None and session is not None
                and frontend.restore_session is session):
            frontend.end_restore()
        process = ctx.process
        if process is not None and getattr(process, "runtime", None) is not None:
            for gpu_index, bufs in process.runtime.allocations.items():
                gpu = process.machine.gpu(gpu_index)
                for buf in list(bufs):
                    try:
                        gpu.memory.free(buf)
                    except ReproError:
                        pass  # already freed by phase-level cleanup
                bufs.clear()

    @staticmethod
    def _cancel_workers(ctx: ProtocolContext, err: BaseException) -> None:
        """Interrupt every still-running child this run spawned."""
        for worker in ctx.workers:
            if not worker.triggered:
                try:
                    worker.interrupt(CheckpointError(
                        f"protocol run torn down: {err}"
                    ))
                except SimulationError:  # pragma: no cover - settle race
                    pass

    @staticmethod
    def _release_session_memory(session, process) -> None:
        """Free CoW shadows and deferred frees a dying run left behind.

        Mirrors the CoW transfer phase's own cleanup but tolerates
        partial prior cleanup and a killed process (whose allocations
        ``Phos.kill`` already freed): every free is individually
        guarded, and pool quota is returned exactly once per shadow
        because the shadow is popped before its free is attempted.
        """
        for gpu_index in list(session.plan):
            gpu = process.machine.gpu(gpu_index)
            by_id = {b.id: b for b in session.plan[gpu_index]}
            for buf_id in [bid for bid in list(session.shadows)
                           if bid in by_id]:
                shadow = session.shadows.pop(buf_id)
                try:
                    gpu.memory.free(shadow)
                except ReproError:
                    pass
                session.release_pool(gpu_index, shadow.size)
            for buf in session.deferred_frees.get(gpu_index, ()):
                try:
                    gpu.memory.free(buf)
                except ReproError:
                    pass
            session.deferred_frees[gpu_index] = []

    # -- hooks ---------------------------------------------------------------------
    def prepare(self, ctx: ProtocolContext) -> None:
        """Pre-span setup (create the image, resolve the baseline)."""

    def span_attrs(self, ctx: ProtocolContext) -> dict:
        """Attributes for the run's ``checkpoint/<name>`` obs span."""
        attrs = {"image": ctx.image.name} if ctx.image is not None else {}
        # Per-machine worlds label every protocol span with its home,
        # so per-machine runs stay attributable in one report.
        attrs.update(ctx.engine._obs_labels)
        return attrs

    def phase_admit(self, ctx: ProtocolContext):
        """Gate the run: speculating checkpoints wait out a restore."""
        # A checkpoint of a partially-restored process would capture
        # not-yet-loaded buffers; wait for any in-flight restore first.
        if self.needs_frontend and ctx.frontend.restore_session is not None:
            yield ctx.frontend.restore_session.done

    def phase_quiesce(self, ctx: ProtocolContext):
        """Stop the process; records the cut time ``ctx.t_quiesce``."""
        yield from quiesce(ctx.engine, [ctx.process])
        ctx.t_quiesce = ctx.engine.now

    def phase_plan(self, ctx: ProtocolContext):
        """Record metadata; session protocols open the session
        (``session_mode``), begin tracking, skip what the parent holds
        (:meth:`inherit_parent`), and resume."""
        record_modules(ctx.image, ctx.process)
        if self.session_mode is None:
            return
        ctx.session = CheckpointSession(
            ctx.engine, self.session_mode, ctx.image, self.config.cow_pool_bytes
        )
        self.begin_tracking(ctx)
        self.inherit_parent(ctx)
        resume([ctx.process])

    def begin_tracking(self, ctx: ProtocolContext) -> None:
        """Plan-phase hook (quiesced): fill the session's plan and start
        write tracking — by default the frontend's speculation session."""
        ctx.frontend.begin_checkpoint(
            ctx.session, hot_order=ctx.mover.copy_order(self.session_mode)
        )

    # -- the parent path (one copy for the t1 and the t2 cut) ----------------------
    def inherit_parent(self, ctx: ProtocolContext) -> None:
        """Plan phase (quiesced, session open): materialize
        ``config.parent`` once and mark DONE every buffer it holds.

        A buffer is skipped only when its layout matches the parent's
        record and the frontend has not seen it written since the
        parent's checkpoint time.  Soundness rests on the write-heat
        history, which validated speculation keeps honest inside
        checkpoint windows (and ``always_instrument`` extends to all
        execution); validator-reported hidden writes update the
        history, so such buffers are never skipped.  A write landing
        after this marking is after t1, so a CoW image ignores it; in
        recopy mode it re-dirties the buffer (DONE buffers stay
        dirty-tracked) and the final pass recaptures it.
        """
        parent = self.config.parent
        if parent is None:
            return
        # Host-side work (the chunk index lives in daemon DRAM): no
        # virtual time.  A broken chain fails the run here, before any
        # data moves.
        parent_full = ctx.parent_full = materialize(
            parent, resolve=ctx.medium.images.lookup)
        session, history = ctx.session, ctx.frontend.write_history
        cutoff = parent.checkpoint_time
        ctx.reused = {}
        for gpu_index, plan in session.plan.items():
            parent_records = parent_full.gpu_buffers.get(gpu_index, {})
            ids = ctx.reused[gpu_index] = set()
            for buf in plan:
                record = parent_records.get(buf.id)
                if (record is None or record.addr != buf.addr
                        or record.size != buf.size):
                    continue  # layout changed: full capture for this buffer
                written = history.get(buf.id)
                if written is not None and written[1] > cutoff:
                    continue  # written since the parent: must be re-captured
                session.set_state(buf, BufState.DONE)
                session.stats.bytes_skipped_incremental += buf.size
                ids.add(buf.id)

    def copy_hooks(self, ctx: ProtocolContext):
        """``(cpu_dump, sizer)`` overrides for the movers; ``(None,
        None)`` — the session mode's CPU dump, whole-buffer moves —
        without a parent.

        With one, a captured buffer ships only the chunk-aligned spans
        of its pending dirty ranges (validated by an on-device hash scan
        at HBM bandwidth — see ``DataMover._ship``) whenever the hash
        cache still tracks the parent's epoch; any layout change or
        epoch mismatch moves the full buffer.  Pending ranges hold every
        write since the parent, so the extent covers either cut.  The
        CPU dump is the cut's: a t2 image dumps only the pages that
        differ from the parent's (``dump_tracked`` given the parent's
        pages, dirty-tracked for the recopy pass), while a t1 image
        keeps the CoW dump and :meth:`seal_chain` drops the pages equal
        to the parent's.
        """
        parent_full = ctx.parent_full
        if parent_full is None:
            return None, None
        parent_id = self.config.parent.id
        cpu_dump = None
        if self.session_mode == "recopy":
            def cpu_dump(host, image, medium):
                return ctx.criu.dump_tracked(host, image, medium,
                                             parent_full.cpu_pages, parent_id)
        cache = ctx.frontend.hash_cache
        cb = self.config.content_chunk_bytes or CHUNK_BYTES

        def sizer(gpu_index, buf):
            prec = parent_full.gpu_buffers.get(gpu_index, {}).get(buf.id)
            if (prec is None or prec.addr != buf.addr
                    or prec.size != buf.size
                    or len(prec.data) != buf.data_size):
                return None
            pending = cache.dirty_extent(
                buf.id, parent_id=parent_id, addr=buf.addr, size=buf.size,
                data_len=buf.data_size,
            )
            if pending is None:
                return None
            return min(buf.size,
                       dirty_chunk_span_bytes(pending, buf.data_size, cb))

        return cpu_dump, sizer

    def seal_chain(self, ctx: ProtocolContext) -> None:
        """Commit phase: with ``config.parent`` (or :attr:`starts_chain`)
        replace the run's capture with the
        :class:`~repro.storage.delta.DeltaImage` that stores it as chunk
        tables against the parent; otherwise keep the full capture.

        The cut decides what the seal may assume.  Buffers freed inside
        the window still exist at t1, so only a t2 seal drops
        ``session.freed_ids``.  And only a t2 commit runs quiesced: a
        CoW process has been writing since t1, so its seal looks the
        hash cache up but never promotes it (that would clear the
        pending writes made between t1 and commit).
        """
        parent = self.config.parent
        if parent is None and not self.starts_chain:
            return
        t2 = self.session_mode == "recopy"
        ctx.image = seal_delta(
            ctx.image, parent, ctx.parent_full, reused=ctx.reused,
            freed=ctx.session.freed_ids if t2 else None,
            cache=ctx.frontend.hash_cache, promote=t2,
            chunk_bytes=self.config.content_chunk_bytes or CHUNK_BYTES)

    def phase_transfer(self, ctx: ProtocolContext):
        """Move the data (usually concurrently with execution)."""

    def phase_validate(self, ctx: ProtocolContext) -> bool:
        """Did speculation hold?  False routes to :meth:`phase_abort`."""
        return True

    def phase_commit(self, ctx: ProtocolContext):
        """Seal and finalize the image at its cut time (``t_image``,
        else the quiesce point) and resume unless ``keep_stopped``."""
        self.seal_chain(ctx)
        ctx.image.finalize(
            ctx.t_quiesce if ctx.t_image is None else ctx.t_image
        )
        if not self.config.keep_stopped:
            resume([ctx.process])
        return ctx.image, ctx.session

    def phase_abort(self, ctx: ProtocolContext):
        """Mis-speculation recovery (only protocols that can abort)."""
        raise CheckpointError(
            f"protocol {self.name!r} has no abort path"
        )  # pragma: no cover - guarded by phase_validate


def record_modules(image, process) -> None:
    """Record per-GPU module lists and context metadata in the image.

    Shared by every checkpoint protocol's plan phase.
    """
    for gpu_index, ctx in process.contexts.items():
        image.gpu_modules[gpu_index] = sorted(ctx.loaded_modules)
    image.context_meta = {
        "gpu_indices": list(process.gpu_indices),
        "cpu_pages": process.host.memory.n_pages,
    }

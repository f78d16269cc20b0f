"""The PHOS OS service (§3): the backend that orchestrates C/R.

:class:`Phos` owns the CRIU engine, the checkpoint media and the
context pool; it attaches frontends to processes and exposes the
high-level operations the command-line tool and SDK call (their phases
land in whichever :mod:`repro.obs` span tree is recording):

* ``checkpoint(process, mode=...)`` — any checkpoint protocol in the
  registry (``cow``, ``recopy``, ``stop-world``, ``hw-dirty``),
  spawned as a background simulation process (asynchronous, like the
  SDK call of §A.2);
* ``checkpoint_consistent(processes)`` — multi-process fault-tolerance
  checkpoint: one global quiesce, then per-process CoW (§7);
* ``restore(image, ...)`` — any restore protocol in the registry
  (``concurrent`` with pooled contexts, or ``stop-world`` for the
  baselines / fallback).

Dispatch goes through :mod:`repro.core.protocols.registry`; tunables
travel as a typed :class:`~repro.core.protocols.base.ProtocolConfig`.
"""

from __future__ import annotations

import logging
from typing import Iterable, Optional

from repro import obs
from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.core.context_pool import ContextPool
from repro.core.frontend import PhosFrontend
from repro.core.protocols import registry
from repro.core.protocols.base import ProtocolConfig
from repro.core.quiesce import quiesce
from repro.cpu.criu import CriuEngine
from repro.errors import CheckpointError, InvalidValueError, ReproError, SimulationError
from repro.sim.engine import Engine, Process
from repro.storage.image import CheckpointImage
from repro.storage.media import Medium

logger = logging.getLogger("repro.phos")


def collect_cut(handles):
    """Generator: wait out one consistent cut, all or nothing.

    ``handles`` lists the cut's CoW runs as ``(process, medium, handle)``.
    Every run is awaited individually (``all_of`` fails fast and would
    leave siblings unaccounted).  A run that raised *or* whose session
    aborted (its image is then a stop-the-world retry cut at a later
    time) fails the cut: a partial or skewed set is not a consistent
    cut and must never be restorable, so every image of it — the retry
    image included — is revoked through its medium's catalog and a
    :class:`CheckpointError` naming the failed process is raised.
    Returns the ``(image, session)`` pairs in ``handles`` order.
    """
    failures = []
    for process, _medium, handle in handles:
        try:
            _image, session = yield handle
        except ReproError as err:
            failures.append((process, err))
        else:
            if session.aborted:
                failures.append((process, CheckpointError(
                    f"checkpoint aborted: {session.abort_reason}")))
    if failures:
        for _process, medium, handle in handles:
            if handle.ok:
                medium.images.revoke(
                    handle.value[0], reason="sibling process failed its "
                                            "consistent checkpoint")
        failed_names = ", ".join(p.name for p, _err in failures)
        raise CheckpointError(
            f"consistent checkpoint failed for process(es) "
            f"{failed_names}: {failures[0][1]}"
        ) from failures[0][1]
    return [handle.value for _process, _medium, handle in handles]


class Phos:
    """The PHOS service on one machine."""

    def __init__(self, engine: Engine, machine: Machine,
                 medium: Optional[Medium] = None,
                 use_context_pool: bool = True,
                 contexts_per_gpu: int = 2) -> None:
        if engine is not machine.engine:
            raise InvalidValueError(
                f"PHOS on {machine.name!r} must run on the machine's own "
                f"engine: got engine {engine.name!r}, machine is "
                f"homed in {machine.engine.name!r}.  Remote machines are "
                "driven through DomainChannels, not a shared daemon."
            )
        self.engine = engine
        self.machine = machine
        self.medium = medium or machine.dram
        self.criu = CriuEngine(engine)
        self.pool: Optional[ContextPool] = (
            ContextPool(engine, machine, contexts_per_gpu=contexts_per_gpu)
            if use_context_pool else None
        )
        self.frontends: dict[int, PhosFrontend] = {}
        #: In-flight protocol runs per process id: ``(handle, protocol)``
        #: pairs.  ``kill`` tears these down instead of leaking copier
        #: processes that keep holding DMA engines and writing into a
        #: dead process's image.  ``handle`` is None for runs whose
        #: driver already returned but whose background workers (restore
        #: loaders, watches) are still live.
        self._inflight: dict[int, list] = {}

    # -- service boot ------------------------------------------------------------
    def boot(self):
        """Generator: daemon startup — pre-fill the context pool."""
        if self.pool is not None:
            yield from self.pool.prefill()

    # -- process attachment ---------------------------------------------------------
    def attach(self, process: GpuProcess,
               always_instrument: bool = False) -> PhosFrontend:
        """Install the PHOS (in-process, ``lfc``) frontend into a process's
        GPU runtime."""
        frontend = PhosFrontend(self.engine, process,
                                always_instrument=always_instrument)
        process.runtime.interceptor = frontend
        self.frontends[process.id] = frontend
        return frontend

    def frontend_of(self, process: GpuProcess) -> PhosFrontend:
        frontend = self.frontends.get(process.id)
        if frontend is None:
            raise CheckpointError(
                f"process {process.name!r} is not attached to PHOS"
            )
        return frontend

    # -- checkpoint ----------------------------------------------------------------
    def checkpoint(self, process: GpuProcess, mode: str = "cow",
                   name: str = "", medium: Optional[Medium] = None,
                   config: Optional[ProtocolConfig] = None) -> Process:
        """Start a checkpoint; returns the (awaitable) background process.

        ``mode`` is a registry name or alias (``cow``, ``recopy``,
        ``stop-world``, ``hw-dirty``, ``incremental``); unknown names
        raise :class:`CheckpointError` listing the registered protocols.
        Tunables travel as a :class:`ProtocolConfig` (``config=``);
        combinations a protocol does not support are rejected eagerly.

        The result of the returned process is ``(image, session)``
        (``session`` is None for protocols without a speculation
        session).  ``config.parent`` makes the checkpoint incremental in
        ``cow``, ``recopy`` and ``incremental`` alike: buffers unwritten
        since the parent are skipped and the result is a
        chunk-deduplicated :class:`~repro.storage.delta.DeltaImage` cut
        where the protocol cuts (t1 for ``cow``, t2 otherwise);
        ``incremental`` seals one as a chain root even without a parent.
        """
        protocol = registry.create(mode, config=config)
        frontend = (self.frontend_of(process) if protocol.needs_frontend
                    else self.frontends.get(process.id))
        medium = medium or self.medium
        gen = protocol.checkpoint(
            self.engine, process=process, frontend=frontend, medium=medium,
            criu=self.criu, name=name,
        )
        logger.info("checkpoint requested: process=%s mode=%s medium=%s t=%g",
                    process.name, protocol.name, medium.name, self.engine.now)
        obs.counter("phos/checkpoints", mode=protocol.name,
                    **self.engine._obs_labels).inc()
        handle = self.engine.spawn(gen, name=f"phos-ckpt-{process.name}")
        handle.add_callback(self._log_checkpoint_done)
        self._register_inflight(process, handle, protocol)
        return handle

    def _register_inflight(self, process: GpuProcess, handle,
                           protocol) -> None:
        """Track a protocol run so ``kill`` can cancel it."""
        entries = self._inflight.setdefault(process.id, [])
        entry = (handle, protocol)
        entries.append(entry)
        if handle is None:
            return

        def _done(_event, pid=process.id, entry=entry) -> None:
            remaining = self._inflight.get(pid)
            if remaining and entry in remaining:
                remaining.remove(entry)
                if not remaining:
                    self._inflight.pop(pid, None)

        handle.add_callback(_done)

    def _log_checkpoint_done(self, event) -> None:
        if not event.ok:
            logger.error("checkpoint failed: %s", event.value)
            return
        image = event.value[0] if isinstance(event.value, tuple) else event.value
        session = event.value[1] if isinstance(event.value, tuple) else None
        aborted = getattr(session, "aborted", False)
        logger.info(
            "checkpoint done: image=%s bytes=%d stored=%d buffers=%d "
            "aborted=%s t=%g",
            image.name, image.total_bytes(), image.stored_bytes(),
            image.total_buffer_count(), aborted,
            self.engine.now,
        )

    def checkpoint_consistent(self, processes: Iterable[GpuProcess],
                              name: str = "",
                              medium: Optional[Medium] = None) -> Process:
        """Consistent multi-process CoW checkpoint (§7, fault tolerance).

        One global quiesce spans every process; each process is then
        checkpointed with CoW separately.  Result: list of
        ``(image, session)`` pairs.

        All-or-nothing (see :func:`collect_cut`).
        """
        processes = list(processes)
        if not processes:
            raise InvalidValueError(
                "checkpoint_consistent needs at least one process"
            )
        if name and not name.strip():
            raise InvalidValueError(
                f"checkpoint name must not be whitespace-only, got {name!r}"
            )
        medium = medium or self.medium

        def orchestrate():
            yield from quiesce(self.engine, processes)
            # Each per-process CoW re-quiesces individually; the global
            # barrier above already made the cut consistent, so the
            # per-process quiesce is a no-op time-wise (CPU stopped,
            # GPUs drained).  Resume happens inside each protocol run.
            handles = [
                (process, medium, self.checkpoint(
                    process, mode="cow", medium=medium,
                    name=f"{name}-{process.name}" if name else ""))
                for process in processes
            ]
            return (yield from collect_cut(handles))

        return self.engine.spawn(orchestrate(), name="phos-ckpt-consistent")

    def kill(self, process: GpuProcess) -> None:
        """Tear down a (failed) process, as the OS would when it dies.

        Cancels the process's in-flight protocol runs *before* touching
        its memory: sessions are aborted synchronously (so copiers
        already queued at this timestamp exit at their next buffer
        boundary instead of snapshotting freed memory), then the driver
        and its workers are interrupted (their recovery path releases
        DMA engines, shadows, and the frontend gate), and only then is
        the device memory released and the frontend detached.
        """
        teardown = CheckpointError(
            f"process {process.name!r} killed mid-protocol"
        )
        for handle, protocol in self._inflight.pop(process.id, []):
            ctx = getattr(protocol, "last_context", None)
            session = getattr(ctx, "session", None)
            if session is not None:
                session.abort(f"process {process.name!r} killed")
            if handle is not None and not handle.triggered:
                try:
                    handle.interrupt(teardown)
                except SimulationError:  # pragma: no cover - settle race
                    pass
            for worker in list(getattr(ctx, "workers", ()) or ()):
                if not worker.triggered:
                    try:
                        worker.interrupt(teardown)
                    except SimulationError:  # pragma: no cover
                        pass
        for gpu_index, bufs in process.runtime.allocations.items():
            gpu = process.machine.gpu(gpu_index)
            for buf in list(bufs):
                gpu.memory.free(buf)
            bufs.clear()
        process.runtime.interceptor = None
        self.frontends.pop(process.id, None)

    # -- restore -------------------------------------------------------------------
    def restore(self, image: CheckpointImage, gpu_indices: Optional[list[int]] = None,
                name: str = "restored", medium: Optional[Medium] = None,
                machine: Optional[Machine] = None,
                mode: str = "concurrent",
                config: Optional[ProtocolConfig] = None):
        """Generator: restore a process from an image.

        ``mode`` selects the restore protocol by registry name
        (``concurrent`` / ``stop-world``).  Concurrent mode returns
        ``(process, frontend, session)`` as soon as the process may
        run, and takes its contexts from the daemon's pool when it has
        one; stop-the-world mode returns the process after everything
        is loaded (frontend and session are None).

        ``gpu_indices=None`` means "use the GPUs the image was taken
        on".  Any other value must name exactly those GPUs: an empty
        list, or a set that drops or adds a device, would restore a
        process with state missing, so it raises
        :class:`~repro.errors.InvalidValueError` before any state is
        touched.
        """
        medium = medium or self.medium
        machine = machine or self.machine
        from repro.storage.delta import DeltaImage, materialize

        if isinstance(image, DeltaImage):
            # Chain-aware restore: walk the parent references up front
            # and hand the restore protocols a plain full image.  A
            # broken chain (cycle, missing or revoked parent, chunk
            # hash mismatch) fails here, before any state is touched.
            image = materialize(image, resolve=medium.images.lookup)
            obs.counter("storage/chain-restores",
                        **self.engine._obs_labels).inc()
        recorded = list(image.context_meta.get("gpu_indices", [0]))
        if gpu_indices is None:
            gpu_indices = recorded
        elif sorted(gpu_indices) != sorted(recorded):
            raise InvalidValueError(
                f"gpu_indices={list(gpu_indices)} must name the GPUs the "
                f"image was taken on, {recorded} (None means those); a "
                "different set would restore with state missing"
            )
        protocol = registry.create(mode, kind="restore", config=config)
        logger.info("restore requested: image=%s gpus=%s mode=%s t=%g",
                    image.name, gpu_indices, protocol.name, self.engine.now)
        obs.counter("phos/restores", mode=protocol.name,
                    **self.engine._obs_labels).inc()
        pool = self.pool if protocol.name == "concurrent" else None
        process, frontend, session = yield from protocol.restore(
            self.engine, image, machine, gpu_indices, medium, self.criu,
            name=name, context_pool=pool,
        )
        if frontend is not None:
            self.frontends[process.id] = frontend
        # The concurrent restore keeps background loaders and watches
        # running after the driver returns; track them so ``kill`` of
        # the restored process cancels them instead of leaking them.
        if protocol.last_context is not None and protocol.last_context.workers:
            self._register_inflight(process, None, protocol)
        return process, frontend, session

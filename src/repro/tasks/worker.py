"""One worker: a machine slot that loads state and executes work.

"A process pinned to GPUs that loads state and executes work" under one
of the evaluated systems.  A :class:`Worker` is the only thing that
builds a daemon: it owns the engine, the machine, the
:class:`~repro.core.daemon.Phos` service on it and (once launched or
restored into) the application process and workload, and it is the one
reader of the system's :data:`~repro.baselines.SYSTEMS` row — tasks and
figures hand it the ``system`` name and get the same shapes back
whichever row it names.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.base import provision
from repro.apps.specs import AppSpec
from repro.baselines import get_system
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.protocols import ProtocolConfig
from repro.errors import CheckpointError
from repro.sim.engine import Engine, Process
from repro.storage.media import Medium


class Worker:
    """A machine slot under one system."""

    def __init__(self, engine: Engine, machine: Machine,
                 system: str = "phos", use_pool: bool = False) -> None:
        self.system = get_system(system)
        self.engine = engine
        self.machine = machine
        # Only a concurrent system has a context pool to offer; a pooled
        # worker models a running daemon, pre-filled at boot, before any
        # request arrives.
        self.phos = Phos(engine, machine,
                         use_context_pool=use_pool and self.system.concurrent)
        if self.phos.pool is not None:
            engine.run_process(self.phos.boot())
        self.process = self.workload = self.spec = None
        #: The observer ``harness.build_world`` installed for this
        #: worker's engine (None when unobserved).
        self.observer = None

    def launch(self, spec: AppSpec, name: Optional[str] = None,
               always_instrument: bool = False) -> "Worker":
        """Provision ``spec``'s process + workload here and attach it."""
        self.spec = spec
        self.process, self.workload = provision(self.engine, self.machine,
                                                spec, name=name)
        self.phos.attach(self.process, always_instrument=always_instrument)
        return self

    def _require_support(self, n_gpus: int) -> None:
        if not self.system.supports(n_gpus):
            raise CheckpointError(
                f"{self.system.name} does not support distributed "
                "(multi-GPU) jobs"
            )

    def checkpoint(self, mode: str = "cow",
                   config: Optional[ProtocolConfig] = None,
                   medium: Optional[Medium] = None,
                   name: str = "") -> Process:
        """Start a checkpoint of the launched process; returns the
        daemon's awaitable, whose result is ``(image, session-or-None)``.

        A stop-the-world system runs ``stop-world`` under its own cost
        model whatever ``mode`` asks for; of ``config`` it can honour
        only ``keep_stopped``.
        """
        self._require_support(len(self.process.gpu_indices))
        if not self.system.concurrent:
            mode = "stop-world"
            name = name or f"{self.system.name}-{self.process.name}"
            config = ProtocolConfig(
                baseline=self.system.cost,
                keep_stopped=config is not None and config.keep_stopped)
        return self.phos.checkpoint(self.process, mode=mode, name=name,
                                    medium=medium, config=config)

    def restore(self, image, workload=None, mode: str = "concurrent",
                config: Optional[ProtocolConfig] = None):
        """Generator: restore ``image`` onto this machine the way the
        system does — concurrently from pooled contexts, or behind the
        context barrier and a bulk copy — and bind ``workload`` to the
        new process.  Returns the restore session (None when the
        process only runs once everything is loaded).
        """
        self._require_support(len(image.context_meta.get("gpu_indices", [0])))
        if not self.system.concurrent:
            mode = "stop-world"
            config = ProtocolConfig(baseline=self.system.cost)
        self.process, _frontend, session = yield from self.phos.restore(
            image, mode=mode, config=config)
        if workload is not None:
            workload.bind_restored(self.process)
            self.workload = workload
        return session

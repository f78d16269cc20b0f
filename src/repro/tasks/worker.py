"""One worker, the world builder, and the two stall probes.

"A process pinned to GPUs that loads state and executes work" under one
of the evaluated systems.  A :class:`Worker` is the only thing that
builds a daemon: it owns the engine, the machine, the
:class:`~repro.core.daemon.Phos` service on it and (once launched or
restored into) the application process and workload, and it is the one
reader of the system's :data:`~repro.baselines.SYSTEMS` row — tasks and
figures hand it the ``system`` name and get the same shapes back
whichever row it names.

:func:`new_world` is the one builder of an application world (engine +
machine + launched worker) for tasks, figures and the CLI, and the one
owner of the ``--obs`` switch (:data:`OBSERVE`).  On such a world,
:func:`checkpoint_stall` and :func:`restore_stall` measure the §8.1
metrics: the application stall one checkpoint causes, and the time from
a restore request until the restored application has run its steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro import obs
from repro.apps.base import provision
from repro.apps.specs import AppSpec, get_spec
from repro.baselines import get_system
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.engine import EXPERIMENT_CHUNK
from repro.core.protocols import ProtocolConfig
from repro.errors import CheckpointError, InvalidValueError
from repro.sim.engine import Engine, Process
from repro.storage.image import CheckpointImage
from repro.storage.media import Medium

#: When True (``phos bench ... --obs``), every engine :func:`new_engine`
#: builds gets an observer, recorded in :data:`collected_observers` so
#: the CLI can print one report per world after the experiment runs.
OBSERVE = False

#: Observers created while observing, as ``(label, observer)`` pairs in
#: creation order.
collected_observers: list[tuple[str, obs.Observer]] = []

#: The observer the latest :func:`new_engine` installed (None when that
#: engine is unobserved), so the next engine can retire it.
_installed: Optional[obs.Observer] = None


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
        #: The observer :func:`new_world` installed for this worker's
        #: engine (None when unobserved).
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


def new_engine(label: str, observe: Optional[bool] = None) -> Engine:
    """A fresh engine for one world.

    ``observe`` switches the observability layer on for it (default:
    :data:`OBSERVE`).  The observer stays installed until the next
    engine is built — an observed engine replaces it, an unobserved one
    retires it (it would stamp the new world's spans with the old
    engine's clock).  An observer the caller installed itself is left
    alone.
    """
    global _installed
    engine = Engine()
    observer = None
    if OBSERVE if observe is None else observe:
        observer = obs.install(engine)
        collected_observers.append((label, observer))
    elif _installed is not None and obs.active() is _installed:
        obs.uninstall()
    _installed = observer
    return engine


def new_world(app: str, system: str = "phos", *, use_pool: bool = False,
              always_instrument: bool = False,
              observe: Optional[bool] = None) -> Worker:
    """One machine under ``system`` with ``app`` launched on it.

    The world's observer (see :func:`new_engine`) is ``world.observer``.
    A world whose system cannot checkpoint the app is never observed:
    every probe on it returns unsupported without simulating.
    """
    spec = get_spec(app)
    if not get_system(system).supports(spec.n_gpus):
        observe = False
    engine = new_engine(app, observe)
    world = Worker(engine, Machine(engine, n_gpus=spec.n_gpus), system,
                   use_pool=use_pool)
    world.launch(spec, always_instrument=always_instrument)
    world.observer = _installed
    return world


def _require_steps(steps: int) -> None:
    if steps < 1:
        raise InvalidValueError(f"steps must be at least 1, got {steps}")


def _run_traced(engine: Engine, driver):
    """Run ``driver`` and drain the engine inside one span timeline;
    the driver's result gets the tree as ``spans``."""
    with obs.timeline(engine) as spans:
        result = engine.run_process(driver(engine))
        engine.run()
    result.spans = spans
    return result


@dataclass
class CheckpointStall:
    """What :func:`checkpoint_stall` measured on one world."""

    system: str
    app: str
    #: Mean step time before the checkpoint (seconds).
    iter_time: float = 0.0
    #: Application stall caused by the checkpoint (seconds).
    checkpoint_stall: float = 0.0
    image: Optional[CheckpointImage] = None
    #: The copy session (None for a stop-the-world system; a
    #: ``continuous`` run's stream summary).
    session: object = None
    #: The span tree the whole run was recorded in.
    spans: Optional[obs.SpanTracer] = None
    supported: bool = True


def checkpoint_stall(world: Worker, mode: str = "cow",
                     config: Optional[ProtocolConfig] = None, *,
                     steps: int = 3, chain: bool = False) -> CheckpointStall:
    """Measure the application stall one checkpoint causes.

    Runs setup and two warm steps, times ``steps`` baseline steps, then
    requests the checkpoint at the beginning of an iteration (the
    optimal timing §8.3 establishes) and runs ``steps`` more while it
    proceeds: stall = elapsed - baseline.  ``chain`` first takes a
    blocking ``incremental`` chain root and runs ``steps`` steps, so
    the measured checkpoint is the delta chained onto it.

    A system that cannot checkpoint the world's app gives an
    unsupported result without simulating anything.
    """
    _require_steps(steps)
    spec = world.spec
    if not world.system.supports(spec.n_gpus):
        return CheckpointStall(world.system.name, spec.name, supported=False)
    engine, workload = world.engine, world.workload

    def driver(engine):
        yield from workload.setup()
        yield from workload.run(2)
        t0 = engine.now
        yield from workload.run(steps)
        baseline = engine.now - t0
        measured = config
        if chain:
            parent, _ = yield world.checkpoint("incremental",
                                               name="chain-root")
            yield from workload.run(steps)
            measured = replace(config or ProtocolConfig(), parent=parent)
        handle = world.checkpoint(mode, measured)
        t1 = engine.now
        yield from workload.run(steps)
        elapsed = engine.now - t1
        image, session = yield handle
        # A continuous run's stream summary carries no abort flag.
        if getattr(session, "aborted", False):
            raise CheckpointError(f"unexpected {mode} abort in a stall probe")
        return CheckpointStall(
            world.system.name, spec.name, iter_time=baseline / steps,
            checkpoint_stall=max(0.0, elapsed - baseline),
            image=image, session=session)

    return _run_traced(engine, driver)


@dataclass
class RestoreStall:
    """What :func:`restore_stall` measured: one restore, then steps."""

    system: str
    app: str
    #: Restore request until the last step ends (Fig. 14's bar; with
    #: one step, Fig. 11b's restore stall).
    end_to_end: float = math.nan
    #: The steps alone.
    exec_time: float = math.nan
    #: Until the restored process could run (the restore barrier).
    restore_s: float = 0.0
    #: Restore request until the first step ends.
    first_step_s: float = 0.0
    #: Committed checkpoint-image size (the fleet's miss-fetch cost).
    image_bytes: int = 0
    supported: bool = True
    #: The concurrent restore's session (None when the process only ran
    #: once everything was loaded).
    session: object = None
    #: The span tree the whole run was recorded in.
    spans: Optional[obs.SpanTracer] = None


def restore_stall(world: Worker, system: str = "phos", steps: int = 1, *,
                  use_pool: bool = True,
                  mode: str = "concurrent") -> RestoreStall:
    """Measure a restore of ``world``'s app onto a second machine.

    Runs setup and one warm step on ``world``, checkpoints it (``cow``
    at :data:`~repro.core.engine.EXPERIMENT_CHUNK`), restores the image
    onto a ``system`` worker on a second machine of the same engine and
    runs ``steps`` steps there.  The target models a worker with a
    running daemon: ``use_pool`` pre-fills its context pool at boot,
    before any request arrives (only a concurrent system has one).

    A system that cannot restore the app gives an unsupported result
    (NaN timings) without simulating anything; callers aggregating over
    mixed results must exclude those rows (see :mod:`repro.stats`).
    """
    _require_steps(steps)
    spec = world.spec
    if not get_system(system).supports(spec.n_gpus):
        return RestoreStall(system, spec.name, supported=False)
    engine, workload = world.engine, world.workload
    target = Worker(engine, Machine(engine, name="worker",
                                    n_gpus=spec.n_gpus),
                    system, use_pool=use_pool)

    def driver(engine):
        yield from workload.setup()
        yield from workload.run(1)  # warm the runtime (JIT caches etc.)
        image, _ = yield world.checkpoint(
            "cow", ProtocolConfig(chunk_bytes=EXPERIMENT_CHUNK))
        t0 = engine.now
        session = yield from target.restore(image, workload, mode=mode)
        t_exec = engine.now
        yield from workload.run(1)
        t_first = engine.now
        yield from workload.run(steps - 1)
        t_end = engine.now
        obs.record("task/cold-start", t0, end=t_end,
                   system=system, app=spec.name)
        obs.record("task/cold-start-exec", t_exec, end=t_end,
                   system=system, app=spec.name)
        return RestoreStall(
            system, spec.name, end_to_end=t_end - t0,
            exec_time=t_end - t_exec, restore_s=t_exec - t0,
            first_step_s=t_first - t0, image_bytes=image.total_bytes(),
            session=session)

    return _run_traced(engine, driver)

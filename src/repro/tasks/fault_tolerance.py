"""Fault tolerance via periodic checkpointing (§7, Figs. 11a and 12).

Metrics follow §8.1:

* **checkpoint overhead** — the application stall caused by one
  checkpoint taken at the beginning of an iteration, computed by
  differencing total training time with and without the checkpoint;
* **wasted GPU time** — the §A.1 model evaluated at each system's
  optimal checkpoint frequency f* = sqrt(NF/2O), with F = 1 failure
  per GPU-hour (the rate §8.1 takes from industry reports).

Checkpoints land in host DRAM ("to avoid slow storage").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs, units
from repro.apps.specs import get_spec
from repro.baselines import get_system
from repro.cluster import Machine
from repro.core.engine import EXPERIMENT_CHUNK
from repro.core.frequency import optimal_frequency, wasted_gpu_hours
from repro.core.protocols import ProtocolConfig
from repro.errors import CheckpointError
from repro.sim import Engine
from repro.tasks.worker import Worker

__all__ = ["EXPERIMENT_CHUNK", "FtMeasurement",
           "measure_checkpoint_overhead", "measure_restore_time",
           "wasted_fraction"]


@dataclass
class FtMeasurement:
    """One (system, app) fault-tolerance measurement."""

    system: str
    app: str
    iter_time: float
    #: Application stall caused by one checkpoint (seconds).
    checkpoint_stall: float
    #: Time to bring the app back after a failure (seconds).
    restore_time: float = 0.0
    supported: bool = True


def measure_checkpoint_overhead(system: str, spec_name: str,
                                warm_iters: int = 2, span_iters: int = 3,
                                chunk_bytes: int = EXPERIMENT_CHUNK) -> FtMeasurement:
    """Measure per-checkpoint application stall for one system/app.

    The checkpoint is requested at the beginning of an iteration — the
    optimal timing §8.3 establishes.  ``span_iters`` iterations run
    while the checkpoint proceeds; stall = elapsed - baseline.
    """
    spec = get_spec(spec_name)
    if not get_system(system).supports(spec.n_gpus):
        return FtMeasurement(system=system, app=spec_name, iter_time=0.0,
                             checkpoint_stall=0.0, supported=False)
    eng = Engine()
    worker = Worker(eng, Machine(eng, n_gpus=spec.n_gpus), system).launch(spec)
    workload = worker.workload

    def driver(eng):
        yield from workload.setup()
        yield from workload.run(warm_iters)
        t0 = eng.now
        yield from workload.run(span_iters)
        baseline = eng.now - t0
        # Checkpoint at the beginning of the next iteration.
        handle = worker.checkpoint(
            "cow", ProtocolConfig(chunk_bytes=chunk_bytes))
        t1 = eng.now
        yield from workload.run(span_iters)
        elapsed = eng.now - t1
        _image, session = yield handle
        if session is not None and session.aborted:
            raise CheckpointError("unexpected CoW abort in experiment")
        obs.record("task/checkpoint-stall", t1,
                   end=t1 + max(0.0, elapsed - baseline),
                   system=system, app=spec_name)
        return baseline / span_iters, elapsed - baseline

    iter_time, stall = eng.run_process(driver(eng))
    eng.run()
    return FtMeasurement(system=system, app=spec_name, iter_time=iter_time,
                         checkpoint_stall=max(0.0, stall))


def measure_restore_time(system: str, spec_name: str,
                         chunk_bytes: int = EXPERIMENT_CHUNK) -> float:
    """Time from restore request until the app completes a full step."""
    spec = get_spec(spec_name)
    if not get_system(system).supports(spec.n_gpus):
        return float("nan")
    eng = Engine()
    source = Worker(eng, Machine(eng, n_gpus=spec.n_gpus)).launch(spec)
    target = Worker(eng, Machine(eng, name="nodeR", n_gpus=spec.n_gpus),
                    system, use_pool=True)
    workload = source.workload

    def driver(eng):
        yield from workload.setup()
        yield from workload.run(1)
        image, _ = yield source.checkpoint(
            "cow", ProtocolConfig(chunk_bytes=chunk_bytes))
        t0 = eng.now
        yield from target.restore(image, workload)
        yield from workload.run(1)
        obs.record("task/restore-time", t0, system=system, app=spec_name)
        return eng.now - t0

    restore_time = eng.run_process(driver(eng))
    eng.run()
    return restore_time


def wasted_fraction(measurement: FtMeasurement, restore_time: float,
                    failures_per_gpu_hour: float = 1.0) -> tuple[float, float]:
    """(wasted fraction of total GPU time, optimal frequency per hour).

    Evaluates the §A.1 model at the system's own optimal frequency.
    The fraction normalizes the model's waste by the N*T GPU-hours of
    the job, giving Fig. 12's per-system bar before cross-system
    normalization.
    """
    spec = get_spec(measurement.app)
    n = spec.n_gpus
    overhead_h = measurement.checkpoint_stall / units.HOUR
    restore_h = restore_time / units.HOUR
    f_star = optimal_frequency(n, failures_per_gpu_hour, overhead_h)
    total_hours = 1.0
    waste = wasted_gpu_hours(
        n, failures_per_gpu_hour, total_hours, overhead_h, restore_h, f_star
    )
    return waste / (n * total_hours), f_star

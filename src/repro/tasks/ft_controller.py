"""Closed-loop fault tolerance: periodic checkpoints + random failures.

§A.1 *models* the wasted GPU time at a checkpoint frequency; this
controller *measures* it: a training loop runs under periodic CoW
checkpoints while a seeded failure injector kills the process at
exponentially-distributed times (i.i.d., as the model assumes).  Each
failure triggers the paper's recovery — stop, restore the latest image,
recompute from its iteration.  Comparing the measured waste against the
model's prediction (:func:`repro.core.frequency.wasted_gpu_hours` for
the same parameters) closes the loop on Fig. 12.

Failures are detected at iteration boundaries (a sub-iteration failure
wastes that iteration anyway, which is exactly the ``1/(2f)``-style
recomputation term the model charges).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import units
from repro.core.daemon import Phos
from repro.core.protocols import ProtocolConfig
from repro.errors import CheckpointError
from repro.sim.engine import Engine


@dataclass
class FtRunResult:
    """Outcome of one closed-loop run."""

    target_iters: int
    wall_seconds: float
    iter_seconds: float
    failures: int = 0
    checkpoints: int = 0
    recomputed_iters: int = 0
    restore_seconds: float = 0.0
    checkpoint_stall_seconds: float = 0.0
    #: Failures that landed while a checkpoint was still in flight and
    #: tore it down mid-protocol (only with ``mid_checkpoint_kills``).
    mid_checkpoint_kills: int = 0

    @property
    def useful_seconds(self) -> float:
        return self.target_iters * self.iter_seconds

    @property
    def wasted_fraction(self) -> float:
        """Fraction of wall time that was not forward progress.

        A zero-duration run wasted nothing — ``target_iters=0``
        completes instantly with ``wall_seconds == 0.0``, and dividing
        by it would poison downstream aggregates with NaN/inf.
        """
        if self.wall_seconds == 0:
            return 0.0
        return max(0.0, self.wall_seconds - self.useful_seconds) / self.wall_seconds


class FaultToleranceController:
    """Run a workload to a target iteration count under failures."""

    def __init__(self, engine: Engine, phos: Phos, process, workload,
                 failures_per_hour: float, checkpoint_every_iters: int,
                 seed: int = 1,
                 checkpoint_config: ProtocolConfig | None = None,
                 mid_checkpoint_kills: bool = False) -> None:
        if checkpoint_every_iters < 1:
            raise CheckpointError("checkpoint interval must be >= 1 iteration")
        self.engine = engine
        self.phos = phos
        self.process = process
        self.workload = workload
        self.failures_per_hour = failures_per_hour
        self.checkpoint_every = checkpoint_every_iters
        self.checkpoint_config = checkpoint_config
        #: When True, a failure that lands mid-checkpoint kills the
        #: process immediately — the in-flight protocol is torn down by
        #: ``Phos.kill`` (workers cancelled, session aborted, staged
        #: image discarded) instead of being politely awaited first.
        #: This is the realistic failure model: machines do not wait
        #: for checkpoints to finish before crashing.
        self.mid_checkpoint_kills = mid_checkpoint_kills
        self._rng = random.Random(seed)
        self._next_failure = self._draw_failure_gap()
        self.latest_image = None
        self.latest_image_iter = 0

    def _draw_failure_gap(self) -> float:
        """Exponential inter-arrival time, in seconds."""
        rate_per_second = self.failures_per_hour / units.HOUR
        return self._rng.expovariate(rate_per_second)

    def run(self, target_iters: int):
        """Generator: run until ``target_iters`` iterations completed."""
        engine = self.engine
        t_start = engine.now
        next_failure_at = t_start + self._next_failure
        result = FtRunResult(target_iters=target_iters, wall_seconds=0.0,
                             iter_seconds=0.0)
        # Baseline iteration time (failure-free, no checkpoints).
        t0 = engine.now
        yield from self.workload.run(1)
        result.iter_seconds = engine.now - t0
        completed = 1
        inflight = None
        while completed < target_iters:
            if completed % self.checkpoint_every == 0 and (
                inflight is None or inflight.triggered
            ):
                inflight = self.phos.checkpoint(
                    self.process, mode="cow", name=f"it-{completed}",
                    config=self.checkpoint_config,
                )
                inflight.add_callback(self._record_image(completed))
                result.checkpoints += 1
            yield from self.workload.run(1, start=completed)
            completed += 1
            if engine.now >= next_failure_at and self.latest_image is not None:
                # --- failure! ------------------------------------------------
                result.failures += 1
                if inflight is not None and not inflight.triggered:
                    if self.mid_checkpoint_kills:
                        # The kill below aborts the in-flight protocol;
                        # its image is discarded, never committed.
                        result.mid_checkpoint_kills += 1
                    else:
                        yield inflight
                t_fail = engine.now
                self.phos.kill(self.process)
                restored = yield from self.phos.restore(
                    self.latest_image,
                    gpu_indices=list(self.process.gpu_indices),
                )
                new_process, _, session = restored
                self.workload.bind_restored(new_process)
                self.process = new_process
                result.restore_seconds += engine.now - t_fail
                result.recomputed_iters += completed - self.latest_image_iter
                completed = self.latest_image_iter
                inflight = None
                next_failure_at = engine.now + self._draw_failure_gap()
        result.wall_seconds = engine.now - t_start
        return result

    def _record_image(self, iteration: int):
        def on_done(event) -> None:
            if event.ok:
                image, session = event.value
                if not session.aborted:
                    self.latest_image = image
                    self.latest_image_iter = iteration

        return on_done

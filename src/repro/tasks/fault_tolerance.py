"""Fault tolerance via periodic checkpointing (§7, Figs. 11a and 12).

Metrics follow §8.1:

* **checkpoint overhead** — the application stall caused by one
  checkpoint taken at the beginning of an iteration, computed by
  differencing training time with and without the checkpoint
  (:func:`~repro.tasks.worker.checkpoint_stall`);
* **wasted GPU time** — the §A.1 model evaluated at each system's
  optimal checkpoint frequency f* = sqrt(NF/2O), with F = 1 failure
  per GPU-hour (the rate §8.1 takes from industry reports).

Checkpoints land in host DRAM ("to avoid slow storage").
"""

from __future__ import annotations

from repro import units
from repro.apps.specs import get_spec
from repro.core.frequency import optimal_frequency, wasted_gpu_hours
from repro.tasks.worker import CheckpointStall

__all__ = ["wasted_fraction"]


def wasted_fraction(measurement: CheckpointStall, restore_time: float,
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

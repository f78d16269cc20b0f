"""Downstream applications of C/R (§7): the end-to-end task drivers.

Every task takes a ``system`` name and hands it to a
:class:`~repro.tasks.worker.Worker` — the machine slot that builds the
daemon and reads the system's :data:`repro.baselines.SYSTEMS` row — so
no task forks on which system it measures.

* :mod:`repro.tasks.worker` — the worker itself (``launch`` /
  ``checkpoint`` / ``restore``, one shape for every system);
* :mod:`repro.tasks.distributed` — one worker per machine and the
  all-or-nothing consistent cut across them;
* :mod:`repro.tasks.fault_tolerance` — periodic checkpointing at the
  optimal frequency, checkpoint-overhead and wasted-GPU-time metrics
  (Figs. 11a, 12);
* :mod:`repro.tasks.live_migration` — pre-copy live migration over
  GPU-direct RDMA, downtime metric (Fig. 13);
* :mod:`repro.tasks.serverless` — cold-start via restore, end-to-end
  execution-time metric (Fig. 14).
"""

from repro.tasks.distributed import DistributedJob
from repro.tasks.ft_controller import FaultToleranceController, FtRunResult
from repro.tasks.fault_tolerance import (
    FtMeasurement,
    measure_checkpoint_overhead,
    measure_restore_time,
    wasted_fraction,
)
from repro.tasks.live_migration import MigrationResult, migrate
from repro.tasks.serverless import ColdStartResult, cold_start
from repro.tasks.worker import Worker

__all__ = [
    "ColdStartResult",
    "DistributedJob",
    "FaultToleranceController",
    "FtMeasurement",
    "FtRunResult",
    "MigrationResult",
    "Worker",
    "cold_start",
    "measure_checkpoint_overhead",
    "measure_restore_time",
    "migrate",
    "wasted_fraction",
]

"""Downstream applications of C/R (§7): the end-to-end task drivers.

Every task takes a ``system`` name and hands it to a
:class:`~repro.tasks.worker.Worker` — the machine slot that builds the
daemon and reads the system's :data:`repro.baselines.SYSTEMS` row — so
no task forks on which system it measures.

* :mod:`repro.tasks.worker` — the worker itself (``launch`` /
  ``checkpoint`` / ``restore``, one shape for every system), the world
  builder :func:`~repro.tasks.worker.new_world` and the two stall
  probes :func:`~repro.tasks.worker.checkpoint_stall` (Figs. 11a, 12,
  16) and :func:`~repro.tasks.worker.restore_stall` (Figs. 11b, 12, 14,
  18);
* :mod:`repro.tasks.distributed` — one worker per machine and the
  all-or-nothing consistent cut across them;
* :mod:`repro.tasks.fault_tolerance` — the wasted-GPU-time metric at
  the optimal checkpoint frequency (Fig. 12);
* :mod:`repro.tasks.live_migration` — pre-copy live migration over
  GPU-direct RDMA, downtime metric (Fig. 13);
* :mod:`repro.tasks.serverless` — cold-start via restore, end-to-end
  execution-time metric (Fig. 14).
"""

from repro.tasks.distributed import DistributedJob
from repro.tasks.ft_controller import FaultToleranceController, FtRunResult
from repro.tasks.fault_tolerance import wasted_fraction
from repro.tasks.live_migration import MigrationResult, migrate
from repro.tasks.serverless import cold_start
from repro.tasks.worker import (
    CheckpointStall,
    RestoreStall,
    Worker,
    checkpoint_stall,
    new_world,
    restore_stall,
)

__all__ = [
    "CheckpointStall",
    "DistributedJob",
    "FaultToleranceController",
    "FtRunResult",
    "MigrationResult",
    "RestoreStall",
    "Worker",
    "checkpoint_stall",
    "cold_start",
    "migrate",
    "new_world",
    "restore_stall",
    "wasted_fraction",
]

"""Process-pool experiment execution: cell fan-out, declared-order merge.

Every figure/sweep in this repository is a list of independent
**cells** — one isolated world (a :class:`~repro.tasks.worker.Worker`
from :func:`~repro.tasks.worker.new_world`) built and measured
per (app, system, protocol, tunable) point — so wall clock need not
scale with cell count.  :func:`run_cells` fans cells out with one
chunked ``ProcessPoolExecutor.map`` and reads the results back **in
declared cell order**, which is what makes the parallel output
bit-identical to the serial output at any ``--jobs N``.

See :mod:`repro.parallel.engine` for the execution model and the
determinism contract, and ``docs/performance.md`` ("Parallel
execution") for the user-facing knobs.
"""

from repro.parallel.engine import (
    Cell,
    CellError,
    PoolRunStats,
    last_run_stats,
    resolve_jobs,
    run_cells,
    set_default_jobs,
    shutdown_pool,
)

__all__ = [
    "Cell", "CellError", "PoolRunStats",
    "run_cells", "resolve_jobs", "set_default_jobs",
    "last_run_stats", "shutdown_pool",
]

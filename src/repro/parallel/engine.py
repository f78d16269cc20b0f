"""The parallel experiment engine: cells, the pool, and one ordered map.

Execution model
---------------

A *cell* is one ``(exp_id, cell_key, config)`` tuple naming an isolated
measurement: the runner builds a fresh world (engine + machine + PHOS +
app), measures, and returns plain picklable rows.  Cells share no
state, so :func:`run_cells` may execute them on any worker;
determinism comes entirely from the **merge**, which returns results
in the declared cell order, never in completion order.

Determinism contract
--------------------

``run_cells(runner, cells, jobs=N)`` produces the exact same list of
results for every ``N`` (including the in-process serial fallback)
provided the runner is a *pure function of its cell*: it must build
its own world and derive nothing from process-global mutable state.
The figure goldens under ``tests/goldens/`` pin this bit-for-bit at
``--jobs 1`` and ``--jobs 4``.

Workers are **spawn**-started (the portable, state-clean choice): each
worker is a fresh interpreter that imports the runner by qualified
name.  The per-process warm :class:`~repro.gpu.isa.Program` cache
(see :mod:`repro.apps.base`) lets consecutive cells on one worker
reuse compiled kernel plans — a wall-clock optimization that is
result-invariant because plans prove their preconditions against the
actual memory (a proof is reused only on that memory, until its
layout changes).

The pool path
-------------

The pool path is one ``Executor.map`` over :func:`run_one`, with a
chunk size giving about :data:`CHUNKS_PER_WORKER` contiguous chunks
per worker: the runner and the executor round-trip are paid once per
chunk, every chunk is submitted up front, and the results are read
back in declared order.

Fallback path
-------------

The pool is skipped — cells run serially, in declared order, in this
process — whenever any of these hold, and
:attr:`PoolRunStats.fallback_reason` says which:

* ``jobs``: resolved ``jobs <= 1`` (the default — also the
  determinism-debugging mode: one process, one thread, breakpoints
  work) or there is at most one cell;
* ``nested``: this process *is* a pool worker (no nested pools);
* ``serial-only``: ``serial_only=True`` was passed (the harness does
  this when ``--obs`` is active, because observers live in-process);
* ``pickle``: the runner or a cell fails to pickle;
* ``pool: <error>``: the pool cannot be created.

Otherwise ``jobs=N`` means N workers.

Failure surfacing
-----------------

A cell that raises stops its chunk and surfaces as a :class:`CellError`
naming the experiment and the cell key; the first failing cell in
declared order wins, and leaving the map cancels the chunks not yet
started.  A worker that dies breaks its pool, which fails the pending
chunks at once: the pool is dropped and the error names the first
cell whose result never arrived.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

from repro.errors import InvalidValueError, ReproError
from repro.parallel import worker

#: Environment variable naming the default worker count (``--jobs``
#: beats it; absent or empty means 1 = serial).
JOBS_ENV = "REPRO_JOBS"

#: Target chunks per worker: small enough to amortize dispatch, large
#: enough that stragglers still rebalance across the pool.
CHUNKS_PER_WORKER = 4

#: Process-wide default set by ``phos ... --jobs`` (None → environment).
_default_jobs: Optional[int] = None


@dataclass(frozen=True)
class Cell:
    """One independent measurement: ``(exp_id, cell_key, config)``.

    ``key`` labels the cell in merge order, error messages, and stats;
    ``config`` carries the runner's picklable keyword payload.
    """

    exp_id: str
    key: tuple
    config: dict = field(default_factory=dict)

    def describe(self) -> str:
        return f"{self.exp_id}[{', '.join(str(k) for k in self.key)}]"


def _pickle_safe(exc: BaseException) -> BaseException:
    """The exception itself if it pickles, else a faithful stand-in.

    A worker's :class:`CellError` must survive the trip back through
    the executor; an unpicklable cause would turn a clean per-cell
    failure into an unattributable pool error.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


class CellError(ReproError):
    """A cell failed (runner exception or worker death); names the cell."""

    def __init__(self, cell: Cell, cause: BaseException) -> None:
        self.cell = cell
        self.cause = cause
        super().__init__(
            f"cell {cell.describe()} failed: {cause.__class__.__name__}: {cause}"
        )

    def __reduce__(self):
        return CellError, (self.cell, _pickle_safe(self.cause))


@dataclass
class PoolRunStats:
    """What one :func:`run_cells` call did (wall clock, not virtual)."""

    label: str
    mode: str                      # "pool" | "serial"
    jobs: int
    n_cells: int
    wall_s: float = 0.0
    fallback_reason: str = ""


_last_stats: Optional[PoolRunStats] = None


def last_run_stats() -> Optional[PoolRunStats]:
    """Stats of the most recent :func:`run_cells` call, if any."""
    return _last_stats


def _checked_jobs(value, source: str) -> int:
    """``value`` as a worker count; a typo must not run serial in silence.

    An ``int`` that is not a ``bool``, or a string of decimal digits;
    anything else (a float included) is refused, never truncated.
    """
    n = value
    if isinstance(value, str) and value.isascii() and value.isdigit():
        n = int(value)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidValueError(f"{source}={value!r} is not an integer >= 1")
    return n


def set_default_jobs(jobs: Optional[int]) -> None:
    """Install a process-wide default worker count (the CLI's ``--jobs``)."""
    global _default_jobs
    _default_jobs = None if jobs is None else _checked_jobs(jobs, "--jobs")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit arg > ``--jobs`` default > $REPRO_JOBS > 1."""
    if jobs is not None:
        return _checked_jobs(jobs, "jobs")
    if _default_jobs is not None:
        return _default_jobs
    env = os.environ.get(JOBS_ENV, "")
    return _checked_jobs(env, JOBS_ENV) if env else 1


# --------------------------------------------------------------------------
# the shared pool
# --------------------------------------------------------------------------

#: One persistent executor per max_workers.  Reuse across run_cells
#: calls keeps workers — and their warm Program/plan caches — alive for
#: a whole ``phos bench`` / bench-harness session.
_pools: dict[int, ProcessPoolExecutor] = {}


def _get_pool(max_workers: int) -> ProcessPoolExecutor:
    import multiprocessing

    pool = _pools.get(max_workers)
    if pool is None:
        pool = ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=worker.init_worker,
        )
        _pools[max_workers] = pool
    return pool


def shutdown_pool() -> None:
    """Tear down every cached executor (tests, atexit)."""
    global _pools
    pools, _pools = _pools, {}
    for pool in pools.values():
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pool)


def _drop_pool(pool: ProcessPoolExecutor) -> None:
    """Forget a broken executor so the next call starts a fresh one."""
    for key, cached in list(_pools.items()):
        if cached is pool:
            del _pools[key]
    pool.shutdown(wait=False, cancel_futures=True)


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------

def _picklable(runner, cells) -> bool:
    try:
        pickle.dumps(runner)
        pickle.dumps(cells)
        return True
    except Exception:
        return False


def run_one(runner: Callable[[Cell], object], cell: Cell):
    """``runner(cell)``, with a failure raised as a :class:`CellError`.

    The one per-cell step of both paths: called in this process when
    serial, and in a worker, one chunk at a time, by the pool's map.
    """
    try:
        return runner(cell)
    except Exception as exc:
        raise CellError(cell, exc) from exc


def _run_pool(pool: ProcessPoolExecutor, runner, cells: list, jobs: int) -> list:
    chunksize = math.ceil(len(cells) / (jobs * CHUNKS_PER_WORKER))
    results: list = []
    try:
        for result in pool.map(partial(run_one, runner), cells,
                               chunksize=chunksize):
            results.append(result)
    except CellError:
        raise
    except Exception as exc:
        # Not a runner failure: a dead worker (BrokenProcessPool) or a
        # result that could not come back.  Name the first cell whose
        # result never arrived.
        if isinstance(exc, BrokenProcessPool):
            _drop_pool(pool)
        raise CellError(cells[len(results)], exc) from exc
    return results


def run_cells(runner: Callable[[Cell], object], cells: Sequence[Cell],
              jobs: Optional[int] = None, label: str = "",
              serial_only: bool = False) -> list:
    """Execute ``runner(cell)`` for every cell; results in declared order.

    ``runner`` must be a module-level callable (workers import it by
    qualified name) and a pure function of its cell.  Returns one
    result per cell, ordered like ``cells`` regardless of completion
    order.  Raises :class:`CellError` for the first failing cell in
    declared order.
    """
    global _last_stats
    cells = list(cells)
    n = resolve_jobs(jobs)
    label = label or (cells[0].exp_id if cells else "empty")
    stats = PoolRunStats(label=label, mode="serial", jobs=1, n_cells=len(cells))
    _last_stats = stats

    reason = ""
    if serial_only:
        reason = "serial-only"
    elif worker.in_worker:
        reason = "nested"
    elif n <= 1 or len(cells) <= 1:
        reason = "jobs"
    elif not _picklable(runner, cells):
        reason = "pickle"

    t0 = time.perf_counter()
    # Size the executor by the resolved job count, not the cell count:
    # workers spawn lazily, and a jobs-keyed pool is shared across every
    # figure in a bench session (warm Program/plan caches included).
    pool = None
    if not reason:
        try:
            pool = _get_pool(n)
        except OSError as exc:  # pragma: no cover - resource exhaustion
            reason = f"pool: {exc}"
    try:
        if pool is None:
            stats.fallback_reason = reason
            return [run_one(runner, cell) for cell in cells]
        stats.mode, stats.jobs = "pool", n
        return _run_pool(pool, runner, cells, n)
    finally:
        stats.wall_s = time.perf_counter() - t0

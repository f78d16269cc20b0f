"""The parallel experiment engine: determinism, merge order, failures.

Two layers of coverage:

* **Engine unit tests** — declared-order merge under out-of-order
  completion, failed cells surfacing as :class:`CellError` with their
  cell key (runner exceptions *and* dead workers, which must break the
  pool instead of hanging the merge), a failure leaving the cached
  pool usable, the pickling/nested-worker fallbacks, job resolution
  precedence, and the warm ``Program`` cache.
* **Figure golden bit-identity** — the four goldened figures must
  format identically at ``--jobs 1`` (in-process serial) and
  ``--jobs 4`` (spawned pool).  The same figures with every launch
  interpreted are tier-1 cases of ``tests/test_protocol_engine.py``.
"""

from __future__ import annotations

import os
import re
import time
from pathlib import Path

import pytest

from repro import parallel
from repro.errors import InvalidValueError
from repro.parallel import Cell, CellError
from repro.parallel import engine as parallel_engine
from repro.parallel import worker as parallel_worker
from repro.parallel.engine import JOBS_ENV

GOLDENS = Path(__file__).parent / "goldens"


# -- module-level runners (pool workers import these by name) ---------------------

def echo_cell(cell: Cell) -> tuple:
    return ("ran", cell.key, cell.config.get("value"))


def sleepy_cell(cell: Cell) -> tuple:
    # Later-declared cells sleep less, so pool completion order is the
    # reverse of declared order — the merge must undo that.
    time.sleep(cell.config["sleep_s"])
    return cell.key


def boom_cell(cell: Cell):
    time.sleep(cell.config.get("sleep_s", 0.0))
    if cell.config.get("boom"):
        raise ValueError(f"injected failure in {cell.key}")
    return cell.key


def die_cell(cell: Cell):
    if cell.config.get("die"):
        os._exit(3)  # simulate a segfaulting worker, not an exception
    return cell.key


def unreturnable_cell(cell: Cell):
    if cell.config.get("lambda"):
        return lambda: cell.key  # runs fine, cannot be pickled back
    return cell.key


def nesting_cell(cell: Cell) -> tuple:
    inner = parallel.run_cells(echo_cell, [Cell("in", (i,)) for i in range(2)],
                               jobs=2)
    return len(inner), parallel.last_run_stats().fallback_reason


def image_id_cell(cell: Cell) -> tuple:
    # Hold the worker long enough that both pool workers mint ids
    # concurrently (each spawned worker restarts the module counter).
    from repro.storage.image import CheckpointImage

    time.sleep(cell.config.get("sleep_s", 0.0))
    return os.getpid(), [CheckpointImage(name=f"{cell.key}-{i}").id
                         for i in range(4)]


@pytest.fixture(scope="module", autouse=True)
def _pool_cleanup():
    # One shared pool serves the whole module (workers and their warm
    # caches are reused across tests, like a real bench session).
    yield
    parallel.shutdown_pool()


@pytest.fixture
def no_env(monkeypatch):
    monkeypatch.delenv(JOBS_ENV, raising=False)


# -- job resolution ---------------------------------------------------------------

def test_resolve_jobs_precedence(no_env, monkeypatch):
    assert parallel.resolve_jobs() == 1
    monkeypatch.setenv(JOBS_ENV, "3")
    assert parallel.resolve_jobs() == 3
    parallel.set_default_jobs(2)
    try:
        assert parallel.resolve_jobs() == 2     # CLI default beats env
        assert parallel.resolve_jobs(5) == 5    # explicit beats both
    finally:
        parallel.set_default_jobs(None)
    monkeypatch.setenv(JOBS_ENV, "")
    assert parallel.resolve_jobs() == 1         # empty == unset
    # A typo must not run serial in silence.
    for bad in ("banana", "-3", "0", "2.5"):
        monkeypatch.setenv(JOBS_ENV, bad)
        with pytest.raises(InvalidValueError) as err:
            parallel.resolve_jobs()
        assert JOBS_ENV in str(err.value) and repr(bad) in str(err.value)
    assert parallel.resolve_jobs(2) == 2        # explicit never reads it
    # The same check for the other two sources; a float or a bool is
    # refused, not truncated to a worker count.
    for bad in (0, -3, 1.9, 2.5, True):
        with pytest.raises(InvalidValueError, match=re.escape(f"jobs={bad} ")):
            parallel.resolve_jobs(bad)
        with pytest.raises(InvalidValueError,
                           match=re.escape(f"--jobs={bad} ")):
            parallel.set_default_jobs(bad)
    monkeypatch.delenv(JOBS_ENV)
    assert parallel.resolve_jobs() == 1         # a refused default is not kept


# -- merge order ------------------------------------------------------------------

def test_serial_results_keep_declared_order(no_env):
    cells = [Cell("t", (i,), {"value": i * 10}) for i in range(5)]
    results = parallel.run_cells(echo_cell, cells, jobs=1)
    assert results == [("ran", (i,), i * 10) for i in range(5)]
    stats = parallel.last_run_stats()
    assert stats.mode == "serial"
    assert stats.n_cells == 5


def test_pool_merge_is_declared_order_not_completion_order(no_env):
    n = 4
    cells = [Cell("t", (i,), {"sleep_s": (n - i) * 0.15}) for i in range(n)]
    results = parallel.run_cells(sleepy_cell, cells, jobs=n)
    assert results == [(i,) for i in range(n)]
    stats = parallel.last_run_stats()
    assert stats.mode == "pool"
    assert stats.n_cells == n


# -- failure surfacing ------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_cell_raises_with_its_key(no_env, jobs):
    cells = [Cell("exp", ("ok",)),
             Cell("exp", ("bad", "cell"), {"boom": True}),
             Cell("exp", ("later",))]
    with pytest.raises(CellError) as err:
        parallel.run_cells(boom_cell, cells, jobs=jobs)
    assert "exp[bad, cell]" in str(err.value)
    assert err.value.cell.key == ("bad", "cell")


def test_dead_worker_surfaces_instead_of_hanging(no_env):
    cells = [Cell("exp", ("victim",), {"die": True}),
             Cell("exp", ("bystander",))]
    with pytest.raises(CellError) as err:
        parallel.run_cells(die_cell, cells, jobs=2)
    assert "exp[" in str(err.value)
    # The broken pool was dropped: the next run gets a fresh one and works.
    results = parallel.run_cells(echo_cell, [Cell("exp", ("again",))] * 2,
                                 jobs=2)
    assert results == [("ran", ("again",), None)] * 2


def test_unreturnable_result_names_its_chunk(no_env):
    # The runner succeeded but its result cannot cross back: the error
    # names the first cell whose result never arrived.  16 cells over 2
    # workers ship 2 per chunk, so cell 5's chunk starts at cell 4.
    cells = [Cell("exp", (i,), {"lambda": i == 5}) for i in range(16)]
    with pytest.raises(CellError) as err:
        parallel.run_cells(unreturnable_cell, cells, jobs=2)
    assert err.value.cell.key == (4,)


def test_failure_leaves_cached_pool_usable(no_env):
    # The failing cell heads the map; the slow cells behind it are still
    # pending or running when it raises, and leaving the map cancels
    # the ones not yet started.  The same executor then serves the next
    # call, and nothing of the failed call reaches its results.
    failing = ([Cell("exp", ("bad",), {"boom": True})]
               + [Cell("exp", ("later", i), {"sleep_s": 0.2})
                  for i in range(7)])
    with pytest.raises(CellError) as err:
        parallel.run_cells(boom_cell, failing, jobs=2)
    assert err.value.cell.key == ("bad",)
    pool = parallel_engine._pools[2]
    cells = [Cell("again", (i,), {"value": i}) for i in range(8)]
    results = parallel.run_cells(echo_cell, cells, jobs=2)
    assert parallel_engine._pools[2] is pool
    assert parallel.last_run_stats().mode == "pool"
    assert results == [("ran", (i,), i) for i in range(8)]


def test_cell_error_survives_pickling():
    import pickle

    class Local(Exception):  # a cause that does not pickle
        pass

    cell = Cell("exp", ("k", 1), {"value": 2})
    for cause, name in ((ValueError("v"), "ValueError"),
                        (Local("l"), "RuntimeError")):
        err = pickle.loads(pickle.dumps(CellError(cell, cause)))
        assert isinstance(err, CellError)
        assert err.cell == cell
        assert type(err.cause).__name__ == name
        assert "exp[k, 1]" in str(err)


def test_image_ids_unique_across_pool_workers(no_env):
    """PR-6 regression: `CheckpointImage.id` came from a process-global
    counter, so images minted in different pool workers collided when
    merged into one catalog/world.  Ids are now pid-qualified."""
    cells = [Cell("img", (i,), {"sleep_s": 0.3}) for i in range(2)]
    results = parallel.run_cells(image_id_cell, cells, jobs=2)
    assert parallel.last_run_stats().mode == "pool"
    (pid_a, ids_a), (pid_b, ids_b) = results
    assert pid_a != pid_b  # two distinct workers really minted these
    merged = ids_a + ids_b
    assert len(set(merged)) == len(merged)


# -- fallbacks --------------------------------------------------------------------

def test_unpicklable_runner_falls_back_to_serial(no_env):
    captured = []

    def local_runner(cell):  # closures don't pickle
        captured.append(cell.key)
        return cell.key

    cells = [Cell("t", (i,)) for i in range(3)]
    results = parallel.run_cells(local_runner, cells, jobs=4)
    assert results == [(0,), (1,), (2,)]
    assert captured == [(0,), (1,), (2,)]
    assert parallel.last_run_stats().fallback_reason == "pickle"


def test_worker_processes_never_nest_pools(no_env, monkeypatch):
    monkeypatch.setattr(parallel_worker, "in_worker", True)
    results = parallel.run_cells(echo_cell, [Cell("t", (i,)) for i in range(2)],
                                 jobs=4)
    assert len(results) == 2
    assert parallel.last_run_stats().fallback_reason == "nested"


def test_spawned_workers_mark_themselves(no_env):
    # The real channel, not the patched attribute: init_worker runs in
    # the spawned interpreter, so a runner that fans out again is serial.
    results = parallel.run_cells(nesting_cell,
                                 [Cell("t", (i,)) for i in range(2)], jobs=2)
    assert parallel.last_run_stats().mode == "pool"
    assert results == [(2, "nested")] * 2


def test_serial_only_flag_pins_observed_runs(no_env):
    results = parallel.run_cells(echo_cell, [Cell("t", (i,)) for i in range(2)],
                                 jobs=4, serial_only=True)
    assert len(results) == 2
    assert parallel.last_run_stats().fallback_reason == "serial-only"


# -- batched dispatch -------------------------------------------------------------

def test_pool_batches_cells_into_chunks(no_env):
    n = 16
    cells = [Cell("t", (i,), {"value": i}) for i in range(n)]
    results = parallel.run_cells(echo_cell, cells, jobs=2)
    assert results == [("ran", (i,), i) for i in range(n)]
    assert parallel.last_run_stats().mode == "pool"


def test_batched_failure_names_exact_cell(no_env):
    # The failing cell sits mid-chunk; the error must name it, not the
    # chunk head, and must be the earliest-declared failure.
    cells = ([Cell("exp", ("ok", i)) for i in range(5)]
             + [Cell("exp", ("bad", "cell"), {"boom": True})]
             + [Cell("exp", ("later", i)) for i in range(5)])
    with pytest.raises(CellError) as err:
        parallel.run_cells(boom_cell, cells, jobs=2)
    assert "exp[bad, cell]" in str(err.value)
    assert err.value.cell.key == ("bad", "cell")


# -- warm Program cache -----------------------------------------------------------

def test_program_cache_reuses_identical_binaries(monkeypatch):
    from repro.apps import base

    monkeypatch.setattr(base, "_program_cache", {})
    from repro.gpu.program import build_copy

    first = base._build_program(build_copy, "k0")
    again = base._build_program(build_copy, "k0")
    other = base._build_program(build_copy, "k1")
    assert again is first
    assert other is not first


# -- figure golden bit-identity ---------------------------------------------------

def _golden(name: str) -> str:
    return (GOLDENS / f"{name}.txt").read_text().rstrip("\n")


@pytest.mark.parametrize("jobs", [1, 4])
def test_fig11_reduced_bit_identical_across_jobs(no_env, jobs):
    from repro.experiments.fig11_stall import run

    got = run(checkpoint_apps=("resnet152-train",),
              restore_apps=("resnet152-infer",), jobs=jobs).format()
    assert got.rstrip("\n") == _golden("fig11_reduced")


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("fig,module", [
    ("fig16", "repro.experiments.fig16_cow_breakdown"),
    ("fig17", "repro.experiments.fig17_recopy_breakdown"),
    ("fig18", "repro.experiments.fig18_restore_breakdown"),
])
def test_breakdown_figures_bit_identical_across_jobs(no_env, fig, module,
                                                     jobs):
    import importlib

    got = importlib.import_module(module).run(jobs=jobs).format()
    assert got.rstrip("\n") == _golden(fig)

"""Unit tests for the experiment harness and fast experiment sanity."""

from pathlib import Path

import pytest

from repro import obs
from repro.experiments import harness
from repro.tasks import worker
from repro.experiments.harness import (
    ExperimentResult,
    format_table,
    run_steps,
    setup_app,
)
from repro.tasks.worker import new_world

GOLDENS = Path(__file__).parent / "goldens"


def test_experiment_result_add_and_column():
    r = ExperimentResult(exp_id="x", title="t", columns=["a", "b"])
    r.add(a=1, b=2.0)
    r.add(a=3, b=None)
    assert r.column("a") == [1, 3]
    assert r.column("b") == [2.0, None]


def test_format_table_aligns_and_handles_nan():
    r = ExperimentResult(exp_id="x", title="Demo", columns=["name", "v"])
    r.add(name="long-name-here", v=0.1234)
    r.add(name="s", v=float("nan"))
    r.add(name="big", v=1234.5)
    text = format_table(r)
    lines = text.splitlines()
    assert lines[0] == "== x: Demo =="
    assert "0.1234" in text
    assert "n/a" in text
    assert "1234" in text  # wide values rendered without decimals
    # Aligned columns: header and rows share the separator width.
    assert len(lines[1]) == len(lines[2])


def test_format_table_includes_notes():
    r = ExperimentResult(exp_id="x", title="t", columns=["a"], notes="hello")
    r.add(a=1)
    assert "-- hello" in r.format()


def test_build_world_attaches_frontend():
    world = new_world("resnet152-infer")
    # The daemon attached the frontend it tracks; the frontend keeps no
    # reference back to the process.
    assert world.phos.frontend_of(world.process) \
        is world.process.runtime.interceptor


def test_setup_and_run_steps_advance_clock():
    world = new_world("resnet152-infer")
    setup_app(world, warm=1)
    elapsed = run_steps(world, 2)
    assert elapsed > 0
    assert world.engine.now > 0


def test_build_world_always_instrument_flag():
    world = new_world("resnet152-infer", always_instrument=True)
    frontend = world.phos.frontend_of(world.process)
    assert frontend.always_instrument


def test_build_world_with_pool_boots_daemon():
    world = new_world("resnet152-infer", use_pool=True)
    assert world.phos.pool is not None
    assert world.phos.pool.prefilled


@pytest.mark.parametrize("how", ["arg", "flag"])
def test_unobserved_world_retires_previous_worlds_observer(how, monkeypatch):
    """A world built without observation must not inherit the previous
    world's observer: it would stamp spans with another engine's clock
    ("span ... ends before it starts")."""
    try:
        if how == "flag":
            monkeypatch.setattr(worker, "OBSERVE", True)
            first = new_world("resnet152-infer")
            monkeypatch.setattr(worker, "OBSERVE", False)
        else:
            first = new_world("resnet152-infer", observe=True)
        assert obs.active() is first.observer
        second = new_world("resnet152-infer")
        assert second.observer is None
        assert obs.active() is None
        # The first engine's clock still reads 0: any span the second
        # world closed against it would end before it started.
        setup_app(second, warm=1)

        def driver(eng):
            image, session = yield second.phos.checkpoint(second.process)
            return image

        assert second.engine.run_process(driver(second.engine)).finalized
    finally:
        obs.uninstall()
        worker.collected_observers.clear()


def test_build_world_leaves_a_callers_own_observer_installed():
    """Only the harness's own observers are retired: a caller that arms
    one observer across many worlds (the bench's counters pass) keeps it."""
    from repro.sim import Engine

    mine = obs.install(Engine())
    try:
        new_world("resnet152-infer")
        assert obs.active() is mine
    finally:
        obs.uninstall()


@pytest.mark.parametrize("module,kwargs,worlds", [
    ("fig11_stall", dict(checkpoint_apps=("resnet152-train",),
                         restore_apps=("resnet152-infer",)), 6),
    ("fig13_migration", dict(apps=("resnet152-train",)), 3),
    ("fig14_serverless", dict(apps=("resnet152-infer",)), 3),
], ids=["fig11", "fig13", "fig14"])
def test_obs_switch_observes_every_task_world(module, kwargs, worlds,
                                              monkeypatch):
    """``phos bench --obs`` reaches the worlds the stall probes and the
    migration build: one observer per world, each with the run's spans."""
    import importlib

    monkeypatch.setattr(worker, "OBSERVE", True)
    worker.collected_observers.clear()
    try:
        importlib.import_module(f"repro.experiments.{module}").run(**kwargs)
        observers = [o for _, o in worker.collected_observers]
        assert len(observers) == worlds
        assert all(o.spans.roots for o in observers)
    finally:
        obs.uninstall()
        worker.collected_observers.clear()


def test_obs_switch_collects_no_observer_for_an_unsupported_cell(monkeypatch):
    """cuda-checkpoint cannot checkpoint an 8-GPU app: the cell simulates
    nothing, so ``phos bench --obs`` has no report to print for it."""
    from repro.experiments import fig11_stall
    from repro.parallel import Cell

    monkeypatch.setattr(worker, "OBSERVE", True)
    worker.collected_observers.clear()
    try:
        rows = fig11_stall.run_cell(
            Cell("fig11", ("checkpoint", "sd-train", "cuda-checkpoint")))
        assert rows == [dict(direction="checkpoint", app="sd-train",
                             system="cuda-checkpoint", stall_s=None,
                             supported=False)]
        assert worker.collected_observers == []
    finally:
        obs.uninstall()
        worker.collected_observers.clear()


class _CountersOnly:
    """The span side of the bench counters pass's observer: one observer
    spans every world, so it has no clock to stamp spans with."""

    def span(self, name, parent=None, **attrs):
        return obs.NULL_SPAN

    def record(self, name, start, end=None, parent=None, **attrs):
        return None


def _golden_row(fig: str, variant: str) -> dict:
    lines = (GOLDENS / f"{fig}.txt").read_text().splitlines()
    columns = lines[1].split()
    (cells,) = [line.split() for line in lines[3:]
                if line.split()[:1] == [variant]]
    return dict(zip(columns, cells))


@pytest.mark.parametrize("fig,module,variant,counter", [
    ("fig17", "fig17_recopy_breakdown", "phos-recopy", "phos/checkpoints"),
    ("fig16", "fig16_cow_breakdown", "phos-cow", "cow/shadow-copies"),
], ids=["fig17-phos-recopy", "fig16-phos-cow"])
def test_figure_cell_keeps_a_callers_counters_only_observer(
        fig, module, variant, counter):
    """A breakdown cell records its phase timeline beside the caller's
    observer, never in place of it: the row is the golden one and the
    caller's counters still see the whole cell."""
    import importlib

    from repro.sim import Engine

    mod = importlib.import_module(f"repro.experiments.{module}")
    (cell,) = [c for c in mod.cells() if c.key[0] == variant]
    mine = obs.Observer(Engine())
    mine.spans = _CountersOnly()
    obs.install(mine)
    try:
        (row,) = mod.run_cell(cell)
        assert obs.active() is mine
    finally:
        obs.uninstall()
    golden = _golden_row(fig, variant)
    assert {col: harness._fmt(row[col]) for col in golden} == golden
    assert sum(c.value for c in mine.metrics.find(counter)) > 0

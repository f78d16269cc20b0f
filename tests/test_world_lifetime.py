"""A dropped world is freed by reference counting alone.

Every case runs with the cycle collector disabled.  It builds a world,
runs one probe on it and drops everything it returned; then every
:class:`~repro.sim.engine.Engine` (homes included) built meanwhile must
already be gone, and a full collection must find no garbage at all —
nothing the run made was a reference cycle.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.fleet.calibrate import FunctionProfile
from repro.fleet.scheduler import FleetConfig, run_fleet
from repro.fleet.traces import TraceConfig, generate
from repro.sim.domains import Home
from repro.sim.engine import Engine
from repro.tasks.live_migration import migrate
from repro.tasks.worker import checkpoint_stall, new_world, restore_stall


@pytest.fixture
def engines(monkeypatch):
    """Weak references to every engine and home built in the test, with
    the collector off (one collection first clears earlier tests)."""
    built = []

    def tracking(cls):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", __init__)

    tracking(Engine)
    tracking(Home)
    gc.collect()
    gc.disable()
    try:
        yield built
    finally:
        gc.enable()


def assert_freed(built):
    assert built, "the probe built no engine"
    alive = [ref() for ref in built if ref() is not None]
    assert not alive, f"engines outlived their world: {alive}"
    assert gc.collect() == 0


def test_checkpoint_stall_world_is_freed(engines):
    result = checkpoint_stall(new_world("resnet152-train"), "cow")
    assert result.checkpoint_stall >= 0
    del result
    assert_freed(engines)


def test_restore_stall_world_is_freed(engines):
    result = restore_stall(new_world("resnet152-infer"), "phos")
    assert result.end_to_end > 0
    del result
    assert_freed(engines)


@pytest.mark.parametrize("clock_domains", [False, True])
def test_migration_world_is_freed(engines, clock_domains):
    result = migrate("phos", "resnet152-train", clock_domains=clock_domains)
    assert result.downtime > 0
    del result
    assert_freed(engines)


@pytest.mark.parametrize("clock_domains", ["single", "per-machine"])
def test_fleet_replay_world_is_freed(engines, clock_domains):
    functions = ("small", "large")
    profiles = {
        name: FunctionProfile(
            system="phos", function=name, n_gpus=n_gpus, supported=True,
            start_s=0.05, nopool_start_s=0.4, exec_s=1.5,
            image_bytes=1 << 28, migration_downtime_s=0.2)
        for name, n_gpus in zip(functions, (1, 2))
    }
    trace = generate(TraceConfig(kind="bursty", rate=3.0, duration=30.0,
                                 seed=4, functions=functions))
    report = run_fleet(trace, FleetConfig(
        n_machines=2, n_gpus=2, failures_per_hour=360.0,
        clock_domains=clock_domains), profiles=profiles)
    assert report.completed > 0
    del report
    assert_freed(engines)

"""Integration tests: the closed-loop fault-tolerance controller."""

import pytest

from repro import units
from repro.apps.base import provision
from repro.apps.specs import get_spec
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.frequency import wasted_gpu_hours
from repro.errors import CheckpointError
from repro.sim import Engine
from repro.tasks.ft_controller import FaultToleranceController, FtRunResult

APP = "resnet152-infer"  # fast steps keep the test quick


def make_controller(failures_per_hour, checkpoint_every=5, seed=7,
                    app="resnet152-train"):
    eng = Engine()
    spec = get_spec(app)
    machine = Machine(eng, n_gpus=spec.n_gpus)
    phos = Phos(eng, machine, use_context_pool=False)
    process, workload = provision(eng, machine, spec)
    phos.attach(process)
    controller = FaultToleranceController(
        eng, phos, process, workload,
        failures_per_hour=failures_per_hour,
        checkpoint_every_iters=checkpoint_every, seed=seed,
    )
    return eng, controller, workload


def run_controller(controller, eng, workload, iters):
    def driver(eng):
        yield from workload.setup()
        result = yield from controller.run(iters)
        return result

    result = eng.run_process(driver(eng))
    eng.run()
    return result


def test_failure_free_run_wastes_little():
    eng, controller, workload = make_controller(failures_per_hour=0.0001)
    result = run_controller(controller, eng, workload, iters=12)
    assert result.failures == 0
    assert result.checkpoints >= 2
    # Concurrent CoW checkpoints barely slow the run.
    assert result.wasted_fraction < 0.15


def test_failures_trigger_recovery_and_completion():
    # ~1 failure per 1.8 virtual seconds against 0.3 s iterations.
    eng, controller, workload = make_controller(failures_per_hour=2000.0,
                                                checkpoint_every=4, seed=3)
    result = run_controller(controller, eng, workload, iters=25)
    assert result.failures >= 1
    assert result.recomputed_iters > 0
    assert result.restore_seconds > 0
    # The run still reached its target.
    assert result.wall_seconds > result.useful_seconds


def test_recovery_resumes_from_latest_image():
    eng, controller, workload = make_controller(failures_per_hour=2500.0,
                                                checkpoint_every=3, seed=11)
    result = run_controller(controller, eng, workload, iters=20)
    if result.failures:
        # Recomputation per failure is bounded by the checkpoint gap
        # plus the in-flight iteration.
        assert result.recomputed_iters <= result.failures * (3 + 2)


def test_more_frequent_checkpoints_reduce_recomputation():
    def recompute(every, seed=5):
        eng, controller, workload = make_controller(
            failures_per_hour=2500.0, checkpoint_every=every, seed=seed
        )
        result = run_controller(controller, eng, workload, iters=24)
        return result.recomputed_iters, result.failures

    sparse, f1 = recompute(every=8)
    dense, f2 = recompute(every=2)
    if f1 and f2:  # same seed, but failure times shift with the runs
        assert dense / max(1, f2) <= sparse / max(1, f1)


def test_measured_waste_matches_model_scale():
    """The measured wasted fraction lands within ~3x of the §A.1
    prediction for the same parameters (the model is an expectation;
    the run is one stochastic sample)."""
    failures_per_hour = 1500.0
    every = 4
    eng, controller, workload = make_controller(
        failures_per_hour=failures_per_hour, checkpoint_every=every, seed=2
    )
    result = run_controller(controller, eng, workload, iters=30)
    if result.failures == 0:
        pytest.skip("no failure drawn for this seed")
    # Compare like-for-like: feed the model the *realized* failure rate
    # (the configured rate is an expectation; one run samples it).
    wall_hours = result.wall_seconds / units.HOUR
    realized_f = result.failures / wall_hours
    f_per_hour = units.HOUR / (every * result.iter_seconds)
    overhead_h = (result.checkpoint_stall_seconds or 0.02) / units.HOUR
    restore_h = (result.restore_seconds / result.failures) / units.HOUR
    predicted = wasted_gpu_hours(
        1, realized_f, wall_hours, overhead_h, restore_h, f_per_hour
    ) / wall_hours
    measured = result.wasted_fraction
    assert measured > 0
    assert predicted / 4 <= measured <= predicted * 4


def test_invalid_interval_rejected():
    eng = Engine()
    spec = get_spec("resnet152-train")
    machine = Machine(eng, n_gpus=1)
    phos = Phos(eng, machine, use_context_pool=False)
    process, workload = provision(eng, machine, spec)
    phos.attach(process)
    with pytest.raises(CheckpointError):
        FaultToleranceController(eng, phos, process, workload, 1.0,
                                 checkpoint_every_iters=0)


def test_wasted_fraction_zero_duration_run_is_zero():
    # Regression: target_iters=0 completes instantly (wall_seconds ==
    # 0.0) and wasted_fraction used to divide by it, poisoning every
    # downstream aggregate with NaN.  A run that took no time wasted
    # nothing.
    result = FtRunResult(target_iters=0, wall_seconds=0.0, iter_seconds=0.0)
    assert result.wasted_fraction == 0.0


def test_wasted_fraction_stays_in_unit_interval():
    result = FtRunResult(target_iters=10, wall_seconds=4.0, iter_seconds=0.3)
    assert 0.0 <= result.wasted_fraction <= 1.0
    # Clamped at zero even if useful time over-counts (restored runs
    # re-credit recomputed iterations).
    result = FtRunResult(target_iters=10, wall_seconds=2.0, iter_seconds=0.3)
    assert result.wasted_fraction == 0.0

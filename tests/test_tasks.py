"""Integration tests for the downstream task drivers (§7)."""

import math

import pytest

from repro.core.engine import EXPERIMENT_CHUNK
from repro.core.protocols import ProtocolConfig
from repro.tasks.fault_tolerance import wasted_fraction
from repro.tasks.live_migration import migrate
from repro.tasks.serverless import cold_start
from repro.tasks.worker import checkpoint_stall, new_world, restore_stall


# --- fault tolerance -----------------------------------------------------------


def _overhead(system, app):
    return checkpoint_stall(new_world(app, system), "cow",
                            ProtocolConfig(chunk_bytes=EXPERIMENT_CHUNK))


@pytest.fixture(scope="module")
def resnet_overheads():
    return {
        system: _overhead(system, "resnet152-train")
        for system in ("phos", "singularity", "cuda-checkpoint")
    }


def test_phos_checkpoint_stall_is_smallest(resnet_overheads):
    phos = resnet_overheads["phos"].checkpoint_stall
    sing = resnet_overheads["singularity"].checkpoint_stall
    cuda = resnet_overheads["cuda-checkpoint"].checkpoint_stall
    assert phos < sing < cuda


def test_singularity_stall_matches_copy_time(resnet_overheads):
    """Stop-the-world stall ~= (GPU + CPU data) / their copy bandwidths."""
    from repro.apps.base import CPU_PAGE_SIZE
    from repro.apps.specs import get_spec
    from repro.cpu.criu import CPU_COPY_BW, DUMP_THREADS
    from repro import units

    spec = get_spec("resnet152-train")
    stall = resnet_overheads["singularity"].checkpoint_stall
    gpu_s = spec.mem_per_gpu / units.PCIE_GEN4_MEASURED
    # CRIU dumps with multiple worker threads.
    cpu_s = spec.cpu_pages * CPU_PAGE_SIZE / (CPU_COPY_BW * DUMP_THREADS)
    assert stall == pytest.approx(gpu_s + cpu_s, rel=0.25)


def test_cuda_checkpoint_unsupported_for_multi_gpu():
    world = new_world("llama2-13b-train", "cuda-checkpoint")
    m = checkpoint_stall(world)
    assert not m.supported
    assert m.spans is None and world.engine.now == 0  # nothing simulated


@pytest.mark.parametrize("steps", [0, -1])
def test_probes_reject_non_positive_steps_before_simulating(steps):
    # Regression: steps=0 ran the whole simulation, then divided the
    # baseline by zero; a negative count measured nonsense.
    from repro.errors import InvalidValueError

    world = new_world("resnet152-train")
    with pytest.raises(InvalidValueError, match="steps must be at least 1"):
        checkpoint_stall(world, steps=steps)
    with pytest.raises(InvalidValueError, match="steps must be at least 1"):
        restore_stall(world, steps=steps)
    assert world.engine.now == 0 and world.workload.steps_done == 0


def test_wasted_fraction_phos_less_than_singularity(resnet_overheads):
    waste = {}
    for system in ("phos", "singularity"):
        m = resnet_overheads[system]
        restore = restore_stall(new_world("resnet152-train"),
                                system).end_to_end
        waste[system], f_star = wasted_fraction(m, restore)
        assert f_star > 0
    assert waste["phos"] < waste["singularity"]


def test_phos_enables_higher_checkpoint_frequency(resnet_overheads):
    f = {}
    for system in ("phos", "singularity"):
        m = resnet_overheads[system]
        _, f[system] = wasted_fraction(m, restore_time=10.0)
    assert f["phos"] > f["singularity"]


# --- live migration -------------------------------------------------------------


@pytest.fixture(scope="module")
def resnet_migrations():
    return {
        system: migrate(system, "resnet152-train")
        for system in ("phos", "singularity")
    }


def test_migration_downtime_phos_smaller(resnet_migrations):
    assert (resnet_migrations["phos"].downtime
            < resnet_migrations["singularity"].downtime)


def test_migration_downtime_positive_and_bounded(resnet_migrations):
    for result in resnet_migrations.values():
        assert 0 < result.downtime <= result.total_time


def test_migration_cuda_checkpoint_unsupported_multi_gpu():
    result = migrate("cuda-checkpoint", "llama2-13b-train")
    assert not result.supported
    assert math.isnan(result.downtime)


def test_migration_clock_domains_matches_single(resnet_migrations):
    """Sharding source and target into clock domains changes the
    downtime only by the explicit control-message hops (microseconds
    against a downtime of tenths of a second)."""
    single = resnet_migrations["phos"]
    sharded = migrate("phos", "resnet152-train", clock_domains=True)
    assert sharded.supported
    assert sharded.downtime == pytest.approx(single.downtime, abs=1e-3)
    assert sharded.total_time == pytest.approx(single.total_time, abs=1e-3)


def test_migration_clock_domains_baselines_rejected():
    from repro.errors import InvalidValueError

    with pytest.raises(InvalidValueError):
        migrate("singularity", "resnet152-train", clock_domains=True)


# --- serverless ------------------------------------------------------------------


@pytest.fixture(scope="module")
def resnet_cold_starts():
    return {
        system: cold_start(system, "resnet152-infer", n_requests=4)
        for system in ("phos", "singularity", "cuda-checkpoint")
    }


def test_cold_start_ordering(resnet_cold_starts):
    phos = resnet_cold_starts["phos"].end_to_end
    sing = resnet_cold_starts["singularity"].end_to_end
    cuda = resnet_cold_starts["cuda-checkpoint"].end_to_end
    assert phos < sing < cuda


def test_cold_start_phos_beats_context_barrier(resnet_cold_starts):
    """Baselines pay the multi-second context barrier; PHOS does not."""
    assert resnet_cold_starts["phos"].end_to_end < 1.0
    assert resnet_cold_starts["singularity"].end_to_end > 2.0


def test_cold_start_rejects_training_apps():
    from repro.errors import InvalidValueError

    with pytest.raises(InvalidValueError):
        cold_start("phos", "resnet152-train")


def test_cold_start_rejects_non_positive_scalars():
    # Regression: n_requests=0 used to produce a zero-length serving
    # loop whose per-request latency divided by zero downstream.
    from repro.errors import InvalidValueError

    with pytest.raises(InvalidValueError):
        cold_start("phos", "resnet152-infer", n_requests=0)
    with pytest.raises(InvalidValueError):
        cold_start("phos", "resnet152-infer", n_requests=-3)


def test_cold_start_unsupported_is_flagged_not_poisonous():
    # cuda-checkpoint cannot serve multi-GPU models: the result row is
    # explicitly unsupported and its NaN timings must be *excluded*
    # from aggregates (repro.stats raises on NaN rather than letting a
    # mean silently go NaN).
    from repro import stats
    from repro.errors import InvalidValueError

    res = cold_start("cuda-checkpoint", "llama3-70b-infer", n_requests=2)
    assert not res.supported
    assert math.isnan(res.end_to_end)
    with pytest.raises(InvalidValueError):
        stats.mean([1.0, res.end_to_end])
    assert stats.supported_samples([res], "end_to_end") == []

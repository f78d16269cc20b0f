"""Unit tests for the cost model, context costs, and unit helpers."""

import pytest

from repro import units
from repro.errors import InvalidValueError
from repro.gpu.context import ContextRequirements, GpuContext, create_context
from repro.gpu.cost_model import (
    CUDA_CHECKPOINT_SPEC,
    DEFAULT_CONTEXT_COSTS,
    SINGULARITY_SPEC,
    GpuSpec,
    KernelCost,
    kernel_duration,
    on_device_copy_time,
)
from repro.sim import Engine


# --- units -------------------------------------------------------------------------


def test_fmt_bytes():
    assert units.fmt_bytes(512) == "512 B"
    assert units.fmt_bytes(2048) == "2.0 KiB"
    assert units.fmt_bytes(72 * units.GIB) == "72.0 GiB"


def test_fmt_seconds():
    assert units.fmt_seconds(5e-6) == "5 us"
    assert units.fmt_seconds(0.185) == "185 ms"
    assert units.fmt_seconds(6.9) == "6.90 s"
    assert units.fmt_seconds(600) == "10.0 min"
    assert units.fmt_seconds(-0.5) == "-500 ms"


def test_transfer_time():
    assert units.transfer_time(32 * units.GB, 32 * units.GB) == pytest.approx(1.0)
    assert units.transfer_time(0, 1.0) == 0.0
    with pytest.raises(ValueError):
        units.transfer_time(1, 0)
    with pytest.raises(ValueError):
        units.transfer_time(-1, 1)


# --- roofline ------------------------------------------------------------------------


def test_compute_bound_kernel():
    spec = GpuSpec()
    cost = KernelCost(flops=spec.flops, bytes_moved=0)
    assert kernel_duration(cost, spec) == pytest.approx(
        1.0 + spec.launch_overhead
    )


def test_memory_bound_kernel():
    spec = GpuSpec()
    cost = KernelCost(flops=0, bytes_moved=spec.hbm_bw)
    assert kernel_duration(cost, spec) == pytest.approx(
        1.0 + spec.launch_overhead
    )


def test_roofline_takes_max():
    spec = GpuSpec()
    cost = KernelCost(flops=spec.flops, bytes_moved=2 * spec.hbm_bw)
    assert kernel_duration(cost, spec) == pytest.approx(
        2.0 + spec.launch_overhead
    )


def test_validator_overhead_scales_with_memory_intensity():
    spec = GpuSpec()
    memory_heavy = KernelCost(flops=1e12, memory_intensity=1.0)
    compute_heavy = KernelCost(flops=1e12, memory_intensity=0.1)
    base = kernel_duration(memory_heavy, spec)
    mem_over = kernel_duration(memory_heavy, spec, instrumented=True) / base
    cmp_over = kernel_duration(compute_heavy, spec, instrumented=True) / base
    assert mem_over == pytest.approx(1.12)  # Fig. 15's 12% cap
    assert cmp_over < mem_over


def test_kernel_cost_validation():
    with pytest.raises(InvalidValueError):
        KernelCost(flops=-1)
    with pytest.raises(InvalidValueError):
        KernelCost(memory_intensity=1.5)


def test_transfer_helpers():
    spec = GpuSpec()
    # On-device copy reads and writes HBM.
    assert on_device_copy_time(spec.hbm_bw, spec) == pytest.approx(2.0)


def test_baseline_specs_order():
    spec = GpuSpec()
    assert (CUDA_CHECKPOINT_SPEC.effective_pcie_bw(spec)
            < SINGULARITY_SPEC.effective_pcie_bw(spec))
    assert CUDA_CHECKPOINT_SPEC.buffer_overhead > 0


# --- context costs ----------------------------------------------------------------------


def test_full_context_creation_time_components():
    c = DEFAULT_CONTEXT_COSTS
    t = c.full_creation_time(n_modules=74, use_cublas=True, nccl_gpus=0)
    expected = c.driver_init + c.memory_setup + 74 * c.per_module_load + c.cublas_create
    assert t == pytest.approx(expected)
    # Matches §2.3's ~3.1 s for a Llama2-13B-inference-sized process.
    assert 2.5 < t < 3.7


def test_context_creation_process():
    eng = Engine()
    reqs = ContextRequirements(n_modules=10, use_cublas=False, nccl_gpus=2)

    def driver(eng):
        ctx = yield from create_context(eng, 0, reqs)
        return ctx, eng.now

    (ctx, elapsed) = eng.run_process(driver(eng))
    assert not ctx.has_cublas
    assert ctx.nccl_scope == 2
    assert len(ctx.loaded_modules) == 10
    assert elapsed == pytest.approx(
        DEFAULT_CONTEXT_COSTS.full_creation_time(10, False, 2)
    )


def test_requirements_satisfaction():
    ctx = GpuContext(gpu_index=0, has_cublas=True, nccl_scope=8)
    assert ContextRequirements(n_modules=5, nccl_gpus=4).satisfied_by(ctx)
    assert not ContextRequirements(n_modules=0, nccl_gpus=16).satisfied_by(ctx)
    bare = GpuContext(gpu_index=0, has_cublas=False)
    assert not ContextRequirements(n_modules=0, use_cublas=True).satisfied_by(bare)
    assert ContextRequirements(n_modules=0, use_cublas=False).satisfied_by(bare)

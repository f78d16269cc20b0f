"""Virtual-time cost model: kernel durations, transfers, context creation.

The model is a classic roofline: a kernel's duration is the larger of
its compute time (flops / peak flops) and its memory time (bytes moved /
HBM bandwidth), plus a fixed launch overhead.  Transfers are bandwidth
over the relevant link.  Context creation reproduces the §2.3
observation that it is comparable to data copying (3.1 s vs 1.7 s in
the paper's motivating experiment): a fixed driver-initialization cost
plus per-module load/JIT costs plus library handle creation.

Validator overhead (§8.2): an instrumented twin kernel pays a
multiplicative slowdown proportional to how memory-bound the kernel is,
which lands the single-digit-percent overheads of Fig. 15 — checks run
only on global accesses, so compute-bound kernels barely notice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.errors import InvalidValueError


@dataclass(frozen=True)
class GpuSpec:
    """Static hardware description of one GPU (defaults: NVIDIA A800)."""

    name: str = "A800-80GB"
    memory_bytes: int = 80 * units.GIB
    #: Peak dense BF16 throughput in flops/second.
    flops: float = 312e12
    #: HBM2e bandwidth in bytes/second.
    hbm_bw: float = units.HBM_BW
    #: Effective host<->device PCIe bandwidth (measured, per footnote 1).
    pcie_bw: float = units.PCIE_GEN4_MEASURED
    #: DMA engine count, shared across directions ("a limited number of
    #: PCIe transfer engines shared between PHOS and applications", §5).
    dma_engines: int = 1
    #: NVLink bandwidth to peer GPUs in the same machine.
    nvlink_bw: float = units.NVLINK_BW
    #: Fixed CPU-side launch overhead per kernel.
    launch_overhead: float = 5 * units.USEC


@dataclass(frozen=True)
class KernelCost:
    """Logical work of one kernel launch, supplied by the workload model.

    The interpreter only runs a handful of threads for functional
    verification; the *timing* comes from these logical totals.
    ``memory_intensity`` (0..1) expresses how memory-bound the kernel
    is and scales the validator overhead.
    """

    flops: float = 0.0
    bytes_moved: float = 0.0
    memory_intensity: float = 0.5

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_moved < 0:
            raise InvalidValueError("kernel cost terms must be non-negative")
        if not 0.0 <= self.memory_intensity <= 1.0:
            raise InvalidValueError(
                f"memory_intensity must be in [0, 1], got {self.memory_intensity}"
            )


#: Fractional slowdown of a fully memory-bound instrumented kernel.
#: Fig. 15 reports 1-12% across workloads; 12% is the memory-bound cap.
VALIDATOR_MAX_OVERHEAD = 0.12


def kernel_duration(cost: KernelCost, spec: GpuSpec, instrumented: bool = False) -> float:
    """Roofline duration of a kernel launch on ``spec``."""
    compute = cost.flops / spec.flops
    memory = cost.bytes_moved / spec.hbm_bw
    duration = max(compute, memory) + spec.launch_overhead
    if instrumented:
        duration *= 1.0 + VALIDATOR_MAX_OVERHEAD * cost.memory_intensity
    return duration


def on_device_copy_time(nbytes: int, spec: GpuSpec) -> float:
    """Device-to-device copy (used by soft CoW); HBM read + write."""
    return units.transfer_time(2 * nbytes, spec.hbm_bw)


@dataclass(frozen=True)
class ContextCostModel:
    """Cost components of GPU context creation (§2.3, §6).

    Calibrated so a Llama2-13B-inference-sized process (74 active
    kernels, cuBLAS in use) pays ~3.1 s, matching Fig. 2.
    """

    #: Driver/hardware initialization (page tables, channels, ...).
    driver_init: float = 1.4
    #: Loading or JIT-compiling one kernel module.
    per_module_load: float = 8 * units.MSEC
    #: cuBLAS handle creation (loads large kernel libraries).
    cublas_create: float = 0.9
    #: NCCL communicator init per participating GPU.
    nccl_init_per_gpu: float = 0.15
    #: Memory-subsystem configuration (allocator, VA space).
    memory_setup: float = 0.6
    #: Cost of handing out a pooled context over IPC instead (§6).
    pool_assignment: float = 10 * units.MSEC

    def full_creation_time(
        self, n_modules: int, use_cublas: bool = True, nccl_gpus: int = 0
    ) -> float:
        """Time to create a context from scratch."""
        total = self.driver_init + self.memory_setup
        total += n_modules * self.per_module_load
        if use_cublas:
            total += self.cublas_create
        total += nccl_gpus * self.nccl_init_per_gpu
        return total


DEFAULT_CONTEXT_COSTS = ContextCostModel()


@dataclass(frozen=True)
class BaselineSpec:
    """Per-system data-path efficiency knobs for the baselines (§8).

    ``copy_efficiency`` scales the effective PCIe bandwidth:
    Singularity is carefully tuned with pinned memory (≈1.0) while
    cuda-checkpoint "cannot achieve a PCIe-fully-utilized data copy
    speed" — the paper's Fig. 11 shows order-of-magnitude gaps.
    """

    name: str
    copy_efficiency: float
    #: Per-buffer bookkeeping cost paid before each buffer's copy.
    buffer_overhead: float = 0.0

    def effective_pcie_bw(self, spec: GpuSpec) -> float:
        return spec.pcie_bw * self.copy_efficiency


SINGULARITY_SPEC = BaselineSpec(name="singularity", copy_efficiency=1.0)
CUDA_CHECKPOINT_SPEC = BaselineSpec(
    name="cuda-checkpoint",
    copy_efficiency=0.12,
    buffer_overhead=0.4 * units.MSEC,
)
PHOS_SPEC = BaselineSpec(name="phos", copy_efficiency=1.0)

"""Application specifications from Table 4 (plus timing calibration).

Buffer counts, per-GPU memory, active kernel counts and GPU counts are
Table 4's measurements.  Iteration/token times are calibrated from the
evaluation text: Llama2-13B training iterates in ~6.9 s (§8.1) and its
inference TTFT is ~0.2 s (§1: a 6.2 s stall is "31x the TTFT").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.errors import InvalidValueError


@dataclass(frozen=True)
class AppSpec:
    """One evaluated application configuration."""

    name: str
    kind: str  # "train" | "infer"
    n_gpus: int
    #: Total GPU memory per GPU (Table 4).
    mem_per_gpu: int
    #: GPU buffers per GPU (Table 4).
    n_buffers: int
    #: Distinct active GPU kernels (Table 4).
    n_kernels: int
    #: Calibrated iteration (train) or per-token (infer) time, seconds.
    step_time: float
    #: CPU-side state in 2 MiB huge pages (dataloader caches, pinned
    #: staging buffers, host-side weight copies for inference runtimes).
    cpu_pages: int
    #: Transformer-style layer count used to shape the buffer groups.
    n_layers: int

    def __post_init__(self) -> None:
        if self.kind not in ("train", "infer"):
            raise InvalidValueError(f"kind must be train/infer, got {self.kind}")


# Table 4, with step-time calibration.  CPU pages are 2 MiB, sized so
# CPU state lands in the single-digit-GB range for training and tens of
# GB for LLM inference (host weight copies) — still less write traffic
# than the GPU side, per Fig. 9's premise.
APP_SPECS: dict[str, AppSpec] = {
    "resnet152-train": AppSpec(
        name="resnet152-train", kind="train", n_gpus=1,
        mem_per_gpu=int(1.8 * units.GIB), n_buffers=209, n_kernels=13,
        step_time=0.30, cpu_pages=1024, n_layers=50,
    ),
    "resnet152-infer": AppSpec(
        name="resnet152-infer", kind="infer", n_gpus=1,
        mem_per_gpu=int(1.7 * units.GIB), n_buffers=195, n_kernels=8,
        step_time=0.02, cpu_pages=512, n_layers=50,
    ),
    "ppo-train": AppSpec(
        name="ppo-train", kind="train", n_gpus=1,
        mem_per_gpu=int(5.9 * units.GIB), n_buffers=75, n_kernels=41,
        step_time=0.8, cpu_pages=2048, n_layers=8,
    ),
    "sd-train": AppSpec(
        name="sd-train", kind="train", n_gpus=8,
        mem_per_gpu=int(70.6 * units.GIB), n_buffers=445, n_kernels=51,
        step_time=5.5, cpu_pages=4096, n_layers=40,
    ),
    "sd-infer": AppSpec(
        name="sd-infer", kind="infer", n_gpus=1,
        mem_per_gpu=int(8.9 * units.GIB), n_buffers=234, n_kernels=50,
        step_time=0.08, cpu_pages=2048, n_layers=40,
    ),
    "llama2-13b-train": AppSpec(
        name="llama2-13b-train", kind="train", n_gpus=8,
        mem_per_gpu=int(73.6 * units.GIB), n_buffers=413, n_kernels=36,
        step_time=6.9, cpu_pages=5120, n_layers=40,
    ),
    "llama2-13b-infer": AppSpec(
        name="llama2-13b-infer", kind="infer", n_gpus=1,
        mem_per_gpu=int(55.4 * units.GIB), n_buffers=347, n_kernels=74,
        step_time=0.045, cpu_pages=14336, n_layers=40,
    ),
    "llama3-70b-infer": AppSpec(
        name="llama3-70b-infer", kind="infer", n_gpus=8,
        mem_per_gpu=int(70.8 * units.GIB), n_buffers=718, n_kernels=73,
        step_time=0.09, cpu_pages=18432, n_layers=80,
    ),
}


def get_spec(name: str) -> AppSpec:
    spec = APP_SPECS.get(name)
    if spec is None:
        raise InvalidValueError(
            f"unknown application {name!r}; available: {sorted(APP_SPECS)}"
        )
    return spec

"""Baseline C/R systems (§8): Singularity and cuda-checkpoint.

Both are stop-the-world systems — checkpoint and restore quiesce the
process for the whole copy, and restore additionally pays the full
context-creation barrier (§2.3).  They are the registry's ``stop-world``
protocols under a different data-path cost model
(:class:`~repro.gpu.cost_model.BaselineSpec`), looked up in
:data:`SYSTEMS`:

* **Singularity** [63] — "We implemented Singularity — the
  state-of-the-art stop-the-world GPU C/R system — in our codebase ...
  we leverage pinned memory to achieve maximum data copy performance"
  (§8): the "carefully tuned" reimplementation the paper compares
  against (full PCIe utilization).
* **cuda-checkpoint** [56] — NVIDIA's official OS-level tool.  The paper
  measures it as "extremely slow, e.g., it cannot achieve a
  PCIe-fully-utilized data copy speed" (its source is closed, so the
  paper — and we — model the observed behaviour): an unpinned,
  per-buffer staged copy path at a small fraction of PCIe bandwidth
  plus per-buffer bookkeeping overhead.  It also "does not support
  checkpointing distributed jobs" (Fig. 12), which we enforce.
"""

from __future__ import annotations

from repro.core.protocols import ProtocolConfig, registry
from repro.errors import CheckpointError, InvalidValueError
from repro.gpu.cost_model import CUDA_CHECKPOINT_SPEC, SINGULARITY_SPEC

#: ``{system name: cost model}`` of every baseline.
SYSTEMS = {spec.name: spec for spec in (SINGULARITY_SPEC, CUDA_CHECKPOINT_SPEC)}

#: Systems that refuse distributed (multi-GPU) jobs.
SINGLE_GPU_ONLY = frozenset({"cuda-checkpoint"})

__all__ = ["SYSTEMS", "checkpoint", "restore", "supports"]


def supports(system: str, n_gpus: int) -> bool:
    """Whether ``system`` can checkpoint/restore an ``n_gpus`` job."""
    return n_gpus <= 1 or system not in SINGLE_GPU_ONLY


def _config(system: str, n_gpus: int, **tunables) -> ProtocolConfig:
    if system not in SYSTEMS:
        raise InvalidValueError(f"unknown system {system!r}")
    if not supports(system, n_gpus):
        raise CheckpointError(
            f"{system} does not support distributed (multi-GPU) jobs"
        )
    return ProtocolConfig(baseline=SYSTEMS[system], **tunables)


def checkpoint(system: str, engine, process, medium, criu, name: str = "",
               keep_stopped: bool = False):
    """Generator: a stop-the-world checkpoint by ``system``; returns the image."""
    protocol = registry.create("stop-world", _config(
        system, len(process.gpu_indices), keep_stopped=keep_stopped,
    ))
    image, _session = yield from protocol.checkpoint(
        engine, process=process, medium=medium, criu=criu,
        name=name or f"{system}-{process.name}",
    )
    return image


def restore(system: str, engine, image, machine, gpu_indices, medium, criu,
            name: str = ""):
    """Generator: ``system``'s restore (context barrier + bulk copy);
    returns the new process."""
    protocol = registry.create("stop-world", kind="restore",
                               config=_config(system, len(gpu_indices)))
    process, _frontend, _session = yield from protocol.restore(
        engine, image, machine, gpu_indices, medium, criu,
        name=name or f"{system}-restored",
    )
    return process

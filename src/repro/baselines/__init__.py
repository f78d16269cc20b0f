"""The evaluated C/R systems (§8), one row each in :data:`SYSTEMS`.

The paper compares three systems on *one* codebase; everything that
distinguishes them lives in their row — the data-path cost model, the
largest job they handle and whether they are concurrent — and
:class:`repro.tasks.worker.Worker` is the only reader that turns a row
into protocol calls.  A stop-the-world row checkpoints and restores by
quiescing the process for the whole copy, and restore additionally pays
the full context-creation barrier (§2.3): the registry's ``stop-world``
protocols under the row's
:class:`~repro.gpu.cost_model.BaselineSpec`.

* **PHOS** — the concurrent system: speculation-validated protocols,
  pooled contexts on restore, live pre-copy migration.
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

from dataclasses import dataclass
from typing import Optional

from repro.errors import InvalidValueError
from repro.gpu.cost_model import (
    CUDA_CHECKPOINT_SPEC,
    PHOS_SPEC,
    SINGULARITY_SPEC,
    BaselineSpec,
)

__all__ = ["SYSTEMS", "System", "get_system"]


@dataclass(frozen=True)
class System:
    """What distinguishes one evaluated system from the others."""

    name: str
    #: Data-path cost model of its stop-the-world copies.
    cost: BaselineSpec
    #: Concurrent C/R: any registered protocol runs as requested,
    #: restore draws pooled contexts, migration pre-copies live.  A row
    #: without it stops the world for every operation.
    concurrent: bool = False
    #: Largest job (in GPUs) it checkpoints or restores; None = any.
    max_gpus: Optional[int] = None

    def supports(self, n_gpus: int) -> bool:
        """Whether the system can checkpoint/restore an ``n_gpus`` job."""
        return self.max_gpus is None or n_gpus <= self.max_gpus


#: ``{system name: row}`` in the order the figures list them.
SYSTEMS = {row.name: row for row in (
    System("phos", PHOS_SPEC, concurrent=True),
    System("singularity", SINGULARITY_SPEC),
    System("cuda-checkpoint", CUDA_CHECKPOINT_SPEC, max_gpus=1),
)}


def get_system(name: str) -> System:
    """The row called ``name``."""
    row = SYSTEMS.get(name)
    if row is None:
        raise InvalidValueError(
            f"unknown system {name!r}; expected one of {tuple(SYSTEMS)}"
        )
    return row

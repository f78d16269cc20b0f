"""DMA transfers over the host<->device PCIe link.

Each GPU has one pool of DMA engines, ``Gpu.dma`` — a
:class:`~repro.sim.resources.Resource` named ``gpu{i}-dma`` shared by
both directions: §5 observes that "GPUs have a limited number of PCIe
transfer engines shared between PHOS and applications", which is why
unthrottled checkpoint traffic starves application transfers
(Fig. 16(b)).  Waiters are served lowest priority number first, so
application traffic (:data:`APP_PRIORITY`) beats checkpoint traffic
(:data:`CHECKPOINT_PRIORITY`) whenever the engine is re-arbitrated —
which only happens when its holder releases it.

:class:`AppCopy` is the application's copy (``cudaMemcpy``), run as a
stream op: it holds the engine for the whole transfer.  The checkpoint
side's prioritized copy, which releases the engine at a 4 MB chunk
boundary whenever a request is waiting, is
:meth:`repro.core.engine.DataMover.move`.
"""

from __future__ import annotations

import enum

from repro import obs, units
from repro.sim.engine import Engine
from repro.sim.resources import Resource

#: Application PCIe traffic: highest priority (lowest number).
APP_PRIORITY = 0
#: Bulk checkpoint/restore traffic: yields to application traffic.
CHECKPOINT_PRIORITY = 10


class Direction(enum.Enum):
    """Transfer direction relative to the GPU."""

    H2D = "h2d"
    D2H = "d2h"


class AppCopy:
    """One application-priority DMA transfer, as the parts of a stream op.

    The stream holds ``hold`` (the engine pool, or nothing for an empty
    copy) from ``start`` — which returns the transfer time — until the
    completion, where ``finish`` counts and returns the bytes moved.
    """

    __slots__ = ("engine", "dma", "direction", "nbytes", "bandwidth",
                 "hold", "_moved")

    def __init__(self, engine: Engine, dma: Resource, direction: Direction,
                 nbytes: int, bandwidth: float) -> None:
        self.engine = engine
        self.dma = dma
        self.direction = direction
        self.nbytes = nbytes
        self.bandwidth = bandwidth
        self.hold = dma if nbytes > 0 else None
        self._moved = None

    def start(self) -> float:
        if self.hold is None:
            return 0.0
        self._moved = obs.counter(
            f"dma/{self.dma.name}/bytes",
            priority=APP_PRIORITY,
            cls="app",
            direction=self.direction.value,
            **self.engine._obs_labels,
        )
        return units.transfer_time(self.nbytes, self.bandwidth)

    def finish(self) -> int:
        if self.hold is None:
            return 0
        self._moved.inc(self.nbytes)
        return self.nbytes

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

:func:`transfer` is the application's copy (``cudaMemcpy``): it holds
the engine for the whole transfer.  The checkpoint side's prioritized
copy, which releases the engine at a 4 MB chunk boundary whenever a
request is waiting, is :meth:`repro.core.engine.DataMover.move`.
"""

from __future__ import annotations

import enum

from repro import obs, units
from repro.sim.engine import Engine
from repro.sim.resources import Resource, acquired

#: Application PCIe traffic: highest priority (lowest number).
APP_PRIORITY = 0
#: Bulk checkpoint/restore traffic: yields to application traffic.
CHECKPOINT_PRIORITY = 10


class Direction(enum.Enum):
    """Transfer direction relative to the GPU."""

    H2D = "h2d"
    D2H = "d2h"


def transfer(engine: Engine, dma: Resource, direction: Direction,
             nbytes: int, bandwidth: float):
    """A generator process: one application-priority DMA transfer.

    Holds one of ``dma``'s engines for the whole transfer time and
    returns the number of bytes moved.
    """
    if nbytes <= 0:
        return 0
    moved_counter = obs.counter(
        f"dma/{dma.name}/bytes",
        priority=APP_PRIORITY,
        cls="app",
        direction=direction.value,
        **engine._obs_labels,
    )
    req = yield from acquired(dma, priority=APP_PRIORITY)
    try:
        yield engine.timeout(units.transfer_time(nbytes, bandwidth))
    finally:
        dma.release(req)
    moved_counter.inc(nbytes)
    return nbytes

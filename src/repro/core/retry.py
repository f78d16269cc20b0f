"""Retry with capped exponential backoff for transient C/R failures.

The hardened protocols treat two failure classes as *transient*: a DMA
transfer erroring mid-flight (:class:`~repro.errors.DmaError`) and a
GPU context creation failing (:class:`~repro.errors.ContextCreationError`).
Both are retried up to ``ProtocolConfig.max_retries`` times with
exponential backoff starting at :data:`BACKOFF` and capped at
``BACKOFF * CAP_FACTOR``; anything past the budget propagates
and the protocol run aborts cleanly (staged image discarded, resources
released).

The clean path adds zero simulation events: :meth:`RetryPolicy.run`
only yields a backoff timeout *after* a retryable exception, so runs
without faults are virtual-time (and golden-) identical to the
unhardened code.
"""

from __future__ import annotations

from typing import Callable

from repro import obs, units
from repro.errors import ContextCreationError, DmaError

#: Base backoff before the first retry; doubles per attempt.  Only spent
#: after a fault, so fault-free runs are virtual-time identical at any
#: value.
BACKOFF = 1 * units.MSEC

#: Backoff ceiling as a multiple of the base backoff (2**5).
CAP_FACTOR = 32

#: Exceptions the protocols treat as transient.
TRANSIENT = (DmaError, ContextCreationError)


class RetryPolicy:
    """Bounded exponential-backoff retry for generator operations."""

    def __init__(self, max_retries: int = 0) -> None:
        self.max_retries = max_retries

    def run(self, engine, make_gen: Callable, site: str = ""):
        """Generator: drive ``make_gen()`` to completion, retrying.

        ``make_gen`` must return a *fresh* generator per call (the
        operation restarts from scratch — movers are idempotent because
        an image record is only written after a full buffer move).
        """
        attempt = 0
        while True:
            try:
                result = yield from make_gen()
                return result
            except TRANSIENT as err:
                attempt += 1
                if attempt > self.max_retries:
                    raise
                obs.counter("protocol/retries", site=site or "-",
                            kind=type(err).__name__).inc()
                yield engine.timeout(BACKOFF * min(2 ** (attempt - 1),
                                                   CAP_FACTOR))

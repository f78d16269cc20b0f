"""The reference fluid link: every arrival re-derives every rate, kept as the oracle.

Until PR 20 this class *was* ``repro.sim.fluid.FluidLink``.  The
production link now keeps the uniform rate once on the link and takes an
O(1) path for an arrival at the very instant it last settled; this copy
stays here, outside ``src/``, storing a rate on every ``_Flow`` and
running the full retire / recompute / ``min`` pass on every flow-set
change, so ``test_property_fluid.py`` can demand that both complete the
same flows at the same float instants in the same order with the same
number of scheduler records.  It is the old module verbatim, less the
clock-domain affinity check (so it also keeps the old, laxer parameter
checks: drive it with finite values only).  Do not optimise it.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.errors import InvalidValueError
from repro.sim.engine import Engine
from repro.sim.events import Event

_flow_ids = itertools.count(1)

#: A flow is finished when less than this many bytes remain.  Bytes are
#: physically discrete, so sub-millibyte float residue is pure noise —
#: without this, residues of ~1e-7 bytes at multi-GB/s rates produce
#: drain times below the clock's float resolution and the timer spins.
_FINISH_EPS = 1e-3


class _FlowDone(Event):
    """A flow's completion event; like ``Timeout``, it formats its name
    only when somebody asks (one is minted per DMA chunk)."""

    __slots__ = ("link", "flow_id")

    def __init__(self, link: "FluidLink", flow_id: int) -> None:
        super().__init__(link.engine)
        self.link = link
        self.flow_id = flow_id

    @property
    def name(self) -> str:
        return f"{self.link.name}-flow{self.flow_id}"


class _Flow:
    def __init__(self, nbytes: float, weight: float, cap: Optional[float]) -> None:
        self.id = next(_flow_ids)
        self.remaining = float(nbytes)
        self.weight = weight
        self.cap = cap
        self.rate = 0.0
        self.done: Optional[Event] = None


class FluidLink:
    """A bandwidth pipe shared by concurrent flows.

    ``flow(nbytes)`` returns a generator suitable for ``yield from``
    inside a simulation process; it completes when the bytes have
    drained.
    """

    def __init__(self, engine: Engine, bandwidth: float, name: str = "link",
                 latency: float = 0.0) -> None:
        if bandwidth <= 0:
            raise InvalidValueError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise InvalidValueError(f"latency must be non-negative, got {latency}")
        self.engine = engine
        self.bandwidth = float(bandwidth)
        self.name = name
        #: Propagation latency appended after the drain: a flow() caller
        #: resumes at drain + latency.  Zero (the default) adds no extra
        #: event, so the historical timing is untouched.
        self.latency = float(latency)
        self._flows: list[_Flow] = []
        self._last_update = 0.0
        self._timer_generation = 0

    # -- public API ---------------------------------------------------------------
    def flow(self, nbytes: float, weight: float = 1.0, rate_cap: Optional[float] = None):
        """Generator: push ``nbytes`` through the link (drain + latency)."""
        yield from self._flow_raw(nbytes, weight=weight, rate_cap=rate_cap)
        if self.latency:
            yield self.engine.timeout(self.latency)

    def _flow_raw(self, nbytes: float, weight: float = 1.0,
                  rate_cap: Optional[float] = None):
        """Generator: drain ``nbytes`` with no propagation tail.

        Used by senders that hand completion to the *receiver* through a
        DomainChannel (which carries the same latency), so the latency
        is not paid twice.
        """
        engine = self.engine
        if nbytes < 0:
            raise InvalidValueError(f"nbytes must be non-negative, got {nbytes}")
        if weight <= 0:
            raise InvalidValueError(f"weight must be positive, got {weight}")
        if rate_cap is not None and rate_cap <= 0:
            raise InvalidValueError(f"rate_cap must be positive, got {rate_cap}")
        if nbytes == 0:
            yield engine.timeout(0.0)
            return
        f = _Flow(nbytes, weight, rate_cap)
        f.done = _FlowDone(self, f.id)
        self._advance()
        self._flows.append(f)
        self._reschedule()
        yield f.done

    @property
    def active_flows(self) -> int:
        """Number of flows currently draining."""
        return len(self._flows)

    def current_rate(self) -> float:
        """Aggregate bytes/second currently moving through the link."""
        self._advance()
        self._recompute_rates()
        return sum(f.rate for f in self._flows)

    # -- internals ------------------------------------------------------------------
    def _advance(self) -> None:
        """Account progress since the last update at the old rates."""
        now = self.engine.now
        dt = now - self._last_update
        if dt > 0:
            for f in self._flows:
                f.remaining -= f.rate * dt
        self._last_update = now

    def _recompute_rates(self) -> None:
        """Water-filling: capped flows first, remainder shared by weight."""
        flows = self._flows
        if not flows:
            return
        bw = self.bandwidth
        cap = flows[0].cap
        for f in flows:
            if f.weight != 1.0 or f.cap != cap:
                break
        else:
            # Uniform flows (the usual case): everyone gets the fair
            # share or everyone is pinned at the one cap — the same
            # floats the general loop below produces, in one pass.
            rate = bw / len(flows)  # == bw * 1.0 / (the sum of n 1.0s)
            if cap is not None and cap < rate:
                rate = cap
            for f in flows:
                f.rate = rate
            return
        # Iteratively pin flows whose fair share exceeds their cap.
        unpinned = flows
        while True:
            total_weight = sum(f.weight for f in unpinned)
            if total_weight == 0:
                break
            pinned_now = []
            for f in unpinned:
                share = bw * f.weight / total_weight
                if f.cap is not None and f.cap < share:
                    f.rate = f.cap
                    pinned_now.append(f)
            if not pinned_now:
                for f in unpinned:
                    f.rate = bw * f.weight / total_weight
                break
            bw -= sum(f.cap for f in pinned_now)
            unpinned = [f for f in unpinned if f not in pinned_now]
            if not unpinned:
                break

    def _reschedule(self) -> None:
        """Retire finished flows, recompute rates, schedule the next completion."""
        finished = [f for f in self._flows if f.remaining <= _FINISH_EPS]
        if finished:  # most calls are arrivals: nothing to retire
            self._flows = [f for f in self._flows
                           if f.remaining > _FINISH_EPS]
            for f in finished:
                f.done.succeed()
        if not self._flows:
            return
        self._recompute_rates()
        self._timer_generation += 1
        generation = self._timer_generation
        next_dt = min(f.remaining / f.rate for f in self._flows if f.rate > 0)
        # Guard against float underflow: a flow whose residual drain time
        # cannot advance the clock is already as good as finished.
        if self.engine.now + next_dt <= self.engine.now:
            for f in self._flows:
                if f.rate > 0 and self.engine.now + f.remaining / f.rate <= self.engine.now:
                    f.remaining = 0.0
            self._reschedule()
            return
        # call_at ships the generation as the record payload, so every
        # retimed completion avoids one closure allocation.
        self.engine.call_at(
            self.engine.now + next_dt, self._on_timer, generation
        )

    def _on_timer(self, generation: int) -> None:
        if generation != self._timer_generation:
            return  # superseded by a newer flow-set change
        self._advance()
        self._reschedule()

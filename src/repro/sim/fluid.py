"""A fluid (processor-sharing) bandwidth link.

Concurrent flows through a :class:`FluidLink` share its bandwidth in
proportion to their weights, optionally limited by a per-flow rate cap.
This models the paper's Fig. 9 observation that CPU and GPU checkpoint
streams "share the checkpoint bandwidth and thus interfere with each
other": both write the same checkpoint medium, so each runs at roughly
half rate while the other is active.

The implementation is event-driven: whenever the set of active flows
changes, every flow's progress is advanced at its old rate, rates are
recomputed, and the next completion is rescheduled.

Settled links
-------------

That general pass scans every flow four times (finished list,
uniformity check, rate assignment, smallest drain time).  Most arrivals
do not need it: eight copiers finish a chunk on one timer and re-arrive
one by one at that same instant; a coalesced chunk follows its
predecessor.  So the link remembers what it just computed.  While every
flow has weight 1.0 and the same cap — *uniform* mode — the one rate
lives on the link (``_rate``), not on each flow; ``_reschedule`` keeps
the smallest remainder it found (``_min_remaining``) and stamps
``_settled_at = now``.  A flow that arrives while the stamp equals
``now``, on a link that is uniform (or empty), with weight 1.0, the
link's cap and more than ``_FINISH_EPS`` bytes, joins in O(1): append,
``rate = bandwidth / len(flows)`` against the cap, ``m = min(kept,
newcomer)``, bump the generation, ``call_at(now + m / rate)``.

The stamp never needs clearing.  Remainders change only in ``_advance``
and only once the clock has passed ``_last_update``, which is never
behind the stamp (every ``_reschedule`` follows an ``_advance`` at the
same instant) — after that, ``_settled_at == now`` cannot hold again
until the next ``_reschedule`` re-stamps.  It is a field of its own, not
``_last_update``, because of ``current_rate()``: the one caller that
advances a link without rescheduling it.

Why that is the general pass's result, float for float.  With ``dt ==
0`` ``_advance`` is a no-op.  Nothing can have finished: the
``_reschedule`` that stamped this instant retired every flow at or
below the epsilon, nothing has drained since, and the newcomer is above
it.  The uniform branch of ``_recompute_rates`` computes that same
``rate``.  And correctly-rounded division by one positive rate is
monotonic, so ``min(f.remaining / rate)`` *is* ``min(f.remaining) /
rate``.  Hence the same generation and the same ``K_CALL1`` record with
the same float deadline, pushed at the same position in the same bucket
— superseded timers included, so ``events_scheduled`` does not move.
When ``now + m / rate`` would not advance the clock the arrival falls
back to the general pass, whose underflow guard owns that case.  The
link before this change is the oracle in ``tests/reference_fluid.py``;
``tests/test_property_fluid.py`` drives both with the same flow soups.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.errors import InvalidValueError
from repro.sim.engine import Engine
from repro.sim.events import Event

_flow_ids = itertools.count(1)

_INF = float("inf")

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
    __slots__ = ("id", "remaining", "weight", "cap", "rate", "done")

    def __init__(self, nbytes: float, weight: float, cap: Optional[float]) -> None:
        self.id = next(_flow_ids)
        self.remaining = float(nbytes)
        self.weight = weight
        self.cap = cap
        #: Assigned by the water-filling; unused while the link is uniform.
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
        if not 0 < bandwidth < _INF:
            raise InvalidValueError(
                f"bandwidth must be positive and finite, got {bandwidth}")
        if not 0 <= latency < _INF:
            raise InvalidValueError(
                f"latency must be non-negative and finite, got {latency}")
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
        #: Uniform mode (see the module docstring): every flow has
        #: weight 1.0 and cap ``_cap``, and drains at ``_rate``.
        self._uniform = True
        self._cap: Optional[float] = None
        self._rate = 0.0
        #: The instant of the last ``_reschedule`` (None before the
        #: first) and the smallest remainder it left (inf on an empty
        #: link; meaningless in mixed mode).
        self._settled_at: Optional[float] = None
        self._min_remaining = _INF

    # -- public API ---------------------------------------------------------------
    def flow(self, nbytes: float, weight: float = 1.0, rate_cap: Optional[float] = None):
        """Generator: push ``nbytes`` through the link (drain + latency)."""
        engine = self.engine
        # Chained comparisons, so NaN fails them too: a non-finite flow
        # would sit on the link for ever without an error.
        if not 0 <= nbytes < _INF:
            raise InvalidValueError(
                f"nbytes must be non-negative and finite, got {nbytes}")
        if not 0 < weight < _INF:
            raise InvalidValueError(
                f"weight must be positive and finite, got {weight}")
        if rate_cap is not None and not 0 < rate_cap < _INF:
            raise InvalidValueError(
                f"rate_cap must be positive and finite, got {rate_cap}")
        if nbytes == 0:
            done = engine.timeout(0.0)
        else:
            f = _Flow(nbytes, weight, rate_cap)
            done = f.done = _FlowDone(self, f.id)
            flows = self._flows
            now = when = engine._now
            # The O(1) arrival ("Settled links" in the module docstring):
            # the link settled at this very instant and f keeps it uniform.
            if self._settled_at == now and weight == 1.0 \
                    and f.remaining > _FINISH_EPS \
                    and (not flows or (self._uniform and rate_cap == self._cap)):
                rate = self.bandwidth / (len(flows) + 1)
                if rate_cap is not None and rate_cap < rate:
                    rate = rate_cap
                smallest = self._min_remaining
                if f.remaining < smallest:
                    smallest = f.remaining
                when = now + smallest / rate
            if when > now:
                flows.append(f)
                self._uniform = True
                self._cap = rate_cap
                self._rate = rate
                self._min_remaining = smallest
                self._timer_generation += 1
                engine.call_at(when, self._on_timer, self._timer_generation)
            else:  # the general pass, whose underflow guard owns when == now
                self._advance()
                flows.append(f)
                self._reschedule()
        yield done
        if self.latency:
            yield engine.timeout(self.latency)

    @property
    def active_flows(self) -> int:
        """Number of flows currently draining."""
        return len(self._flows)

    def current_rate(self) -> float:
        """Aggregate bytes/second currently moving through the link."""
        self._advance()
        self._recompute_rates()
        if self._uniform:
            return sum([self._rate] * len(self._flows))
        return sum(f.rate for f in self._flows)

    # -- internals ------------------------------------------------------------------
    def _advance(self) -> None:
        """Account progress since the last update at the old rates."""
        now = self.engine._now
        dt = now - self._last_update
        if dt > 0:
            if self._uniform:
                drained = self._rate * dt
                for f in self._flows:
                    f.remaining -= drained
            else:
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
            # floats the general loop below produces, kept once.
            rate = bw / len(flows)  # == bw * 1.0 / (the sum of n 1.0s)
            if cap is not None and cap < rate:
                rate = cap
            self._uniform = True
            self._cap = cap
            self._rate = rate
            return
        self._uniform = False
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
        now = self.engine._now
        self._settled_at = now
        flows = self._flows
        if not flows:
            self._min_remaining = _INF
            return
        self._recompute_rates()
        self._timer_generation += 1
        generation = self._timer_generation
        uniform = self._uniform
        if uniform:
            # min of the quotients == quotient of the min (monotonic).
            self._min_remaining = min([f.remaining for f in flows])
            next_dt = self._min_remaining / self._rate
        else:
            next_dt = min(f.remaining / f.rate for f in flows if f.rate > 0)
        # Guard against float underflow: a flow whose residual drain time
        # cannot advance the clock is already as good as finished.
        if now + next_dt <= now:
            for f in flows:
                rate = self._rate if uniform else f.rate
                if rate > 0 and now + f.remaining / rate <= now:
                    f.remaining = 0.0
            self._reschedule()
            return
        # call_at ships the generation as the record payload, so every
        # retimed completion avoids one closure allocation.
        self.engine.call_at(now + next_dt, self._on_timer, generation)

    def _on_timer(self, generation: int) -> None:
        if generation != self._timer_generation:
            return  # superseded by a newer flow-set change
        self._advance()
        self._reschedule()

"""The per-machine warm snapshot pool.

A serverless worker keeps a bounded set of function checkpoint images
*warm* — resident in host DRAM, ready to restore without first fetching
the image from remote storage (the Fig. 14 setting assumes the image is
already local; this pool decides when that assumption holds).  The pool
is LRU: serving a function refreshes its entry, inserting into a full
pool evicts the least-recently-used image.

The pool also carries the machine's *context-pool* accounting (§6):
the PHOS daemon pre-creates ``contexts_per_gpu`` GPU contexts per GPU
and refills handed-out slots in the background.  A restore that finds a
pooled context pays the ~10 ms IPC assignment; one that does not pays
the full multi-second creation barrier — exactly the warm/no-pool
profile split measured by :mod:`repro.fleet.calibrate`.

Hits, misses and evictions are exported as ``fleet/pool-*`` obs
counters labelled with the machine name.
"""

from __future__ import annotations

from collections import OrderedDict

from repro import obs
from repro.errors import InvalidValueError


class SnapshotPool:
    """Bounded LRU pool of warm (DRAM-resident) snapshot images."""

    def __init__(self, capacity: int, name: str = "pool",
                 context_slots: int = 0) -> None:
        if not isinstance(capacity, int) or isinstance(capacity, bool):
            raise InvalidValueError(
                f"snapshot-pool capacity must be an int, got {capacity!r}"
            )
        if capacity < 1:
            raise InvalidValueError(
                f"snapshot-pool capacity must be >= 1, got {capacity}"
            )
        if context_slots < 0:
            raise InvalidValueError(
                f"context_slots must be >= 0, got {context_slots}"
            )
        self.capacity = capacity
        self.name = name
        #: function name -> warm image marker, most-recently-used last.
        self._entries: OrderedDict[str, bool] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Pooled GPU contexts currently available on this machine.
        self.contexts_free = context_slots
        self.context_slots = context_slots
        self.context_hits = 0
        self.context_misses = 0

    # -- warm-image lookups --------------------------------------------------
    def lookup(self, function: str) -> bool:
        """Is ``function``'s image warm?  Refreshes LRU order on a hit."""
        if function in self._entries:
            self._entries.move_to_end(function)
            self.hits += 1
            obs.counter("fleet/pool-hits", machine=self.name).inc()
            return True
        self.misses += 1
        obs.counter("fleet/pool-misses", machine=self.name).inc()
        return False

    def insert(self, function: str) -> None:
        """Warm ``function``'s image, evicting the LRU entry if full."""
        if function in self._entries:
            self._entries.move_to_end(function)
            return
        while len(self._entries) >= self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self.evictions += 1
            obs.counter("fleet/pool-evictions", machine=self.name,
                        function=evicted).inc()
        self._entries[function] = True

    def clear(self) -> None:
        """Drop every warm image (the machine's DRAM was lost)."""
        self._entries.clear()
        self.contexts_free = self.context_slots

    def warm_functions(self) -> list[str]:
        """Warm entries, least-recently-used first."""
        return list(self._entries)

    # -- pooled-context accounting ------------------------------------------
    def take_context(self) -> bool:
        """Claim a pooled GPU context; False = pay the creation barrier."""
        if self.contexts_free > 0:
            self.contexts_free -= 1
            self.context_hits += 1
            obs.counter("fleet/context-hits", machine=self.name).inc()
            return True
        self.context_misses += 1
        obs.counter("fleet/context-misses", machine=self.name).inc()
        return False

    def refill_context(self) -> None:
        """A background refill finished: one more pooled context."""
        if self.contexts_free < self.context_slots:
            self.contexts_free += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SnapshotPool {self.name} {len(self._entries)}/"
                f"{self.capacity} ctx={self.contexts_free}>")

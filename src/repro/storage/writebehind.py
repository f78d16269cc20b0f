"""Asynchronous tiered write-behind for committed checkpoint images.

The §A.1 frequency model wants checkpoints taken often, which means
they must commit to the fastest tier (host DRAM) and *stay* cheap; but
DRAM is neither durable nor big.  The classic answer — and the ROADMAP
"continuously-streaming checkpoints" item — is write-behind: a
checkpoint commits to the DRAM-tier :class:`ImageCatalog` immediately,
and a background drainer streams the committed image down the tier
stack (DRAM → SSD → remote DRAM) through the media's fluid links while
the application keeps running.

Ordering and failure rules:

* the drainer is strictly FIFO and drains one image through the whole
  stack at a time, so a delta never reaches a tier before its parent —
  each tier's catalog accepts the commit because the parent replica is
  already committed *there*;
* each tier holds its own replica object (catalog ``committed`` /
  ``revoked`` are per-object flags) sharing the sealed payload dicts
  with the DRAM image and carrying the *same* image id, so parent
  resolution by id works per tier;
* a replica is staged on its tier before its bytes move and committed
  only after they arrive; a drainer crash mid-move discards (revokes)
  the staged replica — the partially-drained tier never exposes a torn
  image, while every fully-drained tier and the DRAM original stay
  committed and restorable;
* the queue is bounded: :meth:`WriteBehindDrainer.enqueue` blocks (in
  virtual time) when ``depth`` images are waiting, which backpressures
  the ``continuous`` protocol's next round instead of letting DRAM-tier
  images pile up faster than the slowest tier absorbs them.

Chaos addressing: the drainer reports ``drain:t{k}`` / ``publish:t{k}``
phase entries under the protocol name ``continuous-drain``, so the
matrix can kill it between any two tiers (see
``repro.chaos.matrix``).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro import chaos, obs
from repro.errors import ReproError
from repro.storage.delta import DeltaImage
from repro.storage.image import CheckpointImage
from repro.storage.media import Medium

#: Chaos protocol name for drainer phase entries.
DRAIN_PROTOCOL = "continuous-drain"

#: Committed images that may wait on the slowest tier before enqueueing
#: the next one backpressures the stream.
DRAIN_DEPTH = 2


def tier_replica(image: CheckpointImage) -> CheckpointImage:
    """A per-tier image object sharing ``image``'s sealed payload.

    Catalog lifecycle flags (staged/committed/revoked) live on the
    image object, so every tier needs its own instance with fresh ones;
    the payload dicts are shared (sealed images are immutable) and the
    id is copied so ``parent_id`` resolution works against the tier's
    own catalog.  A delta's ``parent_ref`` is dropped: on a lower tier
    the chain must resolve through that tier's catalog, never through a
    same-process pointer into another tier.
    """
    fresh = {"committed": False, "revoked": False, "revoked_reason": ""}
    if isinstance(image, DeltaImage):
        fresh["parent_ref"] = None
    return dataclasses.replace(image, **fresh)


@dataclass
class DrainStats:
    """Counters for one drainer's lifetime."""

    images_drained: int = 0
    images_dropped: int = 0
    backpressure_waits: int = 0
    bytes_per_tier: dict[str, int] = field(default_factory=dict)
    revoked_partials: int = 0


class WriteBehindDrainer:
    """Background DRAM → SSD → remote streamer for committed images.

    ``tiers[0]`` is the DRAM-tier medium the protocol commits to; the
    drainer replicates each enqueued image to ``tiers[1:]`` in order.
    """

    def __init__(self, engine, tiers: Sequence[Medium],
                 depth: int = DRAIN_DEPTH,
                 name: str = "write-behind") -> None:
        if len(tiers) < 2:
            raise ReproError(
                "write-behind needs at least two tiers (source + one sink)"
            )
        if depth < 1:
            raise ReproError(f"drain depth must be >= 1, got {depth}")
        self.engine = engine
        self.tiers = list(tiers)
        self.depth = depth
        self.name = name
        self.stats = DrainStats()
        #: The fault that stopped the drainer, if any.
        self.failed: Optional[BaseException] = None
        #: Fires when the drainer exits (all work done, or dead).
        self.done = engine.event(name=f"{name}-done")
        self.proc = None
        self._queue: deque = deque()
        self._stopping = False
        self._item_ev = None
        self._space_ev = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        self.proc = self.engine.spawn(self._run(), name=self.name)

    def finish(self) -> None:
        """Stop accepting work; the drainer exits once the queue drains."""
        self._stopping = True
        self._fire_item()

    @property
    def alive(self) -> bool:
        return self.failed is None and not self.done.triggered

    @property
    def idle(self) -> bool:
        return not self._queue and self._busy is None

    # -- producer side -------------------------------------------------------
    def enqueue(self, image: CheckpointImage):
        """Generator: queue a committed image, blocking while full.

        Returns True when accepted; False when the drainer is stopped
        or dead (the image simply stays DRAM-only — dropping is the
        only non-blocking option once the sink is gone, and the DRAM
        commit is already durable at tier 0).
        """
        while self.alive and not self._stopping \
                and len(self._queue) >= self.depth:
            self.stats.backpressure_waits += 1
            obs.counter("storage/drain-backpressure").inc()
            yield self._wait_space()
        if not self.alive or self._stopping:
            self.stats.images_dropped += 1
            return False
        self._queue.append(image)
        self._fire_item()
        return True

    # -- drain loop ----------------------------------------------------------
    _busy: Optional[CheckpointImage] = None

    def _run(self):
        try:
            while True:
                while not self._queue:
                    if self._stopping:
                        return
                    yield self._wait_item()
                self._busy = self._queue.popleft()
                self._fire_space()
                try:
                    yield from self._drain_image(self._busy)
                    self.stats.images_drained += 1
                    obs.counter("storage/drain-images").inc()
                finally:
                    self._busy = None
        except ReproError as err:
            # An injected crash (or a tier fault) stops the stream; the
            # partial replica was already discarded by _drain_image.
            self.failed = err
            self._queue.clear()
            self._fire_space()
        finally:
            if not self.done.triggered:
                self.done.succeed()

    def _drain_image(self, image: CheckpointImage):
        nbytes = image.stored_bytes()
        src = self.tiers[0]
        for k, dst in enumerate(self.tiers[1:], start=1):
            self._chaos(f"drain:t{k}")
            replica = tier_replica(image)
            staged = False
            try:
                dst.images.stage(replica)
                staged = True
                if nbytes > 0:
                    # Source read and sink write overlap; the hop takes
                    # the slower of the two ends.
                    reader = self.engine.spawn(
                        src.read_flow(nbytes), name=f"{self.name}-read-t{k}"
                    )
                    yield from dst.write_flow(nbytes)
                    yield reader
                self._chaos(f"publish:t{k}")
                dst.images.commit(replica)
                staged = False
            except BaseException:
                if staged:
                    dst.images.discard(
                        replica,
                        reason="write-behind drain interrupted mid-tier",
                    )
                    self.stats.revoked_partials += 1
                    obs.counter("storage/drain-revoked").inc()
                raise
            self.stats.bytes_per_tier[dst.name] = (
                self.stats.bytes_per_tier.get(dst.name, 0) + nbytes
            )
            obs.counter("storage/drain-bytes", tier=dst.name).inc(nbytes)
            src = dst

    # -- chaos / events ------------------------------------------------------
    @staticmethod
    def _chaos(phase: str) -> None:
        if chaos._injector is not None:
            chaos._injector.enter_phase(DRAIN_PROTOCOL, phase, None)

    def _wait_item(self):
        if self._item_ev is None or self._item_ev.triggered:
            self._item_ev = self.engine.event(name=f"{self.name}-item")
        return self._item_ev

    def _fire_item(self) -> None:
        if self._item_ev is not None and not self._item_ev.triggered:
            self._item_ev.succeed()

    def _wait_space(self):
        if self._space_ev is None or self._space_ev.triggered:
            self._space_ev = self.engine.event(name=f"{self.name}-space")
        return self._space_ev

    def _fire_space(self) -> None:
        if self._space_ev is not None and not self._space_ev.triggered:
            self._space_ev.succeed()

"""The continuous checkpoint protocol: streamed deltas + write-behind.

This is the §A.1 frequency model taken to its operating point: instead
of one checkpoint per request, a ``continuous`` run commits a chain of
incremental images — a self-contained root, then dirty-scaled deltas —
each landing on the DRAM-tier catalog the moment it seals, while a
background :class:`~repro.storage.writebehind.WriteBehindDrainer`
streams every committed image down the DRAM → SSD → remote tier stack.
The application only ever pays the incremental protocol's concurrent
copy cost per round; durability deepens asynchronously behind it.

Streaming changes the failure contract.  A classic protocol run is
atomic: abort means *no* image.  A stream is prefix-atomic: a fault in
round ``r`` (or in the drainer) leaves rounds ``0..r-1`` committed and
restorable on the DRAM tier, with any partially-drained lower-tier
replica revoked — the run returns the committed prefix instead of
raising, unless nothing committed at all.  The chaos matrix checks
exactly this contract (``repro.chaos.matrix``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro import obs
from repro.core.protocols import registry
from repro.core.protocols.base import (
    RETRY_SUPPORTS,
    Protocol,
    ProtocolConfig,
    ProtocolContext,
)
from repro.errors import ReproError
from repro.storage.media import tier_stack
from repro.storage.writebehind import WriteBehindDrainer


@dataclass
class StreamSummary:
    """What a continuous run did: the committed chain + drain results."""

    tiers: list[str] = field(default_factory=list)
    #: Committed images, chain order (root first).
    images: list = field(default_factory=list)
    rounds_committed: int = 0
    #: The fault that ended the stream early, if any (the run still
    #: returns normally when at least one round committed).
    error: Optional[BaseException] = None
    #: The drainer's fault, if the write-behind side died.
    drain_error: Optional[BaseException] = None
    drain_stats: Any = None

    @property
    def complete(self) -> bool:
        return self.error is None and self.drain_error is None


#: Inner-round tunables forwarded to the incremental protocol.
_INNER_FIELDS = ("coordinated", "prioritized", "chunk_bytes",
                 "content_chunk_bytes", "bandwidth_scale", "max_retries")


@registry.register
class ContinuousCheckpoint(Protocol):
    """Streamed incremental checkpoints with tiered write-behind."""

    name = "continuous"
    kind = "checkpoint"
    #: Marks the prefix-atomic failure contract for the chaos matrix.
    streaming = True
    supports = frozenset({
        "coordinated", "prioritized", "chunk_bytes", "content_chunk_bytes",
        "bandwidth_scale", "parent", "interval", "rounds", "drain_tiers",
    }) | RETRY_SUPPORTS
    needs_frontend = True
    summary = ("streams a chain of dirty-scaled incremental checkpoints "
               "(DRAM-tier commit per round) while a background drainer "
               "replicates each committed image down the DRAM->SSD->remote "
               "tier stack; faults keep the committed prefix restorable")

    def _run_checkpoint(self, ctx: ProtocolContext):
        engine, cfg = ctx.engine, self.config
        name = ctx.name or f"continuous-{ctx.process.name}"
        tiers = (list(cfg.drain_tiers) if cfg.drain_tiers is not None
                 else tier_stack(engine, ctx.medium))
        if tiers[0] is not ctx.medium:
            raise ReproError(
                "drain_tiers[0] must be the checkpoint medium itself "
                "(the DRAM tier rounds commit to)"
            )
        drainer = WriteBehindDrainer(engine, tiers, name=f"{name}-drain")
        drainer.start()
        stream = StreamSummary(tiers=[t.name for t in tiers])
        last = cfg.parent
        try:
            with obs.span(f"checkpoint/{self.name}", **self.span_attrs(ctx)):
                self._chaos_enter("admit", ctx)
                for r in range(cfg.rounds):
                    if r > 0 and cfg.interval > 0:
                        yield engine.timeout(cfg.interval)
                    # Stream-level chaos addressing: the first round is
                    # the stream's "quiesce", later rounds its
                    # "transfer" (each inner run reports its own
                    # phases under the ``incremental`` name).
                    self._chaos_enter("quiesce" if r == 0 else "transfer",
                                      ctx)
                    inner = registry.create("incremental", self._round_config(last))
                    image, session = yield from inner.checkpoint(
                        engine, process=ctx.process, frontend=ctx.frontend,
                        medium=ctx.medium, criu=ctx.criu,
                        name=f"{name}@{r}",
                    )
                    ctx.image, ctx.session = image, session
                    stream.images.append(image)
                    stream.rounds_committed += 1
                    last = image
                    obs.counter("protocol/continuous-rounds").inc()
                    self._chaos_enter("validate", ctx)
                    # Backpressure: blocks while ``DRAIN_DEPTH`` images
                    # already wait on the slowest tier.
                    yield from drainer.enqueue(image)
                    self._chaos_enter("commit", ctx)
        except ReproError as err:
            if stream.rounds_committed == 0:
                # Nothing committed: behave like an atomic protocol.
                drainer.finish()
                obs.counter("protocol/aborts", protocol=self.name,
                            outcome="crash").inc()
                raise
            # Prefix-atomic: the committed rounds stay restorable; the
            # stream just ends early and reports why.
            stream.error = err
            obs.counter("protocol/continuous-truncated").inc()
        finally:
            drainer.finish()
        # Let the write-behind side settle (drains the queue, or fires
        # immediately when the drainer died) before reporting.
        yield drainer.done
        stream.drain_error = drainer.failed
        stream.drain_stats = drainer.stats
        ctx.extras["stream"] = stream
        ctx.extras["drainer"] = drainer
        return last, stream

    def _round_config(self, parent) -> ProtocolConfig:
        """The inner incremental protocol's config for one round."""
        kwargs = {f: getattr(self.config, f) for f in _INNER_FIELDS}
        return ProtocolConfig(parent=parent, **kwargs)

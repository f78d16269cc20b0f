"""Human-readable reports for checkpoint/restore operations.

Used by the CLI and handy in notebooks: renders a
:class:`~repro.core.session.CheckpointSession`'s statistics, an image's
inventory, and a :mod:`repro.obs` span tree's phase breakdown as
aligned text.
"""

from __future__ import annotations

from typing import Optional

from repro import units
from repro.core.session import CheckpointSession
from repro.obs import SpanTracer
from repro.storage.image import CheckpointImage


def checkpoint_report(image: CheckpointImage,
                      session: Optional[CheckpointSession] = None,
                      spans: Optional[SpanTracer] = None) -> str:
    """A multi-line summary of one completed checkpoint.

    ``spans`` is the tree the run was recorded in (an observer's, or an
    ``obs.timeline`` block's); its closed spans are totalled by name.
    """
    from repro.storage.delta import DeltaImage

    lines = [f"checkpoint report: {image.name}"]
    lines.append(f"  taken at (virtual) : t={image.checkpoint_time:g} s")
    is_delta = isinstance(image, DeltaImage)
    n_gpus = len(image.delta_gpu) if is_delta else len(image.gpu_buffers)
    lines.append(f"  GPU state          : "
                 f"{units.fmt_bytes(image.gpu_bytes())} in "
                 f"{image.total_buffer_count()} buffers "
                 f"across {n_gpus} GPU(s)")
    lines.append(f"  CPU state          : "
                 f"{units.fmt_bytes(image.cpu_bytes())} in "
                 f"{len(image.cpu_pages)} pages"
                 + (" stored" if is_delta else ""))
    if is_delta:
        parent = image.parent_name or ("(chain root)" if image.parent_id
                                       is None else image.parent_id)
        lines.append(f"  delta parent       : {parent}")
        lines.append(f"  delta stored       : "
                     f"{units.fmt_bytes(image.stored_bytes())} "
                     f"({image.chunks_written} chunks written, "
                     f"{image.chunks_reused} reused)")
    if session is not None:
        s = session.stats
        lines.append(f"  protocol           : {session.mode}"
                     + (" (ABORTED: " + session.abort_reason + ")"
                        if session.aborted else ""))
        lines.append(f"  bytes copied       : {units.fmt_bytes(s.bytes_copied)}")
        if s.bytes_recopied:
            lines.append(f"  bytes recopied     : "
                         f"{units.fmt_bytes(s.bytes_recopied)} "
                         f"({s.dirty_marks} dirty marks)")
        if s.bytes_skipped_incremental:
            lines.append(f"  inherited (incr.)  : "
                         f"{units.fmt_bytes(s.bytes_skipped_incremental)}")
        if session.mode == "cow":
            lines.append(f"  CoW shadows        : {s.cow_shadow_copies} "
                         f"({units.fmt_bytes(s.cow_shadow_bytes)}), "
                         f"stall {units.fmt_seconds(s.cow_stall_time)}, "
                         f"pool waits {s.cow_pool_waits}")
        if s.violations_handled:
            lines.append(f"  validator events   : {s.violations_handled}")
    if spans is not None:
        phases: dict[str, float] = {}
        for node in spans.iter_nodes():
            if node.end is not None:
                phases[node.name] = phases.get(node.name, 0.0) + node.duration
        if phases:
            lines.append("  phase breakdown    :")
            for label, total in sorted(phases.items(), key=lambda kv: -kv[1]):
                lines.append(f"    {label:<20s} {units.fmt_seconds(total)}")
    return "\n".join(lines)


def stream_report(stream) -> str:
    """A summary of one ``continuous`` checkpoint stream."""
    lines = [f"stream report: {stream.rounds_committed} round(s) committed"]
    lines.append(f"  tier stack         : {' -> '.join(stream.tiers)}")
    total = sum(img.stored_bytes() for img in stream.images)
    lines.append(f"  stored (all rounds): {units.fmt_bytes(total)}")
    stats = stream.drain_stats
    if stats is not None:
        for tier, nbytes in stats.bytes_per_tier.items():
            lines.append(f"  drained -> {tier:<9}: {units.fmt_bytes(nbytes)}")
        if stats.backpressure_waits:
            lines.append(f"  backpressure waits : {stats.backpressure_waits}")
    if stream.error is not None:
        lines.append(f"  stream ended early : {stream.error}")
    if stream.drain_error is not None:
        lines.append(f"  drain fault        : {stream.drain_error}")
    return "\n".join(lines)

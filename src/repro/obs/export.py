"""Reports from an :class:`~repro.obs.Observer`: JSON and aligned text.

Four consumers, four shapes:

* :func:`snapshot` / :func:`to_json` — the full machine-readable dump
  (schema in ``docs/observability.md``);
* :func:`phase_report` — the span forest aggregated by path, as an
  :class:`~repro.experiments.harness.ExperimentResult` so every
  ``fig*``/``tab*`` module can attach a Fig. 16-style breakdown;
* :func:`dma_report` — per-priority-class DMA engine occupancy, bytes
  moved, and queue depth, the numbers behind the §5 starvation story;
* :func:`render` — all of the above as one human-readable block (what
  ``phos bench --obs`` prints);
* :func:`chrome_trace` — a span tree (an observer's, or an
  ``obs.timeline`` block's) as Chrome trace events.

The text paths import the experiment harness lazily: ``repro.obs`` is
imported by low-level modules (``sim.resources``, ``gpu.dma``) and a
top-level import of the harness would be cyclic.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional

from repro import units
from repro.obs import Observer, SpanTracer
from repro.obs.metrics import Gauge, TimeWeightedHistogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.harness import ExperimentResult


def snapshot(observer: Observer) -> dict:
    """The full observability state as a JSON-able dict."""
    return {
        "virtual_time": observer.engine.now,
        "metrics": observer.metrics.snapshot(),
        "spans": observer.spans.to_dicts(),
    }


def to_json(observer: Observer, indent: Optional[int] = 2) -> str:
    return json.dumps(snapshot(observer), indent=indent, sort_keys=False)


def chrome_trace(spans: SpanTracer) -> list[dict]:
    """The closed spans of a tree in Chrome trace-event format.

    Dump with ``json.dump(chrome_trace(spans), f)`` and open in
    ``chrome://tracing`` / Perfetto.  Virtual seconds map to trace
    microseconds; every span becomes a complete ('X') event on the
    track of its ``gpu`` attribute, with its attributes in ``args``.
    """
    events = [
        {"name": node.name, "ph": "X", "pid": 1,
         "tid": node.attrs.get("gpu", 0),
         "ts": node.start * 1e6, "dur": node.duration * 1e6,
         "args": dict(node.attrs)}
        for node in spans.iter_nodes() if node.end is not None
    ]
    events.sort(key=lambda e: e["ts"])
    return events


def phase_report(observer: Observer, exp_id: str = "obs-phases",
                 title: str = "phase breakdown") -> "ExperimentResult":
    """Span durations aggregated by path (one row per phase)."""
    from repro.experiments.harness import ExperimentResult

    result = ExperimentResult(
        exp_id=exp_id, title=title,
        columns=["phase", "count", "total_s", "mean_s", "share_pct"],
    )
    totals = observer.spans.phase_totals()
    # Root names themselves contain "/" (``checkpoint/recopy``), so the
    # denominator comes from the tree, not from the shape of the path.
    top_level = sum(root.duration for root in observer.spans.roots
                    if root.end is not None)
    for path in sorted(totals):
        count, total = totals[path]
        result.add(
            phase=path, count=count, total_s=total, mean_s=total / count,
            share_pct=(100.0 * total / top_level) if top_level > 0 else 0.0,
        )
    result.notes = "share is relative to the sum of root spans"
    return result


def dma_report(observer: Observer, exp_id: str = "obs-dma",
               title: str = "DMA engine arbitration") -> "ExperimentResult":
    """Per-priority occupancy / bytes / queueing for every DMA pool."""
    from repro.experiments.harness import ExperimentResult

    result = ExperimentResult(
        exp_id=exp_id, title=title,
        columns=["engine", "priority", "busy_s", "util_pct", "bytes",
                 "mean_queue", "max_wait_s"],
    )
    elapsed = observer.engine.now
    for gauge in observer.metrics.find("resource/"):
        if not isinstance(gauge, Gauge) or not gauge.name.endswith("/in-use"):
            continue
        priority = gauge.labels.get("priority")
        if priority is None:
            continue  # the aggregate gauge; classes are reported per priority
        resource = gauge.name[len("resource/"):-len("/in-use")]
        if "dma" not in resource:
            continue
        busy = gauge.time_integral()
        cap_gauge = observer.metrics.get(f"resource/{resource}/capacity")
        capacity = cap_gauge.value if cap_gauge is not None else 1.0
        window = elapsed * max(capacity, 1.0)
        moved = sum(
            c.value for c in observer.metrics.find(f"dma/{resource}/bytes")
            if c.labels.get("priority") == priority
        )
        depth = observer.metrics.get(f"resource/{resource}/queue-depth")
        wait = observer.metrics.get(f"resource/{resource}/grant-wait",
                                    priority=priority)
        if isinstance(depth, TimeWeightedHistogram):
            depth.flush()
        result.add(
            engine=resource, priority=priority, busy_s=busy,
            util_pct=(100.0 * busy / window) if window > 0 else 0.0,
            bytes=int(moved),
            mean_queue=(depth.mean() if depth is not None else 0.0),
            max_wait_s=(wait.max_value if wait is not None and wait.count
                        else 0.0),
        )
    result.notes = ("priority 0 is application traffic; higher numbers are "
                    "checkpoint/restore bulk loads (§5)")
    return result


def app_stall_components(observer: Observer, gpu_index: int) -> dict[str, float]:
    """The app-visible stall attributed to one GPU's issue chain.

    Four channels slow the application during a concurrent checkpoint,
    and each leaves a distinct trace:

    * ``gate`` — API calls blocked at the closed quiesce gate
      (``gate-stall`` records, §4.2's stop-the-CPU window);
    * ``guard`` — kernel launches held by the CoW guard for shadow
      copies or in-flight chunk waits (``cow/guard-stall`` records);
    * ``dma-wait`` — application-priority transfers queued behind an
      in-flight checkpoint chunk (the per-priority ``grant-wait``
      histogram on the GPU's DMA pool, §5 — bounded by one chunk);
    * ``twin`` — the validated-speculation twin's instrumentation
      overhead on every launch during the session (§8.2's "≤12%").

    Overlapping stall records are union-ed, not summed, so concurrent
    per-stream stalls are counted once.
    """
    from repro.obs.spans import union_duration

    gate = union_duration(observer.spans.find("gate-stall"))
    guard = union_duration(
        n for n in observer.spans.find("cow/guard-stall")
        if n.attrs.get("gpu") == gpu_index
    )
    wait_h = observer.metrics.get(
        f"resource/gpu{gpu_index}-dma/grant-wait", priority=0
    )
    dma_wait = (wait_h.mean() * wait_h.total_weight
                if wait_h is not None and wait_h.count else 0.0)
    twin_c = observer.metrics.get("validator/overhead-seconds",
                                  gpu=gpu_index)
    twin = twin_c.value if twin_c is not None else 0.0
    return {"gate": gate, "guard": guard, "dma-wait": dma_wait,
            "twin": twin}


def counters_report(observer: Observer, exp_id: str = "obs-counters",
                    title: str = "counters") -> "ExperimentResult":
    from repro.experiments.harness import ExperimentResult

    result = ExperimentResult(exp_id=exp_id, title=title,
                              columns=["counter", "value"])
    for entry in observer.metrics.snapshot()["counters"]:
        from repro.obs.metrics import render_name

        # Counts print as integers (the table formatter gives every
        # float below 100 decimals).
        value = entry["value"]
        result.add(counter=render_name(entry["name"], entry["labels"]),
                   value=int(value) if float(value).is_integer() else value)
    return result


def span_tree(observer: Observer, max_depth: int = 6) -> str:
    """The span forest as an indented text tree."""
    lines: list[str] = []

    def walk(node, depth):
        if depth > max_depth:
            return
        dur = ("open" if node.end is None
               else units.fmt_seconds(node.duration))
        attrs = ""
        if node.attrs:
            inner = ", ".join(f"{k}={v}" for k, v in node.attrs.items())
            attrs = f"  [{inner}]"
        lines.append(f"{'  ' * depth}{node.name:<28s} {dur:>10s}{attrs}")
        for child in node.children:
            walk(child, depth + 1)

    for root in observer.spans.roots:
        walk(root, 0)
    return "\n".join(lines)


def render(observer: Observer, label: str = "") -> str:
    """Every report stacked into one printable block."""
    header = f"---- observability report{': ' + label if label else ''} ----"
    parts = [header]
    tree = span_tree(observer)
    if tree:
        parts.append("-- span tree --")
        parts.append(tree)
    parts.append(phase_report(observer).format())
    dma = dma_report(observer)
    if dma.rows:
        parts.append(dma.format())
    counters = counters_report(observer)
    if counters.rows:
        parts.append(counters.format())
    return "\n\n".join(parts)

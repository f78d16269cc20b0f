"""Virtual-clock observability: metrics, phase spans, and reports.

One :class:`Observer` bundles a metric :class:`~repro.obs.metrics.Registry`
and a :class:`~repro.obs.spans.SpanTracer`, both keyed on a simulation
engine's clock.  Install one to switch instrumentation on::

    with obs.observed(engine) as observer:
        ...run a checkpoint...
    print(export.render(observer))

Instrumented call sites throughout the codebase go through the
module-level fast paths (:func:`counter`, :func:`gauge`,
:func:`histogram`, :func:`span`, :func:`record`).  When no observer is
installed these return shared null objects, so the disabled-mode cost
is one global read and a no-op call — tier-1 benchmark shapes are
unchanged.

Two things are active at a time (the simulator is single-threaded):
the *observer* (:func:`active`; metrics) and the *span tracer* that
:func:`span`/:func:`record` write to.  :func:`install`,
:func:`uninstall` and :func:`observed` move both; a consumer that only
needs the phase timeline (the breakdown figures, ``phos checkpoint``'s
report) asks for one with :func:`timeline`, which moves only the
second — metrics stay off, and a caller's own observer keeps counting::

    with obs.timeline(engine) as spans:
        ...run a checkpoint...
    spans.total("quiesce")

Installing a new observer replaces the old, and experiment code keeps
per-world observers by holding the returned handle (see
``experiments/harness.py``).
"""

from __future__ import annotations

import contextlib
from typing import Optional

from repro.obs.metrics import (
    NULL_INSTRUMENT,
    Counter,
    Gauge,
    Registry,
    TimeWeightedHistogram,
)
from repro.obs.spans import NULL_SPAN, SpanNode, SpanTracer

__all__ = [
    "Counter", "Gauge", "TimeWeightedHistogram", "Registry",
    "SpanNode", "SpanTracer", "Observer",
    "install", "uninstall", "active", "enabled", "observed", "timeline",
    "counter", "gauge", "histogram", "span", "record",
]


class Observer:
    """Metrics + spans for one engine's virtual timeline."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.metrics = Registry(engine)
        self.spans = SpanTracer(engine)


_current: Optional[Observer] = None
#: Where :func:`span`/:func:`record` write: the installed observer's
#: ``spans``, or a :func:`timeline` block's tree.
_spans: Optional[SpanTracer] = None


def install(observer_or_engine) -> Observer:
    """Activate an observer (or build one for an engine) globally."""
    global _current, _spans
    if isinstance(observer_or_engine, Observer):
        _current = observer_or_engine
    else:
        _current = Observer(observer_or_engine)
    _spans = _current.spans
    return _current


def uninstall() -> Optional[Observer]:
    """Deactivate the current observer; returns it for inspection."""
    global _current, _spans
    observer, _current, _spans = _current, None, None
    return observer


def active() -> Optional[Observer]:
    """The installed observer, or None when observability is off."""
    return _current


def enabled() -> bool:
    return _current is not None


@contextlib.contextmanager
def observed(engine):
    """Install a fresh observer for the duration of a block."""
    global _current, _spans
    previous = _current, _spans
    observer = install(engine)
    try:
        yield observer
    finally:
        _current, _spans = previous


@contextlib.contextmanager
def timeline(engine):
    """Record spans on ``engine``'s clock for the duration of a block.

    Yields the :class:`SpanTracer` the block's phases land in and puts
    back whatever was recording before on exit.  The observer is left
    alone: :func:`active` and every metric behave as outside the block.
    When the installed observer is already bound to ``engine`` its own
    tree is yielded, so an observed run keeps one tree.
    """
    global _spans
    if _current is not None and _current.engine is engine:
        spans = _current.spans
    else:
        spans = SpanTracer(engine)
    previous, _spans = _spans, spans
    try:
        yield spans
    finally:
        _spans = previous


# -- module-level fast paths (near-zero cost when disabled) ----------------------

def counter(name: str, **labels):
    cur = _current
    return cur.metrics.counter(name, **labels) if cur is not None else NULL_INSTRUMENT


def gauge(name: str, **labels):
    cur = _current
    return cur.metrics.gauge(name, **labels) if cur is not None else NULL_INSTRUMENT


def histogram(name: str, bounds=None, **labels):
    cur = _current
    if cur is None:
        return NULL_INSTRUMENT
    return cur.metrics.histogram(name, bounds=bounds, **labels)


def span(name: str, parent: Optional[SpanNode] = None, **attrs):
    cur = _spans
    if cur is None:
        return NULL_SPAN
    return cur.span(name, parent=parent, **attrs)


def record(name: str, start: float, end: Optional[float] = None,
           parent: Optional[SpanNode] = None, **attrs):
    cur = _spans
    if cur is None:
        return None
    return cur.record(name, start, end=end, parent=parent, **attrs)

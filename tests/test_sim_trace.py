"""Unit tests for the phase timeline (the span tree behind Figs. 16-18)."""

import pytest

from repro.errors import SimulationError
from repro.obs import SpanTracer
from repro.sim import Engine


@pytest.fixture
def eng():
    return Engine()


def test_span_duration(eng):
    spans = SpanTracer(eng)

    def proc(eng):
        span = spans.begin("copy")
        yield eng.timeout(2.0)
        spans.end(span)

    eng.run_process(proc(eng))
    assert spans.total("copy") == 2.0


def test_open_span_duration_rejected(eng):
    spans = SpanTracer(eng)
    span = spans.begin("open")
    with pytest.raises(SimulationError):
        _ = span.duration


def test_double_close_rejected(eng):
    spans = SpanTracer(eng)
    span = spans.begin("x")
    spans.end(span)
    with pytest.raises(SimulationError):
        spans.end(span)


def test_breakdown_aggregates_by_label(eng):
    spans = SpanTracer(eng)

    def proc(eng):
        for label, dt in [("a", 1.0), ("b", 2.0), ("a", 3.0)]:
            span = spans.begin(label)
            yield eng.timeout(dt)
            spans.end(span)

    eng.run_process(proc(eng))
    assert spans.phase_totals() == {"a": (2, 4.0), "b": (1, 2.0)}


def test_marks_record_time_and_meta(eng):
    """An instantaneous event is a zero-length record."""
    spans = SpanTracer(eng)

    def proc(eng):
        yield eng.timeout(1.5)
        spans.record("quiesce-done", eng.now, gpus=8)

    eng.run_process(proc(eng))
    (node,) = spans.roots
    assert (node.name, node.start, node.end) == ("quiesce-done", 1.5, 1.5)
    assert node.duration == 0.0 and node.attrs == {"gpus": 8}


def test_spans_named_filters_open_spans(eng):
    spans = SpanTracer(eng)
    spans.begin("never-closed")
    closed = spans.begin("closed")
    spans.end(closed)
    assert spans.total("never-closed") == 0.0
    assert len(spans.find("closed")) == 1
    # Only the closed span is totalled (it nests under the open one).
    assert spans.phase_totals() == {"never-closed/closed": (1, 0.0)}

"""Unit tests for virtual-clock span tracing."""

import pytest

from repro import obs
from repro.errors import SimulationError
from repro.obs.spans import SpanTracer
from repro.sim import Engine


@pytest.fixture
def eng():
    return Engine()


@pytest.fixture(autouse=True)
def _no_observer_leak():
    yield
    obs.uninstall()


def advance(eng, dt):
    def proc(eng):
        yield eng.timeout(dt)

    eng.run_process(proc(eng))


def test_spans_nest_and_time_on_virtual_clock(eng):
    tracer = SpanTracer(eng)
    with tracer.span("checkpoint"):
        advance(eng, 1.0)
        with tracer.span("quiesce"):
            advance(eng, 2.0)
        with tracer.span("copy", gpu=0):
            advance(eng, 3.0)
    (root,) = tracer.roots
    assert root.name == "checkpoint" and root.duration == pytest.approx(6.0)
    assert [c.name for c in root.children] == ["quiesce", "copy"]
    assert root.children[0].duration == pytest.approx(2.0)
    assert root.children[1].path() == "checkpoint/copy"
    assert root.children[1].attrs == {"gpu": 0}


def test_span_nesting_is_per_process(eng):
    """Spans opened by concurrently-running processes must not adopt
    each other as parents — each process has its own stack."""
    observer = obs.install(eng)

    def checkpointer(eng):
        with obs.span("checkpoint"):
            yield eng.timeout(4.0)

    def app(eng):
        yield eng.timeout(1.0)  # starts while "checkpoint" is open
        with obs.span("app-step"):
            yield eng.timeout(1.0)

    eng.spawn(checkpointer(eng))
    eng.spawn(app(eng))
    eng.run()
    roots = {n.name for n in observer.spans.roots}
    # app-step is a root of its own process, not a child of checkpoint.
    assert roots == {"checkpoint", "app-step"}
    (ckpt,) = [n for n in observer.spans.roots if n.name == "checkpoint"]
    assert ckpt.children == []


def test_record_adds_retroactive_span(eng):
    tracer = SpanTracer(eng)
    advance(eng, 5.0)
    node = tracer.record("stall", start=2.0, gpu=1)
    assert node.end == 5.0 and node.duration == pytest.approx(3.0)
    node2 = tracer.record("stall", start=1.0, end=1.5)
    assert node2.duration == pytest.approx(0.5)
    with pytest.raises(SimulationError):
        tracer.record("backwards", start=9.0, end=8.0)


def test_record_nests_under_open_span(eng):
    tracer = SpanTracer(eng)
    with tracer.span("copy"):
        advance(eng, 2.0)
        tracer.record("drain", start=1.0)
    (root,) = tracer.roots
    assert [c.path() for c in root.children] == ["copy/drain"]


def test_double_close_raises(eng):
    tracer = SpanTracer(eng)
    node = tracer.begin("x")
    tracer.end(node)
    with pytest.raises(SimulationError):
        tracer.end(node)


def test_duration_of_open_span_raises(eng):
    tracer = SpanTracer(eng)
    node = tracer.begin("x")
    with pytest.raises(SimulationError):
        _ = node.duration


def test_phase_totals_and_find(eng):
    tracer = SpanTracer(eng)
    for _ in range(2):
        with tracer.span("copy"):
            advance(eng, 1.5)
    with tracer.span("quiesce"):
        advance(eng, 1.0)
    totals = tracer.phase_totals()
    assert totals["copy"] == (2, pytest.approx(3.0))
    assert totals["quiesce"] == (1, pytest.approx(1.0))
    assert tracer.total("copy") == pytest.approx(3.0)
    assert len(tracer.find("copy")) == 2


def test_to_dict_round_trip(eng):
    tracer = SpanTracer(eng)
    with tracer.span("outer", image="img"):
        advance(eng, 1.0)
        with tracer.span("inner"):
            advance(eng, 1.0)
    (d,) = tracer.to_dicts()
    assert d["name"] == "outer" and d["attrs"] == {"image": "img"}
    assert d["duration"] == pytest.approx(2.0)
    assert d["children"][0]["name"] == "inner"


def test_null_span_is_reusable_and_silent(eng):
    assert not obs.enabled()
    first = obs.span("a", k=1)
    with first as sp:
        sp.attrs["extra"] = True
    # Attrs written inside the block do not leak into the next use.
    with obs.span("b") as sp2:
        assert sp2.attrs == {}


# -- obs.timeline: spans without metrics -----------------------------------------

def test_timeline_records_spans_and_leaves_the_observer_off(eng):
    with obs.timeline(eng) as spans:
        assert obs.active() is None and not obs.enabled()
        with obs.span("quiesce"):
            advance(eng, 2.0)
        obs.counter("ignored").inc()
    assert spans.total("quiesce") == pytest.approx(2.0)
    assert obs.span("after") is obs.NULL_SPAN


def test_timeline_restores_previous_tracer_after_exception(eng):
    with obs.timeline(eng) as outer:
        with pytest.raises(RuntimeError):
            with obs.timeline(Engine()):
                raise RuntimeError("cell failed")
        with obs.span("after"):
            pass
    assert [n.name for n in outer.roots] == ["after"]
    assert obs.span("outside") is obs.NULL_SPAN


def test_nested_timelines_on_two_engines_keep_two_trees(eng):
    other = Engine()
    with obs.timeline(eng) as first:
        with obs.span("a"):
            advance(eng, 1.0)
            with obs.timeline(other) as second:
                with obs.span("b"):
                    advance(other, 5.0)
            obs.record("c", start=0.5)
    assert [n.path() for n in first.iter_nodes()] == ["a", "a/c"]
    assert [n.path() for n in second.iter_nodes()] == ["b"]
    assert second.total("b") == pytest.approx(5.0)  # the other clock


def test_timeline_under_an_observer_of_the_engine_yields_its_tree(eng):
    from repro.obs import export

    with obs.observed(eng) as observer:
        with obs.timeline(eng) as spans:
            assert spans is observer.spans
            assert obs.active() is observer
            with obs.span("checkpoint/cow"):
                with obs.span("quiesce"):
                    advance(eng, 1.0)
        # Still the observer's tree after the block.
        with obs.span("gpu-copy"):
            advance(eng, 1.0)
    phases = export.phase_report(observer).column("phase")
    assert phases == ["checkpoint/cow", "checkpoint/cow/quiesce", "gpu-copy"]
    assert obs.active() is None and obs.span("x") is obs.NULL_SPAN


def test_timeline_on_another_engine_gives_the_observer_its_tree_back(eng):
    """An observer bound to a different engine keeps ``active()`` during
    the block and gets its own span tree back afterwards."""
    observer = obs.install(eng)
    with obs.timeline(Engine()) as spans:
        assert obs.active() is observer and spans is not observer.spans
    with obs.span("back"):
        pass
    assert [n.name for n in observer.spans.roots] == ["back"]

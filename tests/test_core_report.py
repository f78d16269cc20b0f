"""Unit tests for reports and Chrome-trace export."""

import json

import pytest

from repro import obs
from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.report import checkpoint_report
from repro.gpu.context import GpuContext
from repro.obs import SpanTracer
from repro.obs.export import chrome_trace

from tests.toyapp import ToyApp


@pytest.fixture
def world(eng):
    machine = Machine(eng, n_gpus=1)
    phos = Phos(eng, machine, use_context_pool=False)
    process = GpuProcess(eng, machine, name="app", gpu_indices=[0], cpu_pages=4)
    process.runtime.adopt_context(0, GpuContext(gpu_index=0))
    phos.attach(process)
    return machine, phos, process


def run_checkpoint(eng, phos, process, mode="cow"):
    app = ToyApp(process)

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        image, session = yield phos.checkpoint(process, mode=mode)
        return image, session

    image, session = eng.run_process(driver(eng))
    eng.run()
    return image, session


def test_checkpoint_report_renders_core_facts(eng, world):
    machine, phos, process = world
    with obs.timeline(eng) as spans:
        image, session = run_checkpoint(eng, phos, process)
    text = checkpoint_report(image, session, spans)
    assert image.name in text
    assert "GPU state" in text and "buffers" in text
    assert "protocol           : cow" in text
    assert "CoW shadows" in text
    assert "phase breakdown" in text
    assert "quiesce" in text


def test_recopy_report_includes_recopied_bytes(eng, world):
    machine, phos, process = world
    image, session = run_checkpoint(eng, phos, process, mode="recopy")
    session.stats.bytes_recopied = 12345678  # exercise the branch
    session.stats.dirty_marks = 3
    text = checkpoint_report(image, session)
    assert "bytes recopied" in text
    assert "dirty marks" in text


def test_report_shows_abort(eng, world):
    machine, phos, process = world
    image, session = run_checkpoint(eng, phos, process)
    session.aborted = True
    session.abort_reason = "test-abort"
    assert "ABORTED: test-abort" in checkpoint_report(image, session)


def test_chrome_trace_export(eng):
    spans = SpanTracer(eng)

    def proc(eng):
        with spans.span("copy", gpu=3):
            yield eng.timeout(2.0)
        spans.record("done", eng.now, reason="test")

    eng.run_process(proc(eng))
    events = chrome_trace(spans)
    assert len(events) == 2
    json.dumps(events)  # serializable
    assert {e["ph"] for e in events} == {"X"}
    complete = next(e for e in events if e["name"] == "copy")
    assert complete["dur"] == pytest.approx(2e6)
    assert complete["tid"] == 3
    instant = next(e for e in events if e["name"] == "done")
    assert instant["dur"] == 0 and instant["ts"] == pytest.approx(2e6)
    assert instant["args"]["reason"] == "test"
    # Sorted by timestamp.
    assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)


def test_chrome_trace_skips_open_spans(eng):
    spans = SpanTracer(eng)
    spans.begin("never-closed")
    assert chrome_trace(spans) == []

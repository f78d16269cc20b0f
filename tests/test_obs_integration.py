"""End-to-end observability: a CoW checkpoint under a live workload.

The acceptance bar for the obs layer is attribution, not just plumbing:
the per-GPU stall components it reports (quiesce gate + CoW guard +
app-priority DMA wait + validator twin overhead) must sum to the stall
actually measured from step times, within 1%.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from repro import obs
from repro.core.cli import main
from repro.core.engine import EXPERIMENT_CHUNK
from repro.core.protocols import ProtocolConfig
from repro.obs import export
from repro.tasks.worker import checkpoint_stall, new_world

APP = "resnet152-train"  # single GPU: every stall is on one issue chain
STEPS = 3


@pytest.fixture(autouse=True)
def _no_observer_leak():
    yield
    obs.uninstall()


@pytest.fixture(scope="module")
def cow_run():
    """One observed CoW checkpoint run; (world, base, stall)."""
    world = new_world(APP, observe=True)
    m = checkpoint_stall(world, "cow",
                         ProtocolConfig(chunk_bytes=EXPERIMENT_CHUNK),
                         steps=STEPS)
    obs.uninstall()
    return world, m.iter_time, m.checkpoint_stall


def test_stall_components_sum_to_measured_stall(cow_run):
    world, _, stall = cow_run
    assert stall > 0
    components = export.app_stall_components(world.observer, 0)
    attributed = sum(components.values())
    assert attributed == pytest.approx(stall, rel=0.01)
    # The dominant §8.2 cost — the validator twin — must be attributed.
    assert components["twin"] > 0
    # The guard stalled at least one launch for a shadow copy.
    assert components["guard"] > 0


def test_span_tree_has_checkpoint_phases(cow_run):
    world, _, _ = cow_run
    spans = world.observer.spans
    (cow,) = spans.find("checkpoint/cow")
    child_names = {c.name for c in cow.children}
    assert "quiesce" in child_names
    assert spans.total("quiesce") > 0
    # Copy activity happened on the GPU side during the session.
    assert spans.find("gpu-copy")


def test_dma_gauges_show_both_priorities(cow_run):
    """§5: both app (0) and bulk (10) traffic held engines — the
    per-priority occupancy gauges are the preemption evidence."""
    world, _, _ = cow_run
    metrics = world.observer.metrics
    for priority in (0, 10):
        gauge = metrics.get("resource/gpu0-dma/in-use", priority=priority)
        assert gauge is not None, f"no in-use gauge for priority {priority}"
        assert gauge.time_integral() > 0
    moved = metrics.get("dma/gpu0-dma/bytes", priority=10, cls="bulk",
                        direction="d2h")
    assert moved is not None and moved.value > 0


def test_dma_report_lists_app_and_bulk_rows(cow_run):
    world, _, _ = cow_run
    report = export.dma_report(world.observer)
    priorities = {row["priority"] for row in report.rows
                  if row["engine"] == "gpu0-dma"}
    assert {0, 10} <= {int(p) for p in priorities}


def test_snapshot_json_round_trip(cow_run):
    world, _, _ = cow_run
    text = export.to_json(world.observer)
    data = json.loads(text)
    assert data["virtual_time"] == world.engine.now
    names = {c["name"] for c in data["metrics"]["counters"]}
    assert "validator/overhead-seconds" in names
    root_names = {s["name"] for s in data["spans"]}
    assert "checkpoint/cow" in root_names


def test_render_produces_full_report(cow_run):
    world, _, _ = cow_run
    text = export.render(world.observer, label=APP)
    assert "span tree" in text
    assert "checkpoint/cow" in text
    assert "DMA engine arbitration" in text


def test_phase_report_shares_are_relative_to_root_spans(cow_run):
    """Root names contain "/" (``checkpoint/cow``): every root still
    counts towards the denominator of its own share."""
    world, _, _ = cow_run
    report = export.phase_report(world.observer)
    roots = {root.name for root in world.observer.spans.roots}
    assert "checkpoint/cow" in roots
    shares = {row["phase"]: row["share_pct"] for row in report.rows}
    assert all(shares[name] <= 100.0 for name in roots)
    assert sum(shares[name] for name in roots) == pytest.approx(100.0)


def test_counters_report_prints_counts_as_integers(cow_run):
    world, _, _ = cow_run
    report = export.counters_report(world.observer)
    values = {row["counter"]: row["value"] for row in report.rows}
    assert values["phos/checkpoints{mode=cow}"] == 1
    assert isinstance(values["phos/checkpoints{mode=cow}"], int)
    (line,) = [ln for ln in report.format().splitlines()
               if ln.startswith("phos/checkpoints{mode=cow}")]
    assert line.split() == ["phos/checkpoints{mode=cow}", "1"]
    overhead = values["validator/overhead-seconds{gpu=0}"]
    assert isinstance(overhead, float) and not overhead.is_integer()


# -- pinned span trees ---------------------------------------------------------

SPAN_GOLDEN = Path(__file__).parent / "goldens" / "checkpoint_spans.json"


def _checkpoint_spans(mode, tmp_dir):
    """The ``phos checkpoint --obs`` span forest of one run, as JSON."""
    out = Path(tmp_dir) / f"{mode}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["checkpoint", "--app", APP, "--mode", mode, "--obs",
                     "--obs-json", str(out)]) == 0
    return json.loads(out.read_text())["spans"]


def write_span_golden(path=SPAN_GOLDEN):
    """Regenerate the pinned span trees (on purpose only)."""
    with tempfile.TemporaryDirectory() as tmp:
        spans = {mode: _checkpoint_spans(mode, tmp)
                 for mode in ("cow", "recopy")}
    path.write_text(json.dumps(spans, indent=1) + "\n")


@pytest.mark.parametrize("mode", ["cow", "recopy"])
def test_checkpoint_span_tree_is_pinned(mode, tmp_path):
    """Guard stalls, drains and gate stalls attach to the same parents,
    at the same exact instants, however the GPU stream runs its ops:
    the tree of one CoW and one recopy checkpoint is a golden."""
    golden = json.loads(SPAN_GOLDEN.read_text())[mode]
    assert _checkpoint_spans(mode, tmp_path) == golden

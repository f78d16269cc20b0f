"""Wall-clock fast-path benchmark: the PR 2 perf claims, kept honest.

Runs the ``tools/bench_wallclock.py`` harness on a reduced workload set
and asserts the structural perf claims that must not regress:

* compiled kernel plans beat forced interpretation by a wide margin
  (plain and instrumented-twin launches alike);
* DMA chunk coalescing reaches the same virtual end time as the
  per-chunk release loop with far fewer scheduler events;
* the end-to-end experiments still beat the recorded pre-fast-path
  baseline.

Wall-clock thresholds are deliberately loose (CI machines vary); the
committed ``BENCH_wallclock.json`` carries the reference numbers.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_wallclock import (  # noqa: E402
    bench_events,
    bench_interpreter,
    check_regressions,
    run_bench,
)


def test_plan_fast_path_beats_interpreter():
    result = bench_interpreter(repeats=30)
    assert result["speedup_plain"] > 2.0
    assert result["speedup_twin"] > 2.0
    # The forced-interpreter runs must not consume plan-cache entries.
    assert result["plan_cache"]["hit"] > 0


def test_dma_coalescing_saves_events_with_identical_virtual_time():
    result = bench_events(repeats=2)
    assert result["virtual_end_identical"]
    assert result["event_reduction"] > 5.0


def test_quick_bench_writes_report(tmp_path):
    report = run_bench(quick=True, jobs=2)
    out = tmp_path / "BENCH_wallclock.json"
    out.write_text(json.dumps(report, indent=2))
    parsed = json.loads(out.read_text())
    assert parsed["schema"] == "bench-wallclock/v1"
    for name in ("fig11", "fig16"):
        row = parsed["experiments"][name]
        assert row["wall_s"] > 0
        assert row["baseline_wall_s"] > 0
        # Far below the 3x reference claim on purpose: this guard only
        # catches a fast-path regression, not machine-speed variance.
        assert row["speedup_vs_baseline"] > 1.2
    par = parsed["experiments_parallel"]
    assert par["jobs"] == 2
    for name in ("fig11", "fig16"):
        row = par[name]
        assert row["wall_s_parallel"] > 0
        assert row["n_cells"] >= 2
        # No wall-clock assertion: the parallel speedup depends on the
        # machine's core count (1-core CI runners see ~1x).


def test_regress_check_flags_slow_figures():
    committed = {"experiments": {"fig11": {"wall_s": 1.0}}}
    fast = {"experiments": {"fig11": {"wall_s": 1.1}}}
    slow = {"experiments": {"fig11": {"wall_s": 1.3},
                            "untracked": {"wall_s": 9.9}}}
    assert check_regressions(fast, committed) == []
    failures = check_regressions(slow, committed)
    assert len(failures) == 1 and failures[0].startswith("fig11")
    # Nothing committed -> nothing to regress against.
    assert check_regressions(slow, {}) == []

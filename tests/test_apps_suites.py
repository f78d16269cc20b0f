"""Unit tests for the §8.5 speculation feasibility study (Table 3)."""

import pytest

from repro import obs
from repro.apps.suites import build_suites, run_speculation_study
from repro.core.tracker import BufferTable
from repro.gpu.instrument import instrument_program
from repro.gpu.memory import DeviceMemory
from repro.perf.plans import plan_cache_stats, reset_plan_cache_stats
from repro.sim import Engine
from repro.units import GIB


@pytest.fixture(scope="module")
def rows():
    return run_speculation_study()


def test_suite_kernel_counts_match_table3(rows):
    counts = {r.suite: r.kernels for r in rows}
    assert counts == {"rodinia": 44, "parboil": 18, "vllm": 66,
                      "tvm": 607, "flashinfer": 69}


def test_only_rodinia_has_a_failing_kernel(rows):
    failed = {r.suite: r.kernels_failed for r in rows}
    assert failed == {"rodinia": 1, "parboil": 0, "vllm": 0,
                      "tvm": 0, "flashinfer": 0}


def test_rodinia_failed_instances_match_its_kernel(rows):
    rodinia = next(r for r in rows if r.suite == "rodinia")
    # Exactly the legacy kernel's instances fail — 20, as in Table 3.
    assert rodinia.instances_failed == 20


def test_non_rodinia_suites_have_zero_failed_instances(rows):
    for r in rows:
        if r.suite != "rodinia":
            assert r.instances_failed == 0, r.suite


def test_instances_counted(rows):
    for r in rows:
        assert r.instances == r.kernels * {
            "rodinia": 20, "parboil": 40, "vllm": 12, "tvm": 3,
            "flashinfer": 12,
        }[r.suite]


def test_paper_reference_numbers_attached(rows):
    tvm = next(r for r in rows if r.suite == "tvm")
    assert tvm.paper_kernels == (607, 0)
    assert tvm.paper_instances == (186244, 0)


def test_failing_kernel_uses_module_global(rows):
    mem = DeviceMemory(capacity=1 * GIB)
    table = BufferTable(0)
    suites, _ = build_suites(mem, table)
    rodinia = next(s for s in suites if s.name == "rodinia")
    legacy = [k for k in rodinia.kernels if k.program.uses_globals]
    assert len(legacy) == 1
    others = [k for s in suites for k in s.kernels
              if s.name != "rodinia" and k.program.uses_globals]
    assert others == []


def test_study_launch_traffic_by_tier():
    """Which tier serves the study's 5041 launches, and why not a plan.

    ISSUE 14 sized the interpreter's slow path on these numbers (35 % of
    launches) and the bench's ``spec_validate`` workload is 4 x this
    study, so a plan-compiler change that moves launches between tiers
    should show up here as a diff, not as an unexplained bench shift.
    Since plans fork a divergent trace per lane class and prove gathers
    per launch, gather, scatter, partial_fill and reduce_sum (898 + 858
    launches, once handed back) are plan hits; only the legacy kernel's
    ``GLOB`` still reaches the interpreter.

    Programs with one body share its compiled plans, and live bodies
    outlast this test's programs only while another test holds them, so
    a miss is bounded by the study's distinct (body, key) pairs rather
    than pinned: the count must not depend on which tests ran first.
    """
    observer = obs.install(Engine())
    try:
        reset_plan_cache_stats()
        run_speculation_study()
        stats = plan_cache_stats()
    finally:
        obs.uninstall()
    assert (stats["hit"], stats["fallback"]) == (5021, 20)
    # Every launch ends as one or the other; a miss is counted on top.
    assert stats["hit"] + stats["fallback"] == 5041

    fallbacks = {(c.labels["reason"], c.labels["abort"]): c.value
                 for c in observer.metrics.find("perf/plan_cache/fallback")}
    assert fallbacks == {("static", "glob"): 20}  # the legacy Rodinia kernel
    # ... which is exactly the launches of that kernel.
    suites, bufs = build_suites(DeviceMemory(capacity=1 * GIB), BufferTable(0))
    # 804 kernels, ten plan keys: eleven shapes share ten bodies (fill and
    # struct_kernel assemble alike), and the legacy kernel never traces.
    keys = {(instrument_program(k.program, check_reads=True).body,
             len(k.make_args(k.program, bufs)))
            for s in suites for k in s.kernels if not k.program.uses_globals}
    assert stats["miss"] <= len(keys) == 10
    legacy = sum(s.instances_per_kernel for s in suites
                 for k in s.kernels if k.program.uses_globals)
    assert legacy == 20

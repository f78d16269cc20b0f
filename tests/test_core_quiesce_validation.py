"""Unit tests for quiesce and the twin-kernel cache."""

import pytest

from repro.api.calls import ApiCall, ApiCategory
from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.core.quiesce import QUIESCE_COORDINATION, quiesce, resume
from repro.core.validation import TwinCache
from repro.gpu.context import GpuContext
from repro.gpu.cost_model import KernelCost
from repro.gpu.isa import Op
from repro.gpu.program import build_fill, build_scale
from repro.sim import Engine


def make_process(eng, machine, name="p", gpus=(0,)):
    proc = GpuProcess(eng, machine, name=name, gpu_indices=list(gpus))
    for i in gpus:
        proc.runtime.adopt_context(i, GpuContext(gpu_index=i))
    return proc


# --- quiesce --------------------------------------------------------------------


def test_quiesce_stops_cpu_and_drains_gpu():
    eng = Engine()
    machine = Machine(eng, n_gpus=1)
    proc = make_process(eng, machine)

    def driver(eng):
        buf = yield from proc.runtime.malloc(0, 512)
        # A long-running kernel is in flight when the quiesce begins.
        yield from proc.runtime.launch_kernel(
            0, build_fill(), [buf.addr, 4, 1], 4,
            cost=KernelCost(flops=3e14),  # ~1 s
        )
        t0 = eng.now
        yield from quiesce(eng, [proc])
        drained_at = eng.now
        assert proc.runtime.cpu_stopped
        assert machine.gpu(0).pending_ops == 0
        resume([proc])
        assert not proc.runtime.cpu_stopped
        return drained_at - t0

    elapsed = eng.run_process(driver(eng))
    # The quiesce waited for the in-flight kernel plus coordination.
    assert elapsed > 0.9


def test_quiesce_on_idle_process_costs_only_coordination():
    eng = Engine()
    machine = Machine(eng, n_gpus=1)
    proc = make_process(eng, machine)

    def driver(eng):
        t0 = eng.now
        yield from quiesce(eng, [proc])
        resume([proc])
        return eng.now - t0

    assert eng.run_process(driver(eng)) == pytest.approx(QUIESCE_COORDINATION)


def test_multi_process_quiesce_stops_all():
    eng = Engine()
    machine = Machine(eng, n_gpus=2)
    p1 = make_process(eng, machine, "p1", (0,))
    p2 = make_process(eng, machine, "p2", (1,))

    def driver(eng):
        yield from quiesce(eng, [p1, p2])
        assert p1.runtime.cpu_stopped and p2.runtime.cpu_stopped
        resume([p1, p2])
        assert not p1.runtime.cpu_stopped and not p2.runtime.cpu_stopped

    eng.run_process(driver(eng))


# --- twin cache ----------------------------------------------------------------------


def test_twin_cache_instruments_once():
    cache = TwinCache()
    prog = build_fill()
    t1 = cache.twin_for(prog)
    t2 = cache.twin_for(prog)
    assert t1 is t2
    assert t1.instrumented
    assert prog.name in cache.stats.kernels_instrumented


def test_twin_cache_separates_read_checking_twins():
    cache = TwinCache()
    prog = build_scale()
    write_twin = cache.twin_for(prog, check_reads=False)
    rw_twin = cache.twin_for(prog, check_reads=True)
    assert write_twin is not rw_twin
    assert len(rw_twin.instrs) > len(write_twin.instrs)


def test_same_named_kernels_get_their_own_twins():
    """``build_scale(3)`` and ``build_scale(5)`` share the name ``scale``;
    each must still run its own twin, and the kernel is counted once."""
    cache = TwinCache()
    by3, by5 = build_scale(factor=3), build_scale(factor=5)
    assert by3.name == by5.name
    for check_reads in (False, True):
        twin3 = cache.twin_for(by3, check_reads=check_reads)
        twin5 = cache.twin_for(by5, check_reads=check_reads)
        assert twin3 is not twin5
        assert [i.imm for i in twin5.instrs if i.op is Op.MULI] == \
            [i.imm for i in by5.instrs if i.op is Op.MULI]
    assert cache.stats.kernels_instrumented == {by3.name}


def test_twin_is_built_once_per_binary_across_processes(monkeypatch):
    """Two processes' frontends share one twin per binary and twin kind;
    a repeated twin launch never re-enters the instrumentation pass,
    while each process still counts the kernel once."""
    from repro import obs
    from repro.core import validation
    from repro.core.frontend import PhosFrontend

    built = []
    instrument = validation.instrument_program

    def counting(program, check_reads=False):
        built.append(check_reads)
        return instrument(program, check_reads=check_reads)

    monkeypatch.setattr(validation, "instrument_program", counting)
    eng = Engine()
    machine = Machine(eng, n_gpus=2)
    frontends = [PhosFrontend(eng, make_process(eng, machine, f"p{i}", (i,)))
                 for i in range(2)]
    prog = build_fill()
    observer = obs.install(eng)
    try:
        for frontend in frontends:
            for check_reads in (False, True, False, True):
                twin = frontend.twins.twin_for(prog, check_reads=check_reads)
                assert twin is prog.twins[check_reads]
    finally:
        obs.uninstall()
    assert built == [False, True]
    for frontend in frontends:
        assert frontend.twins.stats.kernels_instrumented == {prog.name}
    counted = observer.metrics.find("validator/kernels-instrumented")
    assert sum(c.value for c in counted) == 4   # 2 processes x 2 twin kinds


def _opaque_launch(program):
    return ApiCall(ApiCategory.OPAQUE_KERNEL, program.name, 0, program=program)


def test_launch_stats_and_ratios():
    cache = TwinCache()
    prog_a, prog_b = build_fill(), build_scale()
    cache.observe_launch(_opaque_launch(prog_a), instrumented=True)
    cache.observe_launch(_opaque_launch(prog_a), instrumented=True)
    cache.observe_launch(_opaque_launch(prog_b), instrumented=False)
    cache.twin_for(prog_a)
    stats = cache.stats
    assert stats.launches_total == 3
    assert stats.launches_instrumented == 2
    assert stats.instrumented_launch_ratio == pytest.approx(2 / 3)
    assert stats.instrumented_kernel_ratio == pytest.approx(1 / 2)


def test_library_launches_count_but_never_reach_the_validator():
    cache = TwinCache()
    cache.observe_launch(ApiCall(ApiCategory.LIB_COMPUTE, "gemm", 0),
                         instrumented=False)
    cache.observe_launch(_opaque_launch(build_fill()), instrumented=True)
    stats = cache.stats
    assert stats.kernels_seen == {"gemm", build_fill().name}
    assert stats.launches_total == 2
    assert stats.launches_instrumented == 1


def test_empty_stats_ratios_are_zero():
    stats = TwinCache().stats
    assert stats.instrumented_kernel_ratio == 0.0
    assert stats.instrumented_launch_ratio == 0.0

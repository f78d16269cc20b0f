"""Unit tests for the CUDA-equivalent runtime."""

import pytest

from repro.api.calls import ApiCategory, LaunchPlan
from repro.api.runtime import API_CALL_OVERHEAD, GpuProcess, mix_into, mix_many
from repro.errors import GpuError, InvalidValueError
from repro.gpu.context import GpuContext
from repro.gpu.cost_model import KernelCost
from repro.gpu.program import build_fill, build_scale
from repro.units import GIB, MIB


def run(eng, gen):
    return eng.run_process(gen)


def test_malloc_registers_allocation(eng, process):
    def app(rt):
        buf = yield from rt.malloc(0, 1 * MIB, tag="w")
        return buf

    buf = run(eng, app(process.runtime))
    assert buf.tag == "w"
    assert buf in process.runtime.allocations[0]


def test_free_unregisters(eng, process):
    def app(rt):
        buf = yield from rt.malloc(0, 1 * MIB)
        yield from rt.free(0, buf)

    run(eng, app(process.runtime))
    assert process.runtime.allocations[0] == []


def test_malloc_on_unowned_gpu_rejected(eng, process):
    def app(rt):
        yield from rt.malloc(1, 1 * MIB)

    with pytest.raises(InvalidValueError):
        run(eng, app(process.runtime))


def test_kernel_requires_context(eng, machine):
    proc = GpuProcess(eng, machine, name="noctx", gpu_indices=[0])

    def app(rt):
        buf = yield from rt.malloc(0, 512)
        yield from rt.launch_kernel(0, build_fill(), [buf.addr, 4, 1], 4)

    with pytest.raises(GpuError, match="context"):
        run(eng, app(proc.runtime))


def test_launch_kernel_mutates_buffer(eng, process):
    def app(rt):
        buf = yield from rt.malloc(0, 512)
        yield from rt.launch_kernel(0, build_fill(), [buf.addr, 4, 9], 4, sync=True)
        return buf

    buf = run(eng, app(process.runtime))
    assert buf.load_word(buf.addr) == 9


def test_kernel_duration_scales_with_cost(eng, process):
    def app(rt, flops):
        buf = yield from rt.malloc(0, 512)
        t0 = rt.engine.now
        yield from rt.launch_kernel(
            0, build_fill(), [buf.addr, 4, 1], 4,
            cost=KernelCost(flops=flops), sync=True,
        )
        return rt.engine.now - t0

    small = run(eng, app(process.runtime, 1e12))
    # Fresh engine/process for independent timing.
    from repro.cluster import Machine
    from repro.sim import Engine

    eng2 = Engine()
    m2 = Machine(eng2, n_gpus=1)
    p2 = GpuProcess(eng2, m2, name="p2", gpu_indices=[0])
    p2.runtime.adopt_context(0, GpuContext(gpu_index=0))
    big = eng2.run_process(app(p2.runtime, 4e12))
    assert big > small


def test_first_launch_charges_module_load(eng, process):
    prog = build_fill()

    def app(rt):
        buf = yield from rt.malloc(0, 512)
        t0 = rt.engine.now
        yield from rt.launch_kernel(0, prog, [buf.addr, 4, 1], 4, sync=True)
        first = rt.engine.now - t0
        t1 = rt.engine.now
        yield from rt.launch_kernel(0, prog, [buf.addr, 4, 1], 4, sync=True)
        second = rt.engine.now - t1
        return first, second

    first, second = run(eng, app(process.runtime))
    assert first > second  # JIT/module load charged once


def test_memcpy_h2d_fills_buffer(eng, process):
    def app(rt):
        buf = yield from rt.malloc(0, 1 * MIB)
        yield from rt.memcpy_h2d(0, buf, payload=7, sync=True)
        return buf

    buf = run(eng, app(process.runtime))
    assert buf.load_word(buf.addr) == 7


def test_memcpy_h2d_bytes_payload(eng, process):
    def app(rt):
        buf = yield from rt.malloc(0, 512)
        yield from rt.memcpy_h2d(0, buf, payload=bytes(range(16)), sync=True)
        return buf

    buf = run(eng, app(process.runtime))
    assert buf.snapshot()[:16] == bytes(range(16))


def test_memcpy_d2h_returns_content(eng, process):
    def app(rt):
        buf = yield from rt.malloc(0, 512)
        yield from rt.memcpy_h2d(0, buf, payload=5, sync=True)
        data = yield from rt.memcpy_d2h(0, buf)
        return data, buf

    data, buf = run(eng, app(process.runtime))
    assert data == buf.snapshot()


def test_memcpy_timing_matches_pcie(eng, process):
    def app(rt):
        buf = yield from rt.malloc(0, 1 * GIB)
        t0 = rt.engine.now
        yield from rt.memcpy_h2d(0, buf, sync=True)
        return rt.engine.now - t0

    elapsed = run(eng, app(process.runtime))
    expected = (1 * GIB) / process.gpu(0).spec.pcie_bw
    assert elapsed == pytest.approx(expected, rel=0.01)


def test_memcpy_d2d_copies_prefix(eng, process):
    def app(rt):
        a = yield from rt.malloc(0, 512)
        b = yield from rt.malloc(0, 512)
        yield from rt.memcpy_h2d(0, a, payload=3, sync=True)
        yield from rt.memcpy_d2d(0, a, b, sync=True)
        return a, b

    a, b = run(eng, app(process.runtime))
    assert a.snapshot() == b.snapshot()


def test_async_launch_returns_before_completion(eng, process):
    def app(rt):
        buf = yield from rt.malloc(0, 512)
        op = yield from rt.launch_kernel(
            0, build_fill(), [buf.addr, 4, 1], 4, cost=KernelCost(flops=1e12)
        )
        issued_at = rt.engine.now
        yield op.done
        done_at = rt.engine.now
        return issued_at, done_at

    issued_at, done_at = run(eng, app(process.runtime))
    assert done_at > issued_at


def test_device_synchronize_drains(eng, process):
    def app(rt):
        buf = yield from rt.malloc(0, 512)
        yield from rt.launch_kernel(
            0, build_fill(), [buf.addr, 4, 2], 4, cost=KernelCost(flops=1e12)
        )
        yield from rt.device_synchronize(0)
        return buf

    buf = run(eng, app(process.runtime))
    assert buf.load_word(buf.addr) == 2


def test_stop_cpu_blocks_api_calls(eng, process):
    rt = process.runtime
    times = {}

    def app(rt):
        yield from rt.malloc(0, 512)  # passes
        times["before"] = rt.engine.now
        yield from rt.malloc(0, 512)  # blocked by the gate
        times["after"] = rt.engine.now

    def controller(eng):
        rt.stop_cpu()
        yield eng.timeout(5.0)
        rt.resume_cpu()

    # Close gate after first call by interleaving: controller runs first.
    def orchestrate(eng):
        a = eng.spawn(app(rt))
        yield eng.timeout(0)
        rt.stop_cpu()
        yield eng.timeout(5.0)
        rt.resume_cpu()
        yield a

    eng.run_process(orchestrate(eng))
    assert times["after"] >= 5.0


def test_cpu_work_writes_pages(eng, process):
    def app(rt):
        yield from rt.cpu_work(1.0, write_pages=[2, 3], value=11)

    run(eng, app(process.runtime))
    assert process.host.memory.read_word(2) == 11
    assert process.host.memory.dirty_pages() == [2, 3]


def test_cpu_work_advances_pc(eng, process):
    pc0 = process.host.registers["pc"]

    def app(rt):
        yield from rt.cpu_work(0.5)

    run(eng, app(process.runtime))
    assert process.host.registers["pc"] == pc0 + 1


class _RecordingInterceptor:
    def __init__(self):
        self.calls = []
        self.mallocs = []
        self.frees = []

    def plan(self, call):
        self.calls.append(call)
        return LaunchPlan()

    def on_malloc(self, gpu_index, buf):
        self.mallocs.append(buf)

    def on_free(self, gpu_index, buf):
        self.frees.append(buf)


def test_interceptor_sees_all_calls(eng, process):
    rec = _RecordingInterceptor()
    process.runtime.interceptor = rec

    def app(rt):
        buf = yield from rt.malloc(0, 512)
        yield from rt.memcpy_h2d(0, buf, payload=1, sync=True)
        yield from rt.launch_kernel(0, build_scale(), [buf.addr, buf.addr, 4], 4, sync=True)
        yield from rt.free(0, buf)

    run(eng, app(process.runtime))
    categories = [c.category for c in rec.calls]
    assert categories == [
        ApiCategory.MALLOC,
        ApiCategory.MEMCPY_H2D,
        ApiCategory.OPAQUE_KERNEL,
        ApiCategory.FREE,
    ]
    assert len(rec.mallocs) == 1 and len(rec.frees) == 1


def test_interceptor_pre_exec_delays_kernel(eng, process):
    class DelayInterceptor(_RecordingInterceptor):
        def plan(self, call):
            if call.category is ApiCategory.OPAQUE_KERNEL:
                def pre():
                    yield call_engine.timeout(3.0)

                return LaunchPlan(pre_exec=pre)
            return LaunchPlan()

    call_engine = eng
    process.runtime.interceptor = DelayInterceptor()

    def app(rt):
        buf = yield from rt.malloc(0, 512)
        t0 = rt.engine.now
        yield from rt.launch_kernel(0, build_fill(), [buf.addr, 4, 1], 4, sync=True)
        return rt.engine.now - t0

    elapsed = run(eng, app(process.runtime))
    assert elapsed >= 3.0


def test_lib_compute_mixes_reads_into_writes(eng, process):
    def app(rt):
        a = yield from rt.malloc(0, 512)
        b = yield from rt.malloc(0, 512)
        c = yield from rt.malloc(0, 512)
        yield from rt.memcpy_h2d(0, a, payload=1, sync=True)
        yield from rt.memcpy_h2d(0, b, payload=2, sync=True)
        yield from rt.lib_compute(0, "gemm", reads=[a, b], writes=[c], sync=True)
        return a, b, c

    a, b, c = run(eng, app(process.runtime))
    assert c.snapshot() != bytes(c.data_size)  # written
    # Deterministic: same inputs same salt -> same mix.
    before = c.snapshot()
    mix_into(c, [a, b], salt=0)
    mix_into(c, [a, b], salt=0)
    assert c.snapshot() == c.snapshot()
    assert before != bytes(c.data_size)


def test_mix_many_matches_a_python_int_fold():
    """mix_many against the fold written out on Python ints: random salts,
    reads and writes of uneven word counts (a short read only mixes into
    the prefix it covers)."""
    import random

    from repro.gpu.memory import DeviceMemory
    from repro.units import MIB

    mask = 2**64 - 1
    rng = random.Random(7)
    for _ in range(40):
        mem = DeviceMemory(capacity=4 * MIB)
        reads = [mem.alloc(8 * w, data_size=8 * w)
                 for w in (rng.randint(1, 80) for _ in range(rng.randint(0, 5)))]
        writes = [mem.alloc(8 * w, data_size=8 * w)
                  for w in (rng.randint(1, 80) for _ in range(rng.randint(1, 4)))]
        for buf in reads:
            for i in range(buf.data_size // 8):
                buf.store_word(buf.addr + 8 * i, rng.randrange(2**64))
        salt = rng.choice([0, rng.randrange(2**64), -rng.randrange(2**63)])
        mix_many(writes, reads, salt=salt)
        for buf in writes:
            for i in range(buf.data_size // 8):
                acc = (0x9E3779B97F4A7C15 ^ salt) & mask
                for rb in reads:
                    if i < rb.data_size // 8:
                        acc = (acc * 6364136223846793005 & mask) ^ \
                            rb.load_word(rb.addr + 8 * i)
                assert buf.load_word(buf.addr + 8 * i) == acc
            assert buf.hw_dirty


def test_api_overhead_charged(eng, process):
    def app(rt):
        t0 = rt.engine.now
        yield from rt.malloc(0, 512)
        return rt.engine.now - t0

    elapsed = run(eng, app(process.runtime))
    assert elapsed == pytest.approx(API_CALL_OVERHEAD)

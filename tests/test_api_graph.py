"""Unit tests for CUDA graph support (§9)."""

import pytest

from repro.api.graph import CudaGraph
from repro.errors import InvalidValueError
from repro.gpu.cost_model import KernelCost
from repro.gpu.program import build_fill, build_scale
from repro.units import MIB


def words(buf, n):
    return [buf.load_word(buf.addr + 8 * i) for i in range(n)]


def test_capture_records_without_executing(eng, process):
    rt = process.runtime

    def app(rt):
        buf = yield from rt.malloc(0, 512)
        yield from rt.graph_begin_capture(0, name="g")
        result = yield from rt.launch_kernel(0, build_fill(), [buf.addr, 4, 9], 4)
        assert result is None  # recorded, not executed
        graph = yield from rt.graph_end_capture(0)
        yield from rt.device_synchronize(0)
        return buf, graph

    buf, graph = eng.run_process(app(rt))
    assert len(graph) == 1
    assert graph.instantiated
    assert words(buf, 4) == [0, 0, 0, 0]  # nothing ran during capture


def test_graph_launch_replays_nodes(eng, process):
    rt = process.runtime

    def app(rt):
        x = yield from rt.malloc(0, 512)
        y = yield from rt.malloc(0, 512)
        yield from rt.graph_begin_capture(0)
        yield from rt.memcpy_h2d(0, x, payload=2)
        yield from rt.launch_kernel(0, build_scale(factor=3),
                                    [x.addr, y.addr, 4], 4)
        graph = yield from rt.graph_end_capture(0)
        yield from rt.graph_launch(0, graph, sync=True)
        return x, y, graph

    x, y, graph = eng.run_process(app(rt))
    assert len(graph) == 2
    assert words(y, 4) == [6, 6, 6, 6]


def test_graph_relaunch_is_repeatable(eng, process):
    rt = process.runtime

    def app(rt):
        buf = yield from rt.malloc(0, 512)
        from repro.gpu.program import build_inplace_add

        graph = CudaGraph("inc")
        graph.add_kernel_node(build_inplace_add(), [buf.addr, 4], 4)
        graph.instantiate()
        for _ in range(3):
            yield from rt.graph_launch(0, graph, sync=True)
        return buf

    buf = eng.run_process(app(rt))
    assert words(buf, 4) == [3, 3, 3, 3]


def test_explicit_graph_construction(eng, process):
    rt = process.runtime

    def app(rt):
        buf = yield from rt.malloc(0, 512)
        graph = CudaGraph("explicit")
        graph.add_kernel_node(build_fill(), [buf.addr, 4, 5], 4)
        graph.add_kernel_node(build_fill(), [buf.addr, 2, 8], 2,
                              cost=KernelCost(flops=1e9))
        graph.instantiate()
        yield from rt.graph_launch(0, graph, sync=True)
        return buf

    buf = eng.run_process(app(rt))
    assert words(buf, 4) == [8, 8, 5, 5]


def test_uninstantiated_graph_rejected(eng, process):
    rt = process.runtime

    def app(rt):
        graph = CudaGraph("raw")
        yield from rt.graph_launch(0, graph)

    with pytest.raises(InvalidValueError, match="instantiated"):
        eng.run_process(app(rt))


def test_modify_after_instantiate_rejected():
    graph = CudaGraph("frozen").instantiate()
    with pytest.raises(InvalidValueError):
        graph.add_kernel_node(build_fill(), [0, 0, 0], 1)


def test_double_capture_rejected(eng, process):
    rt = process.runtime

    def app(rt):
        yield from rt.graph_begin_capture(0)
        yield from rt.graph_begin_capture(0)

    with pytest.raises(InvalidValueError, match="already capturing"):
        eng.run_process(app(rt))


def test_end_without_begin_rejected(eng, process):
    rt = process.runtime

    def app(rt):
        yield from rt.graph_end_capture(0)

    with pytest.raises(InvalidValueError, match="not capturing"):
        eng.run_process(app(rt))


def test_graph_nodes_flow_through_interception(eng, process):
    """§9's compatibility claim: replayed nodes hit the frontend like
    any other launch — speculation sees each node's arguments."""
    from repro.api.calls import ApiCategory, LaunchPlan

    seen = []

    class Rec:
        def plan(self, call):
            seen.append(call)
            return LaunchPlan()

        def on_malloc(self, g, b):
            pass

        def on_free(self, g, b):
            pass

    rt = process.runtime

    def app(rt):
        buf = yield from rt.malloc(0, 512)
        yield from rt.graph_begin_capture(0)
        yield from rt.launch_kernel(0, build_fill(), [buf.addr, 4, 1], 4)
        graph = yield from rt.graph_end_capture(0)
        rt.interceptor = Rec()
        yield from rt.graph_launch(0, graph, sync=True)

    eng.run_process(app(rt))
    kernel_calls = [c for c in seen if c.category is ApiCategory.OPAQUE_KERNEL]
    assert len(kernel_calls) == 1
    assert kernel_calls[0].name == "fill"
    assert kernel_calls[0].args  # arguments visible to speculation


def test_graph_launch_during_cow_checkpoint_is_guarded(eng, machine):
    """A graph launched mid-checkpoint gets per-node CoW protection."""
    from repro.api.runtime import GpuProcess
    from repro.core.daemon import Phos
    from repro.core.quiesce import quiesce
    from repro.gpu.context import GpuContext

    from tests.toyapp import image_gpu_state

    phos = Phos(eng, machine, use_context_pool=False)
    process = GpuProcess(eng, machine, name="gapp", gpu_indices=[0], cpu_pages=4)
    process.runtime.adopt_context(0, GpuContext(gpu_index=0))
    phos.attach(process)
    rt = process.runtime

    def driver(eng):
        buf = yield from rt.malloc(0, 64 * MIB, tag="victim")
        yield from rt.memcpy_h2d(0, buf, payload=1, sync=True)
        expected = buf.snapshot()
        graph = CudaGraph("writer")
        graph.add_kernel_node(build_fill(), [buf.addr, 8, 99], 8,
                              cost=KernelCost(flops=1e9))
        graph.instantiate()
        yield from quiesce(eng, [process])
        handle = phos.checkpoint(process, mode="cow")
        # The graph's node writes `victim` while it is being copied.
        yield from rt.graph_launch(0, graph, sync=True)
        image, session = yield handle
        return image, session, buf, expected

    image, session, buf, expected = eng.run_process(driver(eng))
    eng.run()
    assert not session.aborted
    got = image_gpu_state(image)
    assert got[(0, buf.addr)] == expected  # t1 content, not the 99s
    assert buf.load_word(buf.addr) == 99   # the graph really ran

"""Unit tests for NCCL-equivalent collectives and library calls."""

import pytest

from repro.api.calls import ApiCategory, LaunchPlan
from repro.api.nccl import NcclCommunicator, nccl_allreduce
from repro.api.runtime import GpuProcess
from repro.cluster import Cluster, Machine
from repro.errors import InvalidValueError
from repro.units import GIB, MIB, NVLINK_BW, RDMA_100GBPS


def make_comm(eng, indices=(0, 1)):
    return NcclCommunicator(eng, list(indices))


def alloc_pair(rt, fill0, fill1):
    b0 = yield from rt.malloc(0, 1 * MIB)
    b1 = yield from rt.malloc(1, 1 * MIB)
    yield from rt.memcpy_h2d(0, b0, payload=fill0, sync=True)
    yield from rt.memcpy_h2d(1, b1, payload=fill1, sync=True)
    return b0, b1


def test_allreduce_sums_across_gpus(eng, dual_process):
    comm = make_comm(eng)

    def app(rt):
        b0, b1 = yield from alloc_pair(rt, 10, 32)
        yield from nccl_allreduce(rt, comm, {0: b0, 1: b1}, sync=True)
        return b0, b1

    b0, b1 = eng.run_process(app(dual_process.runtime))
    assert b0.load_word(b0.addr) == 42
    assert b1.load_word(b1.addr) == 42


def test_allreduce_time_formula(eng):
    comm = NcclCommunicator(eng, [0, 1, 2, 3], nvlink_bw=100.0)
    assert comm.allreduce_time(400) == pytest.approx(2 * 3 / 4 * 4.0)
    single = NcclCommunicator(eng, [0])
    assert single.allreduce_time(1 << 30) == 0.0


def test_collective_takes_nvlink_time(eng, dual_process):
    comm = make_comm(eng)

    def app(rt):
        b0 = yield from rt.malloc(0, 1 * GIB)
        b1 = yield from rt.malloc(1, 1 * GIB)
        t0 = rt.engine.now
        yield from nccl_allreduce(rt, comm, {0: b0, 1: b1}, sync=True)
        return rt.engine.now - t0

    elapsed = eng.run_process(app(dual_process.runtime))
    expected = comm.allreduce_time(1 * GIB)
    assert elapsed == pytest.approx(expected, rel=0.01)


def test_mismatched_buffers_rejected(eng, dual_process):
    comm = make_comm(eng)

    def app(rt):
        b0 = yield from rt.malloc(0, 1 * MIB)
        yield from nccl_allreduce(rt, comm, {0: b0}, sync=True)

    with pytest.raises(InvalidValueError):
        eng.run_process(app(dual_process.runtime))


def test_collective_calls_are_comm_category(eng, dual_process):
    seen = []

    class Rec:
        def plan(self, call):
            seen.append(call)
            return LaunchPlan()

        def on_malloc(self, g, b):
            pass

        def on_free(self, g, b):
            pass

    dual_process.runtime.interceptor = Rec()
    comm = make_comm(eng)

    def app(rt):
        b0, b1 = yield from alloc_pair(rt, 1, 2)
        yield from nccl_allreduce(rt, comm, {0: b0, 1: b1}, sync=True)

    eng.run_process(app(dual_process.runtime))
    comm_calls = [c for c in seen if c.category is ApiCategory.COMM]
    assert len(comm_calls) == 2  # one per rank
    assert {c.gpu_index for c in comm_calls} == {0, 1}
    for c in comm_calls:
        assert len(c.writes) == 1


def test_cublas_sgemm_declared_sets(eng, process):
    seen = []

    class Rec:
        def plan(self, call):
            seen.append(call)
            return LaunchPlan()

        def on_malloc(self, g, b):
            pass

        def on_free(self, g, b):
            pass

    process.runtime.interceptor = Rec()

    def app(rt):
        a = yield from rt.malloc(0, 1 * MIB)
        b = yield from rt.malloc(0, 1 * MIB)
        c = yield from rt.malloc(0, 1 * MIB)
        yield from rt.lib_compute(0, "cublasSgemm", reads=[a, b], writes=[c],
                                  sync=True)
        return c

    c = eng.run_process(app(process.runtime))
    gemm = [x for x in seen if x.name == "cublasSgemm"][0]
    assert gemm.category is ApiCategory.LIB_COMPUTE
    assert [w.id for w in gemm.writes] == [c.id]
    assert len(gemm.reads) == 2
    assert c.snapshot() != bytes(c.data_size)


def test_ring_across_machines_costs_its_slowest_hop(eng):
    """Ranks are (runtime, gpu) pairs of any processes: a hop within a
    machine is NVLink, a hop between machines is the cluster's RDMA
    link, its bandwidth plus its latency per ring step."""
    cluster = Cluster(eng, [Machine(eng, name=f"node{i}", n_gpus=2)
                            for i in range(2)], link_latency=3e-6)
    a, b = (GpuProcess(eng, m, name=m.name, gpu_indices=[0, 1])
            for m in cluster.machines)
    local = NcclCommunicator(eng, [(a.runtime, 0), (a.runtime, 1)])
    assert local.allreduce_time(400) == NcclCommunicator(
        eng, [0, 1]).allreduce_time(400) == (2 * 1 / 2) * 400 / NVLINK_BW
    ranks = [(a.runtime, 0), (a.runtime, 1), (b.runtime, 0)]
    ring = NcclCommunicator(eng, ranks, cluster=cluster)
    assert ring.hops == [(NVLINK_BW, 0.0), (RDMA_100GBPS, 3e-6),
                         (RDMA_100GBPS, 3e-6)]
    assert ring.allreduce_time(3 * MIB) == pytest.approx(
        4 * (MIB / RDMA_100GBPS + 3e-6))
    with pytest.raises(InvalidValueError):
        NcclCommunicator(eng, ranks)  # no cluster to join the machines
    with pytest.raises(InvalidValueError):
        NcclCommunicator(eng, [0, (b.runtime, 0)], cluster=cluster)

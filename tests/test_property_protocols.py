"""Property-based tests of the §4 correctness claims (hypothesis).

For randomized workloads — kernels, copies, library calls and
allocation churn (``cudaMalloc`` with and without a write, ``cudaFree``
inside the window) — and randomized checkpoint timings, every
registered checkpoint protocol is held to its stop-the-world reference:

* ``cow`` and ``stop-world`` images equal the quiesced state at t1
  (§4.2);
* ``recopy`` (§4.3), ``hw-dirty`` (§9), ``incremental`` and every round
  of a ``continuous`` stream equal the quiesced state at their t2;
* with a drawn ``parent`` (any cut), a ``cow`` child still equals its
  t1 state and a ``recopy`` / ``incremental`` child (with or without a
  pre-copy round) its t2 state, materialized through the chain — and so
  does a grandchild chained onto a CoW child written after its t1;
* a concurrently-restored process computes the same final state as a
  stop-the-world-restored one (§6).

A protocol registered without an oracle fails the suite.
"""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.protocols import Protocol, ProtocolConfig, registry
from repro.core.quiesce import quiesce
from repro.gpu.context import GpuContext
from repro.gpu.cost_model import KernelCost
from repro.gpu.program import (
    build_copy,
    build_fill,
    build_inplace_add,
    build_scale,
    build_scatter,
)
from repro.sim import Engine
from repro.storage.delta import materialize
from repro.units import MIB

from tests.toyapp import image_gpu_state, snapshot_process

N_BUFS = 5
N_WORDS = 8

_PROGRAMS = [build_fill(), build_scale(), build_copy(), build_inplace_add(),
             build_scatter()]

#: Op kinds past the program indices.  ``MALLOC`` writes the new buffer
#: right away; ``MALLOC_ONLY`` leaves it zero-filled and unwritten (a
#: dirty tracker never sees it, only the allocation list does).
MEMCPY, LIB, MALLOC, MALLOC_ONLY, FREE = range(len(_PROGRAMS),
                                              len(_PROGRAMS) + 5)

op_strategy = st.tuples(
    st.integers(0, FREE),                # program index or an extra kind
    st.integers(0, N_BUFS - 1),          # src buffer
    st.integers(0, N_BUFS - 1),          # dst buffer
    st.integers(1, 40),                  # payload / cost scale
)

workload_strategy = st.lists(op_strategy, min_size=3, max_size=16)


def build_process():
    eng = Engine()
    machine = Machine(eng, n_gpus=1)
    phos = Phos(eng, machine, use_context_pool=False)
    process = GpuProcess(eng, machine, name="prop", gpu_indices=[0], cpu_pages=4)
    process.runtime.adopt_context(0, GpuContext(gpu_index=0))
    phos.attach(process)
    return eng, machine, phos, process


def setup_buffers(rt, size):
    bufs = []

    def gen():
        for i in range(N_BUFS):
            buf = yield from rt.malloc(0, size, tag=f"p{i}")
            yield from rt.memcpy_h2d(0, buf, payload=i + 1, sync=True)
            bufs.append(buf)
        # A permutation for the scatter kernel.
        for j in range(N_WORDS):
            bufs[0].store_word(bufs[0].addr + 8 * j, (j * 3 + 1) % N_WORDS)

    return gen, bufs


def apply_op(rt, bufs, op, cost):
    """One op on the live buffer list ``bufs`` (malloc appends, free
    removes; ``bufs[0]`` holds the scatter permutation and stays)."""
    kind, src_i, dst_i, payload = op

    def gen():
        src, dst = bufs[src_i % len(bufs)], bufs[dst_i % len(bufs)]
        if kind < len(_PROGRAMS):
            prog = _PROGRAMS[kind]
            if prog.name == "fill":
                args = [dst.addr, N_WORDS, payload]
            elif prog.name == "inplace_add":
                args = [dst.addr, N_WORDS]
            elif prog.name == "scatter":
                args = [src.addr, bufs[0].addr, dst.addr, N_WORDS]
            else:  # copy / scale
                args = [src.addr, dst.addr, N_WORDS]
            yield from rt.launch_kernel(0, prog, args, N_WORDS, cost=cost)
        elif kind == MEMCPY:
            yield from rt.memcpy_h2d(0, dst, payload=payload)
        elif kind == LIB:
            yield from rt.lib_compute(
                0, "gemm", reads=[src], writes=[dst], cost=cost, salt=payload
            )
        elif kind in (MALLOC, MALLOC_ONLY):
            buf = yield from rt.malloc(0, bufs[0].size, tag=f"m{payload}")
            if kind == MALLOC:
                yield from rt.memcpy_h2d(0, buf, payload=payload)
            bufs.append(buf)
        elif len(bufs) > 2:  # FREE, like cudaFree: after queued work drains
            yield from rt.device_synchronize(0)
            yield from rt.free(0, bufs.pop(1 + dst_i % (len(bufs) - 1)))
        yield from rt.cpu_work(1e-5, write_pages=[payload % 4], value=payload)

    return gen


#: Every registered checkpoint protocol, by the stop-the-world reference
#: its image must equal: the state quiesced at t1, or at t2 (for a
#: ``continuous`` stream, each round's own t2).
T1_PROTOCOLS = ("cow", "stop-world")
T2_PROTOCOLS = ("continuous", "hw-dirty", "incremental", "recopy")


def test_every_checkpoint_protocol_has_an_oracle():
    assert sorted(T1_PROTOCOLS + T2_PROTOCOLS) == registry.names("checkpoint")


def assert_image_equals(image, gpu_state, cpu_state):
    """Byte equality of an image (a delta is walked to its root) with a
    process snapshot."""
    full = materialize(image)
    assert image_gpu_state(full) == gpu_state
    for idx, page in enumerate(cpu_state):
        assert full.cpu_pages[idx] == page


#: Parents a child may chain onto: none, or an image of either cut (an
#: ``incremental`` root also leaves the hash cache bound to it).
PARENTS = (None, "cow", "recopy", "incremental")
#: The protocols that take a ``parent``, by the cut their child takes.
T1_CHILDREN = ("cow",)
T2_CHILDREN = ("incremental", "recopy")


def take_parent(phos, process, rt, bufs, parent_mode, ops, cost):
    """Generator: checkpoint ``parent_mode`` (None: no parent), then run
    ``ops`` so the child has writes, mallocs and frees to capture."""
    if parent_mode is None:
        return None
    parent, _ = yield phos.checkpoint(process, mode=parent_mode,
                                      name="parent")
    for op in ops:
        yield from apply_op(rt, bufs, op, cost)()
    return parent


def child_config(parent, **tunables):
    return ProtocolConfig(parent=parent, **tunables)


@pytest.mark.parametrize("mode", T1_PROTOCOLS)
@given(workload_strategy, st.integers(0, 2), st.integers(1, 30),
       st.sampled_from(PARENTS), st.integers(0, 3))
# A parent-held buffer freed inside the window still exists at t1.
@example(ops=[(MEMCPY, 0, 1, 5), (FREE, 0, 0, 1), (0, 0, 0, 1)],
         warm_ops=1, cost_scale=1, parent_mode="incremental", between=0)
# ... and so does one the child captured (written since the parent).
@example(ops=[(MEMCPY, 0, 1, 5), (MEMCPY, 0, 1, 6), (FREE, 0, 0, 1),
              (0, 0, 0, 1)],
         warm_ops=1, cost_scale=1, parent_mode="cow", between=1)
@settings(max_examples=25, deadline=None)
def test_image_always_equals_t1_state(mode, ops, warm_ops, cost_scale,
                                      parent_mode, between):
    """A ``cow`` child (drawn parent, ``between`` ops after it) and the
    parentless t1 protocols equal the state quiesced at t1."""
    if mode not in T1_CHILDREN:
        parent_mode = None
    eng, machine, phos, process = build_process()
    rt = process.runtime
    cost = KernelCost(flops=cost_scale * 1e11, bytes_moved=0, memory_intensity=0.5)
    setup_gen, bufs = setup_buffers(rt, 8 * MIB)
    state = {}
    between = 0 if parent_mode is None else between

    def driver(eng):
        yield from setup_gen()
        for op in ops[:warm_ops]:
            yield from apply_op(rt, bufs, op, cost)()
        parent = yield from take_parent(
            phos, process, rt, bufs, parent_mode,
            ops[warm_ops:warm_ops + between], cost)
        yield from quiesce(eng, [process])
        state["gpu"], state["cpu"] = snapshot_process(process)
        handle = phos.checkpoint(
            process, mode=mode,
            config=child_config(parent) if parent is not None else None)
        # These run beside CoW's copy; stop-the-world holds them at the
        # API gate until it resumes.
        for op in ops[warm_ops + between:]:
            yield from apply_op(rt, bufs, op, cost)()
        image, session = yield handle
        return image, session

    image, session = eng.run_process(driver(eng))
    eng.run()
    assert session is None or not session.aborted
    assert_image_equals(image, state["gpu"], state["cpu"])


@pytest.mark.parametrize("mode", T2_PROTOCOLS)
@given(workload_strategy, st.integers(1, 30), st.sampled_from(PARENTS),
       st.integers(0, 3), st.integers(0, 1))
# A free that lands after the first pass copied the buffer: its record
# must not survive into the t2 image.
@example(ops=[(MEMCPY, 0, 0, 1), (FREE, 0, 0, 1), (0, 0, 0, 1)],
         cost_scale=1, parent_mode=None, between=0, precopy_rounds=0)
# A buffer malloc'ed in the window and never written exists at t2.
@example(ops=[(MALLOC_ONLY, 0, 0, 1), (0, 0, 0, 1)], cost_scale=1,
         parent_mode=None, between=0, precopy_rounds=0)
# A parent-held buffer freed in the window has no t2 state.
@example(ops=[(MEMCPY, 0, 1, 5), (FREE, 0, 0, 1), (0, 0, 0, 1)],
         cost_scale=1, parent_mode="incremental", between=1,
         precopy_rounds=1)
@settings(max_examples=25, deadline=None)
def test_image_always_equals_t2_state(mode, ops, cost_scale, parent_mode,
                                      between, precopy_rounds):
    """Checkpoint in ``mode`` with ``ops`` running concurrently: every
    image committed must equal the process state when its commit phase
    begins — quiesced since the final quiesce, that is the t2 state.
    ``recopy`` and ``incremental`` also draw a parent (``between`` ops
    run after it) and a pre-copy round."""
    if mode not in T2_CHILDREN:
        parent_mode, precopy_rounds = None, 0
    eng, machine, phos, process = build_process()
    rt = process.runtime
    cost = KernelCost(flops=cost_scale * 1e11, bytes_moved=0, memory_intensity=0.5)
    setup_gen, bufs = setup_buffers(rt, 8 * MIB)
    between = 0 if parent_mode is None else between
    cuts = []
    commit = Protocol.phase_commit

    def phase_commit(self, ctx):
        # The state at the commit's start; the image the commit returns
        # (a delta replaces the run's capture when it is sealed).
        gpu_state, cpu_state = snapshot_process(ctx.process)
        image, session = commit(self, ctx)
        cuts.append((image, gpu_state, cpu_state))
        return image, session

    def workload():
        for op in ops[between:]:
            yield from apply_op(rt, bufs, op, cost)()

    def driver(eng):
        yield from setup_gen()
        parent = yield from take_parent(phos, process, rt, bufs,
                                        parent_mode, ops[:between], cost)
        cuts.clear()  # a t2 parent's own commit is not under test here
        config = None
        if parent is not None or precopy_rounds:
            config = child_config(parent, precopy_rounds=precopy_rounds)
        handle = phos.checkpoint(process, mode=mode, config=config)
        # Its own process: an op that blocks (a free waits for queued
        # work) may still be running at t2, gated until the resume.
        eng.spawn(workload())
        yield handle

    with mock.patch.object(Protocol, "phase_commit", phase_commit):
        eng.run_process(driver(eng))
        eng.run()
    assert len(cuts) == (2 if mode == "continuous" else 1)
    for image, gpu_state, cpu_state in cuts:
        assert_image_equals(image, gpu_state, cpu_state)


@pytest.mark.parametrize("grandchild_mode", ["cow", "recopy"])
@pytest.mark.parametrize("parent_mode", ["cow", "incremental"])
def test_chain_through_a_cow_child_written_after_t1(parent_mode,
                                                     grandchild_mode):
    """parent → CoW child → grandchild.  Between the child's t1 and its
    commit a CPU page the child stores is rewritten, a buffer written
    and another freed.  The child must still equal its t1 state and the
    grandchild its own cut: the child's seal keeps the freed buffer,
    its CPU dump is the CoW one, and it leaves the hash cache knowing
    the post-t1 write is not in the child."""
    eng, machine, phos, process = build_process()
    rt = process.runtime
    cost = KernelCost(flops=1e6)
    setup_gen, bufs = setup_buffers(rt, 8 * MIB)
    seen = {}

    def window():
        # Gated until the child's plan phase resumes the process: the
        # page write lands as the dump starts, before its batch is done.
        yield from rt.cpu_work(0, write_pages=[1], value=0xB)
        yield from apply_op(rt, bufs, (0, 0, 2, 9), cost)()  # fill bufs[2]
        yield from apply_op(rt, bufs, (FREE, 0, 2, 1), cost)()  # bufs[3]
        yield from rt.device_synchronize(0)

    def driver(eng):
        yield from setup_gen()
        parent, _ = yield phos.checkpoint(process, mode=parent_mode,
                                          name="parent")
        yield from rt.cpu_work(0, write_pages=[1], value=0xA)
        yield from apply_op(rt, bufs, (MEMCPY, 0, 1, 7), cost)()
        # New since the parent, so copied whole: the window's writes
        # all land while it moves.
        yield from rt.malloc(0, 512 * MIB, tag="slow")
        yield from quiesce(eng, [process])
        seen["child"] = snapshot_process(process)
        handle = phos.checkpoint(process, mode="cow", name="child",
                                 config=child_config(parent))
        writer = eng.spawn(window())
        child, session = yield handle
        assert not session.aborted
        assert writer.triggered  # every window write precedes the commit
        yield from quiesce(eng, [process])
        seen["grandchild"] = snapshot_process(process)
        grandchild, _ = yield phos.checkpoint(
            process, mode=grandchild_mode, name="grandchild",
            config=child_config(child))
        return child, grandchild

    child, grandchild = eng.run_process(driver(eng))
    eng.run()
    assert_image_equals(child, *seen["child"])
    assert_image_equals(grandchild, *seen["grandchild"])


@given(workload_strategy, st.integers(1, 20))
@settings(max_examples=15, deadline=None)
def test_restore_concurrent_equals_stop_world(ops, cost_scale):
    cost = KernelCost(flops=cost_scale * 1e11, bytes_moved=0, memory_intensity=0.5)

    def run_variant(mode):
        eng, machine, phos, process = build_process()
        rt = process.runtime
        setup_gen, bufs = setup_buffers(rt, 8 * MIB)

        def make_image(eng):
            yield from setup_gen()
            image, session = yield phos.checkpoint(process, mode="cow")
            assert not session.aborted
            return image

        image = eng.run_process(make_image(eng))
        eng.run()
        machine2 = Machine(eng, name="node1", n_gpus=1)
        phos2 = Phos(eng, machine2, use_context_pool=False)

        def restored(eng):
            result = yield from phos2.restore(
                image, gpu_indices=[0], mode=mode, machine=machine2
            )
            new_process = result[0]
            session = result[2]
            by_tag = {b.tag: b for b in new_process.runtime.allocations[0]}
            new_bufs = [by_tag[f"p{i}"] for i in range(N_BUFS)]
            for op in ops:
                yield from apply_op(new_process.runtime, new_bufs, op, cost)()
            yield from new_process.runtime.device_synchronize(0)
            if session is not None:
                yield session.done
            return {b.tag: b.snapshot() for b in new_process.runtime.allocations[0]}

        final = eng.run_process(restored(eng))
        eng.run()
        return final

    assert run_variant("concurrent") == run_variant("stop-world")

"""Differential tests for the ``repro.perf`` fast path.

The fast path's contract is *observational equivalence*: a launch served
by a compiled plan must be indistinguishable — bytes, dirty bits, steps,
violations, faults — from the same launch interpreted
instruction-by-instruction.  These tests enforce the contract
differentially: every scenario runs on both paths and the results are
compared field by field.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidAddressError, KernelFault
from repro.gpu.instrument import instrument_program
from repro.gpu.interpreter import ValidationState, run_kernel
from repro.gpu.isa import ProgramBuilder
from repro.gpu.memory import DeviceMemory
from repro.gpu.program import (
    build_axpy_into,
    build_copy,
    build_fill,
    build_gather,
    build_inplace_add,
    build_partial_fill,
    build_reduce_sum,
    build_saxpy,
    build_scale,
    build_scatter,
    build_struct_kernel,
)
from repro.gpu.ranges import RangeSet
from repro.units import MIB
from tests import test_property_interpreter as fuzz
from tests.reference_interpreter import run_kernel_reference

N_WORDS = 32


def _fresh_world(rng):
    mem = DeviceMemory(capacity=16 * MIB, default_data_size=8 * N_WORDS)
    bufs = [mem.alloc(8 * N_WORDS, tag=f"b{i}") for i in range(4)]
    for buf in bufs:
        for i in range(N_WORDS):
            buf.store_word(buf.addr + 8 * i, rng.randrange(0, 2**40))
    # idx-style contents for gather/scatter: in-range word indices.
    for i in range(N_WORDS):
        bufs[1].store_word(bufs[1].addr + 8 * i, rng.randrange(0, N_WORDS))
    return mem, bufs


#: The (kernel, threads) shapes the simulator itself launches, pinned so
#: the fuzz draws them whatever the seeds pick: the opaque app kernels
#: (``repro.apps.base``, 8 threads) and ``tests.toyapp.ToyApp``'s three
#: (16 threads) — every launch the storage, chaos and fleet suites make.
APP_SHAPES = [(kind, n)
              for kind in ("scale", "inplace", "axpy", "copy", "fill",
                           "scatter")
              for n in (8, 16)]

#: Lanes whose stores collide: only the distinct-store proof in ``bind``
#: keeps the plan from scattering them in the wrong order.
OVERLAP_SHAPES = [("overlap", n) for n in (2, 3, 8, 16)]

#: Gathers and scatters the per-launch proof must refuse or accept: an
#: index past every buffer (fault) or past its own (a neighbour's word),
#: two lanes scattering to one word, the index buffer as the store target
#: (served: each lane reads its index before it overwrites it) or as the
#: scatter target, and sources in the hole of the "partial" ranges.
GATHER_SHAPES = [(kind, n)
                 for kind in ("gather_oob", "gather_far", "scatter_dup",
                              "gather_alias", "scatter_alias",
                              "gather_hole", "reduce_hole")
                 for n in (3, 8, 16)]

#: Kinds every in-bounds draw of which a plan must serve.
PLANNED = {"reduce", "gather", "partial", "gather_alias"}
#: Kinds no draw of which a plan may serve.
REFUSED = {"gather_oob", "gather_far", "scatter_dup", "scatter_alias"}


def _set_idx(b, words):
    """Overwrite leading words of the index buffer ``b[1]``."""
    for i, w in enumerate(words):
        b[1].store_word(b[1].addr + 8 * i, w)


def build_overlapping_stores(name: str = "overlap_store"):
    """A counted loop: thread ``tid`` stores ``y[tid + j] = 1000*tid + j``
    for ``j < k``, so lanes ``tid`` and ``tid + 1`` write the same words
    and sequential order decides which value stays."""
    b = ProgramBuilder(name, f"__global__ void {name}(long* y, long n, long k)")
    b.arg(0, 0).arg(1, 1).arg(2, 2).tid(3)
    b.bge(3, 1, "end")
    b.seti(4, 0)
    b.label("loop").bge(4, 2, "end")
    b.add(5, 3, 4).muli(5, 5, 8).add(5, 0, 5)
    b.muli(6, 3, 1000).add(6, 6, 4)
    b.stg(5, 6)
    b.addi(4, 4, 1).jmp("loop")
    b.label("end").exit()
    return b.build()


def _scenario(rng, kind=None, n=None):
    """One random launch: (kind, n, program, args builder, n_threads).

    ``kind`` and ``n`` pin the builder and the size; a pinned size
    launches one thread per element, as the apps do.  The args builder
    receives the world's buffers and may first rewrite index words.
    """
    if n is None:
        n = rng.choice([1, 2, 3, 7, 8, 16, N_WORDS])
        n_threads = rng.choice([n, n + rng.randrange(0, 4)])
    else:
        n_threads = n
    kind = kind or rng.choice([
        "copy", "scale", "saxpy", "fill", "inplace", "reduce",
        "gather", "scatter", "partial", "struct", "axpy",
    ])
    return (kind, n) + _kernel(rng, kind, n) + (n_threads,)


def _kernel(rng, kind, n):
    if kind == "copy":
        return build_copy(), (lambda b: [b[0].addr, b[2].addr, n])
    if kind == "scale":
        return (build_scale(factor=rng.randrange(1, 9)),
                (lambda b: [b[0].addr, b[2].addr, n]))
    if kind == "saxpy":
        a = rng.randrange(0, 5)
        return (build_saxpy(),
                (lambda b: [a, b[0].addr, b[2].addr, b[3].addr, n]))
    if kind == "axpy":
        a = rng.randrange(0, 5)
        return build_axpy_into(), (lambda b: [a, b[0].addr, b[2].addr, n])
    if kind == "fill":
        v = rng.randrange(0, 999)
        return build_fill(), (lambda b: [b[2].addr, n, v])
    if kind == "inplace":
        return build_inplace_add(), (lambda b: [b[2].addr, n])
    if kind == "reduce":
        return build_reduce_sum(), (lambda b: [b[0].addr, b[3].addr, n])
    if kind == "reduce_hole":
        return build_reduce_sum(), (lambda b: [b[3].addr, b[2].addr, n])
    if kind == "gather":
        return (build_gather(),
                (lambda b: [b[0].addr, b[1].addr, b[2].addr, n]))
    if kind == "gather_hole":
        return (build_gather(),
                (lambda b: [b[3].addr, b[1].addr, b[2].addr, n]))
    if kind == "gather_alias":
        return (build_gather(),
                (lambda b: [b[0].addr, b[1].addr, b[1].addr, n]))
    if kind in ("gather_oob", "gather_far"):
        lane = rng.randrange(0, n)
        bad = 2**40 if kind == "gather_oob" else N_WORDS + rng.randrange(0, 8)

        def make_args(b):
            b[1].store_word(b[1].addr + 8 * lane, bad)
            return [b[0].addr, b[1].addr, b[2].addr, n]
        return build_gather(), make_args
    if kind == "scatter":
        return (build_scatter(),
                (lambda b: [b[0].addr, b[1].addr, b[2].addr, n]))
    if kind == "scatter_dup":
        # Distinct indices, then two lanes on one word.
        words = rng.sample(range(N_WORDS), n)
        words[rng.randrange(1, n)] = words[0]
        return build_scatter(), (lambda b: _set_idx(b, words) or [
            b[0].addr, b[1].addr, b[2].addr, n])
    if kind == "scatter_alias":
        # Lane 0 overwrites lane 1's index before lane 1 reads it.
        words = [1] + rng.sample(range(n, N_WORDS), n - 1)
        return build_scatter(), (lambda b: _set_idx(b, words) or [
            b[0].addr, b[1].addr, b[1].addr, n])
    if kind == "overlap":
        k = rng.randrange(2, 5)
        return build_overlapping_stores(), (lambda b: [b[2].addr, n, k])
    v = rng.randrange(0, 99)
    if kind == "partial":
        return build_partial_fill(), (lambda b: [b[2].addr, n, v])
    return build_struct_kernel(), (lambda b: [b[3].addr, n, v])


def _run_one(program, make_args, n_threads, seed, force, validation_ranges):
    from repro.perf.plans import plan_cache_stats

    rng = random.Random(seed)
    mem, bufs = _fresh_world(rng)
    args = make_args(bufs)
    prog = program
    validation = None
    if validation_ranges is not None:
        prog = instrument_program(program)
        lo = min(b.addr for b in bufs)
        hi = max(b.end for b in bufs)
        if validation_ranges == "full":
            rs = RangeSet([(lo, hi)])
        else:  # "partial": a hole over part of the write target
            rs = RangeSet([(lo, hi - 8 * (N_WORDS // 2))])
        validation = ValidationState(read_ranges=rs, write_ranges=rs)
    hits = plan_cache_stats()["hit"]
    out = {"fault": None}
    try:
        if force == "reference":
            run = run_kernel_reference(prog, args, n_threads, mem,
                                       validation=validation)
        else:
            run = run_kernel(prog, args, n_threads, mem,
                             validation=validation, force_interpret=force)
        out["steps"] = run.steps
    except Exception as exc:  # the fault is part of the observable result
        out["fault"] = (type(exc), str(exc))
    out["words"] = [
        tuple(b.load_word(b.addr + 8 * i) for i in range(N_WORDS))
        for b in bufs
    ]
    out["dirty"] = [b.hw_dirty for b in bufs]
    out["violations"] = [] if validation is None else [
        (v.kernel, v.addr, v.kind, v.tid) for v in validation.violations
    ]
    return out, plan_cache_stats()["hit"] - hits


@pytest.mark.parametrize("validation_ranges", [None, "full", "partial"])
def test_differential_fuzz_interpreter_vs_plan(validation_ranges):
    """Random kernels: the plan path must match the interpreter exactly.

    Both tiers read ``Program.decoded``, so the enum-dispatch oracle in
    ``tests/reference_interpreter.py`` (which does not) is the third side.
    The equality is not vacuous for divergent and gathering kernels: a
    plan serves every in-bounds reduce, gather and partial_fill draw and
    every scatter whose lanes write distinct words, and none of the
    draws that fault, read a neighbouring buffer, scatter twice to one
    word, scatter over their own indices, or would report violations.
    """
    served = {}
    for seed, pin in enumerate([()] * 60 + APP_SHAPES + OVERLAP_SHAPES
                               + GATHER_SHAPES):
        rng = random.Random(10_000 + seed)
        kind, n, program, make_args, n_threads = _scenario(rng, *pin)
        (slow, _), (fast, hit), (oracle, _) = (
            _run_one(program, make_args, n_threads, seed,
                     force=force, validation_ranges=validation_ranges)
            for force in (True, False, "reference"))
        where = (f"seed={seed} kernel={program.name} kind={kind} n={n} "
                 f"threads={n_threads} validation={validation_ranges}")
        assert fast == slow == oracle, f"fast path diverged on {where}"
        clean = slow["fault"] is None and not slow["violations"]
        if kind in PLANNED and clean:
            assert hit == 1, f"not served by a plan: {where}"
        if kind in REFUSED or not clean:
            assert hit == 0, f"served by a plan: {where}"
        if kind == "scatter":
            _, bufs = _fresh_world(random.Random(seed))
            idx = [bufs[1].load_word(bufs[1].addr + 8 * i) for i in range(n)]
            assert hit == (len(set(idx)) == n), f"scatter proof: {where}"
        served[kind] = served.get(kind, 0) + hit
    # Every planned kind, and scatter, was served at least once.
    assert all(served[kind] for kind in PLANNED | {"scatter"}), served
    assert not any(served[kind] for kind in REFUSED), served


def _launch_outcome(launch, runner, **kw):
    """A whole ``run_kernel``-level launch of a property-suite program."""
    mem, bufs, validation = fuzz.fresh_state(launch)
    out = {"fault": None}
    try:
        run = runner(launch.program, launch.args, launch.n_threads, mem,
                     validation=validation, max_steps=launch.max_steps, **kw)
        out["steps"] = run.steps
    except Exception as exc:  # the fault is part of the observable result
        out["fault"] = (type(exc), str(exc))
    out["bytes"] = [b.snapshot() for b in bufs]
    out["dirty"] = [b.hw_dirty for b in bufs]
    out["violations"] = None if validation is None else validation.violations
    return out


def test_differential_fuzz_random_programs_tracer_vs_oracle():
    """The property suite's random programs, offered to the plan tier.

    The tracer walks the same decoded table as the interpreter; whatever
    it does with a program — serve it from a plan, abort and hand it
    back, or let it fault — the launch must be indistinguishable from
    the oracle's.
    """
    from repro.perf.plans import plan_cache_stats, reset_plan_cache_stats

    reset_plan_cache_stats()
    for seed in range(2000):
        launch = fuzz.random_launch(random.Random(seed))
        fast = _launch_outcome(launch, run_kernel)
        assert fast == _launch_outcome(launch, run_kernel_reference), seed
        # Same program object again: the cached plan / remembered abort.
        assert fast == _launch_outcome(launch, run_kernel), seed
    stats = plan_cache_stats()
    assert stats["hit"] >= 300 and stats["fallback"] >= 300, stats


# --------------------------------------------------------------------------
# repeated launches: the bind proof is memoised per plan on the memory
# --------------------------------------------------------------------------

def _saxpy_memory(n):
    mem = DeviceMemory(capacity=16 * MIB, default_data_size=8 * n)
    x, y, z = (mem.alloc(8 * n, tag=tag) for tag in "xyz")
    for i in range(n):
        x.store_word(x.addr + 8 * i, 10 + i)
        y.store_word(y.addr + 8 * i, 100 * i)
    return mem, x, y, z


def _fault_of(fn):
    try:
        fn()
    except Exception as exc:  # the fault is part of the observable result
        return type(exc), str(exc)
    return None


def test_free_and_alloc_at_between_identical_launches():
    """Same arguments before and after the write target is freed, then
    re-allocated at its address: the launch on the freed address faults
    as interpreted, and the new buffer is written by the plan."""
    from repro.perf.plans import plan_cache_stats

    n = 8
    prog = build_saxpy()
    outcomes = []
    for force in (False, True):
        mem, x, y, z = _saxpy_memory(n)
        args = [3, x.addr, y.addr, z.addr, n]

        def launch():
            run_kernel(prog, args, n, mem, force_interpret=force)

        launch()
        mem.free(z)
        fault = _fault_of(launch)
        z2 = mem.alloc_at(z.addr, z.size, tag="z2", data_size=8 * n)
        hits = plan_cache_stats()["hit"]
        launch()
        outcomes.append((fault, z.snapshot(), z2.snapshot(), z2.hw_dirty,
                         plan_cache_stats()["hit"] - hits))
    fast, slow = outcomes
    assert fast[:4] == slow[:4]
    assert fast[0][0] is InvalidAddressError
    assert fast[2] != bytes(8 * n)
    assert (fast[4], slow[4]) == (1, 0)


def test_value_dependent_abort_is_remembered_for_its_arguments_only():
    """A launch whose argument value stops the trace (n = -1 is out of
    range) falls back alone; the later valid launches are plan hits, and
    a repeat of the bad launch does not trace again."""
    from repro.perf.plans import plan_cache_stats, reset_plan_cache_stats

    n = 8
    prog = build_copy()
    mem, x, y, _ = _saxpy_memory(n)
    reset_plan_cache_stats()
    run_kernel(prog, [x.addr, y.addr, -1], n, mem)
    for _ in range(3):
        run_kernel(prog, [x.addr, y.addr, n], n, mem)
    stats = plan_cache_stats()
    assert (stats["hit"], stats["fallback"]) == (3, 1)
    misses = stats["miss"]
    run_kernel(prog, [x.addr, y.addr, -1], n, mem)
    assert plan_cache_stats() == {"hit": 3, "miss": misses, "fallback": 2}
    assert y.snapshot() == x.snapshot()


def test_divergence_on_an_argument_is_remembered_per_arguments():
    """partial_fill splits its 8 threads when n = 4 (2*tid < n) but not
    when n = 16: the split reads n, so n joins the signature and each
    value gets its own plan, traced once.  reduce_sum splits on the
    thread id alone (only thread 0 loops), so one plan serves it for
    each loop bound.  Every launch is a hit and equals the interpreter."""
    from repro.perf.plans import plan_cache_stats, reset_plan_cache_stats

    n = 8
    launches = [(build_partial_fill(), lambda x, y, z: [y.addr, 4, 7]),
                (build_partial_fill(), lambda x, y, z: [y.addr, 16, 7]),
                (build_partial_fill(), lambda x, y, z: [y.addr, 4, 9]),
                (build_reduce_sum(), lambda x, y, z: [x.addr, z.addr, 2]),
                (build_reduce_sum(), lambda x, y, z: [x.addr, z.addr, 3])]
    outcomes = []
    for force in (False, True):
        mem, x, y, z = _saxpy_memory(n)
        reset_plan_cache_stats()
        steps = [run_kernel(prog, make(x, y, z), n, mem,
                            force_interpret=force).steps
                 for prog, make in launches]
        outcomes.append((steps, y.snapshot(), z.snapshot(),
                         plan_cache_stats()))
    fast, slow = outcomes
    assert fast[:3] == slow[:3]
    # partial_fill n=4: 2 lanes store (10 steps each), 6 exit (7 each).
    assert fast[0][0] == 2 * 10 + 6 * 7
    assert fast[3]["hit"] == 5 and fast[3]["fallback"] == 0
    # n = 4 twice (one plan), n = 16, and reduce_sum's n = 2 and n = 3.
    assert fast[3]["miss"] == 4


def test_gather_proof_is_redone_after_an_index_write():
    """The same gather launch while its index buffer changes under it (a
    plain store: no alloc or free flushes the bind memo).  Each launch
    proves its gather on the indices it reads: with two lanes on one
    index the gather runs as a plan (a scatter on them falls back); with
    one index past every buffer it faults as interpreted, not from the
    last launch's proof; with the index restored it is a plan again."""
    from repro.perf.plans import plan_cache_stats

    n = 8
    outcomes = []
    for force in (False, True):
        mem, x, y, z = _saxpy_memory(n)
        idx = mem.alloc(8 * n, tag="idx", data_size=8 * n)
        for i in range(n):
            idx.store_word(idx.addr + 8 * i, (3 * i + 1) % n)
        # One program each, so its plan (and any memo of it) lives on.
        gather = (build_gather(), [x.addr, idx.addr, y.addr, n])
        scatter = (build_scatter(), [x.addr, idx.addr, z.addr, n])
        hits = plan_cache_stats()["hit"]
        seen = []
        for before in ((5, 1), (5, 1 << 40), (5, 1)):
            idx.store_word(idx.addr + 8 * before[0], before[1])
            for prog, args in (gather, scatter):
                seen.append(_fault_of(lambda: run_kernel(
                    prog, args, n, mem, force_interpret=force)))
        outcomes.append((seen, y.snapshot(), z.snapshot(), y.hw_dirty,
                         plan_cache_stats()["hit"] - hits))
    fast, slow = outcomes
    assert fast[:4] == slow[:4]
    assert fast[0][2][0] is fast[0][3][0] is InvalidAddressError
    # The gather's first and last launches; the scatter never.
    assert (fast[4], slow[4]) == (2, 0)


def test_a_word_past_an_unaligned_logical_end_faults_as_interpreted():
    """``alloc_at`` with a size that is not a whole number of words
    materializes a prefix one partial word longer than the buffer: a
    fill of the 13th word lies inside the prefix but past the logical
    end, where the interpreter faults, so a plan must not serve it."""
    outcomes = []
    for force in (False, True):
        mem = DeviceMemory(capacity=16 * MIB, default_data_size=512)
        buf = mem.alloc_at(mem.base, 100, tag="odd")
        assert len(buf.data) == 104
        fault = _fault_of(lambda: run_kernel(
            build_fill(), [buf.addr, 13, 7], 13, mem, force_interpret=force))
        outcomes.append((fault, buf.snapshot()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0][0] is InvalidAddressError


def test_a_lane_class_past_max_steps_faults_as_interpreted():
    """reduce_sum's thread 0 loops n times while threads 1-7 exit early:
    a step budget between the two path lengths must fault (thread 0
    exceeds it), so the launch is not served although 7 of 8 lanes fit."""
    n = 8
    outcomes = []
    for force in (False, True):
        mem, x, y, z = _saxpy_memory(n)
        outcomes.append([(_fault_of(lambda: run_kernel(
            build_reduce_sum(), [x.addr, z.addr, n], n, mem,
            max_steps=max_steps, force_interpret=force)), z.snapshot())
            for max_steps in (20, 100)])
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0][0][0] is KernelFault
    assert outcomes[0][1][0] is None


TOP = 1 << 64


def _top_memory():
    """Buffers at address 0 and at the top of the 64-bit space, where a
    range that wraps past 2**64 lands in both."""
    mem = DeviceMemory(capacity=TOP, base=0, default_data_size=64)
    low = mem.alloc(64, tag="low")
    top = mem.alloc_at(TOP - 64, 64, tag="top")
    for buf in (low, top):
        for i in range(8):
            buf.store_word(buf.addr + 8 * i, 100 + i)
        buf.hw_dirty = False
    return mem, low, top


def build_aliased(alias: str):
    """Odd lanes exit; each even lane reaches ``x + 2**63·tid``, which
    is ``x`` for every one of them.  ``"store"`` writes ``v`` there;
    ``"load"`` reads it into ``y[tid]``."""
    name = f"aliased_{alias}"
    b = ProgramBuilder(name, f"__global__ void {name}(long* x, long* y, long v)")
    b.arg(0, 0).arg(1, 1).arg(2, 2).tid(3)
    b.seti(4, 2).mod(4, 3, 4).seti(5, 0).bne(4, 5, "end")
    b.muli(6, 3, 1 << 63).add(6, 0, 6)
    if alias == "store":
        b.stg(6, 2)
    else:
        b.muli(7, 3, 8).add(7, 1, 7).ldg(8, 6).stg(7, 8)
    b.label("end").exit()
    return b.build()


def _fallbacks_of(program, args, n_threads, ranges):
    """The launch's outcome on plans and on the reference loop (fresh
    memory each), and the fallback labels the plan tier counted."""
    from repro import obs
    from repro.sim import Engine

    outcomes = []
    for runner in (run_kernel, run_kernel_reference):
        mem, low, top = _top_memory()
        validation = None if ranges is None else ValidationState(
            read_ranges=RangeSet(ranges), write_ranges=RangeSet(ranges))
        out = {"fault": None}
        observer = obs.install(Engine())
        try:
            out["steps"] = runner(program, args(low, top), n_threads, mem,
                                  validation=validation).steps
        except Exception as exc:  # the fault is part of the observable result
            out["fault"] = (type(exc), str(exc))
        finally:
            obs.uninstall()
        out["bytes"] = (low.snapshot(), top.snapshot())
        out["dirty"] = (low.hw_dirty, top.hw_dirty)
        out["violations"] = None if validation is None else [
            (v.kernel, v.addr, v.kind, v.tid) for v in validation.violations]
        outcomes.append(out)
        if runner is run_kernel:
            labels = {(c.labels["reason"], c.labels["abort"]): c.value
                      for c in observer.metrics.find(
                          "perf/plan_cache/fallback")}
    assert outcomes[0] == outcomes[1]
    return outcomes[0], labels


@pytest.mark.parametrize("alias", ["store", "load"])
def test_lanes_aliased_by_a_wrapping_stride_abort_as_wide(alias):
    """A ``2**63`` tid stride puts every even lane on one word in bounds.
    Its offsets span at least 2**64, so the group is *wide*: the plan
    tier refuses it at compile (``addr-wide``), although the aliased
    loads could be gathered, and the interpreter runs it."""
    out, labels = _fallbacks_of(
        build_aliased(alias), lambda low, top: [low.addr, low.addr + 8, 7],
        8, None)
    assert labels == {("trace-abort", "addr-wide"): 1}
    assert out["fault"] is None and out["dirty"] == (True, False)


@pytest.mark.parametrize("twin", [False, True])
def test_a_range_that_straddles_two_to_the_64_falls_back_at_bind(twin):
    """A fill from 16 bytes below 2**64: two lanes land at the top of
    the space and two wrap to address 0.  The closed-form hull straddles
    a multiple of 2**64, so the launch falls back at bind (its twin's
    CHK hull straddles too) and equals the interpreter."""
    program = build_fill()
    ranges = None
    if twin:
        program = instrument_program(program)
        ranges = [(0, 64), (TOP - 64, TOP)]
    out, labels = _fallbacks_of(
        program, lambda low, top: [TOP - 16, 4, 9], 4, ranges)
    assert labels == {("bind", ""): 1}
    assert out["fault"] is None and out["dirty"] == (True, True)
    assert out["violations"] == (None if ranges is None else [])


def test_each_launch_asks_its_own_validation_state():
    """A launch with the same arguments as a covered one, but ranges that
    no longer cover its writes, reports the interpreter's violations."""
    n = 8
    twin = instrument_program(build_saxpy())
    outcomes = []
    for force in (False, True):
        mem, x, y, z = _saxpy_memory(n)
        args = [3, x.addr, y.addr, z.addr, n]
        reads = RangeSet([(x.addr, x.end), (y.addr, y.end)])
        covered = ValidationState(read_ranges=reads,
                                  write_ranges=RangeSet([(z.addr, z.end)]))
        run_kernel(twin, args, n, mem, validation=covered,
                   force_interpret=force)
        half = ValidationState(read_ranges=reads, write_ranges=RangeSet(
            [(z.addr, z.addr + 8 * (n // 2))]))
        run_kernel(twin, args, n, mem, validation=half,
                   force_interpret=force)
        outcomes.append((covered.violations, half.violations, z.snapshot()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == [] and len(outcomes[0][1]) == n // 2


#: Kernels the sequence differential launches, each with how it takes
#: three pointer slots, an element count and a scalar.
SEQ_KERNELS = [
    (build_copy(), lambda p, n, s: [p[0], p[1], n]),
    (build_scale(factor=3), lambda p, n, s: [p[0], p[1], n]),
    (build_saxpy(), lambda p, n, s: [s, p[0], p[1], p[2], n]),
    (build_axpy_into(), lambda p, n, s: [s, p[0], p[1], n]),
    (build_fill(), lambda p, n, s: [p[0], n, s]),
    (build_inplace_add(), lambda p, n, s: [p[0], n]),
]
SEQ_WORDS = 8

_SEQ_RANGES = st.sampled_from([None, "full", "half"])
_SEQ_LAUNCH = st.tuples(
    st.just("launch"), st.integers(0, len(SEQ_KERNELS) - 1),
    st.lists(st.integers(0, 15), min_size=3, max_size=3),
    st.integers(1, SEQ_WORDS + 2), st.integers(0, 5), _SEQ_RANGES)
#: The last launch's arguments again, mostly under the same ranges.
_SEQ_REPEAT = st.tuples(st.just("repeat"),
                        st.sampled_from(["same", "same", None, "full", "half"]))
_SEQ_OP = {
    "alloc": st.tuples(st.just("alloc"), st.integers(1, 3)),
    "free": st.tuples(st.just("free"), st.integers(0, 15)),
    "alloc_at": st.tuples(st.just("alloc_at"), st.integers(0, 15)),
    "launch": _SEQ_LAUNCH,
    "repeat": _SEQ_REPEAT,
}
#: Launches and repeats are drawn more often than layout changes.
SEQ_OPS = st.lists(st.sampled_from(
    ["alloc", "free", "alloc_at"] + ["launch"] * 2 + ["repeat"] * 3,
).flatmap(_SEQ_OP.get), min_size=8, max_size=40)


def _run_sequence(ops, force):
    """Apply ``ops`` to a fresh memory; everything observable, per op.

    Pointer slots mostly pick a live buffer; the rest index every buffer
    ever allocated, freed ones too, and one past them an unmapped
    address, so launches fault as well.
    """
    mem = DeviceMemory(capacity=16 * MIB, default_data_size=8 * SEQ_WORDS)
    bufs = []

    def alloc(make):
        buf = make(f"b{len(bufs)}")
        for i in range(SEQ_WORDS):
            buf.store_word(buf.addr + 8 * i, 1000 * len(bufs) + i)
        bufs.append(buf)

    for _ in range(3):
        alloc(lambda tag: mem.alloc(8 * SEQ_WORDS, tag=tag))
    observed = []
    last = ranges = None
    for op in ops:
        result = None
        if op[0] == "alloc":
            alloc(lambda tag: mem.alloc(256 * op[1], tag=tag))
        elif op[0] == "free":
            live = [b for b in bufs if not b.freed]
            if live:
                mem.free(live[op[1] % len(live)])
        elif op[0] == "alloc_at":
            freed = [b for b in bufs if b.freed]
            if freed:
                old = freed[op[1] % len(freed)]
                result = _fault_of(lambda: alloc(lambda tag: mem.alloc_at(
                    old.addr, old.size, tag=tag, data_size=8 * SEQ_WORDS)))
        elif op[0] == "launch" or last is not None:
            if op[0] == "launch":
                _, k, slots, n, scalar, ranges = op
                live = [b.addr for b in bufs if not b.freed]
                every = [b.addr for b in bufs] + [0xDEAD0000]
                ptrs = [live[i % len(live)] if i < 12 and live
                        else every[i % len(every)] for i in slots]
                program, make_args = SEQ_KERNELS[k]
                last = (program, make_args(ptrs, n, scalar), n)
            elif op[1] != "same":
                ranges = op[1]
            program, args, n = last
            validation = None
            if ranges is not None:
                program = instrument_program(program)
                span = 8 * SEQ_WORDS if ranges == "full" else 8 * SEQ_WORDS // 2
                rs = RangeSet([(b.addr, b.addr + span)
                               for b in bufs if not b.freed])
                validation = ValidationState(read_ranges=rs, write_ranges=rs)
            result = (_fault_of(lambda: run_kernel(
                program, args, n, mem, validation=validation,
                force_interpret=force)),
                None if validation is None else validation.violations)
        observed.append((op, result, [b.snapshot() for b in bufs],
                         [b.hw_dirty for b in bufs]))
    return observed


@settings(max_examples=150, deadline=None)
@given(ops=SEQ_OPS)
def test_differential_sequences_of_allocs_frees_and_repeated_launches(ops):
    """Random alloc/free/alloc_at/launch/repeat sequences: served by plans
    with their memoised bind proofs, they must be indistinguishable from
    every launch interpreted on a twin memory — bytes, dirty bits,
    violations, faults."""
    assert _run_sequence(ops, False) == _run_sequence(ops, True)

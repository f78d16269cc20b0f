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

from repro.errors import InvalidAddressError
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
    """One random launch: (program, args builder, n_threads).

    ``kind`` and ``n`` pin the builder and the size; a pinned size
    launches one thread per element, as the apps do.
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
    if kind == "copy":
        return build_copy(), (lambda b: [b[0].addr, b[2].addr, n]), n_threads
    if kind == "scale":
        return (build_scale(factor=rng.randrange(1, 9)),
                (lambda b: [b[0].addr, b[2].addr, n]), n_threads)
    if kind == "saxpy":
        a = rng.randrange(0, 5)
        return (build_saxpy(),
                (lambda b: [a, b[0].addr, b[2].addr, b[3].addr, n]),
                n_threads)
    if kind == "axpy":
        a = rng.randrange(0, 5)
        return (build_axpy_into(),
                (lambda b: [a, b[0].addr, b[2].addr, n]), n_threads)
    if kind == "fill":
        v = rng.randrange(0, 999)
        return build_fill(), (lambda b: [b[2].addr, n, v]), n_threads
    if kind == "inplace":
        return build_inplace_add(), (lambda b: [b[2].addr, n]), n_threads
    if kind == "reduce":
        return (build_reduce_sum(),
                (lambda b: [b[0].addr, b[3].addr, n]), n_threads)
    if kind == "gather":
        return (build_gather(),
                (lambda b: [b[0].addr, b[1].addr, b[2].addr, n]), n_threads)
    if kind == "scatter":
        return (build_scatter(),
                (lambda b: [b[0].addr, b[1].addr, b[2].addr, n]), n_threads)
    if kind == "overlap":
        k = rng.randrange(2, 5)
        return (build_overlapping_stores(),
                (lambda b: [b[2].addr, n, k]), n_threads)
    v = rng.randrange(0, 99)
    if kind == "partial":
        return (build_partial_fill(),
                (lambda b: [b[2].addr, n, v]), n_threads)
    return (build_struct_kernel(),
            (lambda b: [b[3].addr, n, v]), n_threads)


def _run_one(program, make_args, n_threads, seed, force, validation_ranges):
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
    if force == "reference":
        run = run_kernel_reference(prog, args, n_threads, mem,
                                   validation=validation)
    else:
        run = run_kernel(prog, args, n_threads, mem,
                         validation=validation, force_interpret=force)
    words = [
        tuple(b.load_word(b.addr + 8 * i) for i in range(N_WORDS))
        for b in bufs
    ]
    return {
        "words": words,
        "steps": run.steps,
        "violations": [] if validation is None else [
            (v.kernel, v.addr, v.kind, v.tid) for v in validation.violations
        ],
    }


@pytest.mark.parametrize("validation_ranges", [None, "full", "partial"])
def test_differential_fuzz_interpreter_vs_plan(validation_ranges):
    """Random kernels: the plan path must match the interpreter exactly.

    Both tiers read ``Program.decoded``, so the enum-dispatch oracle in
    ``tests/reference_interpreter.py`` (which does not) is the third side.
    """
    for seed, pin in enumerate([()] * 60 + APP_SHAPES + OVERLAP_SHAPES):
        rng = random.Random(10_000 + seed)
        program, make_args, n_threads = _scenario(rng, *pin)
        slow, fast, oracle = (
            _run_one(program, make_args, n_threads, seed,
                     force=force, validation_ranges=validation_ranges)
            for force in (True, False, "reference"))
        assert fast == slow == oracle, (
            f"fast path diverged on seed={seed} kernel={program.name} "
            f"validation={validation_ranges}"
        )


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
    """partial_fill diverges on 8 threads when n = 4 (2*tid < n) but not
    when n = 16, so the uniform launch still gets a plan; reduce_sum
    diverges on the thread id alone, so its key is given up once."""
    from repro.perf.plans import plan_cache_stats, reset_plan_cache_stats

    n = 8
    mem, x, y, z = _saxpy_memory(n)
    reset_plan_cache_stats()
    partial = build_partial_fill()
    run_kernel(partial, [y.addr, 4, 7], n, mem)
    run_kernel(partial, [y.addr, 16, 7], n, mem)
    assert plan_cache_stats()["hit"] == 1
    reduce = build_reduce_sum()
    before = plan_cache_stats()
    run_kernel(reduce, [x.addr, z.addr, 2], n, mem)
    run_kernel(reduce, [x.addr, z.addr, 3], n, mem)
    after = plan_cache_stats()
    assert after["fallback"] - before["fallback"] == 2
    assert after["miss"] - before["miss"] <= 1
    assert after["hit"] == before["hit"]


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

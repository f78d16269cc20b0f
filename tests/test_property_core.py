"""Property-based tests for the core data structures (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.memory import DeviceMemory
from repro.gpu.ranges import RangeSet
from repro.sim import Engine
from repro.sim.fluid import FluidLink
from repro.units import MIB
from tests.reference_interpreter import observed_accesses


# --- RangeSet vs a naive model ----------------------------------------------------

ranges_strategy = st.lists(
    st.tuples(st.integers(0, 400), st.integers(1, 60)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
    min_size=0, max_size=12,
)


@given(ranges_strategy, st.integers(-10, 500))
def test_rangeset_membership_matches_naive_model(ranges, probe):
    rs = RangeSet(ranges)
    naive = set()
    for start, end in ranges:
        naive.update(range(start, end))
    assert (probe in rs) == (probe in naive)


@given(ranges_strategy)
def test_rangeset_stays_normalized(ranges):
    rs = RangeSet(ranges)
    items = list(rs)
    for (s1, e1), (s2, e2) in zip(items, items[1:]):
        assert e1 < s2, "ranges must stay disjoint, sorted, non-touching"
    naive = set()
    for start, end in ranges:
        naive.update(range(start, end))
    assert rs.total_bytes() == len(naive)


@given(ranges_strategy, ranges_strategy)
def test_rangeset_union_is_commutative(a, b):
    ab = RangeSet(a)
    for s, e in b:
        ab.add(s, e)
    ba = RangeSet(b)
    for s, e in a:
        ba.add(s, e)
    assert ab == ba


# --- device memory allocator --------------------------------------------------------


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(1, 4 * MIB)),
            st.tuples(st.just("free"), st.integers(0, 30)),
        ),
        min_size=1, max_size=40,
    )
)
@settings(max_examples=50)
def test_allocator_invariants(ops):
    mem = DeviceMemory(capacity=64 * MIB)
    live = []
    for op, arg in ops:
        if op == "alloc":
            try:
                live.append(mem.alloc(arg))
            except Exception:
                continue  # OOM is legitimate
        elif live:
            buf = live.pop(arg % len(live))
            mem.free(buf)
    # Invariant 1: live allocations are pairwise disjoint.
    spans = sorted((b.addr, b.end) for b in live)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2
    # Invariant 2: accounting matches the live set.
    assert mem.used == sum(b.size for b in live)
    # Invariant 3: resolve() agrees with the live set.
    for b in live:
        assert mem.resolve(b.addr) is b
        assert mem.resolve(b.end - 1) is b
    # Invariant 4: freeing everything restores full capacity.
    for b in list(live):
        mem.free(b)
    assert mem.free_bytes == mem.capacity
    big = mem.alloc(32 * MIB)  # no fragmentation after full free
    assert big.size >= 32 * MIB


# --- fluid link conservation -----------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 5.0),       # arrival time
            st.floats(1.0, 500.0),     # bytes
            st.floats(1.0, 50.0),      # rate cap
        ),
        min_size=1, max_size=8,
    )
)
@settings(max_examples=40, deadline=None)
def test_fluid_link_conserves_and_respects_caps(flows):
    eng = Engine()
    link = FluidLink(eng, bandwidth=40.0)
    done_times = {}

    def mover(eng, i, delay, nbytes, cap):
        yield eng.timeout(delay)
        start = eng.now
        yield from link.flow(nbytes, rate_cap=cap)
        done_times[i] = (start, eng.now, nbytes, cap)

    for i, (delay, nbytes, cap) in enumerate(flows):
        eng.spawn(mover(eng, i, delay, nbytes, cap))
    eng.run()
    assert len(done_times) == len(flows)
    for i, (start, end, nbytes, cap) in done_times.items():
        elapsed = end - start
        # No flow may beat its own rate cap or the link bandwidth.
        min_time = nbytes / min(cap, link.bandwidth)
        assert elapsed >= min_time - 1e-6
        # And a lone flow would finish in nbytes/min(cap, bw); with
        # contention it can only be slower — sanity upper bound:
        assert elapsed <= (nbytes / 1.0) + 10.0


# --- speculation safety over random argument-addressed kernels --------------------------


@given(
    st.integers(1, 6),                       # number of buffers
    st.lists(st.integers(0, 5), min_size=2, max_size=6),  # arg pattern
    st.integers(1, 8),                       # threads
)
@settings(max_examples=60)
def test_speculation_covers_actual_writes_for_arg_addressed_kernels(
    n_bufs, pattern, n_threads
):
    """For kernels whose every access flows from an argument, the
    speculated write set must cover every actual write (safety)."""
    from repro.api.calls import ApiCall, ApiCategory
    from repro.core.speculation import speculate_call
    from repro.core.tracker import BufferTable
    from repro.gpu.interpreter import AccessKind
    from repro.gpu.program import build_copy, build_fill, build_inplace_add

    mem = DeviceMemory(capacity=16 * MIB, default_data_size=512)
    table = BufferTable(0)
    bufs = []
    for i in range(n_bufs):
        b = mem.alloc(4096, tag=f"b{i}")
        table.register(b)
        bufs.append(b)
    builders = [build_copy, build_fill, build_inplace_add]
    prog = builders[pattern[0] % len(builders)]()
    if prog.name == "dev_copy":
        args = [bufs[pattern[0] % n_bufs].addr,
                bufs[pattern[1] % n_bufs].addr, n_threads]
    elif prog.name == "fill":
        args = [bufs[pattern[0] % n_bufs].addr, n_threads, 7]
    else:
        args = [bufs[pattern[0] % n_bufs].addr, n_threads]
    call = ApiCall(ApiCategory.OPAQUE_KERNEL, prog.name, 0,
                   program=prog, args=args, n_threads=n_threads)
    sets = speculate_call(call, table)
    write_ranges = sets.write_ranges()
    for rec in observed_accesses(prog, args, n_threads, mem):
        if rec.kind is AccessKind.WRITE:
            assert rec.addr in write_ranges

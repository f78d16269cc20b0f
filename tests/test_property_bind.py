"""Differential property suite: closed-form affine binds vs. the matrix oracle.

``repro.perf.plans`` binds an affine access group — addresses
``base + dj·j + ct·tid`` modulo 2**64 over ``k`` iterations and a lane
class's tids — with Python integers: a hull from offsets settled at
compile time, store distinctness and stride alignment settled there
too, word indices as one precomputed offset vector plus a scalar, and
the in-place load/store test on the closed forms.  The oracle below is
the matrix bind those replaced, copied verbatim in its decisions: build
the wrapped ``(k, lanes)`` address matrix in numpy, take its min and
max, resolve, check bounds and alignment, ``np.unique`` the stores and
``np.array_equal`` an overlapping load/store pair.

There is no matrix path behind the closed form.  A *wide* group, whose
offsets span 2**62 or more (judged here on the explicit offset grid),
must abort the compile with ``addr-wide``; every other group must
match the oracle.  An affine CHK hull that straddles a multiple of
2**64 (its wrapped oracle hull is then at least 2**63 wide) must make
the whole affine proof fail, as a straddling load or store does.

Random groups cover zero, negative and unaligned strides, strides that
wrap (``2**63``, ``2**64 - 8``), bases near 0 and near 2**64 (ranges
that straddle a multiple of 2**64 among them), lane classes with gaps,
``k > 1``, duplicate stores and in-place load/store pairs.  Both sides
must agree on the bind-or-fall-back decision, the buffer, lo/hi, the
word indices, every CHK hull and the conflict verdict.

Mutation-checked on a scratch copy of ``perf/plans.py``: dropping the
straddle check in ``_hull``, judging alignment on the offsets instead
of the strides, and an in-place test that ignores ``ct`` each fail this
file.
"""

from __future__ import annotations

import functools
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.instrument import instrument_program
from repro.gpu.interpreter import ValidationState, run_kernel
from repro.gpu.memory import DeviceMemory
from repro.gpu.program import build_inplace_add
from repro.gpu.ranges import RangeSet
from repro.perf import plans
from repro.perf.plans import plan_cache_stats, reset_plan_cache_stats
from repro.units import MIB

MASK = (1 << 64) - 1
TOP = 1 << 64
WIDE = 1 << 62

STRIDES = [0, 8, -8, 16, 24, -24, 4, -4, 12, 3, 64, 2**63, 2**63 + 8,
           2**64 - 8, 2**64 + 8, 2**62, -(2**62), 2**61 + 8]


# --------------------------------------------------------------------------
# the oracle: the numpy matrix bind, as the plan tier did it before
# --------------------------------------------------------------------------

def _signed(v):
    return ((v + (1 << 63)) & MASK) - (1 << 63)


def oracle_mat(g, args):
    base = g.c0
    for i, c in g.coeffs:
        base += c * int(args[i])
    jcol = (np.arange(g.k, dtype=np.uint64)
            * np.uint64(g.dj & MASK)).reshape(-1, 1)
    trow = np.uint64(g.ct & MASK) * g.tids
    return np.uint64(base & MASK) + jcol + trow


def oracle_bind(g, args, memory):
    """``(buf, idx, mat, lo, hi)`` or None."""
    mat = oracle_mat(g, args)
    lo = int(mat.min())
    hi = int(mat.max())
    buf = memory.resolve(lo)
    if buf is None \
            or hi + 8 > buf.addr + min(buf.size, len(buf.data)):
        return None
    if (lo - buf.addr) % 8 or (g.k > 1 and g.dj % 8) \
            or (len(g.tids) > 1 and g.ct % 8):
        return None
    idx = ((mat - np.uint64(buf.addr)) >> np.uint64(3)).astype(np.intp)
    return buf, idx, mat, lo, hi


def oracle_distinct(g, mat):
    k, lanes = g.k, len(g.tids)
    ct, dj = _signed(g.ct), _signed(g.dj)
    dup = (k > 1 and dj == 0) or (lanes > 1 and ct == 0)
    check_unique = (k > 1 and lanes > 1) \
        or abs(ct) * int(g.tids[-1] - g.tids[0]) >> 64 \
        or abs(dj) * (k - 1) >> 64
    return not (dup or check_unique and mat.size > 1
                and np.unique(mat).size != mat.size)


def oracle_conflict_free(plan, loads, stores):
    """The conflict proof over every affine pair, on oracle entries."""
    for g, entry in zip(plan.store_groups, stores):
        if not oracle_distinct(g, entry[2]):
            return False
    for i in range(len(stores)):
        for j in range(i + 1, len(stores)):
            a, b = stores[i], stores[j]
            if a[0] is b[0] and b[3] <= a[4] and a[3] <= b[4]:
                return False
    for lg, (lbuf, _, lmat, llo, lhi) in zip(plan.load_groups, loads):
        for sg, (sbuf, _, smat, slo, shi) in zip(plan.store_groups, stores):
            if sbuf is not lbuf or shi < llo or lhi < slo:
                continue
            if not (lg.cls == sg.cls and lg.k == sg.k
                    and all(map(int.__lt__, lg.pos, sg.pos))
                    and np.array_equal(lmat, smat)):
                return False
    return True


# --------------------------------------------------------------------------
# random groups
# --------------------------------------------------------------------------

def fresh_memory():
    """Buffers at address 0, in the middle, partly materialized, and at
    the top of the 64-bit space."""
    mem = DeviceMemory(capacity=TOP, base=0, default_data_size=4096)
    bufs = [mem.alloc(4096, tag="low"), mem.alloc(4096, tag="next"),
            mem.alloc(8192, tag="prefix", data_size=1024)]
    bufs.append(mem.alloc_at(TOP - 4096, 4096, tag="top"))
    return mem, bufs


def _target(rng, bufs):
    """Where a group's first access lands."""
    roll = rng.random()
    if roll < 0.55:
        buf = rng.choice(bufs)
        return buf.addr + 8 * rng.randrange(buf.size // 8) \
            + (rng.choice([1, 4]) if rng.random() < 0.1 else 0)
    if roll < 0.7:
        return rng.randrange(256)
    if roll < 0.85:
        return TOP - rng.randrange(1, 256)
    return rng.getrandbits(64)


def offset_span(tids, k, ct, dj):
    """How far apart the offsets ``dj·j + ct·tid`` of the grid lie, with
    each stride read as the signed 64-bit value it is."""
    offs = [_signed(dj) * j + _signed(ct) * t for j in range(k) for t in tids]
    return max(offs) - min(offs)


def make_group(kind, tids, k, c0, coeffs, ct, dj, cls=0, pos=()):
    """The closed group, or None for a wide one, whose compile must
    abort with ``addr-wide`` (for the body, not for an argument value)."""
    g = plans._Group(kind, cls, np.array(tids, dtype=np.uint64))
    g.k = k
    g.pos = pos
    sites = [SimpleNamespace(aff=plans._Aff(c0 + j * dj, coeffs, ct))
             for j in range(k)]
    if offset_span(tids, k, ct, dj) < WIDE:
        plans._close_affine(g, sites)
        return g
    with pytest.raises(plans._Abort) as abort:
        plans._close_affine(g, sites)
    assert abort.value.reason == "addr-wide" and not abort.value.by_value
    return None


def straddles(mat):
    """Whether a narrow group's range straddles a multiple of 2**64: it
    spans under 2**62 unwrapped, so its wrapped hull is that narrow or
    at least 2**64 - 2**62 wide."""
    return int(mat.max()) - int(mat.min()) >= 1 << 63


def random_shape(rng):
    """``(tids, k, ct, dj)``: lanes with gaps, strides of every kind, and
    half the time a grid-stride loop (word lanes, each iteration past
    every lane), whose stores are distinct."""
    n = rng.randint(1, 10)
    tids = sorted(rng.sample(range(n + rng.randint(0, 4)), n))
    k = rng.choice([1, 1, 2, 3, 4])
    roll = rng.random()
    if roll < 0.5:
        ct = rng.choice([8, -8, 16])
        return tids, k, ct, rng.choice([1, -1, 2, 3]) * ct * (tids[-1] + 1)
    if roll < 0.6:
        # Even lanes at a half-word stride: every address is aligned,
        # but the stride is not, so the launch falls back.
        return [2 * t for t in tids], k, rng.choice([4, -4, 12]), 8 * n
    return tids, k, rng.choice(STRIDES), rng.choice(STRIDES)


def random_group(rng, kind, args, bufs, shape=None, target=None):
    tids, k, ct, dj = shape or random_shape(rng)
    if target is None:
        target = _target(rng, bufs)
    coeffs = tuple(sorted(
        (i, rng.choice([1, 1, 8, -1])) for i in
        rng.sample(range(len(args)), rng.randint(0, len(args)))))
    # The first access (j = 0, lowest tid) at ``target``: an unmasked
    # c0, as tracing leaves it, any multiple of 2**64 away.
    base = target - _signed(ct) * tids[0]
    c0 = base - sum(c * args[i] for i, c in coeffs) \
        + rng.randint(-2, 2) * TOP
    return make_group(kind, tids, k, c0, coeffs, ct, dj)


def variant(rng, g, kind, pos):
    """A group of ``g``'s class: its twin (the in-place partner) or a
    twin with one of ``c0``, ``ct``, ``dj`` moved."""
    c0, ct, dj = g.c0, g.ct, g.dj
    roll = rng.random()
    if roll < 0.3:
        ct = rng.choice([ct + 8, ct - 8, 2 * ct, -ct, ct + TOP])
    elif roll < 0.45:
        dj = rng.choice([dj + 8, dj - 8, 2 * dj, dj + TOP])
    elif roll < 0.6:
        c0 += rng.choice([8, -8, 64])
    return make_group(kind, g.tids.tolist(), g.k, c0, g.coeffs, ct, dj,
                      pos=pos)


def random_plan(rng, args, bufs):
    """One class of affine groups: loads, stores (some in place over a
    load), and CHKs; and how many drawn groups were wide (checked to
    abort by ``make_group`` and left out of the plan)."""
    plan = plans._Plan()
    plan.load_groups, plan.store_groups, plan.chk_groups = [], [], []
    shape = random_shape(rng)
    wide = n = 0
    for _ in range(rng.randint(0, 2)):
        g = random_group(rng, "r", args, bufs, shape)
        if g is None:
            wide += 1
            continue
        g.pos = tuple(range(n, n + g.k))
        n += g.k
        plan.load_groups.append(g)
    for _ in range(rng.randint(0, 2)):
        if plan.load_groups and rng.random() < 0.6:
            g = variant(rng, rng.choice(plan.load_groups), "w", ())
        else:
            g = random_group(rng, "w", args, bufs, shape)
        if g is None:
            wide += 1
            continue
        g.pos = tuple(range(n, n + g.k))
        n += g.k
        plan.store_groups.append(g)
    for kind in rng.sample(["cr", "cw"], rng.randint(0, 2)):
        if plan.chk_groups and rng.random() < 0.5:
            # The twin's pair: a read and a write off one pointer.
            g = variant(rng, plan.chk_groups[0], kind, ())
        else:
            g = random_group(rng, kind, args, bufs)
        if g is None:
            wide += 1
            continue
        plan.chk_groups.append(g)
    for groups in (plan.load_groups, plan.store_groups, plan.chk_groups):
        for i, g in enumerate(groups):
            g.i = i
    plan.chk_sets = plans._chk_sets(plan.chk_groups)
    plan.gathers = []
    plan.pairs = plans._pairs(plan, False), plans._pairs(plan, True)
    return plan, wide


# --------------------------------------------------------------------------
# the differential check
# --------------------------------------------------------------------------

def check_plan(rng, tally=None):
    mem, bufs = fresh_memory()
    args = [rng.getrandbits(64) for _ in range(rng.randint(1, 3))]
    plan, wide = random_plan(rng, args, bufs)
    if tally is not None:
        tally["wide"] += wide

    loads, stores = [], []
    oloads, ostores = [], []
    bound = True
    for groups, got, want in ((plan.load_groups, loads, oloads),
                              (plan.store_groups, stores, ostores)):
        for g in groups:
            entry = plans._bind_group(g, args, mem)
            oracle = oracle_bind(g, args, mem)
            assert (entry is None) == (oracle is None), (g.ct, g.dj, g.tids)
            if tally is not None:
                tally["bound" if entry else "fallback"] += 1
            if entry is None:
                bound = False
                continue
            buf, idx, lo, hi = entry
            obuf, oidx, _, olo, ohi = oracle
            assert buf is obuf and (lo, hi) == (olo, ohi)
            assert idx.dtype == oidx.dtype and idx.shape == oidx.shape
            assert np.array_equal(idx, oidx)
            got.append(entry)
            want.append(oracle)

    straddle = False
    for cg in plan.chk_groups:
        mat = oracle_mat(cg, args)
        if straddles(mat):
            assert plans._chk_hull(cg, args) is None
            straddle = True
        else:
            assert plans._chk_hull(cg, args) == \
                (cg.access, int(mat.min()), int(mat.max()))
    if tally is not None:
        tally["chk-straddle"] += straddle

    if bound:
        verdict = plans._conflict_free(plan, loads, stores, plan.pairs[0])
        assert verdict == oracle_conflict_free(plan, oloads, ostores)
        if tally is not None:
            tally["conflict-free" if verdict else "conflict"] += 1
            tally["in-place"] += any(
                s[0] is l[0] and np.array_equal(os_[2], ol[2])
                for l, ol in zip(loads, oloads)
                for s, os_ in zip(stores, ostores))

    # The whole affine proof: a record exactly when every group binds,
    # the conflict proof holds and no CHK hull straddles, with the same
    # buffers and indices.
    record = plans._bind(plan, args, mem)
    if not bound or straddle \
            or not oracle_conflict_free(plan, oloads, ostores):
        assert record is None
        return
    assert record is not None
    for entries, oracles in ((record[0], oloads), (record[1], ostores)):
        for (buf, idx), oracle in zip(entries, oracles):
            assert buf is oracle[0] and np.array_equal(idx, oracle[1])
    # The merged CHK checks decide coverage as one check per hull would.
    hulls = [plans._chk_hull(cg, args) for cg in plan.chk_groups]
    for ranges in ([(b.addr, b.end) for b in bufs],
                   [(bufs[0].addr, bufs[1].end)], [(0, TOP)], []):
        for writable in (ranges, ranges[:1]):
            state = ValidationState(read_ranges=RangeSet(ranges),
                                    write_ranges=RangeSet(writable))
            want = all(state.covers(*h) for h in hulls)
            assert plans._covered(state, record[2]) == want


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_closed_form_bind_matches_the_matrix_oracle(rng):
    check_plan(rng)


@functools.cache
def seed_sweep():
    """The differential check on 1 500 fixed seeds, run once per session
    whichever test asks first, and the tally of outcomes it reached."""
    tally = {key: 0 for key in ("wide", "bound", "fallback", "chk-straddle",
                                "conflict-free", "conflict", "in-place")}
    for seed in range(1500):
        check_plan(random.Random(seed), tally)
    return tally


def test_closed_form_bind_matches_the_matrix_oracle_on_a_seed_sweep():
    seed_sweep()


def test_generator_reaches_every_outcome():
    """The sweep exercises what the closed form must get right."""
    tally = seed_sweep()
    assert all(tally.values()), tally
    # Wide strides, straddles, gapped lanes with unaligned strides,
    # duplicate stores: each decided by the closed form.
    mem, bufs = fresh_memory()
    for ct in (2**62, 2**63, -(2**62)):
        assert make_group("r", [0, 1], 1, bufs[0].addr, (), ct, 0) is None
    assert make_group("r", [0], 3, bufs[0].addr, (), 8, 2**61) is None
    assert make_group("r", [0, 1], 1, 0, (), 2**62 - 8, 0) is not None
    straddle = make_group("r", [0, 1], 1, TOP - 8, (), 16, 0)
    assert plans._hull(straddle, []) is None
    gapped = make_group("r", [0, 2], 1, bufs[0].addr, (), 4, 0)
    assert not gapped.aligned
    assert plans._bind_group(gapped, [], mem) is None
    assert oracle_bind(gapped, [], mem) is None
    dup = make_group("w", [0, 1, 2], 2, bufs[0].addr, (), 8, 8)
    assert not dup.distinct


def test_a_twins_read_and_write_of_one_pointer_are_one_covers_check(
        monkeypatch):
    """``inplace_add``'s twin checks ``y`` for a read and for a write:
    one merged covers call per planned launch, and, where only the read
    is speculated, the per-group checks find the uncovered write."""
    mem = DeviceMemory(capacity=64 * MIB, default_data_size=64)
    y = mem.alloc(64)
    twin = instrument_program(build_inplace_add(), check_reads=True)
    args = [y.addr, 8]
    calls = []
    covers = RangeSet.covers
    monkeypatch.setattr(RangeSet, "covers", lambda self, lo, hi: (
        calls.append((lo, hi)), covers(self, lo, hi))[1])

    def launch(reads, writes):
        state = ValidationState(read_ranges=RangeSet(reads),
                                write_ranges=RangeSet(writes))
        run_kernel(twin, args, 8, mem, validation=state)
        return state

    reset_plan_cache_stats()
    launch([], [(y.addr, y.end)])
    launch([], [(y.addr, y.end)])
    assert plan_cache_stats()["hit"] == 2 and len(calls) == 2
    calls.clear()
    state = launch([(y.addr, y.end)], [])
    assert plan_cache_stats()["fallback"] == 1 and state.violations
    # The merged WRITE hull, then the read (read ranges, where it
    # passes) and the write (write ranges) on their own.
    assert len(calls) == 3

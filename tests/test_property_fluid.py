"""Differential property test: the settled fluid link vs. its oracle.

``repro.sim.fluid.FluidLink`` keeps the uniform rate once on the link
and admits a flow that arrives at the very instant the link last settled
in O(1); it claims to push *the same records with the same floats* as
the link it replaced (kept as the oracle in ``tests/reference_fluid.py``),
which re-derives every rate on every arrival.  This suite generates
random flow soups built to land on the fast path and on every one of its
exits — lockstep copiers (equal chunks through one link, re-arriving
at the instant their shared timer fired) among processes that draw byte
counts from a small set (so remainders tie), caps from
``{None, c, c'}``, weights from ``{1.0, 2.0}`` (uniform <-> mixed
transitions), gaps from ``{0, d, 2d}`` (same-instant arrivals, cross-link
ties), sub-epsilon and zero-byte flows, two links on one engine,
``current_rate()`` probes at instants that are no flow-set change (the
one caller that advances a link without rescheduling it), and a *late*
regime (clock near 2**30 s, multi-GB/s link, millibyte flows) where a
drain time is below the clock's float resolution — runs each soup on
both links and asserts the complete completion log is ``==`` float for
float and in order, with equal ``events_scheduled``/``events_executed``,
on the calendar ``Engine`` and on the reference ``HeapEngine``.

The soup is a seed-derived step list first and interpreted against each
link second, so both runs execute the same program.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine
from repro.sim.fluid import _FINISH_EPS, FluidLink
from tests.reference_engine import HeapEngine
from tests.reference_fluid import FluidLink as ReferenceLink

N_SEEDS = 2400
CHUNK = 100

#: (bandwidth, unit byte count, start of the clock): the ordinary regime,
#: and the late one in which ``now + tiny / rate == now``.
REGIMES = {"early": (100.0, 1000.0, 0.0), "late": (1e10, 1e10, 2.0 ** 30)}


def _palette(regime: str):
    """The few values every draw of a soup comes from."""
    bandwidth, unit, start = REGIMES[regime]
    d = unit / bandwidth  # a lone unit flow drains in exactly one gap
    sizes = [unit, unit, 2 * unit, 3 * unit, unit / 2,
             0.0, _FINISH_EPS / 10, _FINISH_EPS, 2 * _FINISH_EPS, 5e-3]
    caps = [None, bandwidth * 0.4, bandwidth * 0.25]
    return bandwidth, start, d, sizes, caps


def build_soup(seed: int) -> dict:
    """A deterministic random program: one step list per process."""
    rng = random.Random(seed)
    regime = "late" if rng.random() < 0.25 else "early"
    bandwidth, start, d, sizes, caps = _palette(regime)
    # Soup-wide palettes: mostly one cap and weight 1.0, so links stay
    # uniform long enough for settled arrivals to pile up.
    soup_caps = rng.choice([caps[:1], caps[:1], caps[:2], caps[1:2],
                            caps, caps[1:]])
    soup_weights = rng.choice([[1.0], [1.0], [1.0] * 5 + [2.0]])
    # Copiers — the simulator's normal case: several processes pushing
    # equal chunks through one link, finishing on one timer and
    # re-arriving one by one at that same instant.
    chunk = ("flow", rng.randrange(2), rng.choice(sizes[:4]), 1.0,
             soup_caps[0])
    procs = []
    for _ in range(rng.randrange(1, 9)):
        if rng.random() < 0.4:
            procs.append([chunk] * rng.randrange(1, 7))
            continue
        steps = []
        for _ in range(rng.randrange(1, 7)):
            kind = rng.choice(["flow"] * 6 + ["gap", "gap", "probe"])
            if kind == "flow":
                steps.append(("flow", rng.randrange(2), rng.choice(sizes),
                              rng.choice(soup_weights),
                              rng.choice(soup_caps)))
            elif kind == "gap":
                steps.append(("gap", rng.choice([0.0, d, d, 2 * d])))
            else:
                steps.append(("probe", rng.randrange(2),
                              rng.choice([0.0, d, 0.37 * d])))
        procs.append(steps)
    return {"regime": regime, "procs": procs}


def run_soup(soup: dict, engine_cls, link_cls):
    """Interpret ``soup``; returns (log, scheduled, executed, leftovers)."""
    bandwidth, start, d, _, _ = _palette(soup["regime"])
    eng = engine_cls()
    # The second link is slower and has a propagation tail (flow() adds
    # a timeout), so the two interleave rather than mirror each other.
    links = [link_cls(eng, bandwidth, name="a"),
             link_cls(eng, bandwidth / 2, name="b", latency=d / 4)]
    log = []

    def proc(pid, steps):
        if start:
            yield eng.timeout(start)
        for k, step in enumerate(steps):
            if step[0] == "flow":
                _, which, nbytes, weight, cap = step
                yield from links[which].flow(nbytes, weight=weight,
                                             rate_cap=cap)
            elif step[0] == "gap":
                yield eng.timeout(step[1])
            else:
                _, which, delay = step
                yield eng.timeout(delay)
                log.append(("rate", links[which].current_rate(),
                            links[which].active_flows))
            log.append((eng.now, pid, k))

    for pid, steps in enumerate(soup["procs"]):
        eng.spawn(proc(pid, steps), name=f"p{pid}")
    eng.run()
    return (log, eng.events_scheduled, eng.events_executed,
            [link.active_flows for link in links])


def assert_soup_identical(soup: dict) -> None:
    want = run_soup(soup, Engine, ReferenceLink)
    n_steps = sum(len(steps) for steps in soup["procs"])
    assert sum(1 for entry in want[0] if entry[0] != "rate") == n_steps
    assert want[3] == [0, 0]  # every flow drained
    for engine_cls in (Engine, HeapEngine):
        for link_cls in (FluidLink, ReferenceLink):
            got = run_soup(soup, engine_cls, link_cls)
            assert got == want, (engine_cls.__name__, link_cls.__name__)


@pytest.mark.parametrize("chunk", range(N_SEEDS // CHUNK))
def test_seeded_soups_complete_identically(chunk):
    for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        try:
            assert_soup_identical(build_soup(seed))
        except AssertionError as err:
            raise AssertionError(f"soup seed {seed}: {err}") from err


# -- the same program space, drawn by hypothesis ------------------------------------

@st.composite
def soups(draw):
    regime = draw(st.sampled_from(["early", "early", "early", "late"]))
    _, _, d, sizes, caps = _palette(regime)
    soup_caps = draw(st.lists(st.sampled_from(caps), min_size=1, max_size=3))
    soup_weights = draw(st.sampled_from([[1.0], [1.0, 1.0, 1.0, 2.0]]))
    flow = st.tuples(st.just("flow"), st.integers(0, 1),
                     st.sampled_from(sizes), st.sampled_from(soup_weights),
                     st.sampled_from(soup_caps))
    gap = st.tuples(st.just("gap"), st.sampled_from([0.0, d, 2 * d]))
    probe = st.tuples(st.just("probe"), st.integers(0, 1),
                      st.sampled_from([0.0, d, 0.37 * d]))
    step = st.one_of(flow, flow, flow, gap, probe)
    procs = draw(st.lists(st.lists(step, min_size=1, max_size=6),
                          min_size=1, max_size=8))
    return {"regime": regime, "procs": procs}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(soups())
def test_hypothesis_soups_complete_identically(soup):
    assert_soup_identical(soup)


# -- the generator reaches what it is meant to reach ----------------------------------

def _counting(link_cls):
    """``link_cls`` counting its general passes, so settled arrivals —
    the passes the production link skips — can be told apart."""
    class Counting(link_cls):
        passes = 0

        def _reschedule(self):
            Counting.passes += 1
            super()._reschedule()

    return Counting


def test_generator_coverage():
    """Every general pass the settled link skips is one O(1) arrival (its
    timers and the underflow recursion call ``_reschedule`` exactly as
    the oracle's do), so the difference counts them: a large share of
    all flows, in both regimes, on capped and mixed-weight soups too."""
    flows = fast = 0
    seen = set()
    for seed in range(600):
        soup = build_soup(seed)
        steps = [s for p in soup["procs"] for s in p if s[0] == "flow"]
        settled, oracle = _counting(FluidLink), _counting(ReferenceLink)
        run_soup(soup, Engine, settled)
        run_soup(soup, Engine, oracle)
        skipped = oracle.passes - settled.passes
        assert skipped >= 0
        flows += len(steps)
        fast += skipped
        if skipped:
            seen.add(soup["regime"])
            seen.add("capped" if any(s[4] for s in steps) else "uncapped")
            if any(s[3] != 1.0 for s in steps):
                seen.add("mixed")
            if any(0 < s[2] <= _FINISH_EPS for s in steps):
                seen.add("sub-epsilon")
    assert seen == {"early", "late", "capped", "uncapped", "mixed",
                    "sub-epsilon"}
    assert fast > flows // 5

"""Unit tests for the fluid bandwidth link."""

import random

import pytest

from repro.errors import InvalidValueError
from repro.sim import Engine
from repro.sim.fluid import FluidLink, _Flow


@pytest.fixture
def eng():
    return Engine()


def test_single_flow_runs_at_full_bandwidth(eng):
    link = FluidLink(eng, bandwidth=100.0)

    def proc(eng):
        yield from link.flow(200.0)
        return eng.now

    assert eng.run_process(proc(eng)) == pytest.approx(2.0)


def test_two_equal_flows_share_evenly(eng):
    link = FluidLink(eng, bandwidth=100.0)
    done = {}

    def mover(eng, name, nbytes):
        yield from link.flow(nbytes)
        done[name] = eng.now

    eng.spawn(mover(eng, "a", 100.0))
    eng.spawn(mover(eng, "b", 100.0))
    eng.run()
    # Both at 50 B/s while together: each finishes at t=2.
    assert done["a"] == pytest.approx(2.0)
    assert done["b"] == pytest.approx(2.0)


def test_short_flow_finishes_then_long_speeds_up(eng):
    link = FluidLink(eng, bandwidth=100.0)
    done = {}

    def mover(eng, name, nbytes):
        yield from link.flow(nbytes)
        done[name] = eng.now

    eng.spawn(mover(eng, "short", 50.0))
    eng.spawn(mover(eng, "long", 150.0))
    eng.run()
    # Shared 50/50 until short drains at t=1 (50 B); long then has 100 B
    # left at full rate: t = 1 + 1 = 2.
    assert done["short"] == pytest.approx(1.0)
    assert done["long"] == pytest.approx(2.0)


def test_weights_bias_sharing(eng):
    link = FluidLink(eng, bandwidth=100.0)
    done = {}

    def mover(eng, name, nbytes, weight):
        yield from link.flow(nbytes, weight=weight)
        done[name] = eng.now

    eng.spawn(mover(eng, "heavy", 75.0, 3.0))
    eng.spawn(mover(eng, "light", 75.0, 1.0))
    eng.run()
    # heavy at 75 B/s finishes at t=1; light at 25 B/s has 50 left,
    # then accelerates to 100: finishes at 1 + 0.5 = 1.5.
    assert done["heavy"] == pytest.approx(1.0)
    assert done["light"] == pytest.approx(1.5)


def test_rate_cap_limits_lone_flow(eng):
    link = FluidLink(eng, bandwidth=100.0)

    def proc(eng):
        yield from link.flow(100.0, rate_cap=20.0)
        return eng.now

    assert eng.run_process(proc(eng)) == pytest.approx(5.0)


def test_rate_cap_redistributes_leftover(eng):
    link = FluidLink(eng, bandwidth=100.0)
    done = {}

    def mover(eng, name, nbytes, cap=None):
        yield from link.flow(nbytes, rate_cap=cap)
        done[name] = eng.now

    eng.spawn(mover(eng, "capped", 20.0, cap=20.0))
    eng.spawn(mover(eng, "free", 80.0))
    eng.run()
    # capped holds 20 B/s, free gets the remaining 80: both end at t=1.
    assert done["capped"] == pytest.approx(1.0)
    assert done["free"] == pytest.approx(1.0)


def test_staggered_arrival(eng):
    link = FluidLink(eng, bandwidth=100.0)
    done = {}

    def first(eng):
        yield from link.flow(150.0)
        done["first"] = eng.now

    def second(eng):
        yield eng.timeout(1.0)
        yield from link.flow(100.0)
        done["second"] = eng.now

    eng.spawn(first(eng))
    eng.spawn(second(eng))
    eng.run()
    # first: 100 B in [0,1] alone, then 50 B at 50 B/s -> t=2.
    # second: 50 B at 50 B/s in [1,2], then 50 B at 100 B/s -> t=2.5.
    assert done["first"] == pytest.approx(2.0)
    assert done["second"] == pytest.approx(2.5)


def test_zero_byte_flow_is_instant(eng):
    link = FluidLink(eng, bandwidth=10.0)

    def proc(eng):
        yield from link.flow(0.0)
        return eng.now

    assert eng.run_process(proc(eng)) == 0.0


def test_invalid_arguments(eng):
    with pytest.raises(InvalidValueError):
        FluidLink(eng, bandwidth=0)
    link = FluidLink(eng, bandwidth=10.0)
    with pytest.raises(InvalidValueError):
        next(link.flow(-1.0))
    with pytest.raises(InvalidValueError):
        next(link.flow(1.0, weight=0))
    with pytest.raises(InvalidValueError):
        next(link.flow(1.0, rate_cap=0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("param", ["bandwidth", "latency", "nbytes", "weight",
                                   "rate_cap"])
def test_non_finite_parameters_raise_at_the_call(eng, param, bad):
    """A NaN or infinite parameter used to wedge a flow on the link for
    ever (``run()`` returned with ``active_flows == 1``); it raises where
    it is passed, and the link stays usable."""
    if param in ("bandwidth", "latency"):
        kwargs = {"bandwidth": 10.0, param: bad}
        with pytest.raises(InvalidValueError, match=param):
            FluidLink(eng, **kwargs)
        return
    link = FluidLink(eng, bandwidth=10.0)
    kwargs = {"nbytes": 5.0, param: bad}
    with pytest.raises(InvalidValueError, match=param):
        next(link.flow(**kwargs))
    assert link.active_flows == 0

    def proc(eng):
        yield from link.flow(20.0)
        return eng.now

    assert eng.run_process(proc(eng)) == 2.0


def test_active_flows_counter(eng):
    link = FluidLink(eng, bandwidth=10.0)
    counts = []

    def mover(eng):
        yield from link.flow(100.0)

    def observer(eng):
        yield eng.timeout(1.0)
        counts.append(link.active_flows)

    eng.spawn(mover(eng))
    eng.spawn(mover(eng))
    eng.spawn(observer(eng))
    eng.run()
    assert counts == [2]


def test_many_flows_conserve_bandwidth(eng):
    link = FluidLink(eng, bandwidth=100.0)
    done = {}

    def mover(eng, i):
        yield from link.flow(100.0)
        done[i] = eng.now

    for i in range(10):
        eng.spawn(mover(eng, i))
    eng.run()
    # 10 flows x 100 B at aggregate 100 B/s -> all finish at t=10.
    for t in done.values():
        assert t == pytest.approx(10.0)


def _water_fill(bandwidth, flows):
    """The general water-filling loop, as the oracle for its shortcut."""
    bw = bandwidth
    rates = {}
    unpinned = list(flows)
    while unpinned:
        total_weight = sum(f.weight for f in unpinned)
        pinned_now = [f for f in unpinned
                      if f.cap is not None
                      and f.cap < bw * f.weight / total_weight]
        if not pinned_now:
            for f in unpinned:
                rates[f] = bw * f.weight / total_weight
            break
        for f in pinned_now:
            rates[f] = f.cap
        bw -= sum(f.cap for f in pinned_now)
        unpinned = [f for f in unpinned if f not in pinned_now]
    return [rates[f] for f in flows]


@pytest.mark.parametrize("seed", range(20))
def test_uniform_flow_shortcut_is_float_exact(eng, seed):
    """Uniform flows (weight 1.0, one cap — nearly every call) skip the
    water-filling; the link's one rate must be the very float it
    computes for each of them, or every downstream DMA timestamp moves."""
    rng = random.Random(seed)
    bandwidth = rng.uniform(1e9, 3e10)
    link = FluidLink(eng, bandwidth=bandwidth)
    n = rng.randrange(1, 12)
    share = bandwidth / n
    cap = rng.choice([None, share * 0.5, share, share * 1.5])
    link._flows = [_Flow(1e6, 1.0, cap) for _ in range(n)]
    link._recompute_rates()
    # Uniform: the one rate is kept on the link, not on each flow.
    assert link._uniform and link._cap == cap
    assert [link._rate] * n == _water_fill(bandwidth, link._flows)
    assert link.current_rate() == sum(_water_fill(bandwidth, link._flows))
    # One odd flow sends the same set down the general path.
    link._flows.append(_Flow(1e6, rng.choice([0.5, 1.0, 2.0]),
                             share * rng.choice([0.25, 2.0])))
    link._recompute_rates()
    assert not link._uniform
    assert [f.rate for f in link._flows] == _water_fill(bandwidth,
                                                         link._flows)
    assert link.current_rate() == sum(_water_fill(bandwidth, link._flows))


def test_flow_completion_event_names_itself_on_demand(eng):
    link = FluidLink(eng, bandwidth=10.0, name="pcie")
    gen = link.flow(100.0)
    done = next(gen)
    assert done.name == f"pcie-flow{link._flows[0].id}"
    assert "pcie-flow" in repr(done)

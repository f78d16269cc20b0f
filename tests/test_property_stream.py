"""Differential suite: the record-driven stream against the reference.

``tests/reference_stream.py`` is the old dispatcher-process stream,
kept verbatim.  Random op soups — timed ops, ops that hold a resource or
wait on an event before their timer (the multi-yield shapes: memcpy,
NCCL), guarded ops whose guard yields or raises, failing effects,
``synchronize`` markers mid-soup, several streams finishing on the same
float — run on both, and every observable must match:

* per op: the instants its guard, its start and its effect ran, whether
  every earlier op of its stream had settled when it started, what
  ``on_complete`` saw, and when and how ``done`` settled (value or
  exception);
* per stream: ``pending_ops`` at the end of every instant;
* per ``synchronize``: the instant it fired.

Same-instant *order* is not compared: the record-driven stream reaches a
completion in fewer scheduler hops, which is the point.  Instants are
floats compared exactly.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu.stream import Stream
from repro.sim import Engine
from repro.sim.resources import Resource, acquired
from tests import reference_stream

DURATIONS = (0.0, 0.5, 1.0, 1.5)
#: Guard shapes: no guard, a guard that never yields, one that waits,
#: one that waits and then raises.
GUARDS = (None, "pass", 0.0, 0.5, 1.0, "fail")
#: The hog takes stream 0's resource off the 0.5 grid ops live on, so
#: its acquire never ties with an op's and the grant order is fixed.
HOG_OFFSET, HOG_HOLD = 0.1, 0.3

op_strategy = st.tuples(
    st.integers(0, 2),                                   # stream
    st.sampled_from(["timed", "timed", "hold", "after", "sync"]),
    st.sampled_from(DURATIONS),                          # duration
    st.integers(0, 3).map(lambda r: r == 0),             # effect raises
    st.sampled_from(GUARDS),
    st.sampled_from((0.0, 0.0, 0.5, 1.0)),               # gap before submit
    st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0)),          # "after" gate fires
    st.booleans(),                                       # driver waits on sync
)
soup_strategy = st.tuples(
    st.integers(1, 3),
    st.lists(op_strategy, min_size=1, max_size=14),
    st.one_of(st.none(), st.integers(0, 4)),             # hog at k + 0.1
)


def _as_body(engine, start, effect, on_complete, hold, after):
    """The reference's generator for a (start, effect) op — the shape
    the old runtime wrote out for kernels, memcpys and NCCL ranks."""
    def body():
        duration = start()
        req = None
        if hold is not None:
            req = yield from acquired(hold, priority=0)
        if after is not None:
            yield after
        yield engine.timeout(duration)
        if req is not None:
            hold.release(req)
        try:
            result = effect()
        except Exception:
            on_complete(None)
            raise
        on_complete(result)
        return result

    return body


def run_soup(stream_cls, n_streams, ops, hog_at):
    eng = Engine()
    streams = [stream_cls(eng, name=f"s{i}") for i in range(n_streams)]
    holds = [Resource(eng, capacity=1, name=f"r{i}") for i in range(n_streams)]
    log = {"op": {}, "sync": {}, "pending": {}}
    submitted = [[] for _ in streams]

    def hog():
        yield eng.timeout(hog_at + HOG_OFFSET)
        req = yield from acquired(holds[0])
        yield eng.timeout(HOG_HOLD)
        holds[0].release(req)

    def gate_at(when):
        gate = eng.event(name="gate")

        def fire():
            yield eng.timeout(when)
            gate.succeed()

        eng.spawn(fire())
        return gate

    def make_op(i, s, kind, duration, fails, guard):
        rec = log["op"][i] = {}
        earlier = list(submitted[s])

        def start():
            rec["start"] = eng.now
            rec["prev_settled"] = all(op.done.triggered for op in earlier)
            return duration

        def effect():
            rec["effect"] = eng.now
            if fails:
                raise ValueError(f"effect {i}")
            return i

        def on_complete(result):
            rec["on_complete"] = (eng.now, result)

        pre_exec = None
        if guard is not None:
            def pre_exec():
                rec["guard"] = eng.now
                if guard == "pass":
                    return
                yield eng.timeout(0.5 if guard == "fail" else guard)
                if guard == "fail":
                    raise RuntimeError(f"guard {i}")

        return start, effect, on_complete, pre_exec

    def settled(i):
        def cb(ev):
            value = ev.value if ev.ok else (type(ev.value).__name__,
                                            str(ev.value))
            log["op"][i]["done"] = (eng.now, ev.ok, value)
        return cb

    def driver():
        for i, (s, kind, duration, fails, guard, gap, gate_t,
                wait) in enumerate(ops):
            s %= n_streams
            if gap:
                yield eng.timeout(gap)
            stream = streams[s]
            if kind == "sync":
                ev = stream.synchronize()
                ev.add_callback(
                    lambda _ev, i=i: log["sync"].__setitem__(i, eng.now))
                if wait:
                    yield ev
                continue
            start, effect, on_complete, pre_exec = make_op(
                i, s, kind, duration, fails, guard)
            hold = holds[s] if kind == "hold" else None
            after = gate_at(gate_t) if kind == "after" else None
            if stream_cls is Stream:
                op = stream.submit(kind, start, effect, on_complete,
                                   pre_exec=pre_exec, hold=hold, after=after)
            else:
                op = stream.submit(kind, _as_body(eng, start, effect,
                                                  on_complete, hold, after),
                                   pre_exec=pre_exec)
            submitted[s].append(op)
            op.done.add_callback(settled(i))

    if hog_at is not None:
        eng.spawn(hog())
    eng.spawn(driver())
    # One instant per run: a deadline run drains every record at that
    # timestamp, same-instant cascades included, so the counts read
    # after it are the end-of-instant ones.
    while eng._theap:
        t = eng._theap[0]
        eng.run(until=t)
        log["pending"][t] = [s.pending_ops for s in streams]
    log["pending_at_end"] = [s.pending_ops for s in streams]
    return log


@given(soup_strategy)
# A marker submitted on the instant its stream's last op completes.
@example((2, [(0, "timed", 0.0, True, None, 0.0, 0.0, False),
              (1, "timed", 0.0, True, 1.0, 0.0, 0.0, False),
              (1, "timed", 0.5, True, None, 0.5, 0.0, False),
              (0, "timed", 0.0, True, None, 0.5, 0.0, False),
              (0, "timed", 0.0, True, None, 0.5, 0.0, False),
              (1, "sync", 0.0, True, None, 0.0, 0.0, False)], None))
@settings(max_examples=300, deadline=None)
def test_stream_matches_reference(soup):
    n_streams, ops, hog_at = soup
    got = run_soup(Stream, n_streams, ops, hog_at)
    want = run_soup(reference_stream.Stream, n_streams, ops, hog_at)
    assert got == want
    assert got["pending_at_end"] == [0] * n_streams
    for rec in got["op"].values():
        if "start" in rec:
            assert rec["prev_settled"]


def test_same_float_completions_across_streams():
    """Three streams finishing on one instant, a marker behind each."""
    ops = [(s, "timed", 1.0, s == 1, None, 0.0, 0.0, False)
           for s in range(3)]
    ops += [(s, "sync", 0.0, False, None, 0.0, 0.0, s == 2)
            for s in range(3)]
    got = run_soup(Stream, 3, ops, None)
    assert got == run_soup(reference_stream.Stream, 3, ops, None)
    assert set(got["sync"].values()) == {1.0}

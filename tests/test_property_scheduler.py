"""Differential property test: calendar queue vs. the legacy heap.

The calendar-queue scheduler (PR 7) claims *exact* order equivalence
with the historical single-heap scheduler (kept as the oracle in
``tests/reference_engine.py``): FIFO within a timestamp, timestamps in
order, callbacks deferred to the queue — so every golden stays
bit-identical.  This suite generates random event soups — timeouts
with heavy same-timestamp collisions, ``AnyOf``/``AllOf`` fan-ins,
several processes waiting on one shared timeout (a waiter batch),
plain scheduled calls landing in the same buckets, an event fired from
outside the loop after the queue drained, cross-process interrupts,
process joins — executes each soup once per scheduler, and asserts the *complete firing trace* (not just
the final state) is identical.

The soup is built as a seed-derived op list first and interpreted
against each engine second, so both runs execute byte-for-byte the
same program; the only variable is the queue implementation.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import Engine
from repro.sim.engine import Interrupt
from tests.reference_engine import HeapEngine

#: Deliberately few distinct delays: collisions (many records in one
#: timestamp bucket) are the interesting case for the calendar queue.
DELAYS = [0.0, 0.25, 0.5, 0.5, 1.0, 1.0, 2.0]

#: Soup-wide timeouts any process may wait on: the only events here
#: that collect several waiters, so firing one queues a *batch*.
SHARED_DELAYS = [0.5, 1.0, 2.0]

OP_KINDS = ["timeout", "timeout", "timeout", "anyof", "allof",
            "interrupt", "waitproc", "shared", "call", "late"]


def build_ops(seed: int, n_procs: int = 6, max_steps: int = 5) -> list:
    """A deterministic random program: one op list per process."""
    rng = random.Random(seed)
    ops = []
    for _ in range(n_procs):
        steps = []
        for _ in range(rng.randrange(1, max_steps + 1)):
            kind = rng.choice(OP_KINDS)
            if kind == "timeout":
                steps.append(("timeout", rng.choice(DELAYS)))
            elif kind in ("anyof", "allof"):
                steps.append((kind, [rng.choice(DELAYS)
                                     for _ in range(rng.randrange(1, 4))]))
            elif kind == "interrupt":
                steps.append(("interrupt", rng.randrange(n_procs),
                              rng.choice(DELAYS)))
            elif kind == "shared":
                steps.append(("shared", rng.randrange(len(SHARED_DELAYS))))
            elif kind == "call":
                steps.append(("call", rng.choice(DELAYS)))
            elif kind == "late":
                steps.append(("late",))
            else:
                steps.append(("waitproc", rng.randrange(n_procs)))
        ops.append(steps)
    return ops


def run_soup(ops: list, engine_cls: type) -> tuple:
    """Interpret the op list; return (trace, final clock, counters)."""
    eng = engine_cls()
    trace: list = []
    procs: list = []
    shared = [eng.timeout(d, value=k) for k, d in enumerate(SHARED_DELAYS)]
    late = eng.event("late")

    def body(pid: int, steps: list):
        for i, step in enumerate(steps):
            try:
                if step[0] == "timeout":
                    val = yield eng.timeout(step[1], value=(pid, i))
                    trace.append(("t", pid, i, eng.now, val))
                elif step[0] == "anyof":
                    idx, _ = yield eng.any_of(
                        [eng.timeout(d) for d in step[1]])
                    trace.append(("any", pid, i, eng.now, idx))
                elif step[0] == "allof":
                    vals = yield eng.all_of(
                        [eng.timeout(d, value=j)
                         for j, d in enumerate(step[1])])
                    trace.append(("all", pid, i, eng.now, tuple(vals)))
                elif step[0] == "interrupt":
                    _, target, delay = step
                    yield eng.timeout(delay)
                    if target != pid and not procs[target].triggered:
                        procs[target].interrupt()
                    trace.append(("int", pid, i, eng.now, target))
                elif step[0] == "shared":
                    val = yield shared[step[1]]
                    trace.append(("sh", pid, i, eng.now, val))
                elif step[0] == "call":
                    # A hand-rolled timeout: a K_CALL1 record among the
                    # real timeouts' K_FIRE ones, same wakeup cascade.
                    done = eng.event()
                    eng.call_at(eng.now + step[1], done.succeed, (pid, i))
                    val = yield done
                    trace.append(("call", pid, i, eng.now, val))
                elif step[0] == "late":
                    val = yield late
                    trace.append(("late", pid, i, eng.now, val))
                else:
                    _, target = step
                    if target == pid:
                        trace.append(("selfskip", pid, i, eng.now))
                        continue
                    got = yield procs[target]
                    trace.append(("join", pid, i, eng.now, got))
            except Interrupt:
                trace.append(("caught", pid, i, eng.now))
        return pid

    for pid, steps in enumerate(ops):
        procs.append(eng.spawn(body(pid, steps), name=f"p{pid}"))
    eng.run()
    # Fired from outside the loop, at a time with no bucket: the waiter
    # batch has to open one, and the second run has to find it.
    late.succeed("late")
    eng.run()
    finished = tuple(p.triggered for p in procs)
    return (trace, eng.now, eng.events_scheduled, eng.events_executed,
            finished)


@pytest.mark.parametrize("seed", range(20))
def test_calendar_queue_matches_legacy_heap(seed):
    ops = build_ops(seed)
    calendar = run_soup(ops, Engine)
    heap = run_soup(ops, HeapEngine)
    assert calendar[0] == heap[0], "firing order diverged"
    assert calendar[1:] == heap[1:], "final clock or counters diverged"


@pytest.mark.parametrize("seed", [3, 11])
def test_soup_is_actually_colliding(seed):
    """Sanity: the generator produces the same-timestamp collisions the
    suite exists to cover (guards against a silently-weakened soup)."""
    trace, _, scheduled, executed, _ = run_soup(build_ops(seed), Engine)
    times = [entry[3] for entry in trace]
    assert len(times) != len(set(times)), "no same-timestamp collisions"
    assert executed == scheduled

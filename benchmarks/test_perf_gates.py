"""Performance gates: the five ratio checks nothing else makes.

Wall-clock numbers live in ``bench/`` (``python3 bench/run.py``).  What
stays here a runner of any speed can decide: a ratio of two timings
taken in this process (gates 1-3 and 5) or of virtual times, which are exact
(gate 4).  The arms of a timing ratio alternate run by run, on the CPU
clock, and the ratio divides their *minima*: a collector pass costs one
run, not one arm, and a preempted run is not billed for its wait.  Wall
time over two consecutive blocks read 0.30-1.79 for gate 2 on one commit.
"""

import time

from repro import chaos
from repro.core.frequency import optimal_frequency
from repro.experiments import fig16_cow_breakdown, harness
from repro.gpu.instrument import instrument_program
from repro.gpu.interpreter import ValidationState, run_kernel
from repro.gpu.memory import DeviceMemory
from repro.gpu.program import build_saxpy
from repro.gpu.ranges import RangeSet
from repro.perf.plans import plan_cache_stats, reset_plan_cache_stats
from repro.sim.domains import DomainChannel, Home
from repro.sim.engine import Engine
from repro.tasks.worker import new_world
from repro.units import MIB


def min_cpu_s(*arms, rounds=20):
    """Per-arm minimum CPU seconds over ``rounds`` alternating runs."""
    best = [float("inf")] * len(arms)
    for _ in range(rounds):
        for i, arm in enumerate(arms):
            t0 = time.process_time()
            arm()
            best[i] = min(best[i], time.process_time() - t0)
    return best


def repeated(n, fn, *args):
    def calls():
        for _ in range(n):
            fn(*args)
    return calls


def saxpy_speedups(n, launches):
    """Forced interpretation over plans for saxpy and its instrumented
    twin: ``n`` threads, ``launches`` launches per arm with the same
    arguments on one memory."""
    mem = DeviceMemory(capacity=64 * MIB, default_data_size=8 * n)
    x, y, z = (mem.alloc(8 * n) for _ in range(3))
    prog = build_saxpy()
    twin = instrument_program(prog)
    args = [3, x.addr, y.addr, z.addr, n]
    reads = RangeSet([(x.addr, x.addr + 8 * n), (y.addr, y.addr + 8 * n)])
    writes = RangeSet([(z.addr, z.addr + 8 * n)])

    def launch(program, force):
        state = (ValidationState(read_ranges=reads, write_ranges=writes)
                 if program is twin else None)
        run_kernel(program, args, n, mem, validation=state,
                   force_interpret=force)

    reset_plan_cache_stats()
    interp, fast, interp_twin, fast_twin = min_cpu_s(
        repeated(launches, launch, prog, True),
        repeated(launches, launch, prog, False),
        repeated(launches, launch, twin, True),
        repeated(launches, launch, twin, False))
    # Forced interpretation must not be what fills the plan cache.
    assert plan_cache_stats()["hit"] > 0
    return interp / fast, interp_twin / fast_twin


def test_gate1_plans_beat_forced_interpretation():
    plain, twin = saxpy_speedups(64, 5)
    print(f"\nplans: {plain:.1f}x plain, {twin:.1f}x instrumented twin")
    assert plain > 2.0
    assert twin > 2.0


def test_gate5_plans_beat_interpretation_at_the_table3_shape():
    """The §8.5 study's launch: 8 threads and a kernel relaunched with
    the same arguments, where a plan's per-launch cost is its bind."""
    plain, twin = saxpy_speedups(8, 50)
    print(f"\nplans at 8 threads: {plain:.2f}x plain, "
          f"{twin:.2f}x instrumented twin")
    assert plain >= 2.5
    assert twin >= 2.5


def token_ring(multi):
    """Each node alternates a local timer, a send to its successor and a
    receive from its predecessor; returns (virtual end, events).  Every
    record crosses the affinity rule's bookkeeping when ``multi``."""
    n_machines, rounds, latency = 4, 200, 5e-6
    core = Engine()
    engines = ([Home(core, f"m{i}") for i in range(n_machines)] if multi
               else [core] * n_machines)
    chans = [DomainChannel(engines[i], engines[(i + 1) % n_machines], latency)
             for i in range(n_machines)]

    def node(i):
        for _ in range(rounds):
            yield engines[i].timeout(1e-3)
            chans[i].send(i)
            yield chans[i - 1].recv()

    for i in range(n_machines):
        engines[i].spawn(node(i), name=f"node{i}")
    core.run()
    return core.now, core.events_executed


def test_gate2_per_machine_homes_keep_65_percent_of_the_event_rate():
    assert token_ring(multi=True) == token_ring(multi=False)
    single, multi = min_cpu_s(repeated(1, token_ring, False),
                              repeated(1, token_ring, True))
    print(f"\ndomains: multi_vs_single {single / multi:.2f}")
    # 60 readings on a 2-CPU container, 36 of them beside a running
    # test suite, read 0.75-0.78.
    assert single / multi >= 0.65


def test_gate3_armed_idle_chaos_hooks_cost_under_2_percent_of_fig16():
    # A direct A/B of fig16 cannot resolve 2% on a busy machine, so the
    # overhead is hook hits (a pure function of the virtual clock) times
    # the per-hit cost (a microbenchmark) over fig16's CPU seconds.  The
    # counting specs match everywhere at an occurrence never reached.
    def plan(**match):
        return chaos.FaultPlan(faults=tuple(
            chaos.FaultSpec(kind=kind, **match) for kind in chaos.KINDS))

    counting = plan(occurrence=2**31)
    injector = chaos.install(counting)
    try:
        fig16_cow_breakdown.run()  # also warms the plan caches
    finally:
        chaos.uninstall()
    assert not injector.injected
    hits = {s.kind: injector._visits.get(id(s), 0) for s in counting.faults}
    phase_hits = hits["crash-checkpointer"]  # one per phase entry
    site_hits = hits["dma-error"] + hits["context-error"]
    assert phase_hits and site_hits
    (cpu_s,) = min_cpu_s(fig16_cow_breakdown.run, rounds=2)
    armed = chaos.install(plan(protocol="__never-matches__"))
    try:
        phase_s, site_s = min_cpu_s(
            repeated(20_000, armed.enter_phase, "cow", "transfer", None),
            repeated(20_000, armed.trip, "dma-error"))
    finally:
        chaos.uninstall()
    overhead = (phase_hits * phase_s + site_hits * site_s) / 20_000 / cpu_s
    print(f"\nchaos hooks: {phase_hits} phase + {site_hits} site hits, "
          f"armed idle {overhead * 100:.2f}% of {cpu_s:.2f} s fig16 CPU")
    assert overhead <= 0.02


def test_gate4_delta_and_continuous_checkpoints_raise_f_star():
    """Full root, chained delta, then a live continuous stream on fig16's
    workload (llama2-13b-train), all in virtual time: exact numbers."""
    world = new_world("llama2-13b-train")
    harness.setup_app(world)
    eng = world.engine

    def train(n):
        t0 = eng.now
        yield from world.workload.run(n)
        return eng.now - t0

    def checkpoint(mode, name, **tunables):
        return world.phos.checkpoint(
            world.process, mode=mode, name=name,
            config=harness.experiment_config(**tunables))

    def driver():
        yield from train(1)
        t0 = eng.now
        full, _ = yield checkpoint("incremental", "gate-full")
        full_wall = eng.now - t0
        yield from train(2)
        t0 = eng.now
        yield checkpoint("incremental", "gate-delta", parent=full)
        delta_wall = eng.now - t0
        iter_s = (yield from train(2)) / 2
        # A root-only stream prices the one-time chain root; the longer
        # one's extra stall over it, per delta round, is the steady-state
        # overhead.  A stall is a training window's extra wall, and the
        # window fits every round even at the stop-world pair's cost.
        streams = []
        for name, n_rounds in (("gate-root", 1), ("gate-stream", 4)):
            budget = full_wall + (n_rounds - 1) * (iter_s + delta_wall)
            steps = max(n_rounds + 1, int(budget / iter_s) + 2)
            handle = checkpoint("continuous", name, rounds=n_rounds,
                                interval=iter_s)
            t0 = eng.now
            wall = yield from train(steps)
            _, stream = yield handle
            streams.append((wall - steps * iter_s, t0 + wall, stream))
        (root_stall, _, root), (stall, t_end, stream) = streams
        in_window = sum(img.checkpoint_time <= t_end for img in stream.images)
        round_s = max(0.0, stall - root_stall) / max(1, in_window - 1)
        return full_wall, delta_wall, round_s, root.complete and stream.complete

    full_wall, delta_wall, round_s, complete = eng.run_process(driver())
    eng.run()
    # §A.1 at F = 1 failure per GPU-hour (as in fig12).
    f_full, f_delta, f_cont = (
        optimal_frequency(world.spec.n_gpus, 1.0, overhead_s / 3600.0)
        for overhead_s in (full_wall, delta_wall, max(round_s, 1e-6)))
    print(f"\nstorage: full {full_wall:.6f} s, delta {delta_wall:.6f} s (ratio "
          f"{delta_wall / full_wall:.4f}), continuous {round_s * 1e3:.3f} "
          f"ms/round; f* {f_full:.1f} -> {f_delta:.1f} -> {f_cont:.1f} /h")
    assert delta_wall / full_wall <= 0.30  # 0.83 before dirty-extent sizing
    assert complete
    assert f_full < f_delta < f_cont

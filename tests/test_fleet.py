"""The serverless fleet: traces, snapshot pool, scheduler policies.

Scheduler tests inject synthetic :class:`FunctionProfile`s so every
policy (admission control, best-fit packing, migration-for-packing,
failure-driven restore) is exercised against hand-built traces without
paying the calibration probes.  Every scenario also runs once with
gateway and machines on per-machine homes, the affinity rule armed, and
must produce the bit-identical record stream — gateway and agents only
ever talk through ``DomainChannel``s, so no scenario trips the rule.
"""

import hashlib
import math
import random
import types
from collections import deque

import pytest

from repro.errors import InvalidValueError, SimulationError
from repro.fleet import scheduler
from repro.fleet.calibrate import FunctionProfile
from repro.fleet.scheduler import FleetConfig, run_fleet
from repro.fleet.snapshots import SnapshotPool
from repro.fleet.traces import (
    DEFAULT_WEIGHTS,
    Trace,
    TraceConfig,
    TraceRequest,
    generate,
)
from repro.sim import Engine
from repro.sim.domains import DomainChannel

# --------------------------------------------------------------------------
# traces
# --------------------------------------------------------------------------


def test_trace_is_seed_deterministic():
    cfg = TraceConfig(kind="bursty", rate=3.0, duration=30.0, seed=9)
    assert generate(cfg) == generate(cfg)
    other = generate(TraceConfig(kind="bursty", rate=3.0, duration=30.0,
                                 seed=10))
    assert generate(cfg) != other


@pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
def test_trace_shape(kind):
    cfg = TraceConfig(kind=kind, rate=4.0, duration=50.0, seed=2,
                      weights=DEFAULT_WEIGHTS)
    trace = generate(cfg)
    arrivals = [r.arrival for r in trace.requests]
    assert arrivals == sorted(arrivals)
    assert all(0.0 <= t < cfg.duration for t in arrivals)
    assert [r.index for r in trace.requests] == list(range(len(trace)))
    assert all(r.function in cfg.functions for r in trace.requests)
    # Long-run mean within a loose band of the configured rate.
    assert 0.5 * cfg.rate * cfg.duration < len(trace) \
        < 2.0 * cfg.rate * cfg.duration


def test_trace_validation():
    with pytest.raises(InvalidValueError):
        TraceConfig(kind="lumpy")
    with pytest.raises(InvalidValueError):
        TraceConfig(rate=0.0)
    with pytest.raises(InvalidValueError):
        TraceConfig(rate=float("nan"))
    with pytest.raises(InvalidValueError):
        TraceConfig(duration=-5.0)
    with pytest.raises(InvalidValueError):
        TraceConfig(burst_factor=1.0)
    with pytest.raises(InvalidValueError):
        TraceConfig(peak_ratio=3.0)
    with pytest.raises(InvalidValueError):
        TraceConfig(functions=())
    with pytest.raises(InvalidValueError):
        TraceConfig(functions=("a", "b"), weights=(1.0,))
    with pytest.raises(InvalidValueError):
        TraceConfig(functions=("a",), weights=(float("nan"),))


def test_trace_custom_catalog_defaults_to_uniform_weights():
    # Regression: a custom catalog used to trip the length check
    # against the default three-entry weight vector.
    cfg = TraceConfig(functions=("a", "b", "c", "d"), seed=3)
    trace = generate(cfg)
    assert {r.function for r in trace.requests} <= {"a", "b", "c", "d"}


# --------------------------------------------------------------------------
# snapshot pool
# --------------------------------------------------------------------------


def test_pool_validation():
    with pytest.raises(InvalidValueError):
        SnapshotPool(0)
    with pytest.raises(InvalidValueError):
        SnapshotPool(True)
    with pytest.raises(InvalidValueError):
        SnapshotPool(2.0)
    with pytest.raises(InvalidValueError):
        SnapshotPool(2, context_slots=-1)


def test_pool_lru_eviction():
    pool = SnapshotPool(2)
    pool.insert("a")
    pool.insert("b")
    assert pool.lookup("a")  # refreshes a: order is now b, a
    pool.insert("c")  # evicts b
    assert pool.warm_functions() == ["a", "c"]
    assert not pool.lookup("b")
    assert pool.evictions == 1
    assert (pool.hits, pool.misses) == (1, 1)


def test_pool_clear_drops_images_and_restores_contexts():
    pool = SnapshotPool(4, context_slots=2)
    pool.insert("a")
    assert pool.take_context() and pool.take_context()
    assert not pool.take_context()
    pool.clear()
    assert pool.warm_functions() == []
    assert pool.contexts_free == 2
    assert (pool.context_hits, pool.context_misses) == (2, 1)


def test_pool_context_refill_clamps_at_slots():
    pool = SnapshotPool(1, context_slots=1)
    pool.refill_context()
    assert pool.contexts_free == 1
    assert pool.take_context()
    pool.refill_context()
    assert pool.contexts_free == 1


# --------------------------------------------------------------------------
# fleet config validation
# --------------------------------------------------------------------------


def test_fleet_config_validation():
    with pytest.raises(InvalidValueError):
        FleetConfig(system="criu")
    with pytest.raises(InvalidValueError):
        FleetConfig(n_machines=0)
    with pytest.raises(InvalidValueError):
        FleetConfig(n_gpus=0)
    with pytest.raises(InvalidValueError):
        FleetConfig(pool_capacity=0)
    with pytest.raises(InvalidValueError):
        FleetConfig(queue_cap=-1)
    with pytest.raises(InvalidValueError):
        FleetConfig(requests_per_call=0)
    with pytest.raises(InvalidValueError):
        FleetConfig(failures_per_hour=float("nan"))
    with pytest.raises(InvalidValueError):
        FleetConfig(failures_per_hour=-1.0)
    with pytest.raises(InvalidValueError):
        FleetConfig(recovery_s=0.0)
    with pytest.raises(InvalidValueError):
        FleetConfig(max_retries=-1)
    with pytest.raises(InvalidValueError):
        FleetConfig(clock_domains="per-rack")
    with pytest.raises(InvalidValueError):
        FleetConfig(control_latency_s=0.0)
    with pytest.raises(InvalidValueError):
        FleetConfig(control_latency_s=float("inf"))


# --------------------------------------------------------------------------
# scheduler (synthetic profiles)
# --------------------------------------------------------------------------


def prof(function, n_gpus=1, start=0.05, nopool=None, exec_s=0.5,
         image=0, supported=True, downtime=0.2, system="phos"):
    nan = float("nan")
    if not supported:
        return FunctionProfile(system=system, function=function,
                               n_gpus=n_gpus, supported=False, start_s=nan,
                               nopool_start_s=nan, exec_s=nan, image_bytes=0)
    return FunctionProfile(
        system=system, function=function, n_gpus=n_gpus, supported=True,
        start_s=start, nopool_start_s=nopool if nopool is not None else start,
        exec_s=exec_s, image_bytes=image, migration_downtime_s=downtime,
    )


def make_trace(arrivals, duration=None):
    """A hand-built trace from ``[(arrival, function), ...]``."""
    functions = tuple(dict.fromkeys(f for _, f in arrivals))
    cfg = TraceConfig(
        kind="poisson", rate=1.0, functions=functions,
        duration=duration or max(t for t, _ in arrivals) + 60.0,
    )
    requests = tuple(TraceRequest(index=i, arrival=t, function=f)
                     for i, (t, f) in enumerate(arrivals))
    return Trace(config=cfg, requests=requests)


RECORD_FIELDS = ("index", "function", "arrival", "outcome", "machine",
                 "start", "end", "cold_start_s", "restore_s", "warm",
                 "pooled_ctx", "retries", "migrations")


def signature(report):
    """Records as comparable tuples (NaN normalized to None)."""
    def norm(v):
        if isinstance(v, float) and math.isnan(v):
            return None
        return v

    return [tuple(norm(getattr(r, f)) for f in RECORD_FIELDS)
            for r in report.records]


def run_both_modes(trace, profiles, **cfg):
    """Run single-engine and per-machine; assert bit-identity."""
    single = run_fleet(trace, FleetConfig(clock_domains="single", **cfg),
                       profiles=profiles)
    sharded = run_fleet(trace, FleetConfig(clock_domains="per-machine",
                                           **cfg), profiles=profiles)
    assert signature(single) == signature(sharded)
    assert single.summary() == sharded.summary()
    return single


def test_fleet_serves_and_warms_the_pool():
    profiles = {"f": prof("f", image=256 << 20)}
    trace = make_trace([(0.0, "f"), (5.0, "f"), (10.0, "f")])
    report = run_both_modes(trace, profiles, n_machines=1, n_gpus=2)
    assert report.completed == 3
    first, second, third = report.records
    assert not first.warm and second.warm and third.warm
    # A warm serve skips the image fetch.
    assert second.cold_start_s < first.cold_start_s
    assert second.restore_s < first.restore_s
    assert report.pool_hit_rate() == pytest.approx(2 / 3)
    assert report.goodput_rps() > 0
    tail = report.tail()
    assert tail["p50"] <= tail["p99"] <= tail["p999"]


def test_fleet_run_is_deterministic():
    profiles = {"f": prof("f"), "g": prof("g", exec_s=1.5)}
    trace = make_trace([(0.0, "f"), (0.1, "g"), (0.2, "f"), (1.0, "g")])
    cfg = FleetConfig(n_machines=2, n_gpus=1)
    a = run_fleet(trace, cfg, profiles=profiles)
    b = run_fleet(trace, cfg, profiles=profiles)
    assert signature(a) == signature(b)
    assert a.summary() == b.summary()


def test_admission_control_rejects_at_queue_cap():
    # One 1-GPU machine, 10 s service: of six simultaneous arrivals one
    # dispatches, two queue, three bounce off the cap.
    profiles = {"f": prof("f", exec_s=10.0)}
    trace = make_trace([(0.0, "f")] * 6)
    report = run_both_modes(trace, profiles, n_machines=1, n_gpus=1,
                            queue_cap=2)
    assert report.completed == 3
    assert report.rejected == 3
    outcomes = [r.outcome for r in report.records]
    assert outcomes.count("rejected") == 3
    assert report.max_queue_depth() == 2
    assert report.mean_queue_depth() > 0
    # Rejected rows carry NaN latencies but never poison the tail.
    assert len(report.cold_start_samples()) == 3


def test_unsupported_functions_are_refused_up_front():
    profiles = {"ok": prof("ok"), "big": prof("big", supported=False)}
    trace = make_trace([(0.0, "ok"), (0.1, "big"), (0.2, "ok")])
    report = run_both_modes(trace, profiles, n_machines=1, n_gpus=1,
                            system="cuda-checkpoint")
    assert report.completed == 2
    assert report.unsupported == 1
    assert report.records[1].outcome == "unsupported"
    # NaN-checked: the unsupported row is excluded, not folded in.
    assert len(report.cold_start_samples()) == 2
    assert report.summary()["p99_ms"] is not None


def test_best_fit_packs_small_jobs_onto_fullest_machine():
    # node0 gets the 3-GPU job; the following 1-GPU jobs best-fit into
    # node0's single remaining GPU before touching node1.
    profiles = {"w3": prof("w3", n_gpus=3, exec_s=20.0),
                "w1": prof("w1", n_gpus=1, exec_s=20.0)}
    trace = make_trace([(0.0, "w3"), (0.1, "w1"), (0.2, "w1")])
    report = run_both_modes(trace, profiles, n_machines=2, n_gpus=4)
    by_fn = {}
    for r in report.records:
        by_fn.setdefault(r.function, []).append(r.machine)
    assert by_fn["w3"] == ["node0"]
    assert by_fn["w1"] == ["node0", "node1"]


def test_migration_unblocks_a_stranded_head():
    # Fragmentation: s5 + s1short fill node0, s1long lands on node1,
    # and the 6-GPU head fits nowhere.  Once s1short frees a GPU the
    # gateway migrates s1long into it and places big6 on node1.
    profiles = {
        "s5": prof("s5", n_gpus=5, exec_s=30.0),
        "s1short": prof("s1short", n_gpus=1, exec_s=0.5),
        "s1long": prof("s1long", n_gpus=1, exec_s=30.0, downtime=0.2),
        "big6": prof("big6", n_gpus=6, exec_s=1.0),
    }
    arrivals = [(0.0, "s5"), (0.0, "s1short"), (0.0, "s1long"),
                (0.0, "big6")]
    report = run_both_modes(make_trace(arrivals), profiles,
                            n_machines=2, n_gpus=6)
    assert report.migrations == 1
    victim = report.records[2]
    assert victim.function == "s1long"
    assert victim.migrations == 1
    assert victim.machine == "node0"  # moved off node1
    big6 = report.records[3]
    assert big6.outcome == "ok"
    assert big6.machine == "node1"
    assert big6.end < 5.0
    # Migration pays the victim the calibrated downtime.
    assert victim.end > 30.0 + profiles["s1long"].migration_downtime_s

    # Without migration the head waits for s5's 30 s slot instead.
    blocked = run_both_modes(make_trace(arrivals), profiles,
                             n_machines=2, n_gpus=6, migration=False)
    assert blocked.migrations == 0
    assert blocked.records[3].end > 25.0


def test_baselines_never_migrate():
    profiles = {
        "s5": prof("s5", n_gpus=5, exec_s=30.0, system="singularity"),
        "s1short": prof("s1short", n_gpus=1, exec_s=0.5,
                        system="singularity"),
        "s1long": prof("s1long", n_gpus=1, exec_s=30.0,
                       system="singularity"),
        "big6": prof("big6", n_gpus=6, exec_s=1.0, system="singularity"),
    }
    arrivals = [(0.0, "s5"), (0.0, "s1short"), (0.0, "s1long"),
                (0.0, "big6")]
    report = run_both_modes(make_trace(arrivals), profiles,
                            n_machines=2, n_gpus=6, system="singularity",
                            migration=True)
    assert report.migrations == 0
    assert report.records[3].end > 25.0


def test_machine_failures_requeue_and_retry():
    profiles = {"f": prof("f", exec_s=2.0)}
    trace = generate(TraceConfig(kind="poisson", rate=2.0, duration=30.0,
                                 seed=4, functions=("f",)))
    report = run_both_modes(trace, profiles, n_machines=2, n_gpus=2,
                            failures_per_hour=3600.0, recovery_s=1.0,
                            failure_seed=7, max_retries=2)
    assert report.machine_failures > 0
    assert report.retries > 0
    # Conservation: every request has exactly one final outcome.
    total = (report.completed + report.rejected + report.unsupported
             + report.failed)
    assert total == len(trace)
    # A requeued victim restores cold on the surviving machine: its
    # cold start is a fresh fetch+restore, never a stale partial time.
    retried_ok = [r for r in report.records
                  if r.outcome == "ok" and r.retries > 0]
    assert retried_ok, "expected at least one successful retry"
    for r in retried_ok:
        assert r.end > r.start


def test_retry_budget_exhaustion_fails_the_request():
    # One machine that is down more often than up: some request burns
    # its whole retry budget and fails for good.
    profiles = {"f": prof("f", exec_s=5.0)}
    trace = generate(TraceConfig(kind="poisson", rate=1.0, duration=30.0,
                                 seed=6, functions=("f",)))
    report = run_both_modes(trace, profiles, n_machines=1, n_gpus=1,
                            failures_per_hour=7200.0, recovery_s=2.0,
                            failure_seed=3, max_retries=0)
    assert report.failed > 0
    failed = [r for r in report.records if r.outcome == "failed"]
    assert all(r.retries > 0 for r in failed)
    assert report.completed + report.rejected + report.failed == len(trace)


def test_context_pool_miss_pays_the_creation_barrier():
    # One context slot, slow background refill (nopool - start = 9.9 s):
    # the second invocation misses the context pool and pays nopool.
    profiles = {"f": prof("f", start=0.1, nopool=10.0, exec_s=0.2)}
    trace = make_trace([(0.0, "f"), (0.0, "f")])
    report = run_both_modes(trace, profiles, n_machines=1, n_gpus=1,
                            contexts_per_gpu=1)
    assert (report.context_hits, report.context_misses) == (1, 1)
    first, second = report.records
    assert first.pooled_ctx and not second.pooled_ctx
    assert second.restore_s > first.restore_s + 9.0


def test_run_fleet_rejects_bad_inputs():
    trace = make_trace([(0.0, "f"), (1.0, "g")])
    with pytest.raises(InvalidValueError) as err:
        run_fleet(trace, FleetConfig(), profiles={"f": prof("f")})
    assert "no profile" in str(err.value)
    profiles = {"f": prof("f"), "g": prof("g", n_gpus=16)}
    with pytest.raises(InvalidValueError) as err:
        run_fleet(trace, FleetConfig(n_gpus=8), profiles=profiles)
    assert "never be placed" in str(err.value)


# --------------------------------------------------------------------------
# exactly one terminal message per attempt
# --------------------------------------------------------------------------


class ScriptedFailures:
    """Stands in for ``random`` inside the scheduler: machine ``m``'s
    failure loop draws ``script[m]`` in order, then never fails again."""

    def __init__(self, script, failure_seed=1):
        self.script = script
        self.failure_seed = failure_seed

    def Random(self, seed):
        draws = iter(self.script.get(seed - self.failure_seed * 1000003, ()))
        return types.SimpleNamespace(
            expovariate=lambda rate: next(draws, 1e9))


def assert_settled_once(report, n):
    """Every request completed exactly once, on its first attempt."""
    assert [r.outcome for r in report.records] == ["ok"] * n
    assert report.completed == n
    assert (report.retries, report.failed) == (0, 0)
    assert all(r.retries == 0 and not math.isnan(r.end)
               for r in report.records)


@pytest.mark.parametrize("armed", ["at-start", "at-recovery"])
@pytest.mark.parametrize("clock_domains", ["single", "per-machine"])
def test_failure_tied_with_completion_ends_the_attempt_once(
        monkeypatch, armed, clock_domains):
    """Regression: a machine failure landing on the very instant an
    invocation completes used to report the attempt twice — ``failed``
    from the failure loop *and* ``done`` from the serve process, whose
    resume was already queued ahead of the interrupt.  Request 0 got a
    phantom retry and was counted complete twice, ``outstanding`` hit 0
    early and the run stopped with request 1 still in flight.  The
    failure's timer is always armed before the attempt it ties with
    starts (at t = 0, or at the recovery that let the attempt start), so
    the completion record wins the instant and the failure finds nothing
    in flight."""
    latency = 0.25
    f = prof("f", start=0.125, exec_s=0.5, image=0)
    service_s = (f.fetch_s() + f.start_s) + f.exec_s
    if armed == "at-start":
        first = 0.0
        draws = [(first + latency) + service_s]
    else:
        # Down at 0.125, back at 0.375; request 0 arrives at 1.0 and
        # the second failure lands on its completion.
        first = 1.0
        t_end = (first + latency) + service_s
        draws = [0.125, t_end - 0.375]
        assert 0.375 + draws[1] == t_end
    monkeypatch.setattr(scheduler, "random", ScriptedFailures({0: draws}))
    trace = make_trace([(first, "f"), (first + 5.0, "f")])
    report = run_fleet(trace, FleetConfig(
        n_machines=2, n_gpus=1, failures_per_hour=1.0, recovery_s=0.25,
        control_latency_s=latency, clock_domains=clock_domains),
        profiles={"f": f})
    assert report.machine_failures == len(draws)
    assert_settled_once(report, 2)
    assert report.records[0].machine == "node0"
    assert report.records[0].end == (first + latency) + service_s


@pytest.mark.parametrize("clock_domains", ["single", "per-machine"])
def test_migrate_out_tied_with_completion_ends_the_attempt_once(
        clock_domains):
    """The migration twin of the race above: a ``migrate-out`` command
    delivered on the instant its victim completes (control latency 1.0,
    service 0.5: sent at 0.5, lands at 1.5 == 1.0 + 0.5) used to answer
    ``migrated`` and ``done`` both.  Now the completion wins, the
    command finds nothing in flight and answers ``migrate-noop``."""
    profiles = {
        "victim": prof("victim", start=0.0, exec_s=0.5 - 5e-6, image=0),
        "hold1": prof("hold1", exec_s=30.0),
        "hold2": prof("hold2", n_gpus=2, exec_s=30.0),
        "big2": prof("big2", n_gpus=2, exec_s=1.0),
    }
    victim = profiles["victim"]
    assert (victim.fetch_s() + victim.start_s) + victim.exec_s == 0.5
    # victim + hold1 leave one GPU free on node0, hold2 leaves one on
    # node1: big2 is stranded, and moving the victim to node1 would
    # make room for it on node0.
    arrivals = [(0.0, "victim"), (0.0, "hold1"), (0.0, "hold2"),
                (0.5, "big2")]
    report = run_fleet(make_trace(arrivals), FleetConfig(
        n_machines=2, n_gpus=3, control_latency_s=1.0,
        clock_domains=clock_domains), profiles=profiles)
    assert report.records[0].end == 1.5
    assert report.records[0].machine == "node0"
    assert report.migrations == 0
    assert_settled_once(report, 4)
    # The victim's completion freed the GPU the migration was after.
    assert report.records[3].machine == "node0"


def test_preempted_attempt_ignores_its_completion_record():
    """The other order of the tie, at the agent: a zero-delay resume
    starts and is caught by a machine failure on the same instant,
    before its completion record runs.  The failure reports the attempt;
    the completion record finds its entry gone and says nothing."""
    eng = Engine()
    inbox = DomainChannel.local(eng, 1.0, name="gw->node0")
    outbox = DomainChannel.local(eng, 1.0, name="node0->gw")
    sent = []
    outbox.subscribe(sent.append)
    cfg = FleetConfig(failures_per_hour=1.0, recovery_s=0.5)
    agent = scheduler._MachineAgent(eng, "node0", 1, cfg, {}, inbox, outbox)
    # Down at 0.25, back (and re-armed) at 0.75, down again at 1.25 —
    # the instant the resume sent at 0.25 is delivered.
    rng = ScriptedFailures({0: [0.25, 0.5]}).Random(1000003)
    agent.failure_proc = eng.spawn(agent.failure_loop(rng))
    eng.call_at(0.25, lambda _: inbox.send(("resume", 7, 0.0)))
    eng.run(until=5.0)
    assert sent == [("down",), ("up",), ("down",), ("failed", 7, None),
                    ("up",)]
    assert agent.inflight == {}


def test_run_fleet_refuses_to_report_an_unfinished_run(monkeypatch):
    """A completion that never reaches the gateway used to leave the
    request reading ``outcome == "ok"`` with a NaN end (``"ok"`` was the
    dataclass default); now the record stays ``pending`` and the run
    raises instead of returning."""
    monkeypatch.setattr(scheduler._MachineAgent, "_served",
                        lambda self, attempt: None)
    with pytest.raises(SimulationError) as err:
        run_fleet(make_trace([(0.0, "f")]), FleetConfig(n_machines=1),
                  profiles={"f": prof("f")})
    assert "[0] undecided, 1 outstanding" in str(err.value)
    assert scheduler.RequestRecord(0, "f", 0.0).outcome == "pending"


# --------------------------------------------------------------------------
# identity with the process-based scheduler, record budget, conservation
# --------------------------------------------------------------------------

#: SHA-256 of every record field, the queue-depth series and summary()
#: of :func:`identity_cell`, computed on the commit *before* listeners,
#: serve/refill processes and the arrival process became handlers and
#: timer records (f4a087d).  Per-machine homes share the single engine's
#: calendar, so both modes must produce the one digest.
IDENTITY_DIGESTS = {
    ("phos", 1):
        "6cb1e6010764270de12485c0eec1525db90f2a5a319bb4fa862ff90dc695bc26",
    ("phos", 7):
        "5dbf2b4b6d9bd2ded3aa9fe877335cbc7f6ec1efe9dba1f1149fd86eefde68c6",
    ("phos", 23):
        "686b9dd724ab8032528e550e089017113777ff0af8e2b5e7a1893aea3b744667",
    ("singularity", 1):
        "a7df8468d3f1cf377f38cb7096531c122b4d378af77bd3c69a507ad6c82a4822",
    ("singularity", 7):
        "1c6a438bf5a1a1b52c9964a33c218d297f1b0310f46ac5885d993c445f895e0d",
    ("singularity", 23):
        "52a8ec896c7dd8aaf7c1c4c99385c9e8318faaeeff093f0389b985ba4a15848f",
    ("cuda-checkpoint", 1):
        "c8f480de6180c81c10c2be56ced59c73ea58b1a61686deda0ebb05bbcf6b0783",
    ("cuda-checkpoint", 7):
        "a45f31962d23210330d0a9d79a4da1277638c09fd57b838773b3898b2cf36cbb",
    ("cuda-checkpoint", 23):
        "7655968c7c940cf2b63d72a324838022dbaf42448d1d6e3612b6cf78d69d54ec",
}


def identity_cell(system, seed, clock_domains):
    """4 000 bursty requests over three functions (one 2-GPU, so PHOS
    migrates for packing; cuda-checkpoint refuses it) on 4 x 2 GPUs with
    ~40 machine failures."""
    concurrent = system == "phos"
    profiles = {
        "small": prof("small", start=0.05, nopool=1.5 if concurrent else None,
                      exec_s=0.4, image=64 << 20, system=system),
        "mid": prof("mid", start=0.12, nopool=2.5 if concurrent else None,
                    exec_s=1.1, image=512 << 20, downtime=0.3, system=system),
        "wide": prof("wide", n_gpus=2, start=0.2,
                     nopool=3.0 if concurrent else None, exec_s=1.6,
                     image=1 << 30, system=system,
                     supported=system != "cuda-checkpoint"),
    }
    trace = generate(TraceConfig(kind="bursty", rate=4.0, duration=1000.0,
                                 seed=seed, functions=tuple(profiles),
                                 weights=(0.5, 0.3, 0.2)))
    cfg = FleetConfig(system=system, n_machines=4, n_gpus=2, pool_capacity=2,
                      contexts_per_gpu=1, queue_cap=16,
                      failures_per_hour=40.0, failure_seed=seed,
                      recovery_s=4.0, max_retries=2,
                      clock_domains=clock_domains)
    return run_fleet(trace, cfg, profiles=profiles)


def digest(report):
    h = hashlib.sha256()
    for r in report.records:
        h.update(repr(tuple(getattr(r, f) for f in RECORD_FIELDS)).encode())
    h.update(repr(report.queue_depth).encode())
    h.update(repr(report.summary()).encode())
    return h.hexdigest()


@pytest.mark.parametrize("system,seed", list(IDENTITY_DIGESTS))
def test_reports_are_identical_to_the_process_based_scheduler(system, seed):
    for mode in ("single", "per-machine"):
        report = identity_cell(system, seed, mode)
        assert 3700 < len(report.records) < 4200
        assert report.machine_failures >= 3
        assert report.retries > 0
        assert (report.migrations > 0) == (system == "phos")
        assert (report.unsupported > 0) == (system == "cuda-checkpoint")
        assert digest(report) == IDENTITY_DIGESTS[system, seed], mode


@pytest.fixture
def engines(monkeypatch):
    """Every engine built during the test (homes are views, not engines)."""
    built = []
    plain_init = Engine.__init__

    def remembering_init(self):
        plain_init(self)
        built.append(self)

    monkeypatch.setattr(Engine, "__init__", remembering_init)
    return built


@pytest.mark.parametrize("clock_domains", ["single", "per-machine"])
@pytest.mark.parametrize("system,budget", [("phos", 7.5),
                                           ("cuda-checkpoint", 6.0)])
def test_scheduler_records_per_request_budget(engines, system, budget,
                                              clock_domains):
    """A served request is 6 scheduler records — its arrival timer, two
    per control message (``serve`` out, one terminal message back) and
    its completion timer — plus one for the pooled-context refill; a
    refused one is its arrival alone.  The process-based scheduler
    spent 13.9 (phos) / 10.9 (cuda-checkpoint) on this trace.  Counts
    are exact and machine-independent."""
    concurrent = system == "phos"
    profiles = {f: prof(f, start=0.05 if concurrent else 6.0,
                        nopool=2.0 if concurrent else None, exec_s=0.4,
                        image=64 << 20, system=system) for f in ("a", "b")}
    trace = generate(TraceConfig(kind="bursty", rate=4.0, duration=500.0,
                                 seed=3, functions=("a", "b")))
    cfg = dict(system=system, n_machines=4, clock_domains=clock_domains)

    quiet = run_fleet(trace, FleetConfig(**cfg), profiles=profiles)
    executed = sum(e.events_executed for e in engines)
    assert (quiet.rejected > 0) == (not concurrent)  # the overloaded path
    assert executed == (1 + len(trace) + 5 * quiet.completed
                        + quiet.context_hits + 2 * cfg["n_machines"])
    assert executed / len(trace) <= budget

    del engines[:]
    run_fleet(trace, FleetConfig(failures_per_hour=2.0, **cfg),
              profiles=profiles)
    assert sum(e.events_executed for e in engines) / len(trace) <= budget


class _HeadOnlyQueue(deque):
    """The gateway's queue, refusing to give up anything but its head."""

    taken = None

    def popleft(self):
        self.taken = super().popleft()
        return self.taken

    def _refuse(self, *args):
        raise AssertionError("the dispatcher reached past the queue head")

    pop = remove = __delitem__ = _refuse


@pytest.fixture
def conserved(monkeypatch):
    """Check the gateway's and the agents' books after every handler."""
    gateway_cls, agent_cls = scheduler._Gateway, scheduler._MachineAgent

    def gateway_books(gw):
        n_gpus = gw.cfg.n_gpus
        for m, running in enumerate(gw.running):
            assert 0 <= gw.free[m] <= n_gpus
            assert gw.free[m] == n_gpus - sum(running.values())

    def agent_books(agent):
        assert 0 <= agent.pool.contexts_free <= agent.pool.context_slots

    def checked(cls, name, books):
        plain = getattr(cls, name)

        def wrapper(self, *args):
            plain(self, *args)
            books(self)

        monkeypatch.setattr(cls, name, wrapper)

    for name in ("arrive", "on_msg"):
        checked(gateway_cls, name, gateway_books)
    for name in ("on_msg", "_served", "_refill_context"):
        checked(agent_cls, name, agent_books)

    plain_init, plain_place = gateway_cls.__init__, gateway_cls._place

    def init(self, *args):
        plain_init(self, *args)
        self.queue = _HeadOnlyQueue()

    def place(self, idx, m, k):
        assert idx == self.queue.taken, "dispatched a non-head request"
        plain_place(self, idx, m, k)

    monkeypatch.setattr(gateway_cls, "__init__", init)
    monkeypatch.setattr(gateway_cls, "_place", place)


@pytest.mark.parametrize("draw", range(32))
def test_fleet_conserves_requests_gpus_and_contexts(conserved, draw):
    """ROADMAP "Whole-stack invariants", fleet part: over random
    topologies, traces and failure schedules every arrival gets exactly
    one terminal outcome, no GPU or pooled context is ever lost or
    minted, and dispatch is strictly head-of-queue."""
    rng = random.Random(draw * 9973 + 5)
    system = rng.choice(["phos", "phos", "singularity", "cuda-checkpoint"])
    n_gpus = rng.randrange(1, 5)
    profiles = {
        "one": prof("one", exec_s=rng.choice([0.2, 0.8]), nopool=1.0,
                    image=32 << 20, system=system),
        "slow": prof("slow", exec_s=3.0, nopool=2.0, system=system),
        "wide": prof("wide", n_gpus=min(2, n_gpus), exec_s=1.0, nopool=1.5,
                     system=system),
        "refused": prof("refused", supported=False, system=system),
    }
    trace = generate(TraceConfig(
        kind=rng.choice(["bursty", "poisson"]), rate=rng.choice([3.0, 8.0]),
        duration=40.0, seed=rng.randrange(1000), functions=tuple(profiles),
        weights=(0.5, 0.2, 0.25, 0.05)))
    report = run_fleet(trace, FleetConfig(
        system=system, n_machines=rng.randrange(1, 5), n_gpus=n_gpus,
        queue_cap=rng.randrange(0, 13), contexts_per_gpu=rng.randrange(0, 3),
        pool_capacity=rng.randrange(1, 4),
        failures_per_hour=rng.choice([0.0, 300.0, 1200.0]),
        failure_seed=rng.randrange(1000), recovery_s=rng.choice([0.5, 3.0]),
        max_retries=rng.randrange(0, 3),
        clock_domains=rng.choice(["single", "per-machine"])),
        profiles=profiles)
    assert [r.index for r in report.records] == list(range(len(trace)))
    outcomes = [r.outcome for r in report.records]
    assert {(o, outcomes.count(o)) for o in set(outcomes)} <= {
        ("ok", report.completed), ("rejected", report.rejected),
        ("unsupported", report.unsupported), ("failed", report.failed)}
    assert (report.completed + report.rejected + report.unsupported
            + report.failed) == len(trace)
    assert report.retries == sum(r.retries for r in report.records)
    assert report.migrations == sum(r.migrations for r in report.records)

"""The fleet scheduler: admission, bin-packing, migration, failover.

One *gateway* (the cluster frontdoor) owns the request queue and every
placement decision; one *machine agent* per
:class:`~repro.cluster.Machine` executes invocations against its local
:class:`~repro.fleet.snapshots.SnapshotPool`.  Gateway and agents only
ever talk through :class:`~repro.sim.domains.DomainChannel` control
messages, so the same event program runs with every party directly on
one engine (``clock_domains="single"``) or on its own
:class:`~repro.sim.domains.Home` of that engine
(``clock_domains="per-machine"``), which arms the affinity rule between
gateway and machines.  One calendar either way: the two reports are
identical by construction.

Policies
--------

* **Admission control** — a request arriving to a queue already holding
  ``queue_cap`` entries is rejected immediately (the overload shield);
  an unsupported (system, function) pair is refused up front and never
  pollutes the latency aggregates (its Fig. 14 row is NaN).
* **Bin-packing** — strict-FIFO dispatch, best-fit placement: the head
  request goes to the up machine with the fewest free GPUs that still
  fit it (ties to the lowest machine index).
* **Migration for packing** — when the head is stranded by
  fragmentation (no single machine has enough free GPUs but the fleet
  does), the gateway live-migrates the smallest strictly-smaller
  running victim to another machine, paying the victim the calibrated
  Fig. 13 downtime, then places the head in the hole.  PHOS only; the
  baselines stop the world to migrate and simply wait instead.
* **Failure-driven restore** — each machine fails at seeded
  exponential times: its warm snapshots and in-flight invocations are
  lost, victims are re-queued at the head and pay a fresh
  (snapshot-pool) restore on another machine, and the machine rejoins
  after ``recovery_s``.

Control plane
-------------

Nothing that only waits for one instant is a process.  Both ends
*subscribe* a message handler to their channel
(:meth:`DomainChannel.subscribe` — the scheduler turn a ``recv()``
listener would have run on, without the listener), and every wait is a
timer record (:meth:`Engine.call_at`): the next arrival, an
invocation's completion, a pooled context's background refill.  A
request served on a pooled context is 7 scheduler records.  The one
process per machine is the failure loop, a loop with state across its
waits.

An attempt (one ``serve`` or ``resume`` on one machine) ends with
exactly one message — ``done``, ``failed`` or ``migrated`` — which
carries what the machine decided when the attempt started (pool hit,
pooled context, restore and cold-start time).  The agent's ``inflight``
entry is the attempt's cancellation token: a failure or a
``migrate-out`` preempts by removing it, and a completion record whose
entry is gone says nothing, so two things landing on one instant can
never both report the attempt.

The report carries per-request records, P50/P99/P999 cold-start
latency (via :mod:`repro.stats`, which refuses NaN), goodput, and a
queue-depth time series.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro import stats, units
from repro.cluster import Cluster
from repro.baselines import get_system
from repro.errors import InvalidValueError, SimulationError
from repro.fleet.calibrate import FunctionProfile, profiles_for
from repro.fleet.snapshots import SnapshotPool
from repro.fleet.traces import Trace
from repro.sim.domains import DomainChannel, Home
from repro.sim.engine import Engine, Interrupt

#: ``single``: everything on one engine; ``per-machine``: gateway and
#: machines each on a home of it, with the affinity rule armed.
CLOCK_DOMAIN_MODES = ("single", "per-machine")


@dataclass(frozen=True)
class FleetConfig:
    """One fleet run: topology, policies, and failure model."""

    system: str = "phos"
    n_machines: int = 2
    n_gpus: int = 8
    #: Warm snapshot images each machine keeps (LRU beyond this).
    pool_capacity: int = 4
    #: Pooled GPU contexts per GPU (phos; the §6 pool).
    contexts_per_gpu: int = 2
    #: Admission control: max queued (not yet dispatched) requests.
    queue_cap: int = 32
    #: Inference steps served per invocation (the calibration probe's
    #: ``n_requests``).
    requests_per_call: int = 2
    #: Per-machine failure rate (0 disables the failure process).
    failures_per_hour: float = 0.0
    failure_seed: int = 1
    #: How long a failed machine stays down before rejoining.
    recovery_s: float = 5.0
    #: Retry budget for invocations killed by machine failures.
    max_retries: int = 3
    #: Migrate-for-packing (concurrent systems only; ignored for the
    #: baselines — see :attr:`migrates`).
    migration: bool = True
    clock_domains: str = "single"
    #: Gateway <-> machine control-message latency.
    control_latency_s: float = units.RDMA_LINK_LATENCY

    def __post_init__(self) -> None:
        get_system(self.system)
        if self.n_machines < 1:
            raise InvalidValueError(
                f"a fleet needs at least one machine, got {self.n_machines}"
            )
        if self.n_gpus < 1:
            raise InvalidValueError(
                f"machines need at least one GPU, got {self.n_gpus}"
            )
        if self.pool_capacity < 1:
            raise InvalidValueError(
                f"snapshot-pool capacity must be >= 1, got "
                f"{self.pool_capacity}"
            )
        if self.contexts_per_gpu < 0:
            raise InvalidValueError(
                f"contexts_per_gpu must be >= 0, got {self.contexts_per_gpu}"
            )
        if self.queue_cap < 0:
            raise InvalidValueError(
                f"queue_cap must be >= 0, got {self.queue_cap}"
            )
        if self.requests_per_call < 1:
            raise InvalidValueError(
                f"requests_per_call must be >= 1, got "
                f"{self.requests_per_call}"
            )
        if math.isnan(self.failures_per_hour) or self.failures_per_hour < 0 \
                or math.isinf(self.failures_per_hour):
            raise InvalidValueError(
                f"failures_per_hour must be a finite number >= 0, got "
                f"{self.failures_per_hour!r}"
            )
        if not self.recovery_s > 0 or math.isinf(self.recovery_s):
            raise InvalidValueError(
                f"recovery_s must be positive and finite, got "
                f"{self.recovery_s!r}"
            )
        if self.max_retries < 0:
            raise InvalidValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.clock_domains not in CLOCK_DOMAIN_MODES:
            raise InvalidValueError(
                f"unknown clock_domains mode {self.clock_domains!r}; "
                f"expected one of {CLOCK_DOMAIN_MODES}"
            )
        if not 0 < self.control_latency_s < math.inf:  # also catches NaN
            raise InvalidValueError(
                f"control_latency_s must be positive and finite, got "
                f"{self.control_latency_s!r}"
            )

    @property
    def migrates(self) -> bool:
        """Migration is on *and* the system can migrate live."""
        return self.migration and get_system(self.system).concurrent


@dataclass
class RequestRecord:
    """Outcome of one trace request."""

    index: int
    function: str
    arrival: float
    #: "ok" | "rejected" | "unsupported" | "failed"; "pending" until
    #: one of those is decided (never in a finished report).
    outcome: str = "pending"
    machine: str = ""
    #: Dispatch time of the winning attempt (gateway clock).
    start: float = float("nan")
    #: Completion time (machine clock at final service end).
    end: float = float("nan")
    #: Full cold start of the winning attempt: fetch + restore + exec.
    cold_start_s: float = float("nan")
    #: The restore component (fetch included) of the winning attempt.
    restore_s: float = float("nan")
    #: Snapshot-pool hit on the winning attempt.
    warm: bool = False
    #: Pooled GPU context on the winning attempt (phos).
    pooled_ctx: bool = False
    retries: int = 0
    migrations: int = 0

    @property
    def latency_s(self) -> float:
        """End-to-end: arrival to completion (queueing included)."""
        return self.end - self.arrival


@dataclass
class FleetReport:
    """Everything one fleet run measured."""

    system: str
    trace: Trace
    config: FleetConfig
    records: list[RequestRecord] = field(default_factory=list)
    #: ``(time, depth)`` samples at every queue change.
    queue_depth: list[tuple[float, int]] = field(default_factory=list)
    completed: int = 0
    rejected: int = 0
    unsupported: int = 0
    failed: int = 0
    #: Machine failure events (not failed requests).
    machine_failures: int = 0
    migrations: int = 0
    retries: int = 0
    pool_hits: int = 0
    pool_misses: int = 0
    pool_evictions: int = 0
    context_hits: int = 0
    context_misses: int = 0
    #: Run horizon: max(trace duration, last completion).
    duration_s: float = 0.0

    # -- derived metrics -----------------------------------------------------
    def cold_start_samples(self) -> list[float]:
        """Cold-start latencies of completed requests (NaN-checked)."""
        return stats.supported_samples(
            (r for r in self.records if r.outcome == "ok"), "cold_start_s")

    def latency_samples(self) -> list[float]:
        return stats.supported_samples(
            (r for r in self.records if r.outcome == "ok"), "latency_s")

    def tail(self) -> dict:
        """P50/P99/P999 cold start, seconds (sorted: order-invariant)."""
        return stats.tail_summary(self.cold_start_samples())

    def goodput_rps(self) -> float:
        """Completed requests per second over the run horizon."""
        return self.completed / self.duration_s if self.duration_s else 0.0

    def pool_hit_rate(self) -> float:
        total = self.pool_hits + self.pool_misses
        return self.pool_hits / total if total else 0.0

    def max_queue_depth(self) -> int:
        return max((d for _, d in self.queue_depth), default=0)

    def mean_queue_depth(self) -> float:
        """Time-weighted mean queue depth over the run horizon."""
        if not self.queue_depth or not self.duration_s:
            return 0.0
        area = 0.0
        for (t0, d), (t1, _) in zip(self.queue_depth, self.queue_depth[1:]):
            area += d * (t1 - t0)
        last_t, last_d = self.queue_depth[-1]
        area += last_d * max(0.0, self.duration_s - last_t)
        return area / self.duration_s

    def summary(self) -> dict:
        """The flat row the fig_fleet experiment reports."""
        tail = self.tail() if self.completed else \
            {"p50": None, "p99": None, "p999": None}
        return {
            "system": self.system,
            "trace": self.trace.config.kind,
            "seed": self.trace.config.seed,
            "requests": len(self.trace),
            "completed": self.completed,
            "rejected": self.rejected,
            "failed": self.failed,
            "unsupported": self.unsupported,
            "machine_failures": self.machine_failures,
            "migrations": self.migrations,
            "p50_ms": None if tail["p50"] is None else tail["p50"] * 1e3,
            "p99_ms": None if tail["p99"] is None else tail["p99"] * 1e3,
            "p999_ms": None if tail["p999"] is None else tail["p999"] * 1e3,
            "goodput_rps": self.goodput_rps(),
            "pool_hit_rate": self.pool_hit_rate(),
            "mean_queue": self.mean_queue_depth(),
            "max_queue": self.max_queue_depth(),
        }


# --------------------------------------------------------------------------
# machine agents
# --------------------------------------------------------------------------

class _MachineAgent:
    """Executes invocations on one machine; owns its snapshot pool."""

    def __init__(self, engine: Engine, name: str, n_gpus: int,
                 cfg: FleetConfig, profiles: dict[str, FunctionProfile],
                 inbox: DomainChannel, outbox: DomainChannel) -> None:
        self.engine = engine
        self.name = name
        self.cfg = cfg
        self.profiles = profiles
        self.outbox = outbox
        #: Only a concurrent system keeps the §6 context pool.
        self.pooled = get_system(cfg.system).concurrent
        slots = cfg.contexts_per_gpu * n_gpus if self.pooled else 0
        self.pool = SnapshotPool(cfg.pool_capacity, name=name,
                                 context_slots=slots)
        #: request index -> (expected completion time, start report) of
        #: the attempt in flight.  The entry *object* is the attempt's
        #: identity: its completion record carries it and only counts
        #: while it is still the one stored here, so a failure or a
        #: migrate-out preempts an attempt by removing the entry.
        self.inflight: dict[int, tuple] = {}
        self.down = False
        self.failure_proc = None
        inbox.subscribe(self.on_msg)

    # -- the control plane ---------------------------------------------------
    def on_msg(self, msg: tuple) -> None:
        kind = msg[0]
        if kind == "serve":
            _, idx, function = msg
            if self.down:
                self.outbox.send(("failed", idx, None))
            else:
                self._start_serve(idx, function)
        elif kind == "resume":
            _, idx, delay_s = msg
            if self.down:
                self.outbox.send(("failed", idx, None))
            else:
                # A migrated-in invocation: downtime + remaining service.
                self._run(idx, delay_s, None)
        elif kind == "migrate-out":
            self._migrate_out(msg[1])
        elif kind == "stop":
            if self.failure_proc is not None \
                    and not self.failure_proc.triggered:
                self.failure_proc.interrupt()

    # -- serving -------------------------------------------------------------
    def _start_serve(self, idx: int, function: str) -> None:
        """Plan one invocation: pool lookups are synchronous, so the
        expected completion time is known at dispatch (migration needs
        it to compute the remaining service on interrupt)."""
        prof = self.profiles[function]
        warm = self.pool.lookup(function)
        fetch_s = 0.0 if warm else prof.fetch_s()
        pooled_ctx = False
        if self.pool.context_slots:
            pooled_ctx = self.pool.take_context()
            if pooled_ctx:
                # The daemon re-creates the handed-out context in the
                # background (§6); the refill pays the creation barrier.
                barrier = max(0.0, prof.nopool_start_s - prof.start_s)
                self.engine.call_at(self.engine.now + barrier,
                                    self._refill_context)
        start_s = prof.start_s if pooled_ctx or not self.pooled \
            else prof.nopool_start_s
        restore_s = fetch_s + start_s
        service_s = restore_s + prof.exec_s
        if not warm:
            # The fetch+restore warmed this function's image.
            self.pool.insert(function)
        # The start report reaches the gateway on whichever message
        # ends the attempt: (machine, warm, pooled_ctx, restore_s,
        # cold_start_s) of RequestRecord.
        self._run(idx, service_s,
                  (self.name, warm, pooled_ctx, restore_s, service_s))

    def _run(self, idx: int, service_s: float, started) -> None:
        t_end = self.engine.now + service_s
        entry = self.inflight[idx] = (t_end, started)
        self.engine.call_at(t_end, self._served, (idx, entry))

    def _served(self, attempt: tuple) -> None:
        idx, entry = attempt
        if self.inflight.get(idx) is not entry:
            return  # preempted; whoever removed the entry reported it
        del self.inflight[idx]
        self.outbox.send(("done", idx, self.engine.now, entry[1]))

    def _refill_context(self, _arg) -> None:
        self.pool.refill_context()

    # -- migration -----------------------------------------------------------
    def _migrate_out(self, idx: int) -> None:
        entry = self.inflight.pop(idx, None)
        if entry is None:
            # Completed or failed while the command was in flight.
            self.outbox.send(("migrate-noop", idx))
            return
        t_end, started = entry
        remaining = max(0.0, t_end - self.engine.now)
        self.outbox.send(("migrated", idx, remaining, started))

    # -- failures ------------------------------------------------------------
    def failure_loop(self, rng: random.Random):
        rate_per_s = self.cfg.failures_per_hour / units.HOUR
        try:
            while True:
                yield self.engine.timeout(rng.expovariate(rate_per_s))
                self.down = True
                victims = list(self.inflight.items())
                self.inflight.clear()
                # DRAM (warm images) and the context pool die with the
                # machine; it rejoins cold.
                self.pool.clear()
                self.outbox.send(("down",))
                for idx, (_t_end, started) in victims:
                    self.outbox.send(("failed", idx, started))
                yield self.engine.timeout(self.cfg.recovery_s)
                self.down = False
                self.outbox.send(("up",))
        except Interrupt:
            return  # "stop": the run is over


# --------------------------------------------------------------------------
# the gateway
# --------------------------------------------------------------------------

class _Gateway:
    """Owns the queue and every placement decision."""

    def __init__(self, engine: Engine, trace: Trace, cfg: FleetConfig,
                 profiles: dict[str, FunctionProfile],
                 agents: list[_MachineAgent],
                 inboxes: list[DomainChannel],
                 outboxes: list[DomainChannel],
                 report: FleetReport) -> None:
        self.engine = engine
        self.trace = trace
        self.cfg = cfg
        self.migrates = cfg.migrates
        self.profiles = profiles
        self.agents = agents
        self.inboxes = inboxes
        self.report = report
        n = len(agents)
        self.free = [cfg.n_gpus] * n
        self.up = [True] * n
        #: Per machine: request index -> GPUs held.
        self.running: list[dict[int, int]] = [dict() for _ in range(n)]
        self.queue: deque[int] = deque()
        self.records = report.records
        self.outstanding = 0
        self.arrivals_done = False
        self.stopping = False
        #: One migration in flight at a time:
        #: (victim index, src machine, dst machine).
        self.pending_migration: Optional[tuple[int, int, int]] = None
        for m, outbox in enumerate(outboxes):
            outbox.subscribe(partial(self.on_msg, m))

    # -- arrivals ------------------------------------------------------------
    def arrive(self, i: int) -> None:
        """Admit every request due now, from ``i`` on; the next arrival
        is one timer record, at the instant a ``Timeout`` would fire."""
        requests = self.trace.requests
        now = self.engine.now
        while i < len(requests):
            delay = requests[i].arrival - now
            if delay > 0:
                self.engine.call_at(now + delay, self.arrive, i)
                return
            self._admit(requests[i])
            i += 1
        self.arrivals_done = True
        self._maybe_stop()

    def _admit(self, req) -> None:
        rec = RequestRecord(index=req.index, function=req.function,
                            arrival=self.engine.now)
        self.records.append(rec)
        prof = self.profiles[req.function]
        if not prof.supported:
            rec.outcome = "unsupported"
            self.report.unsupported += 1
            return
        if len(self.queue) >= self.cfg.queue_cap:
            rec.outcome = "rejected"
            self.report.rejected += 1
            return
        self.outstanding += 1
        self.queue.append(req.index)
        self._note_queue()
        self._dispatch()

    # -- placement -----------------------------------------------------------
    def _best_fit(self, k: int) -> Optional[int]:
        best, best_free = None, None
        for i in range(len(self.agents)):
            if not self.up[i] or self.free[i] < k:
                continue
            if best is None or self.free[i] < best_free:
                best, best_free = i, self.free[i]
        return best

    def _dispatch(self) -> None:
        while self.queue:
            idx = self.queue[0]
            k = self.profiles[self.records[idx].function].n_gpus
            m = self._best_fit(k)
            if m is not None:
                self.queue.popleft()
                self._note_queue()
                self._place(idx, m, k)
                continue
            if self.pending_migration is None and self._plan_migration(k):
                return  # resumes when the "migrated" message lands
            return  # head blocked; wait for a completion / recovery

    def _place(self, idx: int, m: int, k: int) -> None:
        rec = self.records[idx]
        rec.start = self.engine.now
        rec.machine = self.agents[m].name
        self.free[m] -= k
        self.running[m][idx] = k
        self.inboxes[m].send(("serve", idx, rec.function))

    def _plan_migration(self, head_k: int) -> bool:
        """Consolidate free GPUs for a stranded head by migrating the
        smallest strictly-smaller running victim."""
        if not self.migrates:
            return False
        best = None  # (victim gpus, src, dst, victim idx)
        for src in range(len(self.agents)):
            if not self.up[src]:
                continue
            for vidx, v in self.running[src].items():
                if v >= head_k or self.free[src] + v < head_k:
                    continue
                for dst in range(len(self.agents)):
                    if dst == src or not self.up[dst] or self.free[dst] < v:
                        continue
                    cand = (v, src, dst, vidx)
                    if best is None or cand < best:
                        best = cand
        if best is None:
            return False
        v, src, dst, vidx = best
        self.pending_migration = (vidx, src, dst)
        self.inboxes[src].send(("migrate-out", vidx))
        return True

    # -- machine messages ----------------------------------------------------
    def on_msg(self, m: int, msg: tuple) -> None:
        kind = msg[0]
        if kind == "done":
            _, idx, t_done, started = msg
            rec = self._attempt_ended(m, idx, started)
            rec.end = t_done
            rec.outcome = "ok"
            self.report.completed += 1
            self._finish_one()
        elif kind == "failed":
            _, idx, started = msg
            self._attempt_ended(m, idx, started)
            self._retry_or_fail(idx)
        elif kind == "down":
            self.up[m] = False
            self.report.machine_failures += 1
        elif kind == "up":
            self.up[m] = True
            self._dispatch()
        elif kind == "migrated":
            _, idx, remaining, started = msg
            self._finish_migration(m, idx, remaining, started)
        elif kind == "migrate-noop":
            self.pending_migration = None
            self._dispatch()

    def _attempt_ended(self, m: int, idx: int, started) -> RequestRecord:
        """Every attempt ends with exactly one message from its machine
        (``done``, ``failed`` or ``migrated``): apply the start report
        it carries, then give the GPUs back."""
        rec = self.records[idx]
        if started is not None:
            (rec.machine, rec.warm, rec.pooled_ctx, rec.restore_s,
             rec.cold_start_s) = started
        self.free[m] += self.running[m].pop(idx)
        return rec

    def _retry_or_fail(self, idx: int) -> None:
        rec = self.records[idx]
        rec.retries += 1
        self.report.retries += 1
        if rec.retries > self.cfg.max_retries:
            rec.outcome = "failed"
            self.report.failed += 1
            self._finish_one()
            return
        # Failure-driven restore: back to the head of the queue; the
        # next dispatch restores the function from its snapshot again.
        self.queue.appendleft(idx)
        self._note_queue()
        self._dispatch()

    def _finish_migration(self, src: int, idx: int, remaining: float,
                          started) -> None:
        pending, self.pending_migration = self.pending_migration, None
        assert pending is not None and pending[0] == idx
        _, _, dst = pending
        v = self.running[src][idx]
        rec = self._attempt_ended(src, idx, started)
        if not self.up[dst] or self.free[dst] < v:
            # The destination failed (or filled) while the command was
            # in flight; treat the victim like a failure victim.
            self._retry_or_fail(idx)
            return
        rec.migrations += 1
        self.report.migrations += 1
        self.free[dst] -= v
        self.running[dst][idx] = v
        rec.machine = self.agents[dst].name
        prof = self.profiles[rec.function]
        self.inboxes[dst].send(
            ("resume", idx, prof.migration_downtime_s + remaining))
        self._dispatch()

    # -- bookkeeping ---------------------------------------------------------
    def _note_queue(self) -> None:
        self.report.queue_depth.append((self.engine.now, len(self.queue)))

    def _finish_one(self) -> None:
        self.outstanding -= 1
        self._maybe_stop()
        self._dispatch()

    def _maybe_stop(self) -> None:
        if self.stopping or not self.arrivals_done or self.outstanding:
            return
        self.stopping = True
        for inbox in self.inboxes:
            inbox.send(("stop",))


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def run_fleet(trace: Trace, config: FleetConfig,
              profiles: Optional[dict[str, FunctionProfile]] = None,
              ) -> FleetReport:
    """Serve ``trace`` with a fleet configured by ``config``.

    ``profiles`` (default: calibrated via :mod:`repro.fleet.calibrate`)
    maps every catalog function to its service model; tests inject
    synthetic profiles to exercise scheduler policies without paying
    the probe simulations.
    """
    if profiles is None:
        profiles = profiles_for(
            config.system, trace.config.functions,
            n_requests=config.requests_per_call,
            migration=config.migrates)
    missing = [f for f in {r.function for r in trace.requests}
               if f not in profiles]
    if missing:
        raise InvalidValueError(
            f"trace uses functions with no profile: {sorted(missing)}"
        )
    too_big = [f for f, p in profiles.items()
               if p.supported and p.n_gpus > config.n_gpus]
    if too_big:
        raise InvalidValueError(
            f"functions {sorted(too_big)} need more than the "
            f"{config.n_gpus} GPUs any machine has; they could never be "
            "placed"
        )

    # -- build the world -----------------------------------------------------
    core = Engine()
    gw_engine = core if config.clock_domains == "single" \
        else Home(core, "gateway")
    cluster = Cluster.testbed(core, n_machines=config.n_machines,
                              n_gpus=config.n_gpus,
                              clock_domains=config.clock_domains)

    report = FleetReport(system=config.system, trace=trace, config=config)
    agents = []
    inboxes = []
    outboxes = []
    for machine in cluster.machines:
        inbox = DomainChannel(gw_engine, machine.engine,
                              config.control_latency_s,
                              name=f"gw->{machine.name}")
        outbox = DomainChannel(machine.engine, gw_engine,
                               config.control_latency_s,
                               name=f"{machine.name}->gw")
        agents.append(_MachineAgent(machine.engine, machine.name,
                                    config.n_gpus, config, profiles,
                                    inbox, outbox))
        inboxes.append(inbox)
        outboxes.append(outbox)

    gateway = _Gateway(gw_engine, trace, config, profiles, agents,
                       inboxes, outboxes, report)
    if config.failures_per_hour > 0:
        for m, agent in enumerate(agents):
            rng = random.Random(config.failure_seed * 1000003 + m)
            agent.failure_proc = agent.engine.spawn(
                agent.failure_loop(rng), name=f"{agent.name}-failures")
    gw_engine.call_at(gw_engine.now, gateway.arrive, 0)

    core.run()
    unsettled = [r.index for r in report.records if r.outcome == "pending"]
    if unsettled or gateway.outstanding or gateway.queue:
        raise SimulationError(
            f"fleet drained at t={gw_engine.now:g} with requests "
            f"{unsettled[:8]} undecided, {gateway.outstanding} outstanding "
            f"and {len(gateway.queue)} queued"
        )

    # -- fold agent-side state into the report -------------------------------
    for agent in agents:
        report.pool_hits += agent.pool.hits
        report.pool_misses += agent.pool.misses
        report.pool_evictions += agent.pool.evictions
        report.context_hits += agent.pool.context_hits
        report.context_misses += agent.pool.context_misses
    last_end = max((r.end for r in report.records
                    if r.outcome == "ok"), default=0.0)
    report.duration_s = max(trace.duration, last_end)
    return report

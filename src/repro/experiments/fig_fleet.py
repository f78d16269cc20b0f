"""Fleet experiment — tail cold-start latency under serverless traffic.

The Fig. 14 bars say one PHOS cold start is ~10-30x faster than the
baselines'; this experiment asks what that buys a *fleet*: the same
traffic trace is served by each system on the same testbed, and the
report compares P50/P99/P999 cold-start latency, goodput, and queue
depth.  The gap compounds — a system whose restores are slower than the
arrival rate builds queues, so its tail holds queueing delay on top of
the slow restore, while PHOS absorbs the same burst with a warm pool.

One cell per (trace kind, seed, system): each worker generates the
identical seeded trace, calibrates service profiles with the real C/R
protocol probes (deterministic, so every process measures the same
numbers), and runs the fleet scheduler.  Cells fan out over
``repro.parallel``; per-seed rows merge in declared order and the
pooled ``seed="all"`` aggregates sort their samples first, so reports
are bit-identical at any ``--jobs`` count.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import stats
from repro.baselines import SYSTEMS
from repro.experiments.harness import ExperimentResult, run_cells
from repro.fleet.scheduler import FleetConfig, run_fleet
from repro.fleet.traces import DEFAULT_WEIGHTS, TraceConfig, generate
from repro.parallel import Cell

#: Columns of the report table (samples ride along outside the table).
COLUMNS = ["system", "trace", "seed", "requests", "completed", "rejected",
           "failed", "unsupported", "machine_failures", "migrations",
           "p50_ms", "p99_ms", "p999_ms", "goodput_rps", "pool_hit_rate",
           "mean_queue", "max_queue"]

#: Default traffic: the cold-start stressor at three seeds.
DEFAULT_KINDS = ("bursty",)
DEFAULT_SEEDS = (1, 2, 3)


def cells(kinds: Sequence[str] = DEFAULT_KINDS,
          seeds: Sequence[int] = DEFAULT_SEEDS,
          systems: Sequence[str] = SYSTEMS,
          **overrides) -> list[Cell]:
    """One cell per (kind, seed, system); ``overrides`` tune the
    :class:`TraceConfig` / :class:`FleetConfig` fields (picklable)."""
    return [Cell("fleet", (kind, seed, system), dict(overrides))
            for kind in kinds for seed in seeds for system in systems]


def run_cell(cell: Cell) -> list[dict]:
    kind, seed, system = cell.key
    ov = cell.config
    trace_fields = {k: ov[k] for k in
                    ("rate", "duration", "functions", "weights",
                     "burst_factor", "burst_length", "peak_ratio",
                     "day_length") if k in ov}
    if "functions" not in trace_fields:
        trace_fields["weights"] = trace_fields.get("weights",
                                                   DEFAULT_WEIGHTS)
    fleet_fields = {k: ov[k] for k in
                    ("n_machines", "n_gpus", "pool_capacity",
                     "contexts_per_gpu", "queue_cap", "requests_per_call",
                     "failures_per_hour", "failure_seed", "recovery_s",
                     "max_retries", "migration", "clock_domains",
                     "control_latency_s") if k in ov}
    trace = generate(TraceConfig(kind=kind, seed=seed, **trace_fields))
    report = run_fleet(trace, FleetConfig(system=system, **fleet_fields))
    row = report.summary()
    row["samples"] = report.cold_start_samples()
    return [row]


def run(kinds: Sequence[str] = DEFAULT_KINDS,
        seeds: Sequence[int] = DEFAULT_SEEDS,
        systems: Sequence[str] = SYSTEMS,
        jobs: Optional[int] = None, **overrides) -> ExperimentResult:
    """Serve each trace with each system; report per-seed and pooled
    tail latency.  ``overrides`` are forwarded to every cell."""
    result = ExperimentResult(
        exp_id="fleet",
        title="Serverless fleet: tail cold start and goodput by system",
        columns=COLUMNS,
        notes="pooled rows (seed=all) sort samples before the "
              "percentile cut: seed order cannot change them",
    )
    pooled: dict[tuple, dict] = {}
    for rows in run_cells(run_cell, cells(kinds, seeds, systems, **overrides),
                          jobs=jobs, label="fleet"):
        for row in rows:
            samples = row.pop("samples")
            result.add(**row)
            agg = pooled.setdefault((row["system"], row["trace"]), {
                "samples": [], "requests": 0, "completed": 0,
                "rejected": 0, "failed": 0, "unsupported": 0,
                "machine_failures": 0, "migrations": 0, "goodput": 0.0,
                "hits": 0.0, "mean_queue": 0.0, "max_queue": 0, "n": 0,
            })
            agg["samples"].extend(samples)
            for k in ("requests", "completed", "rejected", "failed",
                      "unsupported", "machine_failures", "migrations"):
                agg[k] += row[k]
            agg["max_queue"] = max(agg["max_queue"], row["max_queue"])
            agg["goodput"] += row["goodput_rps"]
            agg["hits"] += row["pool_hit_rate"]
            agg["mean_queue"] += row["mean_queue"]
            agg["n"] += 1
    if len(seeds) > 1:
        for (system, kind), agg in pooled.items():
            tail = (stats.tail_summary(agg["samples"]) if agg["samples"]
                    else {"p50": None, "p99": None, "p999": None})
            n = agg["n"]
            result.add(system=system, trace=kind, seed="all",
                       requests=agg["requests"], completed=agg["completed"],
                       rejected=agg["rejected"], failed=agg["failed"],
                       unsupported=agg["unsupported"],
                       machine_failures=agg["machine_failures"],
                       migrations=agg["migrations"],
                       p50_ms=_ms(tail["p50"]), p99_ms=_ms(tail["p99"]),
                       p999_ms=_ms(tail["p999"]),
                       goodput_rps=agg["goodput"] / n,
                       pool_hit_rate=agg["hits"] / n,
                       mean_queue=agg["mean_queue"] / n,
                       max_queue=agg["max_queue"])
    return result


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds * 1e3

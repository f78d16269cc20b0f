"""The six benchmark workloads.

Each workload is three plain functions over public ``repro`` entry
points — ``setup`` builds inputs (untimed by ``wall_s``; it is what
``setup_s`` measures), ``run`` is the timed region, ``check`` verifies
the outputs — plus a size table with a ``full`` and a ``quick`` entry.
``run`` only *calls* the program; every timing here is taken around
those calls, and every counter is one the program already exports.

What ``check`` returns (a :class:`Checked`):

* ``attempted`` / ``failed`` — the workload's operations (one per
  compared output line, image, suite or fleet request);
* ``artifacts`` — ``{file name: text}`` pinned under ``bench/expected/``
  and compared line by line (``run.py --rebaseline`` rewrites them);
* ``sim`` — the simulated end-to-end metrics (virtual clock; exact);
* ``headline`` — measured values that have a paper number in
  ``bench/paper_refs.json``;
* ``counters`` — per-layer counters read off the returned reports.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import stats
from repro.apps.suites import run_speculation_study
from repro.experiments import (
    fig13_migration,
    fig14_serverless,
    fig15_validator,
    fig16_cow_breakdown,
    fig17_recopy_breakdown,
    fig18_restore_breakdown,
    harness,
)
from repro.fleet import calibrate
from repro.fleet.scheduler import FleetConfig, run_fleet
from repro.fleet.traces import DEFAULT_WEIGHTS, Trace, TraceConfig, generate
from repro.storage.delta import materialize
from repro.storage.serial import load_image, save_image

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "goldens"

#: The seed whose fleet summaries are pinned in ``bench/expected/``.
PINNED_SEED = 1


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)
    sim: dict = field(default_factory=dict)
    headline: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    #: False when the inputs are not the pinned ones (a fleet trace at
    #: another seed): artifacts are then not compared, invariants still are.
    pinned: bool = True

    def op(self, ok: bool, what: str) -> None:
        """Count one operation; remember the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


@contextlib.contextmanager
def timed(phases: dict, name: str):
    """Add the host seconds of the enclosed calls to ``phases[name]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        phases[name] = phases.get(name, 0.0) + time.perf_counter() - t0


def no_setup(size, seed, phases):
    """Figure workloads have no inputs beyond their size table."""
    return None


# --------------------------------------------------------------------------
# figure helpers
# --------------------------------------------------------------------------

def _table_rows(text: str) -> dict[str, list[str]]:
    """Data rows of a formatted experiment table, keyed by first column."""
    rows = {}
    for line in text.splitlines()[3:]:
        if line.startswith("-- "):
            break
        tokens = line.split()
        rows[tokens[0]] = tokens
    return rows


def _check_against_golden(checked: Checked, name: str, result) -> None:
    """Each row the bench ran must equal the tier-1 golden's row.

    Compared token by token, not as whole lines: a workload that runs a
    subset of a figure's cells formats with narrower columns.
    """
    golden = _table_rows((GOLDENS / f"{name}.txt").read_text())
    for key, tokens in _table_rows(result.format()).items():
        checked.op(golden.get(key) == tokens,
                   f"{name} row {key!r}: got {tokens}, golden {golden.get(key)}")


def _cells_result(module, keys) -> "harness.ExperimentResult":
    """Run the named cells of a figure module serially, in figure order."""
    result = harness.ExperimentResult(exp_id=module.__name__.rsplit(".", 1)[-1],
                                      title="", columns=[])
    for cell in module.cells():
        if cell.key[0] in keys:
            for row in module.run_cell(cell):
                result.columns = list(row)
                result.add(**row)
    return result


def _row(result, column: str, value) -> dict:
    for row in result.rows:
        if row[column] == value:
            return row
    return {}


# --------------------------------------------------------------------------
# ckpt_concurrent
# --------------------------------------------------------------------------

def ckpt_run(size, inputs, phases, workdir):
    return {
        "fig16": _cells_result(fig16_cow_breakdown, size["fig16"]),
        "fig17": _cells_result(fig17_recopy_breakdown, size["fig17"]),
    }


def ckpt_check(size, seed, inputs, out, phases) -> Checked:
    c = Checked()
    _check_against_golden(c, "fig16", out["fig16"])
    _check_against_golden(c, "fig17", out["fig17"])
    cow = _row(out["fig16"], "variant", "phos-cow")
    sing = _row(out["fig16"], "variant", "singularity")
    recopy = _row(out["fig17"], "variant", "phos-recopy")
    stall = cow.get("total_stall_s", 0.0)
    c.headline["fig16/phos-cow/total_stall_s"] = cow.get("total_stall_s")
    c.headline["fig16/singularity/total_stall_s"] = sing.get("total_stall_s")
    if recopy:
        downtime = recopy["quiesce_s"] + recopy["recopy_s_per_gpu"]
        stall += downtime
        c.headline["fig17/phos-recopy/downtime_s"] = downtime
    c.sim["sim_stall_s"] = stall
    return c


# --------------------------------------------------------------------------
# restore_migrate
# --------------------------------------------------------------------------

def restore_run(size, inputs, phases, workdir):
    return {
        "fig14": fig14_serverless.run(apps=size["fig14_apps"]),
        "fig18": fig18_restore_breakdown.run(jobs=1),
        "fig13": fig13_migration.run(apps=size["fig13_apps"]),
    }


def restore_check(size, seed, inputs, out, phases) -> Checked:
    c = Checked()
    _check_against_golden(c, "fig18", out["fig18"])
    c.artifacts["fig13.txt"] = out["fig13"].format()
    c.artifacts["fig14.txt"] = out["fig14"].format()
    stall = _row(out["fig18"], "variant", "phos-concurrent")["restore_stall_s"]
    for row in out["fig13"].rows:
        if row["system"] == "phos":
            stall += row["downtime_s"]
            c.headline[f"fig13/{row['app']}/phos/downtime_s"] = row["downtime_s"]
    for row in out["fig14"].rows:
        if row["system"] == "phos" and row["app"] != "mean":
            stall += row["end_to_end_s"]
            c.headline[f"fig14/{row['app']}/phos/end_to_end_s"] = row["end_to_end_s"]
    c.sim["sim_stall_s"] = stall
    return c


# --------------------------------------------------------------------------
# delta_stream
# --------------------------------------------------------------------------

DELTA_APP = "llama2-13b-train"
DELTA_CHUNK = 64


def delta_run(size, inputs, phases, workdir):
    """A continuous stream riding on training, then the chain through disk.

    The process keeps training until the stream's last round commits, so
    the stream's tip is a mid-training state; one more incremental image
    taken on the then-idle process seals the chain (``tip``) and a
    stop-the-world image of the same idle state is its byte reference.
    """
    with timed(phases, "storage.stream_s"):
        world = harness.build_world(DELTA_APP)
        harness.setup_app(world)
        eng = world.engine

        def cfg(**tunables):
            return harness.experiment_config(
                content_chunk_bytes=DELTA_CHUNK, **tunables)

        def driver(eng):
            t0 = eng.now
            yield from world.workload.run(2)
            base_iter = (eng.now - t0) / 2
            handle = world.phos.checkpoint(
                world.process, mode="continuous", name="bench-stream",
                config=cfg(rounds=size["rounds"], interval=base_iter))
            t1 = eng.now
            steps = 0
            while not handle.triggered:
                yield from world.workload.run(1, start=2 + steps)
                steps += 1
            window = eng.now - t1
            _, stream = yield handle
            tip, _ = yield world.phos.checkpoint(
                world.process, mode="incremental", name="bench-tip",
                config=cfg(parent=stream.images[-1]))
            ref, _ = yield world.phos.checkpoint(
                world.process, mode="stop-world", name="bench-ref")
            return stream, tip, ref, window - steps * base_iter

        stream, tip, ref, stall = eng.run_process(driver(eng))
        eng.run()
    chain = list(stream.images) + [tip]
    paths = [Path(workdir) / f"round{i}.phos" for i in range(len(chain))]
    with timed(phases, "storage.save_s"):
        for image, path in zip(chain, paths):
            save_image(image, path)
    with timed(phases, "storage.load_s"):
        loaded = [load_image(path) for path in paths]
    # load_image mints a fresh id; parent_id still names the saved one.
    by_id = {saved.id: back for saved, back in zip(chain, loaded)}
    with timed(phases, "storage.materialize_s"):
        full = {i: materialize(loaded[i], resolve=by_id.get)
                for i in sorted({*size["materialize"], len(chain) - 1})}
    return {"stream": stream, "chain": chain, "loaded": loaded, "full": full,
            "ref": ref, "stall": stall,
            "file_bytes": sum(p.stat().st_size for p in paths)}


def _gpu_bytes(image) -> dict:
    return {(gpu, buf_id): rec.data
            for gpu, table in image.gpu_buffers.items()
            for buf_id, rec in table.items()}


def delta_check(size, seed, inputs, out, phases) -> Checked:
    c = Checked()
    stream, chain = out["stream"], out["chain"]
    c.op(stream.complete and stream.rounds_committed == size["rounds"],
         f"stream incomplete: {stream.rounds_committed} rounds, "
         f"error={stream.error!r} drain_error={stream.drain_error!r}")
    for i, (saved, back) in enumerate(zip(chain, out["loaded"])):
        c.op(back.parent_id == saved.parent_id
             and back.delta_gpu == saved.delta_gpu
             and back.cpu_pages == saved.cpu_pages,
             f"round {i}: loaded image differs from the saved one")
    tip_full = out["full"][len(chain) - 1]
    c.op(_gpu_bytes(tip_full) == _gpu_bytes(out["ref"])
         and tip_full.cpu_pages == out["ref"].cpu_pages,
         "materialized tip differs from the stop-the-world image")
    for i, full in out["full"].items():
        c.op(full.finalized and full.gpu_bytes() == chain[i].gpu_bytes(),
             f"round {i}: materialized image has the wrong logical size")
    root, deltas = stream.images[0], stream.images[1:]
    c.sim["sim_stall_s"] = out["stall"]
    c.sim["sim_stored_ratio"] = (
        stats.mean([d.stored_bytes() for d in deltas]) / root.stored_bytes()
        if deltas else 1.0)
    c.artifacts["delta_stream.txt"] = "\n".join(
        f"{image.name} stored_bytes={image.stored_bytes()} "
        f"chunks_written={image.chunks_written} "
        f"chunks_reused={image.chunks_reused}" for image in chain)
    c.counters["storage.file_bytes"] = out["file_bytes"]
    return c


# --------------------------------------------------------------------------
# spec_validate
# --------------------------------------------------------------------------

def spec_run(size, inputs, phases, workdir):
    return {
        "studies": [run_speculation_study() for _ in range(size["reps"])],
        "fig15": fig15_validator.run(apps=size["fig15_apps"]),
    }


def _study_text(rows) -> str:
    return "\n".join(
        f"{r.suite} kernels={r.kernels} kernels_failed={r.kernels_failed} "
        f"instances={r.instances} instances_failed={r.instances_failed}"
        for r in rows)


def spec_check(size, seed, inputs, out, phases) -> Checked:
    c = Checked()
    first = out["studies"][0]
    for rep, rows in enumerate(out["studies"]):
        for row, want in zip(rows, first):
            c.op(row == want, f"repetition {rep}: suite {row.suite} differs "
                              "from the first repetition")
    c.artifacts["tab03.txt"] = _study_text(first)
    c.artifacts["fig15.txt"] = out["fig15"].format()
    c.headline["tab03/kernels"] = sum(r.kernels for r in first)
    c.headline["tab03/kernels_failed"] = sum(r.kernels_failed for r in first)
    c.sim["sim_validator_overhead_pct"] = stats.mean(
        out["fig15"].column("overhead_pct"))
    return c


# --------------------------------------------------------------------------
# fleet_single / fleet_domains
# --------------------------------------------------------------------------

FLEET_BASELINE = "cuda-checkpoint"


def _fleet_config(system: str, **extra) -> FleetConfig:
    return FleetConfig(system=system, n_machines=4, migration=True,
                       failures_per_hour=2.0, **extra)


FLEET_RATE = 4.0


def _fleet_inputs(size, seed, phases, systems):
    """Calibrated profiles and a bursty trace of exactly ``size["requests"]``.

    The arrival process is generated over a horizon 15 % longer than the
    mean needs and cut at the n-th arrival, so every seed replays the
    same number of requests: host time then varies with the trace's
    shape, not with how many arrivals a seed happened to draw.
    """
    n = size["requests"]
    trace_cfg = TraceConfig(kind="bursty", rate=FLEET_RATE,
                            duration=1.15 * n / FLEET_RATE, seed=seed,
                            weights=DEFAULT_WEIGHTS)
    with timed(phases, "fleet.calibrate_s"):
        profiles = {
            s: calibrate.profiles_for(s, trace_cfg.functions, n_requests=2,
                                      migration=(s == "phos"))
            for s in systems}
    with timed(phases, "fleet.tracegen_s"):
        drawn = generate(trace_cfg).requests
        if len(drawn) < n:
            raise ValueError(f"seed {seed} drew {len(drawn)} arrivals, "
                             f"fewer than the {n} the workload replays")
        trace = Trace(config=replace(trace_cfg, duration=drawn[n - 1].arrival),
                      requests=drawn[:n])
    return {"trace": trace, "profiles": profiles}


def _summary_text(reports: dict) -> str:
    return "\n".join(f"{label} {key}={value!r}"
                     for label, report in reports.items()
                     for key, value in report.summary().items())


def _fleet_check_report(c: Checked, report, count_requests: bool) -> None:
    """Conservation, and (for the system under test) every request."""
    arrivals = len(report.trace)
    done = (report.completed + report.rejected + report.failed
            + report.unsupported)
    c.op(done == arrivals and len(report.records) == arrivals,
         f"{report.system}: {done} outcomes for {arrivals} arrivals")
    if count_requests:
        refused = report.rejected + report.failed + report.unsupported
        c.attempted += arrivals
        c.failed += refused
        if refused:
            c.errors.append(f"{report.system}: {refused} requests refused "
                            "or failed")


def _fleet_metrics(c: Checked, report, replay_s: float) -> None:
    c.sim["sim_p99_s"] = stats.percentile(report.latency_samples(), 99.0)
    c.sim["sim_goodput_rps"] = report.goodput_rps()
    ctx = report.context_hits + report.context_misses
    c.counters.update({
        "fleet.requests_per_s": len(report.trace) / replay_s,
        "fleet.pool_hit_rate": report.pool_hit_rate(),
        "fleet.context_hit_rate": report.context_hits / ctx if ctx else 0.0,
        "fleet.machine_failures": report.machine_failures,
        "fleet.max_queue": report.max_queue_depth(),
    })


def fleet_single_setup(size, seed, phases):
    return _fleet_inputs(size, seed, phases, ("phos", FLEET_BASELINE))


def fleet_single_run(size, inputs, phases, workdir):
    with timed(phases, "fleet.replay_s"):
        return {s: run_fleet(inputs["trace"], _fleet_config(s),
                             profiles=inputs["profiles"][s])
                for s in ("phos", FLEET_BASELINE)}


def fleet_single_check(size, seed, inputs, out, phases) -> Checked:
    c = Checked()
    _fleet_check_report(c, out["phos"], count_requests=True)
    # The baseline is the overloaded path: its admission rejects are the
    # modelled behaviour, pinned below, not failures of the run.
    _fleet_check_report(c, out[FLEET_BASELINE], count_requests=False)
    _fleet_metrics(c, out["phos"], phases["fleet.replay_s"] / 2)
    c.pinned = seed == PINNED_SEED
    c.artifacts["fleet_single.txt"] = _summary_text(out)
    return c


def fleet_domains_setup(size, seed, phases):
    inputs = _fleet_inputs(size, seed, phases, ("phos",))
    with timed(phases, "fleet.reference_s"):
        inputs["reference"] = run_fleet(
            inputs["trace"], _fleet_config("phos"),
            profiles=inputs["profiles"]["phos"])
    return inputs


def fleet_domains_run(size, inputs, phases, workdir):
    with timed(phases, "fleet.replay_s"):
        return {"phos": run_fleet(
            inputs["trace"], _fleet_config("phos", clock_domains="per-machine"),
            profiles=inputs["profiles"]["phos"])}


def fleet_domains_check(size, seed, inputs, out, phases) -> Checked:
    c = Checked()
    report, ref = out["phos"], inputs["reference"]
    _fleet_check_report(c, report, count_requests=True)
    c.op(report.summary() == ref.summary()
         and report.records == ref.records
         and report.queue_depth == ref.queue_depth,
         "per-machine clock domains differ from the single-engine run")
    _fleet_metrics(c, report, phases["fleet.replay_s"])
    c.counters["sim.domains.multi_vs_single"] = (
        phases["fleet.reference_s"] / phases["fleet.replay_s"])
    c.pinned = seed == PINNED_SEED
    c.artifacts["fleet_domains.txt"] = _summary_text(out)
    return c


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    setup: object
    run: object
    check: object


_L13 = ("resnet152-train", "llama2-13b-infer", "llama2-13b-train")
_INFER = ("resnet152-infer", "sd-infer", "llama2-13b-infer")

WORKLOADS = {w.name: w for w in (
    Workload(
        "ckpt_concurrent",
        {"full": {"fig16": ("phos-cow", "phos-cow-no-prioritized-pcie",
                            "singularity"),
                  "fig17": ("phos-recopy", "singularity")},
         "quick": {"fig16": ("phos-cow", "singularity"), "fig17": ()}},
        no_setup, ckpt_run, ckpt_check),
    Workload(
        "restore_migrate",
        {"full": {"fig13_apps": _L13, "fig14_apps": _INFER},
         "quick": {"fig13_apps": _L13[:1], "fig14_apps": _INFER[:1]}},
        no_setup, restore_run, restore_check),
    Workload(
        "delta_stream",
        {"full": {"rounds": 4, "materialize": (0, 2)},
         "quick": {"rounds": 2, "materialize": (0,)}},
        no_setup, delta_run, delta_check),
    Workload(
        "spec_validate",
        {"full": {"reps": 4, "fig15_apps": fig15_validator.APPS},
         "quick": {"reps": 1, "fig15_apps": fig15_validator.APPS[:1]}},
        no_setup, spec_run, spec_check),
    Workload(
        "fleet_single",
        {"full": {"requests": 48000}, "quick": {"requests": 2400}},
        fleet_single_setup, fleet_single_run, fleet_single_check),
    Workload(
        "fleet_domains",
        {"full": {"requests": 24000}, "quick": {"requests": 1200}},
        fleet_domains_setup, fleet_domains_run, fleet_domains_check),
)}


# --------------------------------------------------------------------------
# probes of layers no workload isolates (traced run only)
# --------------------------------------------------------------------------

def noop_cell(cell):
    return cell.key[0]


def probe_parallel(n_cells: int = 18) -> dict:
    """Pool spawn and per-cell dispatch cost of ``repro.parallel``.

    Two shared cores cannot show pool speed-up within a tenth, so the
    dispatch layer gets this probe instead of a workload: ``n_cells``
    no-op cells through a cold pool, then through the warm one.  Each
    call uses its own label so the auto-serial projection (which would
    rightly refuse to pool no-op cells) has no history to go on.
    """
    import multiprocessing

    from repro import parallel

    jobs = os.cpu_count() or 1
    cells = [parallel.Cell("bench-probe", (i,)) for i in range(n_cells)]
    try:
        t0 = time.perf_counter()
        parallel.run_cells(noop_cell, cells, jobs=jobs, label="bench-probe-cold")
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel.run_cells(noop_cell, cells, jobs=jobs, label="bench-probe-warm")
        warm = time.perf_counter() - t0
    finally:
        parallel.shutdown_pool()
        for child in multiprocessing.active_children():
            child.join(30)
    return {"parallel.spawn_s": max(0.0, cold - warm),
            "parallel.dispatch_ms_per_cell": 1e3 * warm / n_cells}


def probe_interpreter() -> dict:
    """Slow-path interpreter speed: every Table 3 kernel, interpreted once."""
    from repro.apps.suites import N_THREADS, build_suites
    from repro.core.tracker import BufferTable
    from repro.gpu.interpreter import run_kernel
    from repro.gpu.memory import DeviceMemory
    from repro.units import GIB

    mem = DeviceMemory(capacity=2 * GIB, default_data_size=512)
    suites, bufs = build_suites(mem, BufferTable(gpu_index=0))
    launches = [(k.program, k.make_args(k.program, bufs))
                for suite in suites for k in suite.kernels]
    steps = 0
    t0 = time.perf_counter()
    for program, args in launches:
        steps += run_kernel(program, args, N_THREADS, mem,
                            force_interpret=True).steps
    return {"gpu.instrs_per_s": steps / (time.perf_counter() - t0)}

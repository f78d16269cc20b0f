"""One pass of one workload, in a fresh process; ``run.py`` spawns these.

Prints one JSON object as the last line of stdout.  Three modes:

* ``plain``    — untraced: the numbers the end-to-end metrics come from;
* ``profile``  — the timed region runs under ``cProfile`` and is folded
  into per-layer ``self_s`` / ``calls`` (``layers.attribute``);
* ``counters`` — a counters-only ``repro.obs`` observer is armed for the
  whole pass and every ``Engine`` built is remembered, so the counters
  the program already exports can be summed afterwards.  Kept apart
  from ``profile`` so the profile sees the disabled obs hooks a normal
  run pays for, not the armed ones.
"""

import time

_T0 = time.perf_counter()  # setup_s starts before ``repro`` is imported

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _compare_artifacts(checked, expected_dir: Path) -> None:
    """Every pinned line is one operation."""
    for name, text in checked.artifacts.items():
        path = expected_dir / name
        want = path.read_text().splitlines() if path.exists() else []
        got = text.splitlines()
        checked.op(len(got) == len(want),
                   f"{name}: {len(got)} lines, expected {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            checked.op(g == w, f"{name}:{i + 1}: got {g!r}, expected {w!r}")


def _paper_error(checked, refs: list) -> dict:
    """``{key: [measured, paper, relative error]}`` for this workload."""
    table = {}
    for ref in refs:
        measured = checked.headline.get(ref["key"])
        if measured is not None:
            table[ref["key"]] = [measured, ref["paper"],
                                 abs(measured - ref["paper"]) / ref["paper"]]
    if table:
        errs = [row[2] for row in table.values()]
        checked.sim["sim_paper_err"] = sum(errs) / len(errs)
    return table


def _obs_counters(observer, engines) -> dict:
    """Counters the program exports, summed over the pass (all labels)."""
    from repro.obs import Counter

    totals: dict = {}
    for inst in observer.metrics:
        if isinstance(inst, Counter):
            totals[inst.name] = totals.get(inst.name, 0) + inst.value
    return {
        "sim.events_executed": sum(e.events_executed for e in engines),
        "sim.events_scheduled": sum(e.events_scheduled for e in engines),
        "core.dma_chunks_coalesced": sum(
            v for name, v in totals.items()
            if name.startswith("dma/") and name.endswith("/chunks-coalesced")),
        "core.cow_shadow_copies": totals.get("cow/shadow-copies", 0),
        "core.restore_demand_fetches": totals.get("restore/demand-fetch", 0),
        "cpu.criu_lazy_faults": totals.get("criu/lazy-faults", 0),
        "storage.chunks_written": totals.get("storage/chunks-written", 0),
        "storage.chunks_reused": totals.get("storage/chunks-reused", 0),
        "storage.hash_hit": totals.get("storage/hash-hit", 0),
        "storage.hash_miss": totals.get("storage/hash-miss", 0),
        "storage.rehash_bytes": totals.get("storage/hash-rehash-bytes", 0),
        "storage.drained_bytes": totals.get("storage/drain-bytes", 0),
    }


class _NoSpans:
    """Stands in for an observer's span tracer: counters only.

    One observer spans every world of the pass, so it has no single
    virtual clock to stamp spans with; the bench reads counters alone.
    """

    def span(self, name, parent=None, **attrs):
        from repro import obs
        return obs.NULL_SPAN

    def record(self, name, start, end=None, parent=None, **attrs):
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--size", choices=("full", "quick"), default="full")
    ap.add_argument("--mode", choices=("plain", "profile", "counters"),
                    default="plain")
    ap.add_argument("--expected-dir", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--rebaseline", action="store_true")
    args = ap.parse_args(argv)

    switches = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if switches:
        print(f"refusing to run with {switches} set", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    size = workload.sizes[args.size]
    expected_dir = args.expected_dir / args.size
    phases: dict = {}
    refs = json.loads((BENCH / "paper_refs.json").read_text())
    inputs = workload.setup(size, args.seed, phases)
    setup_s = time.perf_counter() - _T0

    observer, engines = None, []
    if args.mode == "counters":
        from repro import obs
        from repro.perf import plans
        from repro.sim.engine import Engine

        plans.reset_plan_cache_stats()  # setup's calibration probes are not the workload
        observer = obs.Observer(Engine())
        observer.spans = _NoSpans()
        obs.install(observer)
        plain_init = Engine.__init__

        def remembering_init(self, *a, **kw):
            plain_init(self, *a, **kw)
            engines.append(self)

        Engine.__init__ = remembering_init
    profile = cProfile.Profile() if args.mode == "profile" else None

    load1 = os.getloadavg()[0]
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if profile:
        profile.enable()
    out = workload.run(size, inputs, phases, args.workdir)
    if profile:
        profile.disable()
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked = workload.check(size, args.seed, inputs, out, phases)
    headline = _paper_error(checked, refs.get(args.workload, []))
    if checked.pinned:
        checked.artifacts[f"{args.workload}.sim.txt"] = "\n".join(
            f"{k}={v!r}" for k, v in sorted(checked.sim.items()))
        if args.rebaseline:
            expected_dir.mkdir(parents=True, exist_ok=True)
            for name, text in checked.artifacts.items():
                (expected_dir / name).write_text(text + "\n")
        else:
            _compare_artifacts(checked, expected_dir)

    counters = dict(checked.counters)
    result = {
        "workload": args.workload, "mode": args.mode, "seed": args.seed,
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb, "load1": load1,
        "attempted": checked.attempted, "failed": checked.failed,
        "errors": checked.errors, "sim": checked.sim, "headline": headline,
        "phases": phases, "counters": counters,
    }
    if profile:
        stats = pstats.Stats(profile).stats
        result["layers"] = layers.attribute(stats)
        counters["gpu.launches"] = layers.calls_of(
            stats, "gpu/interpreter.py", "run_kernel")
    if observer is not None:
        counters.update(_obs_counters(observer, engines))
        counters.update({f"perf.plan_{k}": v
                         for k, v in plans.plan_cache_stats().items()})
        counters.update(workloads.probe_interpreter())
        counters.update(workloads.probe_parallel())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repo's benchmark: six workloads, end-to-end and per-layer metrics.

    python3 bench/run.py                      # all workloads, 5 passes each
    python3 bench/run.py --trace              # + the per-layer numbers
    python3 bench/run.py --selfcheck          # two sets of the same code
    python3 bench/run.py --workload fleet_single --seed 7 --seconds 16 --trace 0

Every pass runs in its own fresh, single-threaded process
(``one_pass.py``; ``PYTHONHASHSEED=0``, no ``REPRO_*`` switch set).  Host
timings are the median of the passes with min/max alongside; simulated
(``sim_*``) values come off the virtual clock, repeat exactly, and are
checked against ``bench/expected/``.  With one ``--workload`` the last
line of stdout is a JSON object holding the metrics ``BENCHMARK.json``
lists (end-to-end ones, or per-layer ones with ``--trace 1``).  Exits
non-zero when a check fails.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: Simulated end-to-end metrics (virtual clock).  They repeat exactly, so
#: they are checked against ``expected/`` rather than given a bound; a
#: workload reports the ones its model defines.
SIM_METRICS = {
    "sim_stall_s": "sim_s", "sim_p99_s": "sim_s",
    "sim_goodput_rps": "sim_req/s", "sim_stored_ratio": "ratio",
    "sim_validator_overhead_pct": "%", "sim_paper_err": "ratio",
}
HOST_METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")


class BenchError(Exception):
    """A pass could not run at all (as opposed to running and failing a check)."""


# --------------------------------------------------------------------------
# one pass = one subprocess
# --------------------------------------------------------------------------

def spawn_pass(workload: str, seed: int, size: str, mode: str,
               expected_dir: Path, rebaseline: bool = False) -> dict:
    workdir = BENCH / ".work" / f"{os.getpid()}-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    # TMPDIR keeps anything the program spills inside the checkout.
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(workdir))
    cmd = [sys.executable, str(BENCH / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--mode", mode,
           "--expected-dir", str(expected_dir), "--workdir", str(workdir)]
    if rebaseline:
        cmd.append("--rebaseline")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=170)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} ({mode}) exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def quiet_pass(nproc: int, *args, **kwargs) -> dict:
    """A pass, re-run once when the box was busy as it started.

    Busy means a 1-minute load average above ``nproc - 0.5`` (but not
    below 1.25: the bench's own back-to-back passes hold it near 1).
    """
    result = spawn_pass(*args, **kwargs)
    result["noisy"] = result["load1"] > max(nproc - 0.5, 1.25)
    if result["noisy"]:
        result = spawn_pass(*args, **kwargs)
        result["noisy"] = True
    return result


# --------------------------------------------------------------------------
# one workload = several passes, folded into one report
# --------------------------------------------------------------------------

def measure(workload: str, seed: int, size: str, expected_dir: Path,
            passes: int, seconds: float | None, trace: bool) -> dict:
    """Run the passes of one workload and fold them into a report.

    With ``seconds`` the untraced passes repeat until the budget is used
    (at least three; a traced run spends the budget on its two traced
    passes instead and keeps one untraced pass as their reference);
    otherwise exactly ``passes`` run.
    """
    nproc = os.cpu_count() or 1
    started = time.perf_counter()
    plain = []
    while True:
        plain.append(quiet_pass(nproc, workload, seed, size, "plain",
                                expected_dir))
        elapsed = time.perf_counter() - started
        if seconds is None:
            if len(plain) >= passes:
                break
        elif trace or (len(plain) >= 3
                       and elapsed + elapsed / len(plain) > seconds):
            break
    report = {
        "workload": workload, "seed": seed, "size": size, "n": len(plain),
        "noisy": sum(p["noisy"] for p in plain),
        "load1": max(p["load1"] for p in plain),
        "host": {name: {"median": statistics.median(p[name] for p in plain),
                        "min": min(p[name] for p in plain),
                        "max": max(p[name] for p in plain)}
                 for name in HOST_METRICS},
        "attempted": plain[0]["attempted"],
        "failed": max(p["failed"] for p in plain),
        "errors": [e for p in plain for e in p["errors"]][:20],
        "sim": plain[0]["sim"], "headline": plain[0]["headline"],
    }
    for p in plain[1:]:
        if p["sim"] != report["sim"] or p["attempted"] != report["attempted"]:
            report["errors"].append("simulated results differ between passes")
            report["failed"] = max(report["failed"], 1)
    if trace:
        report["per_layer"] = traced(workload, seed, size, expected_dir,
                                     report, plain)
    report["correct"] = report["failed"] == 0 and not report["errors"]
    return report


def traced(workload, seed, size, expected_dir, report, plain) -> dict:
    """The per-layer metrics: one profiled pass and one counters pass."""
    prof = spawn_pass(workload, seed, size, "profile", expected_dir)
    cnt = spawn_pass(workload, seed, size, "counters", expected_dir)
    for extra in (prof, cnt):
        if extra["sim"] != report["sim"] or extra["failed"]:
            report["errors"].append(f"{extra['mode']} pass: checks failed or "
                                    "simulated results differ from untraced")
            report["errors"].extend(extra["errors"][:5])
    wall = report["host"]["wall_s"]["median"]
    values = {}
    for layer, row in prof["layers"].items():
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.calls"] = row["calls"]
    # Counts come from the traced passes; anything timed (phases, rates)
    # comes from the untraced ones, so tracing cannot slow it.
    values.update(cnt["counters"])
    values.update(prof["counters"])
    for kind in ("phases", "counters"):
        for name in plain[0][kind]:
            values[name] = statistics.median(p[kind][name] for p in plain)
    values["sim.events_per_s"] = values["sim.events_executed"] / wall
    values["trace_overhead"] = prof["wall_s"] / wall
    values.update(report["sim"])
    report["traced_cpu_s"] = prof["cpu_s"]
    return values


# --------------------------------------------------------------------------
# printing
# --------------------------------------------------------------------------

def _num(value) -> str:
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1:
        return f"{int(value)}"
    return f"{value:.6g}"


def print_report(r: dict) -> None:
    print(f"== {r['workload']}  (n={r['n']} passes, seed {r['seed']}, "
          f"size {r['size']}, load1 <= {r['load1']:.2f}, "
          f"{r['noisy']} noisy) ==")
    for name in HOST_METRICS:
        h = r["host"][name]
        bound = END_TO_END[name]["bound"]
        print(f"  {name:<28} {h['median']:>12.4f} {END_TO_END[name]['unit']:<9}"
              f" host  median of n={r['n']}  [min {h['min']:.4f}  "
              f"max {h['max']:.4f}]  bound {bound:.0%}")
    print(f"  {'fail_frac':<28} {r['failed'] / r['attempted']:>12.6g} "
          f"{'ratio':<9} {r['failed']} failed of {r['attempted']} operations"
          "  pinned 0")
    for name, unit in SIM_METRICS.items():
        if name in r["sim"]:
            print(f"  {name:<28} {r['sim'][name]:>12.6g} {unit:<9} simulated,"
                  " exact; checked against bench/expected/")
        else:
            print(f"  {name:<28} {'n/a':>12} {unit:<9} not defined for this "
                  "workload")
    for key, (measured, paper, err) in r["headline"].items():
        print(f"    model vs paper  {key:<44} measured {measured:<10.4g} "
              f"paper {paper:<8g} error {err:.1%}")
    if not r["headline"]:
        print("    model vs paper  no paper number for this workload "
              "(the model is unvalidated here)")
    if "per_layer" in r:
        print_layers(r)
    for err in r["errors"]:
        print(f"  CHECK FAILED: {err}")
    print(f"  {'correct' if r['correct'] else 'INCORRECT'}")


def print_layers(r: dict) -> None:
    values = r["per_layer"]
    layer_s = {k[:-len(".self_s")]: v for k, v in values.items()
               if k.endswith(".self_s")}
    total = sum(layer_s.values())
    print(f"  -- traced pass: sum of <layer>.self_s {total:.3f} s = "
          f"{total / r['traced_cpu_s']:.1%} of its cpu_s "
          f"{r['traced_cpu_s']:.3f} s; trace_overhead "
          f"{values['trace_overhead']:.2f}x --")
    for layer, s in sorted(layer_s.items(), key=lambda kv: -kv[1]):
        print(f"  {layer + '.self_s':<28} {s:>12.4f} s         "
              f"{s / total:6.1%}   {layer + '.calls':<26} "
              f"{int(values[layer + '.calls'])}")
    for name, meta in PER_LAYER.items():
        if not name.endswith((".self_s", ".calls")) and name not in SIM_METRICS:
            print(f"  {name:<28} {_num(values.get(name, 0.0)):>12} "
                  f"{meta['unit']}")


def result_line(r: dict, trace: bool) -> str:
    """The driver's JSON object: exactly the metrics BENCHMARK.json names."""
    if trace:
        metrics = {name: {"value": r["per_layer"].get(name, 0.0),
                          "unit": meta["unit"]}
                   for name, meta in PER_LAYER.items()}
    else:
        metrics = {name: {"value": r["host"][name]["median"],
                          "unit": meta["unit"]}
                   for name, meta in END_TO_END.items()}
    return json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                       "failed": r["failed"], "metrics": metrics})


def host_line() -> str:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return (f"host {platform.node()}  nproc {os.cpu_count()}  python "
            f"{platform.python_version()}  commit {commit}  load1 "
            f"{os.getloadavg()[0]:.2f}")


# --------------------------------------------------------------------------
# --selfcheck
# --------------------------------------------------------------------------

def selfcheck(a: list[dict], b: list[dict]) -> bool:
    """Two sets of runs of the same code must agree within the bounds."""
    ok = True
    print(f"{'workload':<16} {'metric':<28} {'set A':>14} {'set B':>14} "
          f"{'diff':>9} {'bound':>7}")
    for ra, rb in zip(a, b):
        rows = [(name, ra["host"][name]["median"], rb["host"][name]["median"],
                 END_TO_END[name]["bound"]) for name in HOST_METRICS]
        rows.append(("fail_frac", ra["failed"] / ra["attempted"],
                     rb["failed"] / rb["attempted"], 0.0))
        rows += [(name, ra["sim"][name], rb["sim"].get(name, float("nan")), 0.0)
                 for name in ra["sim"]]
        rows += [(name, v, rb["per_layer"].get(name, float("nan")), 0.0)
                 for name, v in ra["per_layer"].items()
                 if name.endswith(".calls")]
        for name, va, vb, bound in rows:
            if bound:
                diff = abs(vb - va) / va
                fine = diff <= bound
            else:
                diff = 0.0 if va == vb else float("inf")
                fine = va == vb
            ok &= fine
            print(f"{ra['workload']:<16} {name:<28} {va:>14.6g} {vb:>14.6g} "
                  f"{diff:>9.2%} {('exact' if not bound else f'{bound:.0%}'):>7}"
                  f"{'' if fine else '   DISAGREE'}")
    return ok


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="run only this workload (repeatable); with exactly "
                         "one, the last stdout line is the JSON result")
    ap.add_argument("--seed", type=int, default=1,
                    help="fleet trace seed; pinned fleet summaries apply at 1")
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=None,
                    help="repeat untraced passes for this long instead of "
                         "--passes times (at least three)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    choices=(0, 1), help="add the profiled and counters passes")
    ap.add_argument("--quick", action="store_true",
                    help="reduced sizes (bench/test_bench.py)")
    ap.add_argument("--selfcheck", action="store_true",
                    help="two back-to-back traced sets; they must agree")
    ap.add_argument("--rebaseline", action="store_true",
                    help="rewrite bench/expected/ (full and quick) from this "
                         "tree: for PRs that change the model, never for "
                         "ones that claim a host-time gain")
    ap.add_argument("--expected-dir", type=Path, default=BENCH / "expected")
    args = ap.parse_args(argv)

    switches = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if switches:
        print(f"refusing to run with {switches} set: the bench measures the "
              "default configuration", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    names = args.workload or WORKLOADS
    size = "quick" if args.quick else "full"
    print(host_line())

    if args.rebaseline:
        for each_size in ("full", "quick"):
            for name in names:
                spawn_pass(name, 1, each_size, "plain", args.expected_dir,
                           rebaseline=True)
                print(f"rewrote {args.expected_dir / each_size} for {name}")
        return 0

    def one_set(trace: bool) -> list[dict]:
        reports = []
        for name in names:
            reports.append(measure(name, args.seed, size, args.expected_dir,
                                   args.passes, args.seconds, trace))
            print_report(reports[-1])
        return reports

    if args.selfcheck:
        ok = selfcheck(one_set(True), one_set(True))
        print("selfcheck", "passed" if ok else "FAILED")
        return 0 if ok else 1
    reports = one_set(bool(args.trace))
    if len(names) == 1:
        print(result_line(reports[0], bool(args.trace)))
    return 0 if all(r["correct"] for r in reports) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        sys.exit(1)

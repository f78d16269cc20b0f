"""Tests of the benchmark itself (not part of tier-1's ``testpaths``).

    PYTHONPATH=src python -m pytest bench -q

They drive ``run.py`` the way a user or the driver does, at ``--quick``
sizes, and check the contract ``BENCHMARK.json`` states.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(*args, env=None):
    clean = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    clean.update(env or {})
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, env=clean,
                          cwd=ROOT, timeout=600)


@pytest.fixture(scope="module")
def quick_traced():
    proc = run_bench("--quick", "--passes", "1", "--trace")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout


def test_every_module_maps_to_exactly_one_layer():
    for rel in layers.repro_files(ROOT / "src"):
        matches = layers.layer_of_relpath(rel)
        assert len(matches) == 1, f"{rel} matches {matches}: add a rule"
        assert matches[0] in layers.LAYERS


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert 2 <= len(SPEC["workloads"]) <= 8 and len(SPEC["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    layer_names = {f"{layer}.{kind}" for layer in layers.LAYERS
                   for kind in ("self_s", "calls")}
    assert layer_names <= {m["name"] for m in SPEC["per_layer"]}


def test_quick_run_prints_every_metric_by_name(quick_traced):
    for w in SPEC["workloads"]:
        assert f"== {w['name']} " in quick_traced
    printed = set(re.findall(r"[A-Za-z0-9][A-Za-z0-9_.-]*", quick_traced))
    for key in ("end_to_end", "per_layer"):
        for m in SPEC[key]:
            assert m["name"] in printed, m["name"]
    for name in ("fail_frac", "sim_stall_s", "sim_p99_s", "sim_goodput_rps",
                 "sim_stored_ratio", "sim_validator_overhead_pct",
                 "sim_paper_err"):
        assert name in printed
    assert "CHECK FAILED" not in quick_traced


def test_fail_frac_is_pinned_at_zero(quick_traced):
    rows = re.findall(r"fail_frac\s+(\S+) ratio\s+(\d+) failed of (\d+)",
                      quick_traced)
    assert len(rows) == len(SPEC["workloads"])
    assert all(frac == "0" and failed == "0" and int(attempted) > 0
               for frac, failed, attempted in rows)


def test_layer_self_time_accounts_for_the_traced_pass(quick_traced):
    shares = [float(x) for x in re.findall(
        r"sum of <layer>.self_s \S+ s = (\S+)% of its cpu_s", quick_traced)]
    assert len(shares) == len(SPEC["workloads"])
    assert all(95.0 <= s <= 105.0 for s in shares), shares


def test_result_line_holds_exactly_the_declared_metrics():
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run_bench("--quick", "--workload", "spec_validate", "--seed",
                         "3", "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr[-3000:]
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC[key]}


def test_fleet_checks_hold_on_an_unpinned_seed():
    proc = run_bench("--quick", "--passes", "1", "--seed", "5",
                     "--workload", "fleet_domains")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_corrupted_expectation_fails_the_run(tmp_path):
    expected = tmp_path / "expected"
    shutil.copytree(BENCH / "expected", expected)
    pinned = expected / "quick" / "restore_migrate.sim.txt"
    pinned.write_text(pinned.read_text().replace("sim_stall_s=", "sim_stall_s=1"))
    proc = run_bench("--quick", "--passes", "1", "--workload",
                     "restore_migrate", "--expected-dir", str(expected))
    assert proc.returncode == 1
    assert "CHECK FAILED" in proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_with_a_repro_switch_set():
    proc = run_bench("--quick", "--passes", "1", "--workload", "spec_validate",
                     env={"REPRO_NO_FASTPATH": "1"})
    assert proc.returncode == 2
    assert "REPRO_NO_FASTPATH" in proc.stderr

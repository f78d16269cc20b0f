"""Fig. 20 — read/write sets traced over a training iteration.

The frontend's access log captures every speculated read/write set with
its timestamp.  Binned over an iteration and grouped by buffer group,
the result is the paper's heatmap: activations are written in the
forward/backward phases, gradients in the backward phase, and
weights + optimizer state only during the update — the skew that makes
checkpoint timing matter (§8.3, §8.4).
"""

from __future__ import annotations

from collections import defaultdict

from repro.experiments.harness import ExperimentResult, setup_app
from repro.tasks.worker import new_world

APP = "llama2-13b-train"
BINS = 10


def _group_of(buf) -> str:
    # Tags look like "g0:weights:17".
    parts = (buf.tag or "").split(":")
    return parts[1] if len(parts) == 3 else "other"


def run() -> ExperimentResult:
    world = new_world(APP)
    eng = world.engine
    frontend = world.phos.frontend_of(world.process)
    setup_app(world, warm=2)
    frontend.log_accesses = True
    t0 = eng.now

    def driver(eng):
        yield from world.workload.run(1)
        return eng.now - t0

    duration = eng.run_process(driver(eng))
    frontend.log_accesses = False
    writes = defaultdict(lambda: [0] * BINS)
    reads = defaultdict(lambda: [0] * BINS)
    for ts, call, sets in frontend.access_log:
        if not t0 <= ts <= t0 + duration:
            continue
        b = min(BINS - 1, int((ts - t0) / duration * BINS))
        for buf in sets.writes:
            writes[_group_of(buf)][b] += 1
        for buf in sets.reads:
            reads[_group_of(buf)][b] += 1
    result = ExperimentResult(
        exp_id="fig20",
        title="Traced read/write sets across one training iteration "
              "(counts per time bin)",
        columns=["kind", "group"] + [f"t{i}" for i in range(BINS)],
        notes="expected skew: act/grads written early-mid; weights+opt "
              "written only in the final (update) bins",
    )
    for group in sorted(writes):
        result.add(kind="write", group=group,
                   **{f"t{i}": writes[group][i] for i in range(BINS)})
    for group in sorted(reads):
        result.add(kind="read", group=group,
                   **{f"t{i}": reads[group][i] for i in range(BINS)})
    return result

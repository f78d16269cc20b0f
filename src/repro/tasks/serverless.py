"""Serverless GPU function cold start (§7, Fig. 14).

A checkpoint is taken just before the function's entry point; each cold
start restores from it and serves the request.  The metric is
end-to-end execution time: startup (restore) plus function execution,
per §8.1's "considering both startup and application function execution
time".  Function checkpoints live in host DRAM.

PHOS wins twice: the context pool removes the creation barrier, and
concurrent restore overlaps the remaining data copy with the first
tokens' execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.apps.specs import get_spec
from repro.baselines import get_system
from repro.cluster import Machine
from repro.core.protocols import ProtocolConfig
from repro.errors import InvalidValueError
from repro.sim import Engine
from repro.tasks.fault_tolerance import EXPERIMENT_CHUNK
from repro.tasks.worker import Worker


@dataclass
class ColdStartResult:
    system: str
    app: str
    #: End-to-end time: restore + function execution (Fig. 14's bar).
    end_to_end: float
    #: The function-execution-only component.
    exec_time: float
    supported: bool = True
    #: Time until the restored process could run (the restore barrier).
    restore_s: float = 0.0
    #: Committed checkpoint-image size (the fleet's miss-fetch cost).
    image_bytes: int = 0


def cold_start(system: str, spec_name: str, n_requests: int = 8,
               chunk_bytes: int = EXPERIMENT_CHUNK,
               use_pool: bool = True) -> ColdStartResult:
    """One serverless cold start: restore, then serve ``n_requests``.

    ``use_pool=False`` switches the worker daemon's context pool off
    (only a concurrent system has one); the fleet calibrator measures
    the pool-miss path with it.

    An *unsupported* combination (cuda-checkpoint with a multi-GPU
    function) returns ``supported=False`` with NaN timings — callers
    aggregating over mixed results must exclude those rows (see
    :mod:`repro.stats`), never average over them.
    """
    spec = get_spec(spec_name)
    if spec.kind != "infer":
        raise InvalidValueError(
            "serverless cold start evaluates inference workloads only"
        )
    if n_requests < 1:
        raise InvalidValueError(
            f"cold start must serve at least one request, got "
            f"n_requests={n_requests}"
        )
    if chunk_bytes < 1:
        raise InvalidValueError(
            f"chunk_bytes must be positive, got {chunk_bytes}"
        )
    if not get_system(system).supports(spec.n_gpus):
        return ColdStartResult(system=system, app=spec_name,
                               end_to_end=float("nan"), exec_time=float("nan"),
                               supported=False)
    eng = Engine()
    source = Worker(eng, Machine(eng, n_gpus=spec.n_gpus)).launch(spec)
    workload = source.workload
    # The restore target machine models a worker with a running daemon
    # (pool pre-filled at boot, before any request arrives).
    target = Worker(eng, Machine(eng, name="worker", n_gpus=spec.n_gpus),
                    system, use_pool=use_pool)

    def driver(eng):
        # Initialize the function up to its entry point, checkpoint it.
        yield from workload.setup()
        yield from workload.run(1)  # warm the runtime (JIT caches etc.)
        image, _ = yield source.checkpoint(
            "cow", ProtocolConfig(chunk_bytes=chunk_bytes))
        # A request arrives: cold-start from the checkpoint.
        t0 = eng.now
        yield from target.restore(image, workload)
        t_exec = eng.now
        yield from workload.run(n_requests)
        t_end = eng.now
        obs.record("task/cold-start", t0, end=t_end,
                   system=system, app=spec_name)
        obs.record("task/cold-start-exec", t_exec, end=t_end,
                   system=system, app=spec_name)
        return t_end - t0, t_end - t_exec, t_exec - t0, image.total_bytes()

    end_to_end, exec_time, restore_s, image_bytes = eng.run_process(driver(eng))
    eng.run()
    return ColdStartResult(system=system, app=spec_name,
                           end_to_end=end_to_end, exec_time=exec_time,
                           restore_s=restore_s, image_bytes=image_bytes)

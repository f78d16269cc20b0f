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

from repro.apps.specs import get_spec
from repro.errors import InvalidValueError
from repro.tasks.worker import RestoreStall, new_world, restore_stall


def cold_start(system: str, spec_name: str, n_requests: int = 8,
               use_pool: bool = True) -> RestoreStall:
    """One serverless cold start: restore, then serve ``n_requests``.

    ``end_to_end`` is Fig. 14's bar and ``exec_time`` the function
    execution alone.  ``use_pool=False`` switches the worker daemon's
    context pool off (only a concurrent system has one); the fleet
    calibrator measures the pool-miss path with it.

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
    return restore_stall(new_world(spec_name), system, n_requests,
                         use_pool=use_pool)

"""Optimal checkpoint frequency for fault tolerance (§A.1).

The model, exactly as published: ``N`` GPUs, each failing ``F`` times
per hour (i.i.d., uniform over the interval ``T``), checkpoint overhead
``O`` (hours), restore time ``R`` (hours), checkpoint frequency ``f``
per hour.

Wasted GPU-hours::

    waste(f) = N F T (R + N / (2 f)) + N O f T

Differentiating and solving gives the frequency PHOS uses::

    f* = sqrt(N F / (2 O))

Note: the published formula carries an ``N/(2f)`` recomputation term
(rather than ``1/(2f)``); we implement it verbatim, and the derivative
of the verbatim expression is indeed the published ``f*``.
"""

from __future__ import annotations

import math

from repro.errors import InvalidValueError


def wasted_gpu_hours(n_gpus: int, failures_per_hour: float, total_hours: float,
                     checkpoint_overhead_hours: float, restore_hours: float,
                     frequency_per_hour: float) -> float:
    """Total wasted GPU-hours at a given checkpoint frequency."""
    _validate(n_gpus, failures_per_hour, checkpoint_overhead_hours, restore_hours)
    if frequency_per_hour <= 0:
        raise InvalidValueError("checkpoint frequency must be positive")
    n, f_rate, t = n_gpus, failures_per_hour, total_hours
    o, r, f = checkpoint_overhead_hours, restore_hours, frequency_per_hour
    failure_waste = n * f_rate * t * (r + n / (2 * f))
    checkpoint_waste = n * o * f * t
    return failure_waste + checkpoint_waste


def optimal_frequency(n_gpus: int, failures_per_hour: float,
                      checkpoint_overhead_hours: float) -> float:
    """The frequency minimizing :func:`wasted_gpu_hours`:
    ``f* = sqrt(N F / (2 O))`` checkpoints per hour."""
    _validate(n_gpus, failures_per_hour, checkpoint_overhead_hours, 0.0)
    if checkpoint_overhead_hours == 0:
        raise InvalidValueError("checkpoint overhead must be positive")
    return math.sqrt(n_gpus * failures_per_hour / (2 * checkpoint_overhead_hours))


def _validate(n_gpus: int, failures: float, overhead: float, restore: float) -> None:
    if n_gpus < 1:
        raise InvalidValueError(f"n_gpus must be >= 1, got {n_gpus}")
    if failures < 0 or overhead < 0 or restore < 0:
        raise InvalidValueError("rates and times must be non-negative")

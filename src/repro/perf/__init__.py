"""The wall-clock fast path: compiled kernel execution plans.

This package trades interpreted per-thread kernel execution for cached,
vectorized *execution plans* (:mod:`repro.perf.plans`) while preserving
the repository's core guarantee that checkpoints are validated against
real bytes: every plan is provably equivalent to the interpreter on the
launch it serves, and anything unprovable falls back to the interpreter.

A launch opts out with ``run_kernel(force_interpret=True)`` (the
differential tests use this to obtain ground truth).
"""

from repro.perf.plans import plan_cache_stats, reset_plan_cache_stats, try_fast_run

__all__ = ["plan_cache_stats", "reset_plan_cache_stats", "try_fast_run"]

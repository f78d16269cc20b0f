"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's evaluation tables or
figures, prints the rows, and asserts the paper's qualitative shape
(who wins, by roughly what factor).  The experiments run on a virtual
clock, so ``benchmark`` here measures the harness's wall time (useful
for tracking simulator performance), while the printed tables carry
the reproduced results.

Run with::

    pytest benchmarks/ -s

(``--benchmark-only`` would skip ``test_perf_gates.py``, whose ratio
gates do not take the ``benchmark`` fixture.)
"""

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def experiment(benchmark):
    def runner(fn, *args, **kwargs):
        result = run_once(benchmark, fn, *args, **kwargs)
        print()
        print(result.format())
        return result

    return runner

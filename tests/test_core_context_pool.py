"""Unit tests for the GPU context pool (§6)."""

import pytest

from repro.cluster import Machine
from repro.core.context_pool import ContextPool
from repro.errors import ContextPoolError
from repro.gpu.context import ContextRequirements
from repro.gpu.cost_model import DEFAULT_CONTEXT_COSTS
from repro.sim import Engine


@pytest.fixture
def eng():
    return Engine()


@pytest.fixture
def machine(eng):
    return Machine(eng, n_gpus=2)


def boot_pool(eng, machine, **kwargs):
    pool = ContextPool(eng, machine, **kwargs)
    eng.run_process(pool.prefill())
    return pool


def test_prefill_creates_contexts_per_gpu(eng, machine):
    pool = boot_pool(eng, machine, contexts_per_gpu=2)
    assert pool.prefilled
    assert pool.available(0) == 2
    assert pool.available(1) == 2


def test_prefill_takes_boot_time(eng, machine):
    boot_pool(eng, machine, contexts_per_gpu=1)
    assert eng.now > 1.0  # context creation is seconds-scale


def test_acquire_hit_is_fast(eng, machine):
    pool = boot_pool(eng, machine, refill=False)
    reqs = ContextRequirements(n_modules=10, use_cublas=True, nccl_gpus=2)

    def driver(eng):
        t0 = eng.now
        ctx = yield from pool.acquire(0, reqs)
        return ctx, eng.now - t0

    ctx, elapsed = eng.run_process(driver(eng))
    assert ctx.pooled
    assert elapsed == pytest.approx(DEFAULT_CONTEXT_COSTS.pool_assignment)
    assert pool.hits == 1 and pool.misses == 0


def test_acquire_miss_pays_full_creation(eng, machine):
    pool = ContextPool(eng, machine, refill=False)  # never prefilled
    reqs = ContextRequirements(n_modules=5)

    def driver(eng):
        t0 = eng.now
        ctx = yield from pool.acquire(0, reqs)
        return ctx, eng.now - t0

    ctx, elapsed = eng.run_process(driver(eng))
    assert not ctx.pooled
    assert elapsed > 1.0
    assert pool.misses == 1


def test_incompatible_requirements_miss(eng, machine):
    pool = boot_pool(eng, machine, refill=False)
    # Pool contexts cover the machine's 2 GPUs; asking for a wider NCCL
    # scope cannot be served from the pool.
    reqs = ContextRequirements(n_modules=0, nccl_gpus=16)

    def driver(eng):
        ctx = yield from pool.acquire(0, reqs)
        return ctx

    ctx = eng.run_process(driver(eng))
    assert not ctx.pooled
    assert pool.misses == 1


def test_pool_refills_in_background(eng, machine):
    pool = boot_pool(eng, machine, contexts_per_gpu=1, refill=True)
    reqs = ContextRequirements(n_modules=0, nccl_gpus=2)

    def driver(eng):
        yield from pool.acquire(0, reqs)

    eng.run_process(driver(eng))
    assert pool.available(0) == 0
    eng.run()  # let the background refill complete
    assert pool.available(0) == 1


def test_exhausted_pool_misses_then_recovers(eng, machine):
    pool = boot_pool(eng, machine, contexts_per_gpu=1, refill=False)
    reqs = ContextRequirements(n_modules=0, nccl_gpus=2)

    def driver(eng):
        first = yield from pool.acquire(0, reqs)
        second = yield from pool.acquire(0, reqs)
        return first, second

    first, second = eng.run_process(driver(eng))
    assert first.pooled and not second.pooled


def test_unknown_gpu_rejected(eng, machine):
    pool = boot_pool(eng, machine)

    def driver(eng):
        yield from pool.acquire(7, ContextRequirements(n_modules=0))

    with pytest.raises(ContextPoolError):
        eng.run_process(driver(eng))

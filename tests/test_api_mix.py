"""§4.1/§8.2: the API-category mix of real workloads.

The paper's speculation design leans on an empirical fact: "over 50% of
invocations" are category 1-3 APIs whose read/write sets come from
specifications, leaving speculation + validation for the opaque
minority.  These tests verify our workload models reproduce that mix.
"""

import pytest

from repro.api.calls import ApiCategory, LaunchPlan
from repro.experiments.harness import run_steps, setup_app
from repro.tasks.worker import new_world


class CountingInterceptor:
    def __init__(self):
        self.counts = {}

    def plan(self, call):
        self.counts[call.category] = self.counts.get(call.category, 0) + 1
        return LaunchPlan()

    def on_malloc(self, gpu_index, buf):
        pass

    def on_free(self, gpu_index, buf):
        return False


def category_mix(app):
    world = new_world(app)
    setup_app(world, warm=1)
    counter = CountingInterceptor()
    world.process.runtime.interceptor = counter
    run_steps(world, 2)
    return counter.counts


@pytest.mark.parametrize("app", ["resnet152-train", "llama2-13b-infer"])
def test_declared_semantics_majority(app):
    counts = category_mix(app)
    declared = sum(n for cat, n in counts.items()
                   if cat.has_declared_semantics)
    opaque = counts.get(ApiCategory.OPAQUE_KERNEL, 0)
    total = declared + opaque
    assert declared / total > 0.5  # the paper's ">50%" observation
    assert opaque > 0              # but opaque kernels do occur


def test_training_mix_has_all_kernel_categories():
    world = new_world("llama2-13b-train")
    setup_app(world, warm=1)
    counter = CountingInterceptor()
    world.process.runtime.interceptor = counter
    run_steps(world, 1)
    assert counter.counts[ApiCategory.MEMCPY_H2D] > 0   # type 1
    assert counter.counts[ApiCategory.COMM] > 0         # type 2
    assert counter.counts[ApiCategory.LIB_COMPUTE] > 0  # type 3
    assert counter.counts[ApiCategory.OPAQUE_KERNEL] > 0  # type 4


def test_category_taxonomy_flags():
    assert ApiCategory.MEMCPY_H2D.has_declared_semantics
    assert ApiCategory.COMM.has_declared_semantics
    assert ApiCategory.LIB_COMPUTE.has_declared_semantics
    assert not ApiCategory.OPAQUE_KERNEL.has_declared_semantics
    assert not ApiCategory.MALLOC.has_declared_semantics

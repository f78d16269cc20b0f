"""The GPU execution context pool (§6).

A long-running PHOS daemon pre-creates CUDA and cuBLAS contexts at boot
(``cuCtxCreate`` + ``cublasCreate``), each carrying the NCCL scope of
all NVLink-connected GPUs.  A restoring process is handed a pooled
context over IPC in ~10 ms instead of paying the multi-second creation
barrier; the context's ``nccl_scope`` is what its collectives reuse.

The pool refills itself in the background after each hand-out, so
back-to-back restores (serverless bursts) keep hitting.
"""

from __future__ import annotations

from collections import deque

from repro import obs
from repro.errors import (
    ContextCreationError,
    ContextPoolError,
    InvalidValueError,
)
from repro.gpu.context import ContextRequirements, GpuContext, create_context
from repro.gpu.cost_model import DEFAULT_CONTEXT_COSTS
from repro.sim.engine import Engine

#: How many extra attempts a failed background refill gets before the
#: pool gives up on that slot (surfaced via ``refill_failures`` and the
#: ``context-pool/refill-failed`` counter, never silently).
REFILL_RETRIES = 2


class ContextPool:
    """Pre-created contexts, one queue per GPU."""

    def __init__(self, engine: Engine, machine, contexts_per_gpu: int = 2,
                 refill: bool = True) -> None:
        if contexts_per_gpu < 1:
            raise InvalidValueError(
                f"contexts_per_gpu must be >= 1, got {contexts_per_gpu}; "
                "a pool with zero slots is every restore paying the "
                "creation barrier — disable the pool instead "
                "(use_context_pool=False)"
            )
        self.engine = engine
        self.machine = machine
        self.contexts_per_gpu = contexts_per_gpu
        self.refill = refill
        self._pools: dict[int, deque[GpuContext]] = {
            gpu.index: deque() for gpu in machine.gpus
        }
        self.hits = 0
        self.misses = 0
        self.prefilled = False
        #: Refill attempts that exhausted their retries: each one is a
        #: pool slot lost until the next successful hand-out cycle, so
        #: it must be visible — a silently shrinking pool turns every
        #: later restore into a full-creation miss.
        self.refill_failures = 0

    # -- boot-time fill -----------------------------------------------------------
    def prefill(self):
        """Generator: create the pool at daemon boot (charged to boot).

        Pool contexts carry cuBLAS handles and the NVLink-wide NCCL
        group scope; user kernel modules are JIT-loaded lazily on first
        launch, as with any context.
        """
        n_gpus = len(self.machine.gpus)
        reqs = ContextRequirements(
            n_modules=0, use_cublas=True,
            nccl_gpus=n_gpus if n_gpus > 1 else 0,
        )
        for gpu in self.machine.gpus:
            for _ in range(self.contexts_per_gpu):
                try:
                    ctx = yield from create_context(self.engine, gpu.index, reqs)
                except ContextCreationError:
                    # Boot keeps going with a smaller pool; the gap is
                    # surfaced, and later hand-outs degrade to misses
                    # instead of the daemon failing to start.
                    self.refill_failures += 1
                    obs.counter("context-pool/refill-failed",
                                gpu=gpu.index, site="prefill").inc()
                    continue
                ctx.pooled = True
                self._pools[gpu.index].append(ctx)
        self.prefilled = True

    # -- hand-out -----------------------------------------------------------------
    def acquire(self, gpu_index: int, requirements: ContextRequirements):
        """Generator: hand out a context.

        A hit costs the IPC assignment latency; a miss (exhausted or
        incompatible pool) pays full creation.
        """
        if gpu_index not in self._pools:
            raise ContextPoolError(f"no pool for GPU {gpu_index}")
        pool = self._pools[gpu_index]
        candidate = None
        for ctx in pool:
            if requirements.satisfied_by(ctx):
                candidate = ctx
                break
        if candidate is not None:
            pool.remove(candidate)
            self.hits += 1
            obs.counter("context-pool/hits", gpu=gpu_index).inc()
            t0 = self.engine.now
            yield self.engine.timeout(DEFAULT_CONTEXT_COSTS.pool_assignment)
            obs.record("context-pool/assign", t0, gpu=gpu_index)
            obs.gauge("context-pool/available", gpu=gpu_index).set(len(pool))
            if self.refill:
                self.engine.spawn(
                    self._refill_one(gpu_index), name=f"pool-refill-gpu{gpu_index}"
                )
            return candidate
        self.misses += 1
        obs.counter("context-pool/misses", gpu=gpu_index).inc()
        t0 = self.engine.now
        try:
            ctx = yield from create_context(self.engine, gpu_index, requirements)
        except ContextCreationError:
            # Propagate — the caller owns the retry/fallback policy —
            # but never silently: a failed miss-path creation is the
            # signal that restores are degrading.
            obs.counter("context-pool/miss-create-failed",
                        gpu=gpu_index).inc()
            raise
        obs.record("context-pool/create-on-miss", t0, gpu=gpu_index)
        return ctx

    def _refill_one(self, gpu_index: int):
        """Generator: re-create one pooled context after a hand-out.

        Runs as an unobserved background process, so a creation failure
        here used to shrink the pool *silently* — nobody awaits the
        refill's result and the engine ignores failed processes.  Now a
        failed attempt is counted, retried up to :data:`REFILL_RETRIES`
        times, and a final give-up is surfaced via
        ``context-pool/refill-failed`` and :attr:`refill_failures`
        instead of vanishing.
        """
        n_gpus = len(self.machine.gpus)
        reqs = ContextRequirements(
            n_modules=0, use_cublas=True,
            nccl_gpus=n_gpus if n_gpus > 1 else 0,
        )
        for _attempt in range(REFILL_RETRIES + 1):
            try:
                ctx = yield from create_context(self.engine, gpu_index, reqs)
            except ContextCreationError:
                obs.counter("context-pool/refill-failed",
                            gpu=gpu_index, site="refill").inc()
                continue
            ctx.pooled = True
            self._pools[gpu_index].append(ctx)
            obs.gauge("context-pool/available", gpu=gpu_index).set(
                len(self._pools[gpu_index])
            )
            return
        self.refill_failures += 1

    def available(self, gpu_index: int) -> int:
        return len(self._pools[gpu_index])

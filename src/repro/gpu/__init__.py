"""Simulated GPU device substrate.

This package models everything PHOS needs from a real GPU:

* a byte-addressed device virtual memory with a first-fit allocator and
  buffer-granular allocations (:mod:`repro.gpu.memory`);
* kernels as programs in a mini PTX-like ISA that are genuinely
  interpreted per thread, mutating real buffer bytes
  (:mod:`repro.gpu.isa`, :mod:`repro.gpu.interpreter`);
* the validator instrumentation pass that produces "twin" kernels with
  bounds checks before every global store/load (:mod:`repro.gpu.instrument`);
* streams, DMA engines, contexts, and a roofline cost model that gives
  kernels and transfers realistic virtual-time durations
  (:mod:`repro.gpu.stream`, :mod:`repro.gpu.dma`, :mod:`repro.gpu.context`,
  :mod:`repro.gpu.cost_model`).

Functional state (bytes) and timing (virtual seconds) are deliberately
decoupled: a buffer's *logical size* drives the cost model while a small
*materialized prefix* holds real bytes that kernels read and write, so
checkpoint-correctness claims are literal byte-equality claims.
"""

from repro.gpu.cost_model import GpuSpec, KernelCost
from repro.gpu.device import Gpu
from repro.gpu.instrument import instrument_program
from repro.gpu.interpreter import AccessKind, run_kernel
from repro.gpu.isa import Instr, Op, Program
from repro.gpu.memory import Buffer, DeviceMemory

__all__ = [
    "AccessKind",
    "Buffer",
    "DeviceMemory",
    "Gpu",
    "GpuSpec",
    "Instr",
    "KernelCost",
    "Op",
    "Program",
    "instrument_program",
    "run_kernel",
]

"""The §8.5 speculation feasibility study: Table 3's kernel suites.

Five suites mirror the paper's: supercomputing benchmarks (Rodinia,
Parboil), an AI compiler's generated kernels (TVM), and hand-optimized
LLM-serving kernels (vLLM, FlashInfer).  Kernel *counts* match Table 3
exactly (44/18/66/607/69); each kernel is a program from the access-
pattern library (argument-addressed, in-buffer indirect, partial-write,
struct-carrying), and exactly one Rodinia kernel reads a buffer through
a module-global pointer — the paper's single speculation failure.

:func:`run_speculation_study` speculates each launch from its
arguments, runs the instrumented twin, and counts kernels/instances
whose validator reports a violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.api.calls import ApiCall, ApiCategory
from repro.core.speculation import speculate_call
from repro.core.tracker import BufferTable
from repro.gpu.instrument import instrument_program
from repro.gpu.interpreter import ValidationState, run_kernel
from repro.gpu.memory import DeviceMemory
from repro.gpu.program import (
    build_axpy_into,
    build_copy,
    build_fill,
    build_gather,
    build_global_reader,
    build_inplace_add,
    build_partial_fill,
    build_reduce_sum,
    build_saxpy,
    build_scale,
    build_scatter,
    build_struct_kernel,
)
from repro.units import GIB

N_THREADS = 8
N_WORDS = 8


@dataclass
class SuiteKernel:
    """One kernel of a suite plus its launch-argument factory."""

    program: object
    make_args: Callable[[object, dict], list[int]]


@dataclass
class Suite:
    """One application suite of Table 3."""

    name: str
    kernels: list[SuiteKernel]
    instances_per_kernel: int
    #: Paper-reported reference numbers for the comparison table.
    paper_kernels: tuple[int, int] = (0, 0)
    paper_instances: tuple[int, int] = (0, 0)


@dataclass
class StudyRow:
    suite: str
    kernels: int
    kernels_failed: int
    instances: int
    instances_failed: int
    paper_kernels: tuple[int, int] = (0, 0)
    paper_instances: tuple[int, int] = (0, 0)


_SHAPES = [
    build_copy, build_scale, build_saxpy, build_fill, build_inplace_add,
    build_axpy_into, build_gather, build_scatter, build_partial_fill,
    build_reduce_sum, build_struct_kernel,
]


def _study_buffers(mem: DeviceMemory, table: BufferTable) -> dict:
    """The shared operand buffers every suite kernel launches against."""
    bufs = {}
    for name in ("x", "y", "z", "idx", "out"):
        buf = mem.alloc(4096, tag=name)
        table.register(buf)
        bufs[name] = buf
    for i in range(N_WORDS):
        bufs["x"].store_word(bufs["x"].addr + 8 * i, i + 1)
        bufs["idx"].store_word(bufs["idx"].addr + 8 * i, (i * 5 + 2) % N_WORDS)
    return bufs


def _args_for(program, bufs) -> list[int]:
    """Launch arguments matching each shape's declaration."""
    decl = program.decl
    if "const long* x, const long* y, long* z" in decl:           # saxpy
        return [3, bufs["x"].addr, bufs["y"].addr, bufs["z"].addr, N_WORDS]
    if "const long* x, const long* idx" in decl:                  # gather/scatter
        return [bufs["x"].addr, bufs["idx"].addr, bufs["y"].addr, N_WORDS]
    if "long a, const long* x, long* y" in decl:                  # axpy_into
        return [2, bufs["x"].addr, bufs["y"].addr, N_WORDS]
    if "const long* x, long* out" in decl:                        # reduce_sum
        return [bufs["x"].addr, bufs["out"].addr, N_WORDS]
    if "const long* x, long* y" in decl:                          # copy/scale
        return [bufs["x"].addr, bufs["y"].addr, N_WORDS]
    if "struct Params" in decl:                                   # struct kernel
        return [bufs["y"].addr, N_WORDS, 7]
    if "long n, long v" in decl:                                  # fill/partial
        return [bufs["y"].addr, N_WORDS, 7]
    if "(long* y, long n)" in decl or decl.endswith("(long* y, long n)"):
        return [bufs["y"].addr, N_WORDS]                          # inplace_add
    if "(const long* x, long n)" in decl:                         # global writer
        return [bufs["x"].addr, N_WORDS]
    return [bufs["y"].addr, N_WORDS]                              # global reader


def _make_suite(name: str, n_kernels: int, instances: int, bufs,
                failing_global_reader: bool = False,
                paper_kernels=(0, 0), paper_instances=(0, 0)) -> Suite:
    kernels = []
    count = n_kernels - (1 if failing_global_reader else 0)
    for i in range(count):
        builder = _SHAPES[i % len(_SHAPES)]
        prog = builder(name=f"{name}_k{i}")
        kernels.append(SuiteKernel(prog, _args_for))
    if failing_global_reader:
        # The dated Rodinia kernel: "reads a buffer pointed to by a
        # global variable not listed in the arguments" (§8.5).
        prog = build_global_reader(
            f"{name}_legacy", "d_const_table", bufs["out"].addr
        )
        kernels.append(SuiteKernel(prog, _args_for))
    return Suite(name=name, kernels=kernels, instances_per_kernel=instances,
                 paper_kernels=paper_kernels, paper_instances=paper_instances)


def build_suites(mem: DeviceMemory, table: BufferTable) -> tuple[list[Suite], dict]:
    """Table 3's five suites, at the paper's exact kernel counts."""
    bufs = _study_buffers(mem, table)
    suites = [
        _make_suite("rodinia", 44, 20, bufs, failing_global_reader=True,
                    paper_kernels=(44, 1), paper_instances=(48610, 20)),
        _make_suite("parboil", 18, 40, bufs,
                    paper_kernels=(18, 0), paper_instances=(43473, 0)),
        _make_suite("vllm", 66, 12, bufs,
                    paper_kernels=(66, 0), paper_instances=(13625, 0)),
        _make_suite("tvm", 607, 3, bufs,
                    paper_kernels=(607, 0), paper_instances=(186244, 0)),
        _make_suite("flashinfer", 69, 12, bufs,
                    paper_kernels=(69, 0), paper_instances=(15265, 0)),
    ]
    return suites, bufs


def run_speculation_study(mem=None) -> list[StudyRow]:
    """Run the full §8.5 study; returns one row per suite."""
    mem = mem or DeviceMemory(capacity=2 * GIB, default_data_size=512)
    table = BufferTable(gpu_index=0)
    suites, bufs = build_suites(mem, table)
    rows = []
    for suite in suites:
        kernels_failed = 0
        instances = 0
        instances_failed = 0
        for kernel in suite.kernels:
            twin = instrument_program(kernel.program, check_reads=True)
            failed_any = False
            for _ in range(suite.instances_per_kernel):
                args = kernel.make_args(kernel.program, bufs)
                call = ApiCall(
                    ApiCategory.OPAQUE_KERNEL, kernel.program.name, 0,
                    program=kernel.program, args=args, n_threads=N_THREADS,
                )
                sets = speculate_call(call, table)
                validation = ValidationState(
                    read_ranges=sets.read_ranges(),
                    write_ranges=sets.write_ranges(),
                )
                run_kernel(twin, args, N_THREADS, mem, validation=validation)
                instances += 1
                if validation.violations:
                    instances_failed += 1
                    failed_any = True
            if failed_any:
                kernels_failed += 1
        rows.append(StudyRow(
            suite=suite.name,
            kernels=len(suite.kernels), kernels_failed=kernels_failed,
            instances=instances, instances_failed=instances_failed,
            paper_kernels=suite.paper_kernels,
            paper_instances=suite.paper_instances,
        ))
    return rows

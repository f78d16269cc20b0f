"""The CUDA-equivalent runtime: processes, API calls, interception.

A :class:`GpuProcess` is one application process: a CPU half
(:class:`~repro.cpu.process.HostProcess`) orchestrating one or more
GPUs through a :class:`CudaRuntime`.  All runtime entry points are
generators, called with ``yield from`` inside the process's simulation
process — exactly the CPU-mediated execution model of §2.1.

Interception: if a frontend is installed (``runtime.interceptor``),
every call is described as an :class:`~repro.api.calls.ApiCall` and the
frontend returns a :class:`~repro.api.calls.LaunchPlan` that can
substitute an instrumented twin kernel, attach validation state, stall
the operation in-stream (``pre_exec``), and observe completion.  With
no interceptor, calls pass straight through — the uninstrumented
baseline execution.

The CPU gate: PHOS's quiesce "first stops the CPU to prevent sending
new GPU APIs" (§4.2).  :meth:`CudaRuntime.stop_cpu` closes the gate;
any API call or CPU work issued while the gate is closed blocks until
:meth:`CudaRuntime.resume_cpu`.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Iterable, Optional

import numpy as np

from repro import obs, units
from repro.api.calls import PASSTHROUGH_PLAN, ApiCall, ApiCategory, LaunchPlan
from repro.cluster import Machine
from repro.cpu.process import HostProcess
from repro.errors import GpuError, InvalidValueError
from repro.gpu.context import ContextRequirements, GpuContext, create_context
from repro.gpu.cost_model import (
    DEFAULT_CONTEXT_COSTS,
    KernelCost,
    kernel_duration,
    on_device_copy_time,
)
from repro.gpu.dma import AppCopy, Direction
from repro.gpu.interpreter import run_kernel
from repro.gpu.isa import Program
from repro.gpu.memory import Buffer
from repro.gpu.stream import Stream, StreamOp
from repro.sim.engine import Engine

#: CPU-side cost of issuing one GPU API call.
API_CALL_OVERHEAD = 2 * units.USEC

_process_ids = itertools.count(1)


class GpuProcess:
    """One application process spanning one or more GPUs of a machine."""

    def __init__(
        self,
        engine: Engine,
        machine: Machine,
        name: str,
        gpu_indices: Iterable[int],
        cpu_pages: int = 64,
        cpu_page_size: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.machine = machine
        self.name = name
        self.id = next(_process_ids)
        self.gpu_indices = list(gpu_indices)
        if not self.gpu_indices:
            raise InvalidValueError(f"process {name!r} needs at least one GPU")
        self.host = HostProcess(n_pages=cpu_pages, name=name,
                                page_size=cpu_page_size)
        self.contexts: dict[int, GpuContext] = {}
        self.runtime = CudaRuntime(self)

    def gpu(self, gpu_index: int):
        return self.runtime.gpu(gpu_index)

    def default_stream(self, gpu_index: int) -> Stream:
        return self.runtime.default_stream(gpu_index)

    @property
    def streams(self) -> list[Stream]:
        return list(self.runtime.streams.values())

    def __repr__(self) -> str:
        return f"<GpuProcess {self.name} gpus={self.gpu_indices}>"


class CudaRuntime:
    """The GPU API facade bound to one process.

    The process owns its runtime, so the runtime keeps the parts of the
    process it uses — name, GPUs, host half and context table — rather
    than a reference back to the process: a dropped process is freed by
    reference counting, with no cycle through its runtime.
    """

    def __init__(self, process: GpuProcess) -> None:
        self.engine = process.engine
        self.machine = process.machine
        self.name = process.name
        self.gpu_indices = process.gpu_indices
        self.host = process.host
        #: The process's context table (the same dict).
        self.contexts = process.contexts
        #: Default stream per GPU, created on first use.
        self.streams: dict[int, Stream] = {}
        self.interceptor = None
        #: On-demand CPU restore session, if one is active.
        self.lazy_cpu_session = None
        self._stopped = False
        self._resume_event = None
        #: Per-process allocation registry (all GPUs).
        self.allocations: dict[int, list[Buffer]] = {
            i: [] for i in process.gpu_indices
        }
        #: Active stream captures (cudaStreamBeginCapture), by stream id.
        self._captures: dict[int, "CudaGraph"] = {}  # noqa: F821

    def gpu(self, gpu_index: int):
        if gpu_index not in self.gpu_indices:
            raise InvalidValueError(
                f"process {self.name!r} does not own GPU {gpu_index}"
            )
        return self.machine.gpu(gpu_index)

    def default_stream(self, gpu_index: int) -> Stream:
        stream = self.streams.get(gpu_index)
        if stream is None:
            stream = self.streams[gpu_index] = self.gpu(gpu_index).create_stream(
                name=f"{self.name}-gpu{gpu_index}"
            )
        return stream

    # ------------------------------------------------------------------ gate --
    def stop_cpu(self) -> None:
        """Close the API gate (quiesce step 1: stop the CPU)."""
        if not self._stopped:
            self._stopped = True
            self._resume_event = self.engine.event(name=f"{self.name}-resume")
            self.host.stopped = True

    def resume_cpu(self) -> None:
        """Reopen the API gate."""
        if self._stopped:
            self._stopped = False
            self.host.stopped = False
            ev, self._resume_event = self._resume_event, None
            ev.succeed()

    def end_parked(self) -> None:
        """End every process parked at the closed gate, where it waits:
        the calls of a killed process never get through it."""
        if self._resume_event is not None:
            self._resume_event.end_waiters()

    @property
    def cpu_stopped(self) -> bool:
        return self._stopped

    def _gate(self):
        if not self._stopped:
            return
        t0 = self.engine.now
        while self._stopped:
            yield self._resume_event
        # The app-visible quiesce stall: time this call spent blocked
        # at the closed API gate (§4.2 "first stops the CPU").
        obs.record("gate-stall", t0, process=self.name)

    def _frontend(self, call: ApiCall) -> LaunchPlan:
        if self.interceptor is None:
            return PASSTHROUGH_PLAN
        plan = self.interceptor.plan(call)
        return plan if plan is not None else PASSTHROUGH_PLAN

    def _call_overhead(self, plan: LaunchPlan):
        yield self.engine.timeout(API_CALL_OVERHEAD + plan.frontend_overhead)

    # ------------------------------------------------------------ allocation --
    def malloc(self, gpu_index: int, size: int, tag: str = ""):
        """Generator: allocate a device buffer (cudaMalloc)."""
        yield from self._gate()
        gpu = self.gpu(gpu_index)
        call = ApiCall(ApiCategory.MALLOC, "cudaMalloc", gpu_index, nbytes=size)
        plan = self._frontend(call)
        yield from self._call_overhead(plan)
        buf = gpu.memory.alloc(size, tag=tag)
        self.allocations[gpu_index].append(buf)
        if self.interceptor is not None:
            self.interceptor.on_malloc(gpu_index, buf)
        return buf

    def free(self, gpu_index: int, buf: Buffer):
        """Generator: release a device buffer (cudaFree)."""
        yield from self._gate()
        gpu = self.gpu(gpu_index)
        call = ApiCall(ApiCategory.FREE, "cudaFree", gpu_index)
        plan = self._frontend(call)
        yield from self._call_overhead(plan)
        deferred = False
        if self.interceptor is not None:
            # PHOS manages GPU memory holistically (§4.2): during an
            # active checkpoint it may defer the physical free until the
            # buffer's content has been captured.
            deferred = bool(self.interceptor.on_free(gpu_index, buf))
        self.allocations[gpu_index].remove(buf)
        if not deferred:
            gpu.memory.free(buf)

    # -------------------------------------------------------------- contexts --
    def create_context(self, gpu_index: int, requirements: ContextRequirements):
        """Generator: create an execution context from scratch (slow)."""
        yield from self._gate()
        ctx = yield self.engine.spawn(
            create_context(self.engine, gpu_index, requirements),
            name=f"{self.name}-ctx{gpu_index}",
        )
        self.contexts[gpu_index] = ctx
        return ctx

    def adopt_context(self, gpu_index: int, ctx: GpuContext) -> None:
        """Install a pre-created (pooled) context — no creation cost."""
        self.contexts[gpu_index] = ctx

    def _require_context(self, gpu_index: int) -> GpuContext:
        ctx = self.contexts.get(gpu_index)
        if ctx is None:
            raise GpuError(
                f"process {self.name!r} has no context on GPU "
                f"{gpu_index}; create or adopt one first"
            )
        return ctx

    # --------------------------------------------------------------- memcpy --
    def memcpy_h2d(self, gpu_index: int, buf: Buffer, payload=0,
                   nbytes: Optional[int] = None, sync: bool = False,
                   stream: Optional[Stream] = None):
        """Generator: copy host data into a device buffer (cudaMemcpy H2D).

        ``payload`` is the functional content: either bytes of the
        buffer's prefix length or an int fill value.  Timing charges
        the logical ``nbytes`` (default: the whole buffer) through the
        GPU's H2D DMA engine at application priority.
        """
        yield from self._gate()
        self._require_context(gpu_index)
        if self._capture_node(gpu_index, stream, "memcpy_h2d",
                              {"buf": buf, "payload": payload, "nbytes": nbytes}):
            return None
        nbytes = buf.size if nbytes is None else nbytes
        call = ApiCall(
            ApiCategory.MEMCPY_H2D, "cudaMemcpyH2D", gpu_index,
            writes=[buf], nbytes=nbytes,
        )
        plan = self._frontend(call)
        yield from self._call_overhead(plan)
        gpu = self.gpu(gpu_index)
        copy = AppCopy(self.engine, gpu.dma, Direction.H2D, nbytes,
                       bandwidth=gpu.spec.pcie_bw)

        def effect():
            moved = copy.finish()
            _apply_payload(buf, payload)
            return moved

        op = self._submit(gpu_index, stream, "memcpy-h2d", copy.start,
                          effect, call, plan, hold=copy.hold)
        if sync:
            yield op.done
        return op

    def memcpy_d2h(self, gpu_index: int, buf: Buffer,
                   nbytes: Optional[int] = None, sync: bool = True,
                   stream: Optional[Stream] = None):
        """Generator: copy a device buffer to the host; returns its bytes."""
        yield from self._gate()
        self._require_context(gpu_index)
        nbytes = buf.size if nbytes is None else nbytes
        call = ApiCall(
            ApiCategory.MEMCPY_D2H, "cudaMemcpyD2H", gpu_index,
            reads=[buf], nbytes=nbytes,
        )
        plan = self._frontend(call)
        yield from self._call_overhead(plan)
        gpu = self.gpu(gpu_index)
        copy = AppCopy(self.engine, gpu.dma, Direction.D2H, nbytes,
                       bandwidth=gpu.spec.pcie_bw)

        def effect():
            copy.finish()
            return buf.snapshot()

        op = self._submit(gpu_index, stream, "memcpy-d2h", copy.start,
                          effect, call, plan, hold=copy.hold)
        if sync:
            data = yield op.done
            return data
        return op

    def memcpy_d2d(self, gpu_index: int, src: Buffer, dst: Buffer,
                   sync: bool = False, stream: Optional[Stream] = None):
        """Generator: on-device copy (cudaMemcpyD2D)."""
        yield from self._gate()
        self._require_context(gpu_index)
        if self._capture_node(gpu_index, stream, "memcpy_d2d",
                              {"src": src, "dst": dst}):
            return None
        call = ApiCall(
            ApiCategory.MEMCPY_D2D, "cudaMemcpyD2D", gpu_index,
            reads=[src], writes=[dst], nbytes=src.size,
        )
        plan = self._frontend(call)
        yield from self._call_overhead(plan)
        gpu = self.gpu(gpu_index)

        def start():
            return on_device_copy_time(src.size, gpu.spec)

        def effect():
            n = min(src.data_size, dst.data_size)
            dst.data[:n] = src.data[:n]
            dst.touch()

        op = self._submit(gpu_index, stream, "memcpy-d2d", start, effect,
                          call, plan)
        if sync:
            yield op.done
        return op

    # --------------------------------------------------------------- kernels --
    def launch_kernel(self, gpu_index: int, program: Program, args: list[int],
                      n_threads: int, cost: Optional[KernelCost] = None,
                      stream: Optional[Stream] = None, sync: bool = False):
        """Generator: launch an opaque kernel (cudaLaunchKernel).

        The OS sees only the program binary and the raw arguments —
        speculation happens in the interceptor.
        """
        yield from self._gate()
        ctx = self._require_context(gpu_index)
        cost = cost or KernelCost()
        if self._capture_node(gpu_index, stream, "launch_kernel",
                              {"program": program, "args": list(args),
                               "n_threads": n_threads, "cost": cost}):
            return None
        call = ApiCall(
            ApiCategory.OPAQUE_KERNEL, program.name, gpu_index,
            program=program, args=list(args), n_threads=n_threads, cost=cost,
        )
        plan = self._frontend(call)
        yield from self._call_overhead(plan)
        gpu = self.gpu(gpu_index)
        to_run = plan.program if plan.program is not None else program

        def start():
            duration = kernel_duration(cost, gpu.spec, instrumented=to_run.instrumented)
            if to_run.instrumented and obs.enabled():
                # The validator twin's extra runtime (§8.2) — an app
                # stall component Fig. 16 cannot see without this.
                obs.counter("validator/overhead-seconds", gpu=gpu_index).inc(
                    duration - kernel_duration(cost, gpu.spec)
                )
            if program.name not in ctx.loaded_modules:
                duration += DEFAULT_CONTEXT_COSTS.per_module_load
                ctx.load_module(program.name)
            return duration

        # A faulting kernel has already landed some stores: the stream
        # still reports the completion (with no result), so dirty
        # marking and violation handling see those writes.
        def effect():
            return run_kernel(
                to_run, args, n_threads, gpu.memory, validation=plan.validation
            )

        op = self._submit(gpu_index, stream, f"kernel:{program.name}", start,
                          effect, call, plan)
        if sync:
            result = yield op.done
            return result
        return op

    def lib_compute(self, gpu_index: int, name: str,
                    reads: list[Buffer], writes: list[Buffer],
                    cost: Optional[KernelCost] = None,
                    stream: Optional[Stream] = None, sync: bool = False,
                    salt: int = 0):
        """Generator: a type-3 library kernel (e.g. a cuBLAS GEMM).

        Read/write sets come from the library specification, so no
        speculation or instrumentation is ever needed.  The functional
        effect deterministically mixes the read buffers into each write
        buffer, so data dependencies are real and checkable.
        """
        yield from self._gate()
        self._require_context(gpu_index)
        cost = cost or KernelCost()
        if self._capture_node(gpu_index, stream, "lib_compute",
                              {"name": name, "reads": list(reads),
                               "writes": list(writes), "cost": cost,
                               "salt": salt}):
            return None
        call = ApiCall(
            ApiCategory.LIB_COMPUTE, name, gpu_index,
            reads=list(reads), writes=list(writes), cost=cost,
        )
        plan = self._frontend(call)
        yield from self._call_overhead(plan)
        gpu = self.gpu(gpu_index)

        def start():
            return kernel_duration(cost, gpu.spec)

        def effect():
            mix_many(writes, reads, salt=salt)

        op = self._submit(gpu_index, stream, f"lib:{name}", start, effect,
                          call, plan)
        if sync:
            yield op.done
        return op

    # ------------------------------------------------------------------ sync --
    def device_synchronize(self, gpu_index: Optional[int] = None):
        """Generator: cudaDeviceSynchronize over one or all owned GPUs."""
        yield from self._gate()
        indices = [gpu_index] if gpu_index is not None else self.gpu_indices
        for idx in indices:
            stream = self.default_stream(idx)
            yield stream.synchronize()
        # Extra streams created directly on the GPU also drain.
        for idx in indices:
            yield from self.gpu(idx).synchronize()

    # -------------------------------------------------------------- CPU work --
    def cpu_work(self, duration: float, write_pages: Iterable[int] = (),
                 value: int = 0):
        """Generator: a CPU compute segment between GPU API calls.

        Honors the stop gate, pays any accumulated lazy-restore fault
        charges, then runs for ``duration`` and writes the given pages
        (functional content: ``value`` in the page's first word).
        """
        yield from self._gate()
        if self.lazy_cpu_session is not None:
            stall = self.lazy_cpu_session.take_stall_charge()
            if stall > 0:
                yield self.engine.timeout(stall)
        if duration > 0:
            yield self.engine.timeout(duration)
        for index in write_pages:
            self.host.memory.write_word(index, value)
        self.host.advance_pc()

    # ------------------------------------------------------------ CUDA graphs --
    def graph_begin_capture(self, gpu_index: int,
                            stream: Optional[Stream] = None, name: str = ""):
        """Generator: cudaStreamBeginCapture — record, don't execute."""
        from repro.api.graph import CudaGraph

        yield from self._gate()
        stream = stream or self.default_stream(gpu_index)
        if stream.id in self._captures:
            raise InvalidValueError(f"stream {stream.name} is already capturing")
        self._captures[stream.id] = CudaGraph(name=name or f"capture-{stream.name}")

    def graph_end_capture(self, gpu_index: int,
                          stream: Optional[Stream] = None):
        """Generator: cudaStreamEndCapture — returns the recorded graph."""
        yield from self._gate()
        stream = stream or self.default_stream(gpu_index)
        graph = self._captures.pop(stream.id, None)
        if graph is None:
            raise InvalidValueError(f"stream {stream.name} is not capturing")
        return graph.instantiate()

    def graph_launch(self, gpu_index: int, graph, sync: bool = False,
                     stream: Optional[Stream] = None):
        """Generator: cudaGraphLaunch — replay every node through the
        normal intercepted API path (per-node speculation/guards, §9)."""
        if not graph.instantiated:
            raise InvalidValueError("graph must be instantiated before launch")
        last_op = None
        for node in graph.nodes:
            method = getattr(self, node.method)
            last_op = yield from method(gpu_index, stream=stream, **node.kwargs)
        if sync and last_op is not None:
            yield last_op.done
        return last_op

    def _capture_node(self, gpu_index: int, stream: Optional[Stream],
                      method: str, kwargs: dict) -> bool:
        """Record a call into an active capture instead of executing it."""
        from repro.api.graph import GraphNode

        stream = stream or self.default_stream(gpu_index)
        graph = self._captures.get(stream.id)
        if graph is None:
            return False
        graph.nodes.append(GraphNode(method, kwargs))
        return True

    # -------------------------------------------------------------- internal --
    def _submit(self, gpu_index: int, stream: Optional[Stream], kind: str,
                start, effect, call: ApiCall, plan: LaunchPlan,
                hold=None, after=None) -> StreamOp:
        stream = stream or self.default_stream(gpu_index)
        on_complete = plan.on_complete
        if on_complete is not None:
            on_complete = partial(on_complete, call)
        return stream.submit(kind, start, effect, on_complete,
                             pre_exec=plan.pre_exec, hold=hold, after=after)


def _apply_payload(buf: Buffer, payload) -> None:
    """Write functional content into a buffer's materialized prefix."""
    if isinstance(payload, (bytes, bytearray)):
        raw = bytes(payload)[: buf.data_size]
        buf.data[: len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    else:
        words = buf.data.view(np.uint64)
        words[:] = np.uint64(int(payload) & (2**64 - 1))
    buf.touch()


_MIX_INIT = 0x9E3779B97F4A7C15
_MIX_MULT = np.uint64(6364136223846793005)


def _buf_words(buf: Buffer) -> np.ndarray:
    words = buf.words
    return words if words is not None else buf.data.view(np.uint64)


def _mix_fold(n_words: int, read_bufs: list[Buffer], salt: int) -> np.ndarray:
    """The multiply-xor fold of ``read_bufs`` over an ``n_words`` prefix.

    Element ``i`` of the result only ever depends on the reads whose
    prefix covers ``i``, so the fold at a longer length is a pointwise
    extension of the fold at a shorter one — which is what lets
    :func:`mix_many` share one fold across differently-sized writes.
    """
    acc = np.empty(n_words, dtype=np.uint64)
    acc.fill((_MIX_INIT ^ salt) & (2**64 - 1))
    for rb in read_bufs:
        src = _buf_words(rb)
        n = len(src)
        if n >= n_words:
            np.multiply(acc, _MIX_MULT, out=acc)
            np.bitwise_xor(acc, src[:n_words] if n > n_words else src,
                           out=acc)
        else:
            head = acc[:n]
            np.multiply(head, _MIX_MULT, out=head)
            np.bitwise_xor(head, src, out=head)
    return acc


def mix_into(write_buf: Buffer, read_bufs: list[Buffer], salt: int = 0) -> None:
    """Deterministically derive a write buffer's content from its inputs.

    A cheap stand-in for the library kernel's real math: the output is
    a word-wise mix (multiply-xor) of the inputs plus a salt, so any
    corruption of an input visibly corrupts the output.
    """
    out = _buf_words(write_buf)
    out[:] = _mix_fold(len(out), read_bufs, salt)
    write_buf.touch()


def mix_many(write_bufs: list[Buffer], read_bufs: list[Buffer],
             salt: int = 0) -> None:
    """Apply :func:`mix_into` to every write buffer, folding reads once.

    The fold does not depend on the write buffer, so one pass at the
    longest write's word count serves every write as a prefix —
    byte-identical to calling :func:`mix_into` per write, at a fraction
    of the cost for multi-output library kernels.
    """
    if not write_bufs:
        return
    outs = [_buf_words(w) for w in write_bufs]
    acc = _mix_fold(max(len(o) for o in outs), read_bufs, salt)
    for w, out in zip(write_bufs, outs):
        out[:] = acc[: len(out)]
        w.touch()

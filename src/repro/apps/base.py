"""The workload engine: synthetic training and inference loops.

A workload allocates Table 4's buffer inventory on every GPU it owns,
grouped the way AI frameworks allocate (one buffer per tensor — §4.1's
discussion of why buffer-granular tracing works):

* training: weights, gradients, optimizer state (m, v), activations,
  and miscellaneous (input batch, workspace);
* inference: weights, KV-cache, activations, miscellaneous.

Each step drives the phase structure of the real application — data
load over PCIe, forward, backward, gradient all-reduce, optimizer
update for training; token-by-token decode with KV-cache appends for
inference — through the intercepted GPU API.  Kernel costs are derived
from the spec's calibrated step time, split across phases with the
paper's observed skew (the optimizer update writes most bytes, §8.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.api.nccl import NcclCommunicator, nccl_allreduce
from repro.api.runtime import GpuProcess
from repro.errors import InvalidValueError
from repro.gpu.cost_model import KernelCost
from repro.gpu.program import (
    build_axpy_into,
    build_copy,
    build_fill,
    build_inplace_add,
    build_scale,
)
from repro.apps.specs import AppSpec

#: Layer blocks each phase iterates over (bounds per-step launch count).
N_BLOCKS = 8

#: Threads interpreted per opaque launch (functional verification only).
KERNEL_THREADS = 8

_OPAQUE_BUILDERS = [build_scale, build_inplace_add, build_axpy_into,
                    build_copy, build_fill]

#: Warm per-process ``Program`` cache: identical kernel binaries are
#: built once per process, so the bodies they hold alive (and the plans
#: compiled on them, :class:`~repro.gpu.isa.Body`) survive across worlds
#: (and across experiment cells on a pool worker).  Result-invariant: plans re-prove their preconditions
#: against the actual memory per launch.
_program_cache: dict = {}


def _build_program(builder, name: str):
    key = (builder.__name__, name)
    prog = _program_cache.get(key)
    if prog is None:
        _program_cache[key] = prog = builder(name=name)
    return prog

# (count fraction, bytes fraction) per group.  Activations are a small
# byte share (recomputation keeps them at single-digit GB — §8.3 sees
# only ~2.3 GB of early-iteration CoW traffic on Llama2-13B), while the
# fp32 optimizer state dominates; misc covers the input staging area and
# the allocator's cached/reserved segments.
_TRAIN_GROUPS = {
    "weights": (0.20, 0.18),
    "grads": (0.20, 0.18),
    "opt_m": (0.20, 0.22),
    "opt_v": (0.20, 0.22),
    "act": (0.15, 0.04),
    "misc": (0.05, 0.16),
}
_INFER_GROUPS = {
    "weights": (0.40, 0.45),
    "kv": (0.40, 0.45),
    "act": (0.15, 0.08),
    "misc": (0.05, 0.02),
}

# Fraction of each step's time per phase.
_TRAIN_PHASES = {"data": 0.06, "forward": 0.30, "backward": 0.40,
                 "allreduce": 0.06, "optimizer": 0.16, "cpu": 0.02}
_INFER_PHASES = {"cpu": 0.05, "decode": 0.90, "sample": 0.05}


@dataclass
class _Group:
    name: str
    buffers: list  # per this GPU
    blocks: list   # buffers split into N_BLOCKS chunks


class Workload:
    """Base class: allocation, binding, and common helpers."""

    def __init__(self, process: GpuProcess, spec: AppSpec) -> None:
        if len(process.gpu_indices) != spec.n_gpus:
            raise InvalidValueError(
                f"{spec.name} needs {spec.n_gpus} GPUs, process has "
                f"{len(process.gpu_indices)}"
            )
        self.process = process
        self.rt = process.runtime
        self.spec = spec
        self.groups: dict[int, dict[str, _Group]] = {}
        self.comm: NcclCommunicator | None = None
        self.steps_done = 0
        self.kernels = self._make_kernels()

    # -- kernel binaries ------------------------------------------------------------
    def _make_kernels(self):
        """The app's distinct opaque kernel binaries (Table 4 counts the
        active kernels; roughly a third of them are opaque/custom)."""
        n_opaque = max(2, self.spec.n_kernels // 3)
        stem = self.spec.name.replace("-", "_")  # valid C identifier
        kernels = []
        for i in range(n_opaque):
            builder = _OPAQUE_BUILDERS[i % len(_OPAQUE_BUILDERS)]
            kernels.append(_build_program(builder, f"{stem}_k{i}"))
        return kernels

    def _kernel(self, i: int):
        return self.kernels[i % len(self.kernels)]

    # -- allocation -------------------------------------------------------------------
    def _group_table(self) -> dict[str, tuple[float, float]]:
        return _TRAIN_GROUPS if self.spec.kind == "train" else _INFER_GROUPS

    def setup(self):
        """Generator: allocate the Table 4 inventory and init contents.

        Training allocates group-by-group (weights at model build,
        optimizer state at the first step).  Inference allocates the
        weights first and then *interleaves* the remaining groups —
        KV-cache pages are created on demand during serving, so their
        addresses scatter through the heap (as with vLLM's paged
        allocator), which matters for copy-order experiments.
        """
        table = self._group_table()
        interleave = self.spec.kind == "infer"
        for gpu_index in self.process.gpu_indices:
            self.groups[gpu_index] = {}
            sizes = {}
            counts = {}
            for name, (count_frac, bytes_frac) in table.items():
                count = max(2, int(self.spec.n_buffers * count_frac))
                size = max(4096, int(self.spec.mem_per_gpu * bytes_frac / count))
                size -= size % 256
                counts[name] = count
                sizes[name] = size
                self.groups[gpu_index][name] = _Group(name, [], [])
            order: list[str] = []
            if interleave:
                order.extend("weights" for _ in range(counts["weights"]))
                rest = [n for n in table if n != "weights"]
                pending = {n: counts[n] for n in rest}
                while any(pending.values()):
                    for n in rest:
                        if pending[n]:
                            order.append(n)
                            pending[n] -= 1
            else:
                for name in table:
                    order.extend(name for _ in range(counts[name]))
            indices = {name: 0 for name in table}
            for name in order:
                i = indices[name]
                indices[name] += 1
                buf = yield from self.rt.malloc(
                    gpu_index, sizes[name], tag=f"g{gpu_index}:{name}:{i}"
                )
                self.groups[gpu_index][name].buffers.append(buf)
            for name in table:
                group = self.groups[gpu_index][name]
                group.blocks = _split_blocks(group.buffers, N_BLOCKS)
            # Initialize weights (and misc) from "disk" over PCIe.
            for name in ("weights", "misc"):
                for i, buf in enumerate(self.groups[gpu_index][name].buffers):
                    yield from self.rt.memcpy_h2d(
                        gpu_index, buf, payload=i + 1,
                        sync=(i == 0),
                    )
            yield from self.rt.device_synchronize(gpu_index)
        if self.spec.n_gpus > 1:
            self.comm = NcclCommunicator(
                self.process.engine, list(self.process.gpu_indices)
            )

    def bind_restored(self, process: GpuProcess) -> None:
        """Re-attach this workload to a restored process (buffers by tag)."""
        self.process = process
        self.rt = process.runtime
        self.groups = {}
        table = self._group_table()
        for gpu_index in process.gpu_indices:
            by_tag = {b.tag: b for b in process.runtime.allocations[gpu_index]}
            self.groups[gpu_index] = {}
            for name in table:
                bufs = []
                i = 0
                while f"g{gpu_index}:{name}:{i}" in by_tag:
                    bufs.append(by_tag[f"g{gpu_index}:{name}:{i}"])
                    i += 1
                self.groups[gpu_index][name] = _Group(
                    name, bufs, _split_blocks(bufs, N_BLOCKS)
                )
        if self.spec.n_gpus > 1:
            self.comm = NcclCommunicator(
                self.process.engine, list(self.process.gpu_indices)
            )

    # -- cost helpers -----------------------------------------------------------------
    def _lib_cost(self, phase_frac: float, n_launches: int) -> KernelCost:
        """Compute-bound library kernel sized to fill its phase share."""
        spec = self.process.machine.spec
        duration = self.spec.step_time * phase_frac / max(1, n_launches)
        return KernelCost(flops=duration * spec.flops, bytes_moved=0.0,
                          memory_intensity=0.2)

    def _opaque_cost(self, phase_frac: float, n_launches: int) -> KernelCost:
        """Memory-bound opaque kernel sized to fill its phase share."""
        spec = self.process.machine.spec
        duration = self.spec.step_time * phase_frac / max(1, n_launches)
        return KernelCost(flops=0.0, bytes_moved=duration * spec.hbm_bw,
                          memory_intensity=0.9)

    def _launch_opaque(self, gpu_index: int, i: int, src, dst, cost):
        """Generator: launch one opaque kernel over (src -> dst).

        Arguments are shaped to the kernel's declaration; the frontend
        rediscovers the read/write sets from them via speculation.
        """
        prog = self._kernel(i)
        if prog.decl.count("*") == 2 and "long a," in prog.decl:
            args = [2, src.addr, dst.addr, KERNEL_THREADS]          # axpy_into
        elif prog.decl.count("*") == 2:
            args = [src.addr, dst.addr, KERNEL_THREADS]             # copy/scale
        elif "long v" in prog.decl:
            args = [dst.addr, KERNEL_THREADS, 7]                    # fill
        else:
            args = [dst.addr, KERNEL_THREADS]                       # inplace_add
        op = yield from self.rt.launch_kernel(
            gpu_index, prog, args, KERNEL_THREADS, cost=cost
        )
        return op

    # -- driver -----------------------------------------------------------------------
    def step(self, index: int):
        """Generator: one training iteration or one decoded token."""
        raise NotImplementedError

    def run(self, n_steps: int, start: int | None = None):
        """Generator: run steps ``start .. start+n_steps``."""
        begin = self.steps_done if start is None else start
        for i in range(begin, begin + n_steps):
            yield from self.step(i)
            self.steps_done = i + 1


class TrainingWorkload(Workload):
    """data -> forward -> backward -> all-reduce -> optimizer -> sync.

    Each GPU is driven by its own CPU issue thread (as a tensor-parallel
    runtime does), and each thread throttles itself to stay at most
    :data:`ISSUE_DEPTH` layer blocks ahead of the GPU — so a quiesce
    mid-iteration only waits for a couple of in-flight blocks, not a
    whole enqueued iteration.
    """

    def _gpu_fwd_bwd(self, index: int, gpu_index: int):
        g = self.groups[gpu_index]
        inp = g["misc"].buffers[0]
        inp_chunk = max(1, inp.size // N_BLOCKS)
        throttle = _Throttle()
        # Forward: per block, stream in the batch chunk the block needs
        # (the application PCIe transfer §5 prioritizes), then two GEMMs
        # and one opaque elementwise kernel.
        n = N_BLOCKS * 3
        lib_cost = self._lib_cost(_TRAIN_PHASES["forward"], n)
        op_cost = self._opaque_cost(_TRAIN_PHASES["forward"], n)
        for b in range(N_BLOCKS):
            yield from throttle.gate(self.process.engine)
            yield from self.rt.memcpy_h2d(
                gpu_index, inp, payload=1000 + index, nbytes=inp_chunk
            )
            acts = _blk(g, "act", b)
            yield from self.rt.lib_compute(
                gpu_index, "cublasSgemmQKV",
                reads=_blk(g, "weights", b) + [inp], writes=acts,
                cost=lib_cost, salt=index * 31 + b,
            )
            yield from self.rt.lib_compute(
                gpu_index, "cublasSgemmMLP",
                reads=_blk(g, "weights", b) + acts[:1], writes=acts,
                cost=lib_cost, salt=index * 31 + b + 1,
            )
            op = yield from self._launch_opaque(
                gpu_index, b, acts[0], acts[-1], op_cost,
            )
            throttle.issued(op)
        # Backward: per block, gradients are produced.
        lib_cost = self._lib_cost(_TRAIN_PHASES["backward"], n)
        op_cost = self._opaque_cost(_TRAIN_PHASES["backward"], n)
        for b in range(N_BLOCKS):
            yield from throttle.gate(self.process.engine)
            grads = _blk(g, "grads", b)
            yield from self.rt.lib_compute(
                gpu_index, "cublasSgemmBwdData",
                reads=_blk(g, "act", b) + _blk(g, "weights", b),
                writes=grads, cost=lib_cost, salt=index * 37 + b,
            )
            yield from self.rt.lib_compute(
                gpu_index, "cublasSgemmBwdWeight",
                reads=_blk(g, "act", b) + grads[:1],
                writes=grads, cost=lib_cost, salt=index * 37 + b + 1,
            )
            op = yield from self._launch_opaque(
                gpu_index, b + 1, grads[0], grads[-1], op_cost,
            )
            throttle.issued(op)
        yield from self.rt.device_synchronize(gpu_index)

    def _gpu_optimizer(self, index: int, gpu_index: int):
        g = self.groups[gpu_index]
        n = N_BLOCKS * 2
        lib_cost = self._lib_cost(_TRAIN_PHASES["optimizer"], n)
        op_cost = self._opaque_cost(_TRAIN_PHASES["optimizer"], n)
        throttle = _Throttle()
        for b in range(N_BLOCKS):
            yield from throttle.gate(self.process.engine)
            # Optimizer: writes most buffers (weights + m + v) — §8.3's
            # "update the most buffers" phase.
            yield from self.rt.lib_compute(
                gpu_index, "fusedAdamW",
                reads=_blk(g, "grads", b),
                writes=(_blk(g, "weights", b) + _blk(g, "opt_m", b)
                        + _blk(g, "opt_v", b)),
                cost=lib_cost, salt=index * 41 + b,
            )
            op = yield from self._launch_opaque(
                gpu_index, b + 2, _blk(g, "grads", b)[0],
                _blk(g, "weights", b)[0], op_cost,
            )
            throttle.issued(op)
        yield from self.rt.device_synchronize(gpu_index)

    def step(self, index: int):
        spec = self.spec
        engine = self.process.engine
        pages = self.process.host.memory.n_pages
        # CPU data preparation (writes dataloader pages).
        yield from self.rt.cpu_work(
            spec.step_time * _TRAIN_PHASES["cpu"],
            write_pages=[(index * 3 + k) % pages for k in range(3)],
            value=index + 1,
        )
        # One CPU issue thread per GPU (tensor-parallel runtime model).
        fwd_bwd = [
            engine.spawn(self._gpu_fwd_bwd(index, i), name=f"issue-gpu{i}")
            for i in self.process.gpu_indices
        ]
        yield engine.all_of(fwd_bwd)
        # Gradient all-reduce across GPUs (type-2 communication kernels).
        if self.comm is not None:
            first_grads = {
                i: self.groups[i]["grads"].buffers[0]
                for i in self.process.gpu_indices
            }
            yield from nccl_allreduce(self.rt, self.comm, first_grads)
        opt = [
            engine.spawn(self._gpu_optimizer(index, i), name=f"opt-gpu{i}")
            for i in self.process.gpu_indices
        ]
        yield engine.all_of(opt)


class InferenceWorkload(Workload):
    """Token-by-token decode: GEMMs over weights, KV-cache appends."""

    def _gpu_decode(self, index: int, gpu_index: int):
        g = self.groups[gpu_index]
        n = N_BLOCKS * 3
        lib_cost = self._lib_cost(_INFER_PHASES["decode"], n)
        op_cost = self._opaque_cost(_INFER_PHASES["decode"], n)
        throttle = _Throttle()
        for b in range(N_BLOCKS):
            yield from throttle.gate(self.process.engine)
            acts = _blk(g, "act", b)
            # Attention + MLP GEMMs: read weights, write activations.
            yield from self.rt.lib_compute(
                gpu_index, "cublasSgemmAttn",
                reads=_blk(g, "weights", b) + acts[:1], writes=acts,
                cost=lib_cost, salt=index * 31 + b,
            )
            yield from self.rt.lib_compute(
                gpu_index, "cublasSgemmMLP",
                reads=_blk(g, "weights", b) + acts[:1], writes=acts,
                cost=lib_cost, salt=index * 31 + b + 1,
            )
            # KV-cache append: an opaque custom kernel partially
            # writing the cache (buffer-granular tracing marks the
            # whole buffer — the over-tracing §4.1 discusses).
            kv_block = _blk(g, "kv", b)
            op = yield from self._launch_opaque(
                gpu_index, b, acts[0],
                kv_block[index % len(kv_block)], op_cost,
            )
            throttle.issued(op)

    def step(self, index: int):
        spec = self.spec
        engine = self.process.engine
        pages = self.process.host.memory.n_pages
        yield from self.rt.cpu_work(
            spec.step_time * _INFER_PHASES["cpu"],
            write_pages=[index % pages], value=index + 1,
        )
        decodes = [
            engine.spawn(self._gpu_decode(index, i), name=f"decode-gpu{i}")
            for i in self.process.gpu_indices
        ]
        yield engine.all_of(decodes)
        if self.comm is not None:
            acts = {
                i: self.groups[i]["act"].buffers[0]
                for i in self.process.gpu_indices
            }
            yield from nccl_allreduce(self.rt, self.comm, acts)
        # Sample: logits come back over PCIe.
        gpu0 = self.process.gpu_indices[0]
        logits = self.groups[gpu0]["act"].buffers[-1]
        yield from self.rt.cpu_work(spec.step_time * _INFER_PHASES["sample"])
        yield from self.rt.memcpy_d2h(
            gpu0, logits, nbytes=min(logits.size, 4 * units.MIB), sync=True
        )


#: How many layer blocks the CPU may run ahead of the GPU.
ISSUE_DEPTH = 2


class _Throttle:
    """Keeps a CPU issue thread at most ISSUE_DEPTH blocks ahead."""

    def __init__(self) -> None:
        self._ops: list = []

    def issued(self, op) -> None:
        self._ops.append(op)

    def gate(self, engine):
        if len(self._ops) >= ISSUE_DEPTH:
            target = self._ops[-ISSUE_DEPTH]
            if not target.done.triggered:
                yield target.done
        if False:  # pragma: no cover - keeps this a generator when not waiting
            yield


def make_workload(process: GpuProcess, spec: AppSpec) -> Workload:
    """Factory: the right workload class for a spec."""
    cls = TrainingWorkload if spec.kind == "train" else InferenceWorkload
    return cls(process, spec)


#: Application CPU state uses 2 MiB huge pages.
CPU_PAGE_SIZE = 2 * units.MIB


def provision(engine, machine, spec: AppSpec, name: str | None = None):
    """Create a process + workload for ``spec`` on ``machine``.

    Contexts are installed without charging creation time — the process
    is assumed warm.
    """
    from repro.gpu.context import GpuContext

    process = GpuProcess(
        engine, machine, name or spec.name,
        gpu_indices=list(range(spec.n_gpus)),
        cpu_pages=spec.cpu_pages, cpu_page_size=CPU_PAGE_SIZE,
    )
    for i in process.gpu_indices:
        process.runtime.adopt_context(
            i, GpuContext(gpu_index=i, nccl_scope=spec.n_gpus)
        )
    workload = make_workload(process, spec)
    return process, workload


def _blk(groups: dict[str, _Group], name: str, b: int) -> list:
    """The b-th block of a group, wrapping for small groups."""
    blocks = groups[name].blocks
    return blocks[b % len(blocks)]


def _split_blocks(bufs: list, n_blocks: int) -> list[list]:
    """Split buffers into n_blocks contiguous non-empty chunks."""
    n_blocks = min(n_blocks, len(bufs))
    size = len(bufs) // n_blocks
    extra = len(bufs) % n_blocks
    blocks = []
    start = 0
    for b in range(n_blocks):
        end = start + size + (1 if b < extra else 0)
        blocks.append(bufs[start:end])
        start = end
    return blocks

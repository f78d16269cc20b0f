"""CUDA graph support (§9).

CUDA graphs let the CPU submit a batch of kernels at once.  The paper's
point is that both construction paths — explicit
(``cudaGraphAddKernelNode``) and stream capture
(``cudaStreamBeginCapture``) — go through *explicit driver API calls*,
so PHOS's speculative tracing remains compatible: every node is
described by the same (program, arguments) pair the interceptor already
understands, and launching a graph simply replays its nodes through the
normal intercepted API path (per-node speculation, guards, twins).

Usage::

    graph = CudaGraph("decode-step")
    rt.graph_begin_capture(0, stream)          # or graph.add_kernel_node(...)
    yield from rt.launch_kernel(...)           # recorded, not executed
    graph = yield from rt.graph_end_capture(0, stream)
    yield from rt.graph_launch(0, graph)       # replayed with interception
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import InvalidValueError
from repro.gpu.cost_model import KernelCost
from repro.gpu.isa import Program

_graph_ids = itertools.count(1)


@dataclass(frozen=True)
class GraphNode:
    """One recorded operation: a runtime method plus its arguments."""

    method: str  # "launch_kernel" | "lib_compute" | "memcpy_h2d" | "memcpy_d2d"
    kwargs: dict


@dataclass
class CudaGraph:
    """A recorded batch of GPU operations."""

    name: str = ""
    nodes: list[GraphNode] = field(default_factory=list)
    id: int = field(default_factory=lambda: next(_graph_ids))
    #: Set once instantiated (cudaGraphInstantiate); launches replay it.
    instantiated: bool = False

    def add_kernel_node(self, program: Program, args: list[int],
                        n_threads: int, cost: Optional[KernelCost] = None) -> None:
        """Explicit construction: cudaGraphAddKernelNode."""
        if self.instantiated:
            raise InvalidValueError("cannot modify an instantiated graph")
        self.nodes.append(GraphNode("launch_kernel", {
            "program": program, "args": list(args), "n_threads": n_threads,
            "cost": cost or KernelCost(),
        }))

    def instantiate(self) -> "CudaGraph":
        """cudaGraphInstantiate: freeze the node list."""
        self.instantiated = True
        return self

    def __len__(self) -> int:
        return len(self.nodes)

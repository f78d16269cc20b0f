"""The simulated GPU device: memory, DMA engines, streams.

A :class:`Gpu` binds a :class:`~repro.gpu.cost_model.GpuSpec` to live
state on a simulation engine.  Kernels from different streams run
concurrently; within a stream, operations are in-order (see
:mod:`repro.gpu.stream`).
"""

from __future__ import annotations

from typing import Optional

from repro.gpu.cost_model import GpuSpec
from repro.gpu.memory import DeviceMemory
from repro.gpu.stream import Stream
from repro.sim.engine import Engine
from repro.sim.resources import Resource


class Gpu:
    """One GPU in a machine."""

    def __init__(
        self,
        engine: Engine,
        index: int,
        spec: Optional[GpuSpec] = None,
        default_data_size: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.index = index
        self.spec = spec or GpuSpec()
        mem_kwargs = {}
        if default_data_size is not None:
            mem_kwargs["default_data_size"] = default_data_size
        self.memory = DeviceMemory(self.spec.memory_bytes, **mem_kwargs)
        #: The DMA engine pool, shared by both directions (see gpu/dma.py).
        self.dma = Resource(engine, capacity=self.spec.dma_engines,
                            name=f"gpu{index}-dma")
        self.streams: list[Stream] = []

    def create_stream(self, name: str = "") -> Stream:
        """Create a new stream on this device."""
        stream = Stream(self.engine, name=name or f"gpu{self.index}-s{len(self.streams)}")
        self.streams.append(stream)
        return stream

    def synchronize(self):
        """Generator process: wait for every stream to drain.

        This is ``cudaDeviceSynchronize`` — the quiesce phases of all
        checkpoint protocols call it after stopping the CPU.
        """
        for stream in list(self.streams):
            yield stream.synchronize()

    @property
    def pending_ops(self) -> int:
        """Total operations in flight across all streams."""
        return sum(s.pending_ops for s in self.streams)

    def __repr__(self) -> str:
        return f"<Gpu {self.index} {self.spec.name} buffers={len(self.memory)}>"

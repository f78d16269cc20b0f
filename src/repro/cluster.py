"""Machines and clusters: the testbed topology of §8.

A :class:`Machine` is one server: eight GPUs behind PCIe, host DRAM
(usable as a checkpoint medium), and an RDMA NIC per GPU for the
cross-machine paths (migration, remote checkpoints).  A
:class:`Cluster` wires two or more machines together with 100 Gbps RDMA
links, including GPU-direct RDMA (§7's migration path copies source GPU
buffers straight into target GPU buffers).

Per-machine homes
-----------------

``Cluster.testbed(engine, clock_domains="per-machine")`` puts each
machine on its own :class:`~repro.sim.domains.Home` of ``engine``: one
calendar and one clock, so the run is the single-engine run, but a
machine's GPUs, DMA engines, host memory and outgoing RDMA links belong
to it, and touching them from another machine's records raises.  What
crosses machines in that mode is a value on a
:class:`~repro.sim.domains.DomainChannel`.
"""

from __future__ import annotations

from typing import Optional

from repro import units
from repro.errors import InvalidValueError
from repro.gpu.cost_model import GpuSpec
from repro.gpu.device import Gpu
from repro.sim.domains import Home
from repro.sim.engine import Engine
from repro.sim.fluid import FluidLink
from repro.storage.media import DramMedia


class Machine:
    """One GPU server."""

    def __init__(
        self,
        engine: Engine,
        name: str = "node0",
        n_gpus: int = 8,
        spec: Optional[GpuSpec] = None,
        default_data_size: Optional[int] = None,
    ) -> None:
        if n_gpus < 1:
            raise InvalidValueError(f"a machine needs at least one GPU, got {n_gpus}")
        self.engine = engine
        self.name = name
        self.spec = spec or GpuSpec()
        self.gpus = [
            Gpu(engine, index=i, spec=self.spec,
                default_data_size=default_data_size)
            for i in range(n_gpus)
        ]
        #: Host DRAM as a checkpoint medium (the paper's fast default).
        self.dram = DramMedia(engine, name=f"{name}-dram")

    def gpu(self, index: int) -> Gpu:
        if not 0 <= index < len(self.gpus):
            raise InvalidValueError(
                f"GPU index {index} out of range for {self.name} "
                f"({len(self.gpus)} GPUs)"
            )
        return self.gpus[index]

    def __repr__(self) -> str:
        return f"<Machine {self.name} gpus={len(self.gpus)}>"


class RdmaLink:
    """A 100 Gbps RDMA path between two machines (one per GPU pair).

    Modelled as a fluid link per direction; GPU-direct transfers flow
    through it with a rate cap at the lower of RDMA and PCIe bandwidth
    (the data still crosses each host's PCIe complex).  Each direction
    belongs to the *source* machine's engine.
    """

    def __init__(self, engine: Engine, a: Machine, b: Machine,
                 bandwidth: float = units.RDMA_100GBPS,
                 latency: float = units.RDMA_LINK_LATENCY) -> None:
        if a is b or a.name == b.name:
            raise InvalidValueError(
                f"RDMA self-link on machine {a.name!r}; a link needs two "
                "distinct machines"
            )
        if not 0 < latency < float("inf"):  # also catches NaN
            raise InvalidValueError(
                f"RDMA link latency must be positive and finite, got "
                f"{latency!r}"
            )
        if bandwidth <= 0:
            raise InvalidValueError(
                f"RDMA bandwidth must be positive, got {bandwidth}"
            )
        if (a.engine.core or a.engine) is not (b.engine.core or b.engine):
            raise InvalidValueError(
                f"machines {a.name!r} and {b.name!r} are on different "
                "calendars; a link joins machines of one engine"
            )
        self.engine = engine
        self.a = a
        self.b = b
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self._links = {
            (a.name, b.name): FluidLink(a.engine, bandwidth,
                                        name=f"{a.name}->{b.name}",
                                        latency=latency),
            (b.name, a.name): FluidLink(b.engine, bandwidth,
                                        name=f"{b.name}->{a.name}",
                                        latency=latency),
        }

    def flow(self, src: Machine, dst: Machine, nbytes: float,
             rate_cap: Optional[float] = None):
        """Generator: move bytes ``src`` -> ``dst``; the *sender* resumes
        once the last byte has landed (drain + propagation latency)."""
        key = (src.name, dst.name)
        if key not in self._links:
            raise InvalidValueError(f"no RDMA path {src.name} -> {dst.name}")
        yield from self._links[key].flow(nbytes, rate_cap=rate_cap)


class Cluster:
    """A set of machines fully connected by RDMA."""

    def __init__(self, engine: Engine, machines: list[Machine],
                 link_latency: float = units.RDMA_LINK_LATENCY) -> None:
        if not machines:
            raise InvalidValueError("a cluster needs at least one machine")
        names = [m.name for m in machines]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise InvalidValueError(f"duplicate machine names: {dupes}")
        self.engine = engine
        self.machines = list(machines)
        self.link_latency = link_latency
        self._links: dict[frozenset, RdmaLink] = {}
        for i, a in enumerate(machines):
            for b in machines[i + 1 :]:
                self._links[frozenset((a.name, b.name))] = RdmaLink(
                    a.engine, a, b, latency=link_latency)

    def link(self, a: Machine, b: Machine) -> RdmaLink:
        key = frozenset((a.name, b.name))
        if key not in self._links:
            raise InvalidValueError(f"no link between {a.name} and {b.name}")
        return self._links[key]

    def machine(self, name: str) -> Machine:
        """The cluster machine called ``name``."""
        for m in self.machines:
            if m.name == name:
                return m
        raise InvalidValueError(
            f"no machine {name!r} in this cluster; have "
            f"{[m.name for m in self.machines]}"
        )

    @classmethod
    def testbed(cls, engine: Engine, n_machines: int = 2,
                n_gpus: int = 8, default_data_size: Optional[int] = None,
                clock_domains: str = "single") -> "Cluster":
        """The paper's testbed: two 8-GPU A800 servers, 100 Gbps RDMA.

        ``clock_domains`` arms the affinity rule between machines:

        * ``"single"`` — every machine directly on ``engine``.
        * ``"per-machine"`` — each machine on its own :class:`Home` of
          ``engine`` (same calendar, same clock, same run).
        """
        if clock_domains not in ("single", "per-machine"):
            raise InvalidValueError(
                f"unknown clock_domains mode {clock_domains!r}; expected "
                "'single' or 'per-machine'"
            )
        machines = [
            Machine(engine if clock_domains == "single"
                    else Home(engine, f"node{i}"),
                    name=f"node{i}", n_gpus=n_gpus,
                    default_data_size=default_data_size)
            for i in range(n_machines)
        ]
        return cls(engine, machines)

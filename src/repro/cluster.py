"""Machines and clusters: the testbed topology of §8.

A :class:`Machine` is one server: eight GPUs behind PCIe, host DRAM
(usable as a checkpoint medium), and an RDMA NIC per GPU for the
cross-machine paths (migration, remote checkpoints).  A
:class:`Cluster` wires two or more machines together with 100 Gbps RDMA
links, including GPU-direct RDMA (§7's migration path copies source GPU
buffers straight into target GPU buffers).

Clock domains
-------------

A cluster can be sharded so each machine is its own
:class:`~repro.sim.domains.ClockDomain`:
``Cluster.testbed(world, clock_domains="per-machine")``.  A machine's
GPUs, DMA engines and host memory live in its domain.  Every RDMA link
then doubles as a pair of :class:`DomainChannel` objects whose
latency is the conservative lookahead — which is why zero or negative
link latency is a hard :class:`InvalidValueError` here, not a quirk.
On a single shared engine the same channels degrade to local schedules,
so both modes run the identical event program.
"""

from __future__ import annotations

from typing import Optional, Union

from repro import units
from repro.errors import InvalidValueError
from repro.gpu.cost_model import GpuSpec
from repro.gpu.device import Gpu
from repro.sim.domains import MIN_LOOKAHEAD, DomainChannel, World
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
    is homed in the *source* machine's engine and carries a
    ``DomainChannel`` of the same latency, so a link between machines
    in different clock domains is automatically a legal (and lookahead-
    bearing) crossing.
    """

    def __init__(self, engine: Engine, a: Machine, b: Machine,
                 bandwidth: float = units.RDMA_100GBPS,
                 latency: float = units.RDMA_LINK_LATENCY) -> None:
        if a is b or a.name == b.name:
            raise InvalidValueError(
                f"RDMA self-link on machine {a.name!r}; a link needs two "
                "distinct machines"
            )
        if not (latency >= MIN_LOOKAHEAD):  # also catches NaN
            raise InvalidValueError(
                f"RDMA link latency must be >= {MIN_LOOKAHEAD:g}s, got "
                f"{latency!r}; the latency is the clock-domain lookahead "
                "and cannot be zero or negative"
            )
        if bandwidth <= 0:
            raise InvalidValueError(
                f"RDMA bandwidth must be positive, got {bandwidth}"
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
        self._channels: dict[tuple[str, str], DomainChannel] = {}
        for src, dst in ((a, b), (b, a)):
            cname = f"rdma:{src.name}->{dst.name}"
            if src.engine is dst.engine:
                ch = DomainChannel.local(src.engine, latency, name=cname)
            else:
                world = src.engine._world
                if world is None or dst.engine._world is not world:
                    raise InvalidValueError(
                        f"machines {src.name!r} and {dst.name!r} live on "
                        "different engines but not in one World; clock "
                        "domains must share a World"
                    )
                ch = world.channel(src.engine, dst.engine, latency,
                                   name=cname)
            self._channels[(src.name, dst.name)] = ch

    def _direction(self, src: Machine, dst: Machine) -> tuple[str, str]:
        key = (src.name, dst.name)
        if key not in self._links:
            raise InvalidValueError(f"no RDMA path {src.name} -> {dst.name}")
        return key

    def channel(self, src: Machine, dst: Machine) -> DomainChannel:
        """The message channel for one direction of the link."""
        return self._channels[self._direction(src, dst)]

    def flow(self, src: Machine, dst: Machine, nbytes: float,
             rate_cap: Optional[float] = None):
        """Generator: move bytes ``src`` -> ``dst``; the *sender* resumes
        once the last byte has landed (drain + propagation latency)."""
        yield from self._links[self._direction(src, dst)].flow(
            nbytes, rate_cap=rate_cap)

    def deliver(self, src: Machine, dst: Machine, nbytes: float,
                value=None, rate_cap: Optional[float] = None):
        """Generator (sender side): drain bytes, then notify ``dst``.

        The sender resumes at drain completion; ``value`` (default the
        byte count) lands in the destination-side channel inbox one
        link latency later — pair with :meth:`receive` on ``dst``.
        """
        key = self._direction(src, dst)
        yield from self._links[key]._flow_raw(nbytes, rate_cap=rate_cap)
        self._channels[key].send(value if value is not None else nbytes)

    def receive(self, src: Machine, dst: Machine):
        """Event (receiver side) for the next :meth:`deliver` arrival."""
        return self._channels[self._direction(src, dst)].recv()


class Cluster:
    """A set of machines fully connected by RDMA."""

    def __init__(self, engine: Union[Engine, World], machines: list[Machine],
                 link_latency: float = units.RDMA_LINK_LATENCY) -> None:
        if not machines:
            raise InvalidValueError("a cluster needs at least one machine")
        names = [m.name for m in machines]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise InvalidValueError(f"duplicate machine names: {dupes}")
        if isinstance(engine, World):
            self.world: Optional[World] = engine
            self.engine = machines[0].engine
        else:
            self.world = engine._world
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
    def testbed(cls, engine: Union[Engine, World], n_machines: int = 2,
                n_gpus: int = 8, default_data_size: Optional[int] = None,
                clock_domains: str = "single") -> "Cluster":
        """The paper's testbed: two 8-GPU A800 servers, 100 Gbps RDMA.

        ``clock_domains`` selects the sharding:

        * ``"single"`` — all machines on one shared engine (pass an
          :class:`Engine`); the historical behaviour.
        * ``"per-machine"`` — one :class:`ClockDomain` per machine
          (pass a :class:`World`, or an Engine that is itself a domain).
        """
        if isinstance(engine, World):
            world: Optional[World] = engine
            if clock_domains == "single":
                clock_domains = "per-machine"
        elif clock_domains != "single":
            world = engine._world
            if world is None:
                raise InvalidValueError(
                    f"clock_domains={clock_domains!r} needs a World (or a "
                    "ClockDomain engine), got a plain Engine"
                )
        else:
            world = None
        if clock_domains == "single":
            machines = [
                Machine(engine, name=f"node{i}", n_gpus=n_gpus,
                        default_data_size=default_data_size)
                for i in range(n_machines)
            ]
            return cls(engine, machines)
        if clock_domains != "per-machine":
            raise InvalidValueError(
                f"unknown clock_domains mode {clock_domains!r}; expected "
                "'single' or 'per-machine'"
            )
        machines = [
            Machine(world.domain(f"node{i}"), name=f"node{i}", n_gpus=n_gpus,
                    default_data_size=default_data_size)
            for i in range(n_machines)
        ]
        return cls(world, machines)

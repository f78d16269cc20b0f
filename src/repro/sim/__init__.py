"""Discrete-event simulation substrate.

The engine provides a virtual clock, cooperatively-scheduled processes
(Python generators that yield :class:`~repro.sim.events.Event` objects),
and contended resources.  It is deliberately small and deterministic:
events at equal timestamps fire in scheduling order, so every experiment
in this repository is exactly reproducible.

Typical usage::

    from repro.sim import Engine

    eng = Engine()

    def worker(eng):
        yield eng.timeout(1.5)
        return "done"

    proc = eng.spawn(worker(eng))
    eng.run()
    assert proc.result == "done"
    assert eng.now == 1.5
"""

from repro.sim.domains import DomainChannel, Home
from repro.sim.engine import Engine, Process
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.resources import Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "DomainChannel",
    "Engine",
    "Event",
    "Home",
    "Process",
    "Resource",
    "Store",
    "Timeout",
]

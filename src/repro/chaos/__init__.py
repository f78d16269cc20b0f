"""Deterministic fault injection for the C/R protocols (``repro.chaos``).

CRIUgpu and CRAC both treat torn or partial images as *the* correctness
hazard of GPU checkpoint/restore; PHOS's claim (PAPER.md §4–§5, §7) is
that a checkpoint taken concurrently with execution is still equivalent
to a stop-the-world cut.  This module provides the adversary that tests
that claim: a seed-driven, virtual-clock fault injector addressable at
protocol seams.

Faults (:class:`FaultSpec`) name a *kind*, an optional protocol/phase
site, and which occurrence of that site should trip:

* ``"kill-process"``     — the checkpointed/restored application is
  killed at phase entry (via the installed *killer* callback, normally
  ``Phos.kill``), as if the workload crashed mid-protocol;
* ``"crash-checkpointer"`` — the protocol driver itself dies at phase
  entry (raises :class:`~repro.errors.ProtocolCrashError`);
* ``"dma-error"``        — a DMA buffer move fails with
  :class:`~repro.errors.DmaError` (retryable);
* ``"context-error"``    — ``create_context`` fails with
  :class:`~repro.errors.ContextCreationError` (retryable).

The injector mirrors :mod:`repro.obs`'s zero-overhead-when-disabled
design: a module-level ``_injector`` that call sites guard with a plain
``is not None`` check, so the instrumented hot paths cost one global
load when chaos is off.  All injection decisions are functions of the
(virtual-clock deterministic) sequence of site visits plus the plan's
seed — never of wall-clock time — so a given ``FaultPlan`` reproduces
the identical failure on every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro import obs
from repro.errors import (
    ContextCreationError,
    DmaError,
    InvalidValueError,
    ProtocolCrashError,
)

#: Fault kinds understood by the injector.
KINDS = ("kill-process", "crash-checkpointer", "dma-error", "context-error")

#: Kinds that trip at phase entry (inside ``Protocol._phase``).
PHASE_KINDS = ("kill-process", "crash-checkpointer")

#: Kinds that trip at a resource-operation site (DMA move, context create).
SITE_KINDS = ("dma-error", "context-error")


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: *kind* at phase P of protocol X, occurrence N.

    ``protocol`` and ``phase`` accept ``"*"`` wildcards.  ``occurrence``
    is 1-based and counts matching site visits; ``count`` limits how
    many consecutive matching visits trip (so ``count=2`` fails the
    first retry too, exercising backoff).
    """

    kind: str
    protocol: str = "*"
    phase: str = "*"
    occurrence: int = 1
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidValueError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )
        if self.occurrence < 1:
            raise InvalidValueError(
                f"occurrence must be >= 1, got {self.occurrence}"
            )
        if self.count < 1:
            raise InvalidValueError(f"count must be >= 1, got {self.count}")

    def matches(self, protocol: str, phase: str) -> bool:
        return (self.protocol in ("*", protocol)
                and self.phase in ("*", phase))


@dataclass
class FaultPlan:
    """A reproducible set of faults plus the seed that addressed them."""

    faults: Sequence[FaultSpec] = ()
    seed: int = 0

    @classmethod
    def sample(cls, seed: int, kinds: Sequence[str] = SITE_KINDS,
               max_occurrence: int = 4) -> "FaultPlan":
        """Draw one random-but-reproducible fault per kind from ``seed``.

        Used by the chaos matrix to cover DMA/context faults at varied
        occurrences without enumerating every chunk index.
        """
        rng = random.Random(seed)
        faults = tuple(
            FaultSpec(kind=kind, occurrence=rng.randint(1, max_occurrence),
                      count=rng.randint(1, 2))
            for kind in kinds
        )
        return cls(faults=faults, seed=seed)


class FaultInjector:
    """Trips the faults of a :class:`FaultPlan` at instrumented sites.

    The protocol engine reports phase entries via :meth:`enter_phase`;
    the DMA mover and ``create_context`` poll :meth:`trip` with their
    site kind.  Occurrence counting is per-spec and keyed on the spec's
    *own* match filter, so two specs targeting different phases count
    independently.
    """

    def __init__(self, plan: FaultPlan,
                 killer: Optional[Callable] = None) -> None:
        self.plan = plan
        self.killer = killer
        #: Current (protocol, phase) context, set at phase entry.  Nested
        #: protocol runs (e.g. the CoW abort fallback) overwrite it, which
        #: is the desired addressing: faults hit whichever protocol is
        #: actually executing.
        self.protocol = ""
        self.phase = ""
        #: Specs bucketed by where they trip, so each hook hit scans
        #: only the specs that could possibly fire there (the armed-
        #: but-idle cost on a hot path is one short tuple walk).
        self._phase_specs = tuple(
            s for s in plan.faults if s.kind in PHASE_KINDS)
        self._site_specs = {
            kind: tuple(s for s in plan.faults if s.kind == kind)
            for kind in SITE_KINDS
        }
        self._visits: dict[int, int] = {}
        self._trips: dict[int, int] = {}
        #: Every injection performed, for reporting: (kind, protocol, phase).
        self.injected: list[tuple[str, str, str]] = []

    # -- site hooks ---------------------------------------------------------
    def enter_phase(self, protocol: str, phase: str, ctx) -> None:
        """Called by ``Protocol._phase`` on entry to each phase."""
        self.protocol, self.phase = protocol, phase
        for spec in self._phase_specs:
            if not self._should_trip(spec, protocol, phase):
                continue
            self._record(spec)
            if spec.kind == "kill-process":
                target = getattr(ctx, "process", None)
                if self.killer is not None and target is not None:
                    self.killer(target)
                # The protocol run itself is torn down by the killer
                # interrupting it; if this protocol run is not tracked
                # by the killer (e.g. driven directly in a test), fall
                # through to a crash so the fault is never silent.
                raise ProtocolCrashError(
                    f"chaos: process killed at {protocol}/{phase}"
                )
            raise ProtocolCrashError(
                f"chaos: checkpointer crashed at {protocol}/{phase}"
            )

    def trip(self, kind: str) -> None:
        """Called by DMA/context sites; raises if a matching fault trips."""
        for spec in self._site_specs.get(kind, ()):
            if not self._should_trip(spec, self.protocol, self.phase):
                continue
            self._record(spec)
            if kind == "dma-error":
                raise DmaError(
                    f"chaos: DMA transfer failed at "
                    f"{self.protocol or '?'}/{self.phase or '?'}"
                )
            raise ContextCreationError(
                f"chaos: create_context failed at "
                f"{self.protocol or '?'}/{self.phase or '?'}"
            )

    # -- bookkeeping --------------------------------------------------------
    def _should_trip(self, spec: FaultSpec, protocol: str,
                     phase: str) -> bool:
        if not spec.matches(protocol, phase):
            return False
        key = id(spec)
        visit = self._visits.get(key, 0) + 1
        self._visits[key] = visit
        if visit < spec.occurrence:
            return False
        if self._trips.get(key, 0) >= spec.count:
            return False
        return True

    def _record(self, spec: FaultSpec) -> None:
        self._trips[id(spec)] = self._trips.get(id(spec), 0) + 1
        self.injected.append((spec.kind, self.protocol, self.phase))
        obs.counter("chaos/injected", kind=spec.kind,
                    protocol=self.protocol or "-",
                    phase=self.phase or "-").inc()


# -- module-level hook (mirrors repro.obs) ----------------------------------
#: The installed injector, or ``None``.  Instrumented call sites guard
#: with ``if chaos._injector is not None`` so the disabled cost is one
#: module-attribute load.
_injector: Optional[FaultInjector] = None


def install(plan: FaultPlan,
            killer: Optional[Callable] = None) -> FaultInjector:
    """Arm a fault plan; returns the live injector."""
    global _injector
    _injector = FaultInjector(plan, killer=killer)
    return _injector


def uninstall() -> None:
    """Disarm fault injection (idempotent)."""
    global _injector
    _injector = None


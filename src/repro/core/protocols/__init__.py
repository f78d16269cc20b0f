"""The checkpoint and restore protocols (the protocol engine).

Every protocol is a phase-structured subclass of
:class:`~repro.core.protocols.base.Protocol`, registered by name in
:mod:`~repro.core.protocols.registry` and configured through one typed
:class:`~repro.core.protocols.base.ProtocolConfig`:

* ``stop-world`` (checkpoint + restore) —
  :mod:`repro.core.protocols.stop_world`: the quiesce-and-copy baseline
  (Singularity / cuda-checkpoint behaviour), also PHOS's
  mis-speculation fallback;
* ``cow`` — :mod:`repro.core.protocols.cow`: soft copy-on-write
  checkpoint (§4.2): image equals a stop-the-world checkpoint at the
  start time;
* ``recopy`` — :mod:`repro.core.protocols.recopy`: soft recopy
  checkpoint (§4.3): image equals a stop-the-world checkpoint at the
  end time; also the concurrent-copy → re-quiesce → recopy skeleton
  the other t2-cut protocols subclass;
* ``incremental`` (alias ``delta``) — also in
  :mod:`repro.core.protocols.recopy`: recopy that seals a
  self-contained delta chain root when given no ``parent``;
* ``hw-dirty`` — :mod:`repro.core.protocols.hw_dirty`: the §9
  hypothetical hardware-dirty-bit recopy — the recopy skeleton with
  its dirty set read from per-buffer bits (no speculation frontend);
* ``continuous`` — :mod:`repro.core.protocols.continuous`: a streamed
  chain of incremental checkpoints committed to the DRAM tier per
  round, with asynchronous tiered write-behind (DRAM → SSD → remote);
* ``concurrent`` (restore) — :mod:`repro.core.protocols.restore`:
  concurrent on-demand restore (§6) with rollback-to-stop-world on
  mis-speculation.

``parent`` is an argument of a checkpoint, not a protocol: ``cow``,
``recopy`` and ``incremental`` take one through the same hooks
on :class:`~repro.core.protocols.base.Protocol` and commit a
:class:`~repro.storage.delta.DeltaImage` chained onto it, cut at t1 or
t2 as the protocol cuts.

There are no per-protocol free functions: callers instantiate a
protocol through :func:`registry.create` and drive its ``checkpoint``
/ ``restore`` generator, exactly as the daemon does.
"""

from repro.core.protocols import registry
from repro.core.protocols.base import (
    CHECKPOINT_PHASES,
    RESTORE_PHASES,
    Protocol,
    ProtocolConfig,
    ProtocolContext,
)
from repro.core.protocols.continuous import ContinuousCheckpoint, StreamSummary
from repro.core.protocols.cow import CowCheckpoint
from repro.core.protocols.hw_dirty import HwDirtyCheckpoint
from repro.core.protocols.recopy import RecopyCheckpoint
from repro.core.protocols.restore import ConcurrentRestore
from repro.core.protocols.stop_world import StopWorldCheckpoint, StopWorldRestore

__all__ = [
    "CHECKPOINT_PHASES",
    "RESTORE_PHASES",
    "Protocol",
    "ProtocolConfig",
    "ProtocolContext",
    "registry",
    "ContinuousCheckpoint",
    "StreamSummary",
    "CowCheckpoint",
    "RecopyCheckpoint",
    "StopWorldCheckpoint",
    "StopWorldRestore",
    "HwDirtyCheckpoint",
    "ConcurrentRestore",
]

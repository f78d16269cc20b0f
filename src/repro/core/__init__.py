"""The PHOS core: validated speculation and concurrent C/R protocols.

This package is the paper's primary contribution:

* :mod:`repro.core.signatures` — kernel signature extraction (the
  clang step of §4.1);
* :mod:`repro.core.speculation` — argument-based read/write-set
  speculation over the process's buffer table;
* :mod:`repro.core.validation` — twin-kernel cache plus violation
  handling (Fig. 6);
* :mod:`repro.core.protocols` — soft copy-on-write (§4.2), soft recopy
  (§4.3) and the delta/streaming protocols built on its skeleton,
  concurrent on-demand restore (§6), and the stop-the-world baseline
  protocol — all reached through ``protocols.registry``;
* :mod:`repro.core.engine` — :class:`~repro.core.engine.DataMover`,
  one run's config-bound data movers with coordinated CPU→GPU ordering
  and prioritized application PCIe transfer (§5);
* :mod:`repro.core.context_pool` / :mod:`repro.core.daemon` — the
  context pool and the PHOS OS service (§3, §6);
* :mod:`repro.core.frequency` / :mod:`repro.core.sdk` — the optimal
  checkpoint frequency model (§A.1) and the application SDK (§A.2).
"""

from repro.core.daemon import Phos
from repro.core.frequency import optimal_frequency, wasted_gpu_hours
from repro.core.sdk import PhosSdk
from repro.core.signatures import ParamKind, parse_signature
from repro.core.speculation import SpeculatedSets, speculate_call
from repro.core.tracker import BufferTable

__all__ = [
    "BufferTable",
    "ParamKind",
    "Phos",
    "PhosSdk",
    "SpeculatedSets",
    "optimal_frequency",
    "parse_signature",
    "speculate_call",
    "wasted_gpu_hours",
]

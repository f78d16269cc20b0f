"""The PHOS application SDK (§A.2, Fig. 21).

Applications that want to control checkpoint *timing* (e.g. checkpoint
at the beginning of a training iteration, where few buffers are about
to be updated — §8.3) call this six-line SDK.  The checkpoint call is
asynchronous: it returns immediately and does not block the application
unless the previous checkpoint has not finished.
"""

from __future__ import annotations

from typing import Optional

from repro.api.runtime import GpuProcess
from repro.core.daemon import Phos
from repro.core.frequency import optimal_frequency
from repro.core.protocols import registry
from repro.core.protocols.base import ProtocolConfig
from repro.sim.engine import Process


class PhosSdk:
    """Per-application handle mirroring the ``import phos`` API."""

    def __init__(self, phos: Phos, process: GpuProcess) -> None:
        self._phos = phos
        self._process = process
        self._inflight: Optional[Process] = None
        self.checkpoints_taken = 0
        self.checkpoints_skipped = 0
        self.images: list = []

    def calculate_optimal_frequency(self, n_gpus: int, failures_per_hour: float,
                                    checkpoint_overhead_hours: float) -> float:
        """§A.1's f* = sqrt(NF/2O), exposed to applications."""
        return optimal_frequency(n_gpus, failures_per_hour,
                                 checkpoint_overhead_hours)

    @staticmethod
    def protocols() -> list[str]:
        """The checkpoint protocols an application may request by name."""
        return registry.names("checkpoint")

    def checkpoint(self, name: str = "", mode: str = "cow",
                   config: Optional[ProtocolConfig] = None) -> bool:
        """Asynchronously request a checkpoint.

        ``mode`` is any registered protocol name (see
        :meth:`protocols`); tunables go in ``config`` (a
        :class:`ProtocolConfig`).

        Returns True if a checkpoint was started; False if skipped
        because the previous one is still running (the SDK "will not
        block application execution unless the last checkpoint is not
        done" — we choose skipping over blocking, which is what a
        frequency-driven training loop wants).

        With a protocol that starts a chain (``mode="incremental"``)
        and no ``config``, the SDK chains onto its own most recent
        completed image: the first call produces a self-contained chain
        root, every later call a delta — exactly the first-full-then-
        delta loop a training job wants.
        """
        if self._inflight is not None and not self._inflight.triggered:
            self.checkpoints_skipped += 1
            return False
        if config is None and registry.get(mode).starts_chain:
            parent = self.last_image
            if parent is not None and not parent.revoked:
                config = ProtocolConfig(parent=parent)
        handle = self._phos.checkpoint(self._process, mode=mode, name=name,
                                       config=config)
        handle.add_callback(self._on_done)
        self._inflight = handle
        self.checkpoints_taken += 1
        return True

    def _on_done(self, event) -> None:
        if event.ok:
            image, _session = event.value
            self.images.append(image)

    @property
    def last_image(self):
        """The most recent completed checkpoint image, if any."""
        return self.images[-1] if self.images else None

    def wait_inflight(self):
        """Generator: wait for the in-flight checkpoint (if any)."""
        if self._inflight is not None and not self._inflight.triggered:
            yield self._inflight

    def rebind(self, process: GpuProcess) -> None:
        """Continue the SDK against a restored process (after recovery)."""
        self._process = process
        self._inflight = None

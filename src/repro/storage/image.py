"""The checkpoint image: everything needed to recreate a process.

Matches Fig. 1(d): data state (CPU pages, GPU buffers) plus control
state (registers, stream configuration) plus the execution-environment
metadata (kernel binaries loaded, context requirements) that restore
needs before it can launch anything.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import CheckpointError

_image_seq = itertools.count(1)


def _next_image_id() -> str:
    """A collision-safe image identity.

    Qualified by the creating OS process id: images born in different
    ``repro.parallel`` pool workers (each of which restarts the module
    counter at 1) stay distinct when their results are merged into one
    catalog/world.  The pid is eight hex digits wide (Linux pids stay
    below 2**22), so an image's serialized size does not depend on it.
    """
    return f"{os.getpid():08x}.{next(_image_seq)}"


@dataclass
class GpuBufferRecord:
    """One checkpointed GPU buffer: metadata plus its functional bytes."""

    buffer_id: int
    addr: int
    size: int
    data: bytes
    tag: str = ""


@dataclass
class CheckpointImage:
    """A complete process image.

    GPU state is keyed by GPU index (multi-GPU processes checkpoint
    each device's buffers).  ``finalize()`` seals the image; restore
    refuses unfinalized images, which is how tests catch protocols that
    forget state.
    """

    name: str = ""
    id: str = field(default_factory=_next_image_id)
    #: CPU pages: page index -> bytes (functional content).
    cpu_pages: dict[int, bytes] = field(default_factory=dict)
    cpu_control: dict[str, int] = field(default_factory=dict)
    kernel_objects: list = field(default_factory=list)
    #: GPU buffers: gpu index -> buffer id -> record.
    gpu_buffers: dict[int, dict[int, GpuBufferRecord]] = field(default_factory=dict)
    #: Kernel module names each GPU context had loaded.
    gpu_modules: dict[int, list[str]] = field(default_factory=dict)
    #: Context requirements captured at checkpoint time.
    context_meta: dict = field(default_factory=dict)
    #: Logical size of one checkpointed CPU page (set by the CPU dump).
    cpu_page_size: int = 4096
    #: Virtual time at which the checkpoint logically happened.
    checkpoint_time: Optional[float] = None
    finalized: bool = False
    #: Atomic-commit state (two-phase publish via :class:`ImageCatalog`):
    #: a staged image becomes ``committed`` only at ``phase_commit``; a
    #: torn or superseded image is ``revoked`` and can never be restored.
    committed: bool = False
    revoked: bool = False
    revoked_reason: str = ""

    def add_gpu_buffer(self, gpu_index: int, record: GpuBufferRecord) -> None:
        """Insert/overwrite one buffer's record (recopy overwrites)."""
        if self.finalized:
            raise CheckpointError(f"image {self.name!r} is finalized")
        self.gpu_buffers.setdefault(gpu_index, {})[record.buffer_id] = record

    def add_cpu_page(self, index: int, data: bytes) -> None:
        if self.finalized:
            raise CheckpointError(f"image {self.name!r} is finalized")
        self.cpu_pages[index] = data

    def add_cpu_pages(self, indices: Sequence[int], datas: Sequence[bytes]) -> None:
        """Insert/overwrite one page per (distinct) index — a dump's batch."""
        if self.finalized:
            raise CheckpointError(f"image {self.name!r} is finalized")
        self.cpu_pages.update(zip(indices, datas))

    def finalize(self, checkpoint_time: float) -> None:
        """Seal the image; it now represents a consistent process state."""
        if self.finalized:
            raise CheckpointError(f"image {self.name!r} finalized twice")
        self.checkpoint_time = checkpoint_time
        self.finalized = True

    def revoke(self, reason: str) -> None:
        """Mark the image unrestorable (torn / part of a failed set)."""
        if not self.revoked:
            self.revoked = True
            self.revoked_reason = reason

    def require_finalized(self) -> None:
        if self.revoked:
            from repro.errors import TornImageError

            raise TornImageError(
                f"image {self.name!r} was revoked "
                f"({self.revoked_reason or 'unknown reason'}); "
                "cannot restore from it"
            )
        if not self.finalized:
            raise CheckpointError(
                f"image {self.name!r} is not finalized; cannot restore from it"
            )

    # -- sizes (what the cost model charges) ---------------------------------------
    def gpu_bytes(self, gpu_index: Optional[int] = None) -> int:
        """Logical bytes of checkpointed GPU state."""
        if gpu_index is not None:
            return sum(r.size for r in self.gpu_buffers.get(gpu_index, {}).values())
        return sum(
            r.size for per_gpu in self.gpu_buffers.values() for r in per_gpu.values()
        )

    def cpu_bytes(self) -> int:
        """Logical bytes of checkpointed CPU state."""
        return len(self.cpu_pages) * self.cpu_page_size

    def total_bytes(self) -> int:
        return self.gpu_bytes() + self.cpu_bytes()

    def buffer_count(self, gpu_index: int) -> int:
        return len(self.gpu_buffers.get(gpu_index, {}))

    def total_buffer_count(self) -> int:
        return sum(len(per_gpu) for per_gpu in self.gpu_buffers.values())

    def stored_bytes(self) -> int:
        """Bytes the image actually stores (== logical for full images)."""
        return self.total_bytes()


class ImageCatalog:
    """Two-phase image publication on a checkpoint medium.

    A protocol run *stages* its image before moving any data and
    *commits* it only after ``phase_commit`` finalized it — so at no
    point is a torn, half-written image visible as restorable, whatever
    phase the checkpointer died in.  A failed run *discards* its staged
    entry (revoking the image); a consistency violation discovered after
    commit (e.g. a sibling of a multi-process checkpoint failing)
    *revokes* a committed entry.

    Delta images (:class:`~repro.storage.delta.DeltaImage`) add a chain
    rule: a delta commits only while its parent is committed and
    unrevoked here, and revoking a parent revokes every (staged or
    committed) descendant — a chain with a hole in it must never look
    restorable.
    """

    def __init__(self) -> None:
        self._staged: dict[str, CheckpointImage] = {}
        self._committed: dict[str, CheckpointImage] = {}
        #: ``parent id -> [delta children]`` for revocation cascade.
        self._children: dict[str, list[CheckpointImage]] = {}

    # -- two-phase lifecycle -----------------------------------------------
    def stage(self, image: CheckpointImage) -> None:
        """Register an in-progress image (not restorable yet)."""
        if image.id in self._committed:
            raise CheckpointError(
                f"image {image.name!r} is already committed"
            )
        if image.revoked:
            raise CheckpointError(
                f"image {image.name!r} is revoked "
                f"({image.revoked_reason or 'unknown reason'}); "
                "it cannot be staged"
            )
        if image.id in self._staged:
            raise CheckpointError(
                f"image {image.name!r} is already staged (two runs may "
                "not share one image)"
            )
        self._staged[image.id] = image

    def commit(self, image: CheckpointImage) -> None:
        """Publish a finalized image as restorable (the atomic flip)."""
        if image.id not in self._staged:
            raise CheckpointError(
                f"image {image.name!r} was never staged on this catalog; "
                "refusing to publish it"
            )
        image.require_finalized()
        parent_id = getattr(image, "parent_id", None)
        if parent_id is not None:
            parent = self._committed.get(parent_id)
            if parent is None or parent.revoked:
                self._staged.pop(image.id, None)
                image.revoke("delta parent is not committed on this medium")
                raise CheckpointError(
                    f"delta image {image.name!r} names parent {parent_id!r} "
                    "which is not committed (or was revoked) on this "
                    "medium; the delta is unrestorable and was revoked"
                )
        self._staged.pop(image.id, None)
        image.committed = True
        self._committed[image.id] = image
        if parent_id is not None:
            self._children.setdefault(parent_id, []).append(image)

    def discard(self, image: CheckpointImage, reason: str = "") -> None:
        """Drop a staged image after a failed/aborted run (idempotent)."""
        self._staged.pop(image.id, None)
        if not image.committed:
            image.revoke(reason or "checkpoint did not commit")

    def revoke(self, image: CheckpointImage, reason: str) -> None:
        """Withdraw a committed image (e.g. an inconsistent sibling).

        Revoking the parent of committed delta images cascades: every
        descendant needs the revoked bytes to materialize, so the whole
        subtree becomes unrestorable with it.
        """
        self._committed.pop(image.id, None)
        self._staged.pop(image.id, None)
        image.committed = False
        image.revoke(reason)
        for child in self._children.pop(image.id, []):
            self.revoke(child, f"parent image {image.name!r} was revoked")

    # -- introspection ------------------------------------------------------
    def is_committed(self, image: CheckpointImage) -> bool:
        return image.id in self._committed

    def is_staged(self, image: CheckpointImage) -> bool:
        return image.id in self._staged

    def committed_images(self) -> list[CheckpointImage]:
        return list(self._committed.values())

    def lookup(self, image_id: str) -> Optional[CheckpointImage]:
        """A committed image by id (delta-chain parent resolution)."""
        return self._committed.get(image_id)

    def staged_images(self) -> list[CheckpointImage]:
        return list(self._staged.values())

"""ImageCatalog lifecycle regressions and collision-safe image ids.

Regression tests for the PR-6 bugfix satellites: the catalog used to
accept ``commit()`` of a never-staged image, ``stage()`` of a revoked
image, and a silent double-``stage()`` overwrite; image ids used to
come from a bare process-global counter that collides across
``repro.parallel`` pool workers.
"""

import itertools
import os

import pytest

from repro.errors import CheckpointError
from repro.storage import image as image_module
from repro.storage.image import CheckpointImage, ImageCatalog
from repro.storage.serial import save_image


def _image(name="img"):
    img = CheckpointImage(name=name)
    img.finalize(1.0)
    return img


def test_normal_two_phase_lifecycle():
    catalog = ImageCatalog()
    img = _image()
    catalog.stage(img)
    assert catalog.is_staged(img) and not catalog.is_committed(img)
    catalog.commit(img)
    assert catalog.is_committed(img) and not catalog.is_staged(img)
    assert img.committed


def test_commit_of_never_staged_image_rejected():
    catalog = ImageCatalog()
    img = _image()
    with pytest.raises(CheckpointError, match="never staged"):
        catalog.commit(img)
    assert not img.committed
    assert catalog.committed_images() == []


def test_commit_on_wrong_catalog_rejected():
    """Staging on one medium does not authorize publishing on another."""
    here, there = ImageCatalog(), ImageCatalog()
    img = _image()
    here.stage(img)
    with pytest.raises(CheckpointError, match="never staged"):
        there.commit(img)
    here.commit(img)  # the right catalog still works


def test_stage_of_revoked_image_rejected():
    catalog = ImageCatalog()
    img = _image()
    img.revoke("test: torn")
    with pytest.raises(CheckpointError, match="cannot be staged"):
        catalog.stage(img)
    assert catalog.staged_images() == []


def test_double_stage_rejected():
    catalog = ImageCatalog()
    img = _image()
    catalog.stage(img)
    with pytest.raises(CheckpointError, match="already staged"):
        catalog.stage(img)
    # The first staging is still intact and committable.
    assert catalog.is_staged(img)
    catalog.commit(img)


def test_stage_of_committed_image_rejected():
    catalog = ImageCatalog()
    img = _image()
    catalog.stage(img)
    catalog.commit(img)
    with pytest.raises(CheckpointError, match="already committed"):
        catalog.stage(img)


def test_discard_stays_idempotent():
    catalog = ImageCatalog()
    img = _image()
    catalog.stage(img)
    catalog.discard(img, "test")
    catalog.discard(img, "test again")  # second discard is a no-op
    assert img.revoked
    assert catalog.staged_images() == []


def test_image_ids_are_pid_qualified_and_unique():
    a, b = CheckpointImage(), CheckpointImage()
    assert a.id != b.id
    prefix = f"{os.getpid():08x}."
    assert a.id.startswith(prefix) and b.id.startswith(prefix)


def test_an_image_file_is_as_long_whatever_the_pid(monkeypatch, tmp_path):
    """The pid in an image id is fixed-width, so a one-digit pid and a
    six-digit one serialize the same image to files of equal length."""
    sizes = []
    for pid in (0x7, 0x3FFFFF):
        monkeypatch.setattr(os, "getpid", lambda: pid)
        monkeypatch.setattr(image_module, "_image_seq", itertools.count(1))
        img = _image()
        assert img.id == f"{pid:08x}.1"
        path = tmp_path / f"{pid:x}.phos"
        save_image(img, path)
        sizes.append(path.stat().st_size)
    assert sizes[0] == sizes[1]

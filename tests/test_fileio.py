"""Atomic artifact writes: a failed write leaves the previous file as it was."""

import os

import numpy as np
import pytest

from rangeseg import fileio
from rangeseg.checkpoint import save_checkpoint
from rangeseg.fileio import write_atomic
from rangeseg.imageio import save_grayscale
from rangeseg.model import build_model, micro_config


def test_replaces_the_whole_file(tmp_path):
    path = tmp_path / "a.bin"
    path.write_bytes(b"old contents that are longer than the new ones")
    assert write_atomic(path, b"new") == str(path)
    assert path.read_bytes() == b"new"
    assert os.listdir(tmp_path) == ["a.bin"]


@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
def test_failure_midway_keeps_previous_file(tmp_path, monkeypatch, error):
    path = tmp_path / "a.bin"
    path.write_bytes(b"previous")
    seen = []

    def fail(fd):
        # the new bytes are already in the temp file beside the target
        (tmp,) = [n for n in os.listdir(tmp_path) if n != "a.bin"]
        seen.append((tmp_path / tmp).read_bytes())
        raise error("disk went away")

    monkeypatch.setattr(fileio.os, "fsync", fail)
    with pytest.raises(error):
        write_atomic(path, b"replacement")
    assert seen == [b"replacement"]
    assert path.read_bytes() == b"previous"
    assert os.listdir(tmp_path) == ["a.bin"]


def test_failed_checkpoint_and_png_writes_keep_previous_files(tmp_path, monkeypatch):
    model = build_model(micro_config(), seed=0)
    ckpt, png = tmp_path / "model.rseg", tmp_path / "map.png"
    save_checkpoint(model, path=ckpt)
    save_grayscale(png, np.arange(12.0).reshape(3, 4))
    before = {p: p.read_bytes() for p in (ckpt, png)}

    def fail(fd):
        raise OSError("disk went away")

    monkeypatch.setattr(fileio.os, "fsync", fail)
    with pytest.raises(OSError):
        save_checkpoint(build_model(micro_config(), seed=1), path=ckpt)
    with pytest.raises(OSError):
        save_grayscale(png, np.ones((3, 4)))
    assert {p: p.read_bytes() for p in (ckpt, png)} == before
    assert sorted(os.listdir(tmp_path)) == ["map.png", "model.rseg"]

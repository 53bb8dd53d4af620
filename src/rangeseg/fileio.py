"""Atomic file output for checkpoints, label files, images and manifests."""

from __future__ import annotations

import os
import secrets


def write_atomic(path, data: bytes) -> str:
    """Write data to path so that path holds the old bytes or the new ones, never a part.

    The bytes go to a fresh temp file in the same directory, which is synced
    and then renamed over path. If anything fails, the temp file is removed
    and path is left as it was. Returns path as a string.
    """
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path

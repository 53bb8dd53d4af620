"""Tiny image writers: grayscale and paletted label maps as 8-bit PNG,
encoded with the standard library (zlib + struct) and written atomically."""

from __future__ import annotations

import colorsys
import struct
import zlib

import numpy as np

from .fileio import write_atomic

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def normalize_to_u8(a: np.ndarray) -> np.ndarray:
    """Min-max scale to [0, 255]; a constant map comes out black."""
    a = np.asarray(a, dtype=np.float64)
    lo, hi = float(a.min()), float(a.max())
    if hi <= lo:
        return np.zeros(a.shape, dtype=np.uint8)
    return np.round((a - lo) / (hi - lo) * 255.0).astype(np.uint8)


def _chunk(tag: bytes, data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + tag + data + struct.pack(">I", zlib.crc32(tag + data))


def _write_png(path, pixels: np.ndarray) -> str:
    """Write (h, w) uint8 as grayscale or (h, w, 3) uint8 as RGB PNG."""
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    color_type = {2: 0, 3: 2}[pixels.ndim]  # 0 = grayscale, 2 = truecolor
    h, w = pixels.shape[:2]
    rows = pixels.reshape(h, -1)
    scanlines = np.hstack([np.zeros((h, 1), dtype=np.uint8), rows])  # filter byte 0 (None)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return write_atomic(path, b"".join((
        _PNG_SIGNATURE,
        _chunk(b"IHDR", ihdr),
        _chunk(b"IDAT", zlib.compress(scanlines.tobytes())),
        _chunk(b"IEND", b""),
    )))


def save_grayscale(path, values: np.ndarray) -> str:
    """Write a 2D array as a grayscale PNG; larger values render lighter.

    Returns the path written.
    """
    return _write_png(path, normalize_to_u8(values))


def label_palette(num_classes: int) -> np.ndarray:
    """(C, 3) uint8 colors, evenly spread hues; class 0 is dark gray."""
    colors = np.zeros((num_classes, 3), dtype=np.uint8)
    colors[0] = (40, 40, 40)
    for c in range(1, num_classes):
        r, g, b = colorsys.hsv_to_rgb(((c - 1) * 0.618034) % 1.0, 0.75, 0.95)
        colors[c] = (int(r * 255), int(g * 255), int(b * 255))
    return colors


def save_labels(path, labels: np.ndarray, num_classes: int | None = None) -> str:
    """Write a 2D class-index map as a colored RGB PNG; returns the path."""
    labels = np.asarray(labels)
    c = int(num_classes if num_classes is not None else labels.max() + 1)
    return _write_png(path, label_palette(max(c, 1))[labels.clip(0, c - 1)])

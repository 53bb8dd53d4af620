"""Spherical projection to the 5-channel range-view image and back.

Images are stored channels-first (5, h, w) with rows indexed top-down, so a
pixel is addressed as [channel, v, u]. Channel order is fixed:
x, y, z, intensity, range. Empty pixels hold -1 in the range channel and 0
elsewhere, with a separate validity mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidPointError, ProjectionError
from .pointcloud import LidarScan

CHANNELS = ("x", "y", "z", "intensity", "range")
RANGE_SENTINEL = -1.0


@dataclass(frozen=True)
class ProjectionConfig:
    """Image grid and vertical field of view of the virtual scanner."""

    w: int = 2048
    h: int = 64
    fov_up: float = math.radians(3.0)      # >= 0
    fov_down: float = math.radians(-25.0)  # <= 0

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ProjectionError("image extents must be positive")
        if not (0 <= self.fov_up < math.inf and -math.inf < self.fov_down <= 0) or self.fov() <= 0:
            raise ProjectionError("need finite fov_up >= 0, fov_down <= 0, nonzero total")  # NaN fails too

    def fov(self) -> float:
        return abs(self.fov_down) + abs(self.fov_up)


@dataclass(frozen=True)
class RangeImage:
    """Projected scan plus the bookkeeping needed to go back to points."""

    channels: np.ndarray        # (5, h, w) float32
    valid: np.ndarray           # (h, w) bool
    pixel_of_point: np.ndarray  # (N, 2) int32 (u, v); (-1, -1) for skipped points
    point_of_pixel: np.ndarray  # (h, w) int64 index of the winning point, -1 if empty
    config: ProjectionConfig

    @property
    def num_points(self) -> int:
        return len(self.pixel_of_point)

    def range_channel(self) -> np.ndarray:
        return self.channels[4]

    def label_image(self, point_labels: np.ndarray, fill: int = -1) -> np.ndarray:
        """Rasterize per-point labels: each pixel takes its winning point's label."""
        point_labels = np.asarray(point_labels)
        if point_labels.shape != (self.num_points,):
            raise DimensionError(f"need {self.num_points} labels, got {point_labels.shape}")
        out = np.full(self.point_of_pixel.shape, fill, dtype=np.int32)
        out[self.valid] = point_labels[self.point_of_pixel[self.valid]]
        return out


def project_point(x: float, y: float, z: float, cfg: ProjectionConfig) -> tuple[int, int]:
    """Map one point to integer pixel coordinates (u, v), floor then clamp."""
    r = math.sqrt(x * x + y * y + z * z)
    if r == 0.0 or not math.isfinite(r):
        raise InvalidPointError("cannot project a point with zero or non-finite range")
    u = 0.5 * (1.0 - math.atan2(y, x) / math.pi) * cfg.w
    pitch = math.asin(max(-1.0, min(1.0, z / r)))
    v = (1.0 - (pitch + abs(cfg.fov_down)) / cfg.fov()) * cfg.h
    ui = min(max(int(math.floor(u)), 0), cfg.w - 1)
    vi = min(max(int(math.floor(v)), 0), cfg.h - 1)
    return ui, vi


def project_points(xyz: np.ndarray, cfg: ProjectionConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized projection; returns (u, v, range) with u = v = -1 where range is 0."""
    xyz64 = xyz.astype(np.float64)
    r = np.sqrt(np.sum(xyz64**2, axis=1))
    ok = r > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        pitch = np.arcsin(np.clip(np.where(ok, xyz64[:, 2] / np.where(ok, r, 1.0), 0.0), -1.0, 1.0))
    u = 0.5 * (1.0 - np.arctan2(xyz64[:, 1], xyz64[:, 0]) / math.pi) * cfg.w
    v = (1.0 - (pitch + abs(cfg.fov_down)) / cfg.fov()) * cfg.h
    ui = np.clip(np.floor(u), 0, cfg.w - 1).astype(np.int32)
    vi = np.clip(np.floor(v), 0, cfg.h - 1).astype(np.int32)
    ui[~ok] = -1
    vi[~ok] = -1
    return ui, vi, r


def build_range_image(scan: LidarScan, cfg: ProjectionConfig) -> RangeImage:
    """Project a scan; on pixel collisions the nearest point wins (ties: lower index).

    Zero-range points are skipped but keep a (-1, -1) slot in pixel_of_point.
    """
    if len(scan) == 0:
        raise ProjectionError("cannot project an empty scan")
    u, v, r = project_points(scan.xyz, cfg)
    ok = u >= 0
    if not ok.any():
        raise ProjectionError("all points are degenerate")

    idx = np.nonzero(ok)[0]
    pix = v[idx].astype(np.int64) * cfg.w + u[idx]
    # nearest-wins: order by (pixel, range, point index) and keep each pixel's head
    order = np.lexsort((idx, r[idx], pix))
    pix_sorted = pix[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = pix_sorted[1:] != pix_sorted[:-1]
    winners = idx[order[head]]
    win_pix = pix_sorted[head]

    channels = np.zeros((5, cfg.h, cfg.w), dtype=np.float32)
    channels[4].fill(RANGE_SENTINEL)
    valid = np.zeros(cfg.h * cfg.w, dtype=bool)
    point_of_pixel = np.full(cfg.h * cfg.w, -1, dtype=np.int64)
    valid[win_pix] = True
    point_of_pixel[win_pix] = winners

    flat = channels.reshape(5, -1)
    flat[0, win_pix] = scan.xyz[winners, 0]
    flat[1, win_pix] = scan.xyz[winners, 1]
    flat[2, win_pix] = scan.xyz[winners, 2]
    flat[3, win_pix] = scan.intensity[winners]
    flat[4, win_pix] = r[winners]

    pixel_of_point = np.stack([u, v], axis=1).astype(np.int32)
    return RangeImage(
        channels=channels,
        valid=valid.reshape(cfg.h, cfg.w),
        pixel_of_point=pixel_of_point,
        point_of_pixel=point_of_pixel.reshape(cfg.h, cfg.w),
        config=cfg,
    )


def back_project(labels: np.ndarray, img: RangeImage, fill: int = 0) -> np.ndarray:
    """Read each point's label from its pixel; skipped points get `fill`."""
    labels = np.asarray(labels)
    if labels.shape != (img.config.h, img.config.w):
        raise DimensionError(
            f"label map {labels.shape} does not match image ({img.config.h}, {img.config.w})"
        )
    u = img.pixel_of_point[:, 0]
    v = img.pixel_of_point[:, 1]
    ok = u >= 0
    out = np.full(img.num_points, fill, dtype=labels.dtype)
    out[ok] = labels[v[ok], u[ok]]
    return out

"""Range-based kNN vote that cleans up back-projected point labels.

Back-projection gives every point the label of whichever point won its pixel,
so points occluded in the range image inherit labels from nearer surfaces
("shadow" artifacts). The fix: each point compares its own range against the
range image inside a window around its pixel, votes among the k closest-in-
range neighbors, and drops neighbors whose range differs by more than a
cutoff. Inference-only; training never calls this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DimensionError, InvalidTargetError
from .projection import RangeImage

WEIGHTINGS = ("uniform", "inverse-range-gap")
GAP_EPS = 1e-3


@dataclass(frozen=True)
class KnnConfig:
    window: int = 5          # S, odd
    k: int = 5
    cutoff: float = 1.0      # meters of allowed |range - range| gap
    weighting: str = "inverse-range-gap"

    def __post_init__(self):
        if self.window < 1 or self.window % 2 == 0:
            raise ConfigError("window must be odd and >= 1")
        if not 1 <= self.k <= self.window**2:
            raise ConfigError("k must lie in [1, window^2]")
        if not np.isfinite(self.cutoff) or self.cutoff <= 0:
            raise ConfigError("cutoff must be positive and finite")
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(f"weighting must be one of {WEIGHTINGS}")


def knn_filter(
    img: RangeImage,
    pixel_labels: np.ndarray,
    point_ranges: np.ndarray,
    point_labels: np.ndarray,
    cfg: KnnConfig = KnnConfig(),
) -> np.ndarray:
    """Per-point weighted vote over range-nearest window neighbors.

    Each point uses its own range (not its pixel winner's), which is what
    lets occluded points recover their true label. Ties in the range gap are
    broken by window slot order, label-vote ties by the smaller class index.
    Points with no surviving neighbor, including those that fell outside the
    image, keep their input label.

    Labels on valid pixels are class indices and must be >= 0
    (InvalidTargetError otherwise); labels on empty pixels are ignored.
    """
    h, w = img.valid.shape
    pixel_labels = np.asarray(pixel_labels)
    point_ranges = np.asarray(point_ranges, dtype=np.float64)
    point_labels = np.asarray(point_labels)
    n = img.num_points
    if pixel_labels.shape != (h, w):
        raise DimensionError(f"pixel_labels must be ({h}, {w}), got {pixel_labels.shape}")
    if point_ranges.shape != (n,) or point_labels.shape != (n,):
        raise DimensionError(f"need {n} point ranges and labels")
    if (pixel_labels[img.valid] < 0).any():
        raise InvalidTargetError("pixel labels on valid pixels must be >= 0")

    out = point_labels.copy()
    u, v = img.pixel_of_point.T
    mapped = u >= 0
    if not mapped.any():
        return out
    u, v, r = u[mapped], v[mapped], point_ranges[mapped]

    def windows(image, empty):
        """Each mapped point's S x S window, slots in row-major order; empty
        pixels and the border pad read ``empty``."""
        padded = np.pad(np.where(img.valid, image, empty), cfg.window // 2, constant_values=empty)
        return sliding_window_view(padded, (cfg.window, cfg.window))[v, u].reshape(len(r), -1)

    gaps = np.abs(windows(img.range_channel(), np.inf).astype(np.float64) - r[:, None])
    # stable sort: equal gaps keep window scan order, matching the oracle
    nearest = np.argsort(gaps, axis=1, kind="stable")[:, : cfg.k]
    kept_gaps = np.take_along_axis(gaps, nearest, axis=1)
    survives = kept_gaps <= cfg.cutoff  # finite cutoff: kills the inf (empty or pad) slots

    labels = np.take_along_axis(windows(pixel_labels, 0), nearest, axis=1)
    if cfg.weighting == "uniform":
        votes = survives.astype(np.float64)
    else:
        votes = np.where(survives, 1.0 / (GAP_EPS + kept_gaps), 0.0)

    # bincount adds each bin's votes in slot order, as a per-point loop would
    c = int(labels.max()) + 1
    bins = np.arange(len(r))[:, None] * c + labels
    scores = np.bincount(bins.ravel(), weights=votes.ravel(), minlength=len(r) * c).reshape(-1, c)

    any_vote = survives.any(axis=1)
    winners = scores.argmax(axis=1)  # argmax takes the smallest index on ties
    out[np.flatnonzero(mapped)[any_vote]] = winners[any_vote]
    return out

"""Scan ingestion, synthetic scenes, augmentation, and class statistics.

Scans are immutable value objects wrapping numpy arrays; every random
operation takes an explicit seed so results are reproducible and safe to
compute concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ClassMapError,
    InvalidPointError,
    MissingLabelsError,
    ScanFormatError,
    SceneSpecError,
)
from .layers import check_seed

KITTI_POINT_BYTES = 16  # four little-endian float32: x, y, z, intensity
KITTI_LABEL_BYTES = 4   # one little-endian uint32, semantic id in the low 16 bits


@dataclass(frozen=True)
class LidarScan:
    """One full sweep: xyz positions, remission, optional per-point labels."""

    xyz: np.ndarray                 # (N, 3) float32, sensor frame, x forward, z up
    intensity: np.ndarray           # (N,) float32 in [0, 1]
    labels: np.ndarray | None = None  # (N,) int32 training class ids

    def __post_init__(self):
        if self.xyz.ndim != 2 or self.xyz.shape[1] != 3:
            raise ScanFormatError(f"xyz must be (N, 3), got {self.xyz.shape}")
        if self.intensity.shape != (len(self.xyz),):
            raise ScanFormatError("intensity length does not match point count")
        if self.labels is not None and self.labels.shape != (len(self.xyz),):
            raise ScanFormatError("labels length does not match point count")

    def __len__(self):
        return len(self.xyz)

    def ranges(self) -> np.ndarray:
        """Euclidean distance of every point from the sensor."""
        return np.sqrt(np.sum(self.xyz.astype(np.float64) ** 2, axis=1))

    def with_labels(self, labels: np.ndarray) -> "LidarScan":
        return replace(self, labels=np.asarray(labels, dtype=np.int32))


@dataclass(frozen=True)
class ClassWeights:
    """Inverse-square-root frequency weights for the cross-entropy loss."""

    weights: np.ndarray      # (C,) float64, 0 for absent classes
    frequencies: np.ndarray  # (C,) int64 point counts


@dataclass(frozen=True)
class ClassMap:
    """Raw dataset label id <-> contiguous training index table."""

    to_train: dict[int, int]
    names: dict[int, str]        # training id -> name (first occurrence wins)
    inverse: dict[int, int]      # training id -> representative raw id

    @property
    def num_classes(self) -> int:
        return max(self.to_train.values()) + 1 if self.to_train else 0

    @classmethod
    def from_text(cls, text: str) -> "ClassMap":
        """Parse `raw_id training_id name` lines; '#' starts a comment."""
        to_train: dict[int, int] = {}
        names: dict[int, str] = {}
        inverse: dict[int, int] = {}
        for lineno, raw_line in enumerate(text.splitlines(), 1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ClassMapError(f"line {lineno}: expected 'raw train name', got {raw_line!r}")
            try:
                raw_id, train_id = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ClassMapError(f"line {lineno}: non-integer id in {raw_line!r}") from exc
            if train_id < 0:
                raise ClassMapError(f"line {lineno}: negative training id in {raw_line!r}")
            if raw_id in to_train:
                raise ClassMapError(f"line {lineno}: duplicate raw id {raw_id}")
            to_train[raw_id] = train_id
            names.setdefault(train_id, parts[2])
            inverse.setdefault(train_id, raw_id)
        if not to_train:
            raise ClassMapError("class map is empty")
        return cls(to_train=to_train, names=names, inverse=inverse)

    @classmethod
    def load(cls, path) -> "ClassMap":
        """from_text of a file; a parse error names the file."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_text(fh.read())
        except UnicodeDecodeError as exc:
            raise ClassMapError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        except ClassMapError as exc:
            raise ClassMapError(f"{path}: {exc}") from None

    def remap(self, raw_ids: np.ndarray) -> np.ndarray:
        """Map raw semantic ids to training indices; unknown ids are an error."""
        raw_ids = np.asarray(raw_ids)
        if raw_ids.size == 0:
            return raw_ids.astype(np.int32)
        table_keys = np.fromiter(self.to_train.keys(), dtype=np.int64)
        lut = np.full(int(table_keys.max()) + 1, -1, dtype=np.int32)
        for k, v in self.to_train.items():
            lut[k] = v
        out_of_range = (raw_ids < 0) | (raw_ids >= len(lut))
        if np.any(out_of_range):
            bad = int(raw_ids[out_of_range][0])
            raise ClassMapError(f"raw id {bad} not present in class map")
        mapped = lut[raw_ids]
        if np.any(mapped < 0):
            bad = int(raw_ids[mapped < 0][0])
            raise ClassMapError(f"raw id {bad} not present in class map")
        return mapped

    def unmap(self, train_ids: np.ndarray) -> np.ndarray:
        """Map training indices back to representative raw ids; ids without one are an error."""
        train_ids = np.asarray(train_ids)
        lut = np.full(self.num_classes, -1, dtype=np.int64)
        for t, r in self.inverse.items():
            lut[t] = r
        raw = lut[np.clip(train_ids, 0, len(lut) - 1)]
        missing = (train_ids < 0) | (train_ids >= len(lut)) | (raw < 0)
        if np.any(missing):
            raise ClassMapError(f"training id {int(train_ids[missing][0])} has no raw id in the class map")
        return raw.astype(np.uint32)


def read_kitti_scan(blob: bytes) -> LidarScan:
    """Decode a KITTI `.bin` payload into a scan (no labels)."""
    if len(blob) % KITTI_POINT_BYTES != 0:
        raise ScanFormatError(
            f"scan payload of {len(blob)} bytes is not a multiple of {KITTI_POINT_BYTES}"
        )
    data = np.frombuffer(blob, dtype="<f4").reshape(-1, 4)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise InvalidPointError(f"non-finite value in point {int(np.argmin(finite))}")
    return LidarScan(xyz=np.ascontiguousarray(data[:, :3]), intensity=np.ascontiguousarray(data[:, 3]))


def write_kitti_scan(scan: LidarScan) -> bytes:
    """Encode a scan as a KITTI `.bin` payload (bit-exact round trip)."""
    data = np.empty((len(scan), 4), dtype="<f4")
    data[:, :3] = scan.xyz
    data[:, 3] = scan.intensity
    return data.tobytes()


def decode_kitti_labels(blob: bytes) -> np.ndarray:
    """Raw semantic ids (int64) of a `.label` payload: the low 16 bits of each entry."""
    if len(blob) % KITTI_LABEL_BYTES != 0:
        raise ScanFormatError(f"label payload of {len(blob)} bytes is not a multiple of 4")
    return (np.frombuffer(blob, dtype="<u4") & 0xFFFF).astype(np.int64)


def read_kitti_labels(blob: bytes, scan: LidarScan, class_map: ClassMap | None = None) -> LidarScan:
    """Attach labels from a `.label` payload; low 16 bits hold the semantic id.

    With a class map the raw ids are remapped to contiguous training indices;
    without one they are used as-is.
    """
    semantic = decode_kitti_labels(blob)
    if len(semantic) != len(scan):
        raise ScanFormatError(f"{len(semantic)} labels for {len(scan)} points")
    labels = class_map.remap(semantic) if class_map is not None else semantic.astype(np.int32)
    return scan.with_labels(labels)


def write_kitti_labels(labels: np.ndarray, class_map: ClassMap | None = None) -> bytes:
    """Encode per-point training ids as a `.label` payload (instance bits zero)."""
    labels = np.asarray(labels)
    raw = class_map.unmap(labels) if class_map is not None else labels.astype(np.uint32)
    return raw.astype("<u4").tobytes()


# ---------------------------------------------------------------------------
# Synthetic scenes


@dataclass(frozen=True)
class Primitive:
    """A ray-castable shape carrying one class id.

    kind 'plane': params = (z,)                       horizontal plane
    kind 'box':   params = (xmin,xmax,ymin,ymax,zmin,zmax)
    kind 'pole':  params = (cx, cy, radius, zmin, zmax)  vertical cylinder
    """

    kind: str
    class_id: int
    params: tuple

    def __post_init__(self):
        expected = {"plane": 1, "box": 6, "pole": 5}
        if self.kind not in expected:
            raise SceneSpecError(f"unknown primitive kind {self.kind!r}")
        if len(self.params) != expected[self.kind]:
            raise SceneSpecError(f"{self.kind} needs {expected[self.kind]} params")


@dataclass(frozen=True)
class SceneSpec:
    """Simulated scanner plus the shapes it should see."""

    primitives: tuple[Primitive, ...]
    rows: int = 64
    cols: int = 512
    fov_up: float = math.radians(3.0)
    fov_down: float = math.radians(-25.0)
    max_range: float = 80.0
    intensity_noise: float = 0.05

    @property
    def num_classes(self) -> int:
        return max(p.class_id for p in self.primitives) + 1


def _ray_hits(spec: SceneSpec, prim: Primitive, dirs: np.ndarray) -> np.ndarray:
    """Smallest positive hit distance per ray, inf for misses."""
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    t = np.full(len(dirs), np.inf)
    if prim.kind == "plane":
        (z0,) = prim.params
        going = dz * np.sign(z0) > 0 if z0 != 0 else np.zeros(len(dirs), bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = np.where(going, z0 / dz, np.inf)
        t = np.where(cand > 1e-6, cand, np.inf)
    elif prim.kind == "box":
        xmin, xmax, ymin, ymax, zmin, zmax = prim.params
        lo = np.array([xmin, ymin, zmin])
        hi = np.array([xmax, ymax, zmax])
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / dirs
        t1 = (lo[None, :] - 0.0) * inv
        t2 = (hi[None, :] - 0.0) * inv
        tmin = np.minimum(t1, t2).max(axis=1)
        tmax = np.maximum(t1, t2).min(axis=1)
        hit = (tmax >= tmin) & (tmax > 1e-6)
        t = np.where(hit, np.where(tmin > 1e-6, tmin, tmax), np.inf)
    elif prim.kind == "pole":
        cx, cy, radius, zmin, zmax = prim.params
        a = dx**2 + dy**2
        b = -2.0 * (dx * cx + dy * cy)
        c = cx**2 + cy**2 - radius**2
        disc = b**2 - 4.0 * a * c
        with np.errstate(divide="ignore", invalid="ignore"):
            sq = np.sqrt(np.maximum(disc, 0.0))
            t_near = (-b - sq) / (2.0 * a)
            t_far = (-b + sq) / (2.0 * a)
        cand = np.where(t_near > 1e-6, t_near, t_far)
        z_hit = cand * dz
        ok = (disc >= 0) & (cand > 1e-6) & (z_hit >= zmin) & (z_hit <= zmax)
        t = np.where(ok, cand, np.inf)
    return np.where(t <= spec.max_range, t, np.inf)


def generate_synthetic_scene(seed: int, spec: SceneSpec) -> LidarScan:
    """Ray-cast the scene on the scanner grid; deterministic per seed.

    Every emitted point carries the class of the primitive it hit. Raises if
    the spec covers fewer than two classes or a requested class ends up
    invisible from the sensor.
    """
    if not spec.primitives:
        raise SceneSpecError("scene has no primitives")
    wanted = sorted({p.class_id for p in spec.primitives})
    if len(wanted) < 2:
        raise SceneSpecError("scene must cover at least two classes")

    rng = np.random.default_rng(check_seed(seed))
    fov = abs(spec.fov_down) + abs(spec.fov_up)
    v_idx, u_idx = np.meshgrid(np.arange(spec.rows), np.arange(spec.cols), indexing="ij")
    pitch = (1.0 - (v_idx.ravel() + 0.5) / spec.rows) * fov - abs(spec.fov_down)
    yaw = math.pi * (1.0 - 2.0 * (u_idx.ravel() + 0.5) / spec.cols)

    dirs = np.stack(
        [np.cos(pitch) * np.cos(yaw), np.cos(pitch) * np.sin(yaw), np.sin(pitch)], axis=1
    )
    best_t = np.full(len(dirs), np.inf)
    best_cls = np.full(len(dirs), -1, dtype=np.int32)
    for prim in spec.primitives:
        t = _ray_hits(spec, prim, dirs)
        closer = t < best_t
        best_t = np.where(closer, t, best_t)
        best_cls = np.where(closer, prim.class_id, best_cls)

    hit = np.isfinite(best_t)
    if not hit.any():
        raise SceneSpecError("no ray hit any primitive")
    xyz = (dirs[hit] * best_t[hit, None]).astype(np.float32)
    labels = best_cls[hit]

    # class-keyed base remission so shapes are separable from intensity alone
    base = 0.2 + 0.6 * (labels % 4) / 3.0
    noise = rng.uniform(-spec.intensity_noise, spec.intensity_noise, len(base))
    intensity = np.clip(base + noise, 0.0, 1.0).astype(np.float32)

    missing = [c for c in wanted if not np.any(labels == c)]
    if missing:
        raise SceneSpecError(f"classes {missing} are not visible from the sensor")
    return LidarScan(xyz=xyz, intensity=intensity, labels=labels)


def default_scene_spec(seed: int, num_classes: int = 4, rows: int = 64, cols: int = 512) -> SceneSpec:
    """Randomized desk-scale scene: ground plane, boxes, poles, wall slabs."""
    if not 2 <= num_classes <= 4:
        raise SceneSpecError("default scene supports 2..4 classes")
    rng = np.random.default_rng(check_seed(seed))
    prims = [Primitive("plane", 0, (-1.7,))]
    if num_classes >= 2:
        for _ in range(4):
            cx, cy = rng.uniform(-18, 18, 2)
            if abs(cx) < 4 and abs(cy) < 4:
                cx += 8.0
            sx, sy = rng.uniform(1.0, 3.0, 2)
            h = rng.uniform(0.8, 2.2)
            prims.append(Primitive("box", 1, (cx - sx, cx + sx, cy - sy, cy + sy, -1.7, -1.7 + h)))
    if num_classes >= 3:
        for _ in range(6):
            cx, cy = rng.uniform(-15, 15, 2)
            if abs(cx) < 3 and abs(cy) < 3:
                cy += 6.0
            prims.append(Primitive("pole", 2, (cx, cy, rng.uniform(0.15, 0.4), -1.7, rng.uniform(1.5, 4.0))))
    if num_classes >= 4:
        for side in (-1.0, 1.0):
            off = rng.uniform(22, 30)
            prims.append(Primitive("box", 3, (-40, 40, side * off - 0.5, side * off + 0.5, -1.7, 3.0)))
    return SceneSpec(primitives=tuple(prims), rows=rows, cols=cols)


# ---------------------------------------------------------------------------
# Augmentation


@dataclass(frozen=True)
class AugmentConfig:
    """Per-transform application probabilities and magnitude ranges."""

    prob_rotation: float = 0.5
    prob_translation: float = 0.5
    prob_flip: float = 0.5
    prob_drop: float = 0.5
    rotation_range: tuple[float, float] = (-math.pi, math.pi)   # about z
    translation_range: float = 5.0                              # +-m per axis
    drop_range: tuple[float, float] = (0.0, 0.1)                # fraction removed


def augment_scan(scan: LidarScan, seed: int, config: AugmentConfig = AugmentConfig()) -> LidarScan:
    """Apply seeded rotation / translation / y-flip / point dropout.

    Label-point pairing is preserved; under dropout the surviving labels are a
    subsequence of the originals.
    """
    if scan.labels is None:
        raise MissingLabelsError("augmentation is training-time only; scan has no labels")
    rng = np.random.default_rng(seed)
    xyz = scan.xyz.astype(np.float64)
    intensity = scan.intensity
    labels = scan.labels

    if rng.random() < config.prob_rotation:
        ang = rng.uniform(*config.rotation_range)
        c, s = math.cos(ang), math.sin(ang)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        xyz = xyz @ rot.T
    if rng.random() < config.prob_translation:
        xyz = xyz + rng.uniform(-config.translation_range, config.translation_range, 3)
    if rng.random() < config.prob_flip:
        xyz = xyz * np.array([1.0, -1.0, 1.0])
    if rng.random() < config.prob_drop:
        frac = rng.uniform(*config.drop_range)
        keep = rng.random(len(xyz)) >= frac
        xyz, intensity, labels = xyz[keep], intensity[keep], labels[keep]

    return LidarScan(xyz=xyz.astype(np.float32), intensity=intensity, labels=labels)


def compute_class_frequencies(scans, num_classes: int) -> ClassWeights:
    """Count points per class and derive 1/sqrt(f) loss weights.

    Classes absent from every scan get weight 0, keeping the loss finite.
    """
    counts = np.zeros(num_classes, dtype=np.int64)
    for scan in scans:
        if scan.labels is None:
            raise MissingLabelsError("all scans must be labeled")
        counts += np.bincount(scan.labels, minlength=num_classes)[:num_classes]
    weights = np.zeros(num_classes, dtype=np.float64)
    present = counts > 0
    weights[present] = 1.0 / np.sqrt(counts[present])
    return ClassWeights(weights=weights, frequencies=counts)

"""The four benchmark workloads: inputs, one operation each, and output checks.

Every workload is a closed loop with one client: an operation starts when the
previous one has finished. Inputs are generated from the workload seed before
anything is timed, and the package only ever sees the generated scans. The
package is called through module attributes (``projection.build_range_image``
and so on) so that the tracer's wrappers, when installed, see every call.
"""

from __future__ import annotations

import importlib
import math
import os
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

import rangeseg.checkpoint as checkpoint
import rangeseg.metrics as metrics
import rangeseg.model as model_mod
import rangeseg.pointcloud as pointcloud
import rangeseg.postproc as postproc
import rangeseg.projection as projection
import rangeseg.uncertainty as uncertainty
from rangeseg.errors import SceneSpecError

# the package's __init__ re-exports the function train(), which hides the
# submodule from `import rangeseg.train as ...`
train_mod = importlib.import_module("rangeseg.train")

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKPOINT = os.path.join(HERE, "micro.rseg")  # made by make_checkpoint.py
NUM_CLASSES = 4
MICRO_PROJ = projection.ProjectionConfig(w=512, h=64)
PAPER_PROJ = projection.ProjectionConfig(w=2048, h=64)
KNN = postproc.KnnConfig()  # the CLI defaults: 5x5 window, k=5, 1 m cutoff, inverse-gap votes
KNN_GAP_EPS = 1e-3          # documented vote weight 1 / (1e-3 + gap)
KNN_SAMPLE = 400            # random points checked against the brute-force vote, once per run
PROB_TOL = 1e-5
MC_TRIALS = 30
NOISE = uncertainty.SensorNoiseModel.isotropic(1e-3)


@dataclass
class OpResult:
    seconds: float                  # wall time of the timed calls
    items: int                      # scans (or training images) completed
    latencies_ms: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def make_scans(seed, name, count, proj):
    """``count`` distinct labelled synthetic scans for this seed and workload.

    Scene and spec seeds are drawn from [2**20, 2**31), so they never meet the
    checkpoint's training seeds (spec 0..19, scene 1000..1019).
    """
    rng = np.random.default_rng([zlib.crc32(name.encode()), seed])
    scans = []
    while len(scans) < count:
        spec_seed, scene_seed = (int(s) for s in rng.integers(2**20, 2**31, size=2))
        spec = pointcloud.default_scene_spec(spec_seed, NUM_CLASSES, rows=proj.h, cols=proj.w)
        try:
            scans.append(pointcloud.generate_synthetic_scene(scene_seed, spec))
        except SceneSpecError:
            continue  # a class hidden from the sensor; draw the next scene
    return scans


# ---- output checks -------------------------------------------------------


def check_probs(probs, what="probabilities"):
    if not np.all(np.isfinite(probs)):
        return [f"{what} not finite"]
    err = float(np.abs(probs.sum(axis=0, dtype=np.float64) - 1.0).max())
    return [f"{what} sum to 1 only within {err:.2e}"] if err > PROB_TOL else []


def check_labels(labels, n_points):
    if labels.shape != (n_points,):
        return [f"{labels.shape} labels for {n_points} points"]
    if labels.min() < 0 or labels.max() >= NUM_CLASSES:
        return [f"labels outside [0, {NUM_CLASSES})"]
    return []


def check_map(values, what):
    return [] if np.all(np.isfinite(values)) and values.min() >= 0 else [f"{what} not finite and >= 0"]


# ---- counts computed outside the package ----------------------------------


def projection_counts(scan, proj):
    """Points, collisions (points that lost their pixel) and FoV-clamped points.

    Re-derives each point's pixel with the documented spherical mapping
    instead of reading the package's bookkeeping.
    """
    xyz = scan.xyz.astype(np.float64)
    r = np.sqrt(np.sum(xyz**2, axis=1))
    ok = r > 0
    pitch = np.arcsin(np.clip(xyz[ok, 2] / r[ok], -1.0, 1.0))
    fov = abs(proj.fov_down) + abs(proj.fov_up)
    u = np.floor(0.5 * (1.0 - np.arctan2(xyz[ok, 1], xyz[ok, 0]) / math.pi) * proj.w)
    v = np.floor((1.0 - (pitch + abs(proj.fov_down)) / fov) * proj.h)
    clamped = int(np.count_nonzero((v < 0) | (v >= proj.h)))
    pix = np.clip(v, 0, proj.h - 1) * proj.w + np.clip(u, 0, proj.w - 1)
    pixels = len(np.unique(pix))
    return {"points": len(scan), "collisions": int(ok.sum()) - pixels, "fov_clamped": clamped,
            "fill": pixels / (proj.h * proj.w)}


def brute_force_knn(img, pixel_labels, point_ranges, point_labels, idx):
    """Per-point vote with the documented rules, for the points in ``idx``.

    Window slots are scanned row by row; the k smallest range gaps win, ties
    by slot order; gaps above the cutoff are dropped; votes weigh
    1/(1e-3 + gap); label ties go to the smaller class. Points without a
    pixel or without a surviving neighbour keep their label.
    """
    h, w = img.valid.shape
    half = KNN.window // 2
    rng_px = img.range_channel()
    out = point_labels[idx].copy()
    for j, p in enumerate(idx):
        u, v = (int(c) for c in img.pixel_of_point[p])
        if u < 0:
            continue
        cands = []
        offsets = [(dv, du) for dv in range(-half, half + 1) for du in range(-half, half + 1)]
        for slot, (dv, du) in enumerate(offsets):
            vv, uu = v + dv, u + du
            if 0 <= vv < h and 0 <= uu < w and img.valid[vv, uu]:
                gap = abs(float(rng_px[vv, uu]) - float(point_ranges[p]))
                cands.append((gap, slot, int(pixel_labels[vv, uu])))
        cands.sort()
        scores = {}
        for gap, _, label in cands[: KNN.k]:
            if gap <= KNN.cutoff:
                scores[label] = scores.get(label, 0.0) + 1.0 / (KNN_GAP_EPS + gap)
        if scores:
            top = max(scores.values())
            out[j] = min(label for label, s in scores.items() if s == top)
    return out


# ---- workloads -----------------------------------------------------------


class Workload:
    """One benchmark workload.

    ``setup`` is what ``setup_s`` times: checkpoint load (or seeded build)
    plus one warm-up call at the workload's shape. ``op(model, i, attach)``
    runs operation ``i`` and returns an OpResult; ``attach`` instruments a
    model in the traced run and is the identity otherwise. The first
    ``per_pass`` operations visit each distinct input once, and the
    quality metrics and counts come from that pass, so they repeat exactly
    for a seed however long the run is.
    """

    name = ""
    setups = 3
    per_pass = 1
    proj = MICRO_PROJ
    uses_checkpoint = True

    def load(self):
        model, _, _ = checkpoint.load_checkpoint(CHECKPOINT)
        return model

    def quality(self):
        return {}

    def counts(self):
        return {}


class Infer(Workload):
    """read_kitti_scan -> build_range_image -> forward(eval) -> argmax ->
    back_project -> knn_filter -> write_kitti_labels, as ``rangeseg infer``."""

    name = "infer"
    per_pass = 8
    setups = 5

    def __init__(self, seed):
        self.seed = seed
        self.scans = make_scans(seed, self.name, self.per_pass, self.proj)
        self.blobs = [pointcloud.write_kitti_scan(s) for s in self.scans]
        self.cm = metrics.ConfusionMatrix(NUM_CLASSES)
        self.seen = set()
        self.proj_counts = []
        self.changed = self.fixed = 0
        self.knn_checked = False

    def setup(self):
        model = self.load()
        self._pipeline(model, 0)
        return model

    def _pipeline(self, model, k):
        scan = pointcloud.read_kitti_scan(self.blobs[k])
        img = projection.build_range_image(scan, self.proj)
        probs = model.forward(img.channels, mode="eval")
        pixel_labels = probs.argmax(axis=0).astype(np.int32)
        points = projection.back_project(pixel_labels, img, fill=0)
        labels = postproc.knn_filter(img, pixel_labels, scan.ranges(), points, KNN)
        blob = pointcloud.write_kitti_labels(labels)
        return scan, img, probs, pixel_labels, points, labels, blob

    def op(self, model, i, attach):
        k = i % self.per_pass
        t0 = time.perf_counter()
        scan, img, probs, pixel_labels, points, labels, blob = self._pipeline(model, k)
        dt = time.perf_counter() - t0
        failures = check_probs(probs) + check_labels(labels, len(scan))
        if len(blob) != 4 * len(labels):
            failures.append(f"label file of {len(blob)} bytes for {len(labels)} points")
        if not self.knn_checked:
            failures += self._check_knn(img, pixel_labels, scan.ranges(), points, labels)
        if k not in self.seen:
            self.seen.add(k)
            failures += self._count(k, img, points, labels)
        return OpResult(dt, 1, [dt * 1e3], failures)

    def _check_knn(self, img, pixel_labels, ranges, points, labels):
        """Every point the filter relabelled, plus a fixed random sample."""
        self.knn_checked = True
        rng = np.random.default_rng([zlib.crc32(b"knn-sample"), self.seed])
        sample = rng.choice(len(points), size=min(KNN_SAMPLE, len(points)), replace=False)
        idx = np.union1d(sample, np.flatnonzero(labels != points))
        want = brute_force_knn(img, pixel_labels, ranges, points, idx)
        bad = int(np.count_nonzero(labels[idx] != want))
        return [f"knn_filter differs from the brute-force vote on {bad}/{len(idx)} points"] if bad else []

    def _count(self, k, img, points, labels):
        gt = self.scans[k].labels
        self.cm.accumulate(gt, labels)
        changed = labels != points
        self.changed += int(changed.sum())
        self.fixed += int((changed & (labels == gt)).sum())
        c = projection_counts(self.scans[k], self.proj)
        self.proj_counts.append(c)
        mapped = int((img.pixel_of_point[:, 0] >= 0).sum())
        if mapped - int(img.valid.sum()) != c["collisions"]:
            return [f"projection collisions {mapped - int(img.valid.sum())} != {c['collisions']} recounted"]
        return []

    def quality(self):
        return {"point_miou": (self.cm.miou(), "1", "higher")}

    def counts(self):
        out = mean_counts(self.proj_counts)
        n = len(self.seen)
        out["postproc.labels_changed"] = self.changed / n
        out["postproc.knn_fix_ratio"] = self.fixed / self.changed if self.changed else 0.0
        return out


class InferPaper(Infer):
    """The infer sequence on the paper's default network at KITTI width."""

    name = "infer-paper"
    per_pass = 2
    setups = 2  # each set-up includes a ~6 s warm-up forward
    proj = PAPER_PROJ
    uses_checkpoint = False

    def load(self):
        return model_mod.build_model(model_mod.ModelConfig(num_classes=NUM_CLASSES), seed=0)


class Train(Workload):
    """``train()`` on the micro config: batch 4, augmentation on, fixed seed,
    including the final BatchNorm re-estimation. One operation is one
    ``train()`` call from a freshly built model."""

    name = "train"
    num_scans = 8
    cfg = train_mod.TrainConfig(epochs=3, batch_size=4, seed=0, augment=True)
    uses_checkpoint = False

    def __init__(self, seed):
        self.scans = make_scans(seed, self.name, self.num_scans, self.proj)
        self.final_loss = None

    def load(self):
        return model_mod.build_model(model_mod.micro_config(num_classes=NUM_CLASSES), seed=0)

    def setup(self):
        model = self.load()
        imgs = [projection.build_range_image(s, self.proj) for s in self.scans[: self.cfg.batch_size]]
        probs = model.forward(np.stack([im.channels for im in imgs]), mode="train",
                              rng=np.random.default_rng(0), cache=True)
        model.backward(np.full_like(probs, 1.0 / probs.size))
        return model

    def op(self, _model, i, attach):
        model = attach(self.load())
        marks = []
        t0 = time.perf_counter()
        result = train_mod.train(model, self.scans, self.proj, self.cfg,
                                 progress=lambda record: marks.append(time.perf_counter()))
        dt = time.perf_counter() - t0
        epochs = np.diff([t0] + marks)
        failures = []
        if len(result.history) != self.cfg.epochs:
            failures.append(f"{len(result.history)} epochs logged, {self.cfg.epochs} run")
        loss = result.history[-1]["loss_total"] if result.history else float("nan")
        if not math.isfinite(loss):
            failures.append("final loss not finite")
        if not all(np.isfinite(p.value).all() for _, p in model.named_params()):
            failures.append("parameters not finite")
        if self.final_loss is None:
            self.final_loss = loss
        elif loss != self.final_loss:
            failures.append(f"seeded replica ended at loss {loss!r}, first run {self.final_loss!r}")
        latencies = [e * 1e3 / self.num_scans for e in epochs]
        return OpResult(dt, self.cfg.epochs * self.num_scans, latencies, failures)

    def quality(self):
        return {"final_loss": (self.final_loss, "1", "lower")}

    def counts(self):
        return mean_counts([projection_counts(s, self.proj) for s in self.scans])


class Uncertainty(Workload):
    """mc_dropout_infer(n=30) -> adf_infer (isotropic noise, valid mask) ->
    nll_objective, per scan, on the trained micro checkpoint."""

    name = "uncertainty"
    per_pass = 2
    setups = 5

    def __init__(self, seed):
        self.scans = make_scans(seed, self.name, self.per_pass, self.proj)
        self.nll = {}

    def setup(self):
        model = self.load()
        img = projection.build_range_image(self.scans[0], self.proj)
        uncertainty.mc_dropout_infer(model, img.channels, 1, seed=0)
        uncertainty.adf_infer(model, img.channels, NOISE, img.valid)
        return model

    def op(self, model, i, attach):
        k = i % self.per_pass
        scan = self.scans[k]
        t0 = time.perf_counter()
        img = projection.build_range_image(scan, self.proj)
        targets = img.label_image(scan.labels, fill=0)
        mc = uncertainty.mc_dropout_infer(model, img.channels, MC_TRIALS, seed=k)
        adf = uncertainty.adf_infer(model, img.channels, NOISE, img.valid)
        nll = uncertainty.nll_objective(mc.mean_prediction, mc.epistemic + adf.aleatoric, targets, img.valid)
        dt = time.perf_counter() - t0
        failures = (check_probs(mc.mean_prediction, "MC mean probabilities")
                    + check_probs(adf.mean_prediction, "ADF mean probabilities")
                    + check_map(mc.epistemic, "epistemic map") + check_map(adf.aleatoric, "aleatoric map"))
        if not math.isfinite(nll):
            failures.append("NLL not finite")
        self.nll.setdefault(k, (nll, int(img.valid.sum())))
        return OpResult(dt, 1, [dt * 1e3], failures)

    def quality(self):
        total = sum(v for v, _ in self.nll.values())
        pixels = sum(n for _, n in self.nll.values())
        return {"nll_per_pixel": (total / pixels, "1", "lower")}

    def counts(self):
        return mean_counts([projection_counts(s, self.proj) for s in self.scans])


def mean_counts(per_scan):
    """Per-scan means of the projection counts."""
    n = len(per_scan)
    return {
        "projection.points": sum(c["points"] for c in per_scan) / n,
        "projection.collisions": sum(c["collisions"] for c in per_scan) / n,
        "projection.fov_clamped": sum(c["fov_clamped"] for c in per_scan) / n,
        "projection.fill_ratio": sum(c["fill"] for c in per_scan) / n,
    }


WORKLOADS = {w.name: w for w in (Infer, InferPaper, Train, Uncertainty)}

"""SGD training loop: shuffle, augment, project, forward, loss, step.

Everything is seeded; a (seed, data, config) triple reproduces the trained
parameters bit for bit on a single thread.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, EmptyBatchError, TrainingDivergedError
from .layers import BatchNorm2d
from .losses import total_loss
from .metrics import ConfusionMatrix
from .model import Model
from .pointcloud import ClassWeights, augment_scan, compute_class_frequencies
from .postproc import KnnConfig, knn_filter
from .projection import ProjectionConfig, back_project, build_range_image


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    lr0: float = 0.01
    lr_decay: float = 0.99      # lr is multiplied by this after every epoch
    momentum: float = 0.9
    weight_decay: float = 1e-4  # L2, applied to conv kernels only
    batch_size: int = 24
    seed: int = 0
    augment: bool = True

    def __post_init__(self):
        if not 0.0 < self.lr0 < math.inf:  # NaN fails every chained comparison here
            raise ConfigError("lr0 must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError("weight_decay must be finite and >= 0")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError("lr_decay must lie in (0, 1]")
        ints = isinstance(self.batch_size, numbers.Integral) and isinstance(self.epochs, numbers.Integral)
        if not ints or self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("integer batch_size >= 1 and epochs >= 0 required")


def normalize_weights(cw: ClassWeights) -> ClassWeights:
    """Scale class weights so the expected per-pixel weight is 1."""
    f = cw.frequencies
    present = f > 0
    if not present.any():
        return cw
    mean_w = float((cw.weights[present] * f[present]).sum() / f[present].sum())
    return ClassWeights(weights=cw.weights / mean_w, frequencies=f)


class MomentumState:
    """One velocity buffer per parameter, kept in parameter order."""

    def __init__(self, params):
        self.buffers = [np.zeros_like(p.value) for p in params]


def sgd_step(params, grads, state: MomentumState, cfg: TrainConfig, lr: float):
    """buffer <- momentum*buffer + grad (+ lambda*param); param -= lr*buffer."""
    if len(params) != len(grads) or len(params) != len(state.buffers):
        raise DimensionError("params, grads and momentum buffers must align")
    for p, g, buf in zip(params, grads, state.buffers):
        if g.shape != p.value.shape:
            raise DimensionError(f"gradient shape {g.shape} != param {p.value.shape}")
        eff = g + cfg.weight_decay * p.value if (p.decay and cfg.weight_decay) else g
        buf *= cfg.momentum
        buf += eff
        p.value -= lr * buf


@dataclass
class TrainResult:
    history: list = field(default_factory=list)
    final_lr: float = 0.0
    weights: ClassWeights | None = None


def _batches(order, size):
    for i in range(0, len(order), size):
        yield order[i : i + size]


def reestimate_bn_stats(model, scans, proj_cfg, passes: int = 3):
    """Refresh BatchNorm running averages with dropout switched off.

    During training the running statistics track dropout-perturbed
    activations; eval runs with dropout disabled, so those averages are
    biased and eval-mode accuracy lags well behind batch-stat accuracy.
    A few dropout-free train-mode passes realign them. Parameters are
    untouched, only the BN buffers move.

    Every pass feeds each BN layer the same batch (mean, var) per scan:
    train-mode BN normalises with the batch statistics, not the running
    ones; rate-0 dropout is the identity and draws no random numbers; and
    no parameter moves. So one forward per scan records those statistics,
    and the later passes replay the momentum updates r <- (1 - m) * r +
    m * stat per layer in scan order, bit-equal to running the forwards.
    The record holds 2 x (BN channels) values per scan: in float32, 3.3 KB
    per scan for the micro net and 42 KB for the default net.
    """
    if passes < 1:
        return
    bns = [layer for _, layer in model.named_layers() if isinstance(layer, BatchNorm2d)]
    stats = []
    for scan in scans:
        img = build_range_image(scan, proj_cfg)
        model.forward(img.channels, mode="train", rate=0.0)
        stats.append([bn.last_stats for bn in bns])
    for _ in range(passes - 1):
        for scan_stats in stats:
            for bn, (mean, var) in zip(bns, scan_stats):
                bn.update_running(mean, var)


def train(
    model: Model,
    scans,
    proj_cfg: ProjectionConfig,
    cfg: TrainConfig,
    weights: ClassWeights | None = None,
    log_path=None,
    progress=None,
) -> TrainResult:
    """Train in place; returns per-epoch metrics (also written as JSON lines)."""
    scans = list(scans)
    if not scans:
        raise EmptyBatchError("training needs at least one scan")
    c = model.cfg.num_classes
    if weights is None:
        # 1/sqrt(count) weights rescaled to a pixel-mean of 1, so the loss
        # magnitude does not shrink with dataset size (ratios unchanged)
        weights = normalize_weights(compute_class_frequencies(scans, c))

    ss = np.random.SeedSequence(cfg.seed)
    rng_shuffle, rng_aug, rng_drop = (np.random.default_rng(s) for s in ss.spawn(3))
    params = [p for _, p in model.named_params()]
    state = MomentumState(params)
    lr = cfg.lr0
    result = TrainResult(weights=weights)
    log = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(cfg.epochs):
            order = rng_shuffle.permutation(len(scans))
            cm = ConfusionMatrix(c)
            loss_sums = np.zeros(3)
            steps = 0
            for batch in _batches(order, cfg.batch_size):
                xs, labs, vals = [], [], []
                for i in batch:
                    scan = scans[int(i)]
                    if cfg.augment:
                        scan = augment_scan(scan, int(rng_aug.integers(2**31)))
                    img = build_range_image(scan, proj_cfg)
                    xs.append(img.channels)
                    labs.append(img.label_image(scan.labels, fill=0))
                    vals.append(img.valid)
                x = np.stack(xs)
                probs = model.forward(x, mode="train", rng=rng_drop, cache=True)
                g = np.zeros_like(probs)
                batch_losses = np.zeros(3)
                for b in range(len(batch)):
                    pb = probs[b].reshape(c, -1)
                    lv = total_loss(pb, labs[b].ravel(), weights, vals[b].ravel())
                    g[b] = lv.gradient.reshape(probs.shape[1:]) / len(batch)
                    batch_losses += (lv.total, lv.wce, lv.lovasz)
                    vb = vals[b].ravel()
                    cm.accumulate(labs[b].ravel()[vb], pb.argmax(axis=0)[vb])
                batch_losses /= len(batch)
                if not np.all(np.isfinite(batch_losses)):
                    raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
                model.zero_grads()
                model.backward(g)
                sgd_step(params, [p.grad for p in params], state, cfg, lr)
                loss_sums += batch_losses
                steps += 1
            if not all(np.isfinite(p.value).all() for p in params):
                raise TrainingDivergedError(f"non-finite parameter after epoch {epoch}")
            record = {
                "epoch": epoch,
                "lr": lr,
                "loss_total": loss_sums[0] / steps,
                "loss_wce": loss_sums[1] / steps,
                "loss_ls": loss_sums[2] / steps,
                "train_miou": cm.miou(),
            }
            result.history.append(record)
            if log:
                log.write(json.dumps(record) + "\n")
                log.flush()
            if progress:
                progress(record)
            lr *= cfg.lr_decay
    finally:
        if log:
            log.close()
    if cfg.epochs > 0:
        reestimate_bn_stats(model, scans, proj_cfg)
    result.final_lr = lr
    return result


def evaluate_pointwise(model, scans, proj_cfg, knn_cfg: KnnConfig | None = None):
    """Point-wise confusion of eval-mode predictions, optionally kNN-cleaned.

    Points that lost their pixel in projection keep the back-projected label
    of whatever won the pixel; kNN is what recovers those, which is the point.
    """
    cm = ConfusionMatrix(model.cfg.num_classes)
    for scan in scans:
        img = build_range_image(scan, proj_cfg)
        probs = model.forward(img.channels, mode="eval")
        pixel_labels = probs.argmax(axis=0).astype(np.int32)
        pts = back_project(pixel_labels, img, fill=0)
        if knn_cfg is not None:
            pts = knn_filter(img, pixel_labels, scan.ranges(), pts, knn_cfg)
        cm.accumulate(scan.labels, pts)
    return cm

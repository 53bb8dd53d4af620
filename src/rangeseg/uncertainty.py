"""Epistemic (MC-dropout) and aleatoric (ADF) uncertainty for one range image.

Epistemic: n stochastic forward passes with dropout kept active (batch norm
stays in eval statistics), per-pixel value = sum over classes of the
population variance of the per-trial probabilities. The trials go to
Model.forward a group at a time, all sharing one HeldPrefix: the image's
first forward runs the layers before the first dropout layer and every
later one, at any rate, starts from what it kept. Results are bit-equal to
one forward per trial. Aleatoric: the input is wrapped as a Gaussian with
per-channel sensor noise and pushed through the ADF rules; per-pixel value =
sum over classes of the output variance. The grid search picks the dropout
rate minimizing a Gaussian negative log-likelihood of the one-hot labels
under the total uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adf import GaussianTensor
from .errors import ConfigError, DimensionError, InvalidDistributionError, InvalidTrialsError
from .layers import check_rate
from .model import HeldPrefix, Model
from .projection import CHANNELS

SIGMA_FLOOR = 1e-6
# Trials per Model.forward in mc_dropout_infer, counting one float64
# base-width feature map per trial: the widened suffix holds a few such maps
# per trial. With the prefix held, widening no longer saves prefix work: on
# the micro net at 64x512, n=30 in groups of 1/2/3/5 took a median
# 1.24/1.24/1.26/1.34 s (16 interleaved calls, 2-vCPU Xeon, one BLAS thread)
# and peaked at 95/106/118/142 MB RSS. adf_infer on one such image peaks at
# 122 MB, 59 MB above a fresh process with the checkpoint loaded. Groups of 1
# are as fast and the smallest, so 2 MiB gives one micro trial at 64x512 per
# forward, and one default-config trial at 64x2048; small images still widen.
_MC_GROUP_BYTES = 2 << 20


@dataclass(frozen=True)
class SensorNoiseModel:
    """Per-channel input variances (x, y, z, intensity, range), unit squared."""

    variances: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.variances, dtype=np.float64)
        if v.ndim != 1:
            raise InvalidDistributionError("variances must be a flat vector")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise InvalidDistributionError("variances must be finite and >= 0")
        object.__setattr__(self, "variances", v)

    @classmethod
    def from_dict(cls, d: dict) -> "SensorNoiseModel":
        try:
            return cls(np.array([float(d[k]) for k in CHANNELS]))
        except KeyError as exc:
            raise ConfigError(f"noise model missing channel {exc.args[0]!r}")
        except ValueError as exc:
            raise ConfigError(f"bad noise value: {exc}")

    @classmethod
    def isotropic(cls, variance: float) -> "SensorNoiseModel":
        return cls(np.full(len(CHANNELS), float(variance)))


@dataclass
class UncertaintyMap:
    mean_prediction: np.ndarray       # (C, h, w) probabilities
    epistemic: np.ndarray             # (h, w), >= 0
    aleatoric: np.ndarray             # (h, w), >= 0


def _zeros_like_map(probs):
    return np.zeros(probs.shape[1:], dtype=np.float64)


def mc_dropout_infer(model: Model, x: np.ndarray, n: int, seed=0, rate=None, held=None) -> UncertaintyMap:
    """n dropout-active forward passes; epistemic variance of the softmax.

    Trial i draws its masks from default_rng(SeedSequence(seed).spawn(n)[i]);
    each Model.forward call gets a group of these generators and widens the
    batch to the group at the first dropout. held shares x's prefix with
    other calls on x (a fresh HeldPrefix if None). The trials are stored in
    the forward's dtype and reduced in float64 a trial at a time, in trial
    order, which is what numpy's mean and var over the trial axis do.
    """
    if n < 1:
        raise InvalidTrialsError("need at least one trial")
    x = np.asarray(x)
    if x.ndim != 3:
        raise DimensionError(f"expected one (channels, h, w) image, got {x.shape}")
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]
    group = max(1, _MC_GROUP_BYTES // (8 * model.cfg.base_channels * x.shape[1] * x.shape[2]))
    held = HeldPrefix() if held is None else held
    trials = None
    for i in range(0, n, group):
        probs = model.forward(x, mode="mc", rng=rngs[i : i + group], rate=rate, held=held)
        if trials is None:
            trials = np.empty((n,) + probs.shape[1:], dtype=probs.dtype)
        trials[i : i + group] = probs
    mean = trials[0].astype(np.float64)
    for t in trials[1:]:
        mean += t
    mean /= n
    var = np.zeros_like(mean)
    for t in trials:
        d = t - mean
        var += d * d
    var /= n  # population variance
    return UncertaintyMap(mean_prediction=mean, epistemic=var.sum(axis=0), aleatoric=_zeros_like_map(mean))


def _check_pixels(shape, **maps):
    """DimensionError unless each per-pixel map has the image's (h, w) shape."""
    for name, m in maps.items():
        if np.shape(m) != shape:
            raise DimensionError(f"{name} must have the image's shape {shape}, got {np.shape(m)}")


def adf_infer(model: Model, x: np.ndarray, noise: SensorNoiseModel, valid=None) -> UncertaintyMap:
    """Propagate sensor noise; aleatoric variance of the class probabilities."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise DimensionError(f"expected one (channels, h, w) image, got {x.shape}")
    if len(noise.variances) != x.shape[0]:
        raise DimensionError(f"noise model has {len(noise.variances)} channels, image {x.shape[0]}")
    var = np.broadcast_to(noise.variances[:, None, None], x.shape).copy()
    if valid is not None:
        _check_pixels(x.shape[1:], valid=valid)
        var *= np.asarray(valid, dtype=np.float64)[None]  # empty pixels carry no noise
    out = model.adf(GaussianTensor(x[None], var[None]))
    return UncertaintyMap(
        mean_prediction=out.mean[0],
        epistemic=_zeros_like_map(out.mean[0]),
        aleatoric=out.variance[0].sum(axis=0),
    )


def default_rate_grid() -> np.ndarray:
    """20 log-spaced dropout-rate candidates from 0.01 to 0.5."""
    return np.geomspace(0.01, 0.5, 20)


def nll_objective(mean_prediction, sigma_tot, targets, valid) -> float:
    """Sum over valid pixels of 1/2 log(sigma) + ||onehot - pred||^2 / (2 sigma)."""
    mean_prediction = np.asarray(mean_prediction)
    if mean_prediction.ndim != 3:
        raise DimensionError(f"expected (C, h, w) mean prediction, got {mean_prediction.shape}")
    _check_pixels(mean_prediction.shape[1:], sigma_tot=sigma_tot, targets=targets, valid=valid)
    c = mean_prediction.shape[0]
    onehot = np.eye(c)[np.asarray(targets)]            # (h, w, C)
    resid = ((onehot.transpose(2, 0, 1) - mean_prediction) ** 2).sum(axis=0)
    sigma = np.maximum(sigma_tot, SIGMA_FLOOR)
    per_pixel = 0.5 * np.log(sigma) + resid / (2.0 * sigma)
    return float(per_pixel[np.asarray(valid, dtype=bool)].sum())


def grid_search_dropout_rate(model: Model, calibration, rates, n_trials: int = 30, seed: int = 0):
    """Pick the dropout rate minimizing the NLL objective on labeled data.

    calibration: iterable of (x, targets, valid, aleatoric[, held]) items,
    one per range image, taken one at a time; aleatoric is the image's
    rate-independent ADF map (h, w), and held a HeldPrefix the caller shares
    with its own MC calls on x (a fresh one if absent). The model is never
    retrained; only inference-time dropout changes. Returns (best_rate,
    {rate: objective}) over the distinct rates; each objective sums the
    images in calibration order. Ties go to the smaller rate.
    """
    rates = sorted({check_rate(float(r), "candidate rate") for r in rates})
    if not rates:
        raise ConfigError("need at least one candidate rate")

    objectives = dict.fromkeys(rates, 0.0)
    images = 0
    for x, targets, valid, aleatoric, *held in calibration:
        held = held[0] if held else HeldPrefix()  # the image's prefix runs once, for every rate
        for rate in rates:
            mc = mc_dropout_infer(model, x, n_trials, seed=seed, rate=rate, held=held)
            objectives[rate] += nll_objective(mc.mean_prediction, mc.epistemic + aleatoric, targets, valid)
        images += 1
        del held  # free it before asking for the next item, whose making may fill another
    if not images:
        raise ConfigError("need at least one calibration image")
    best = min(objectives, key=lambda r: (objectives[r], r))
    return best, objectives

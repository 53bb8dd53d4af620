"""Epistemic (MC-dropout) and aleatoric (ADF) uncertainty for one range image.

Epistemic: n stochastic forward passes with dropout kept active (batch norm
stays in eval statistics), per-pixel value = sum over classes of the
population variance of the per-trial probabilities. Each trial is one
Model.forward, and all share one HeldPrefix: the image's first forward runs
the layers before the first dropout layer and keeps that layer's input and,
in place of each pooled skip taken before it, the skip's term W_skip * skip
+ b of every decoder conv that reads it (see HeldPrefix). Every later one, at
any rate, starts from there and convolves only the upsampled channels in
those decoder convs. Aleatoric: the input is wrapped as a Gaussian with
per-channel sensor noise and pushed through the ADF rules; per-pixel value =
sum over classes of the output variance. The grid search picks the dropout
rate minimizing a Gaussian negative log-likelihood of the one-hot labels
under the total uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adf import GaussianTensor
from .errors import ConfigError, DimensionError, InvalidDistributionError, InvalidTargetError, InvalidTrialsError
from .layers import check_rate, check_seed
from .model import HeldPrefix, Model
from .projection import CHANNELS

SIGMA_FLOOR = 1e-6


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
class EpistemicMap:
    mean_prediction: np.ndarray       # (C, h, w) probabilities
    epistemic: np.ndarray             # (h, w), >= 0


@dataclass
class AleatoricMap:
    mean_prediction: np.ndarray       # (C, h, w) probabilities
    aleatoric: np.ndarray             # (h, w), >= 0


def mc_dropout_infer(model: Model, x: np.ndarray, n: int, seed=0, rate=None, held=None) -> EpistemicMap:
    """n dropout-active forward passes; epistemic variance of the softmax.

    Trial i is one Model.forward whose masks come from
    default_rng(SeedSequence(seed).spawn(n)[i]). held shares x's prefix with
    other calls on x (a fresh HeldPrefix if None). The trials are kept in the
    forward's dtype and reduced in float64 a trial at a time, in trial order,
    which is what numpy's mean and var over the trial axis do.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidTrialsError(f"need a whole number of trials >= 1, got {n!r}")
    check_seed(seed)
    x = np.asarray(x)
    if x.ndim != 3:
        raise DimensionError(f"expected one (channels, h, w) image, got {x.shape}")
    held = HeldPrefix() if held is None else held
    trials = [model.forward(x, mode="mc", rng=np.random.default_rng(s), rate=rate, held=held)
              for s in np.random.SeedSequence(seed).spawn(n)]
    mean = trials[0].astype(np.float64)
    for t in trials[1:]:
        mean += t
    mean /= n
    var = np.zeros_like(mean)
    for t in trials:
        d = t - mean
        var += d * d
    var /= n  # population variance
    return EpistemicMap(mean_prediction=mean, epistemic=var.sum(axis=0))


def _check_pixels(shape, **maps):
    """DimensionError unless each per-pixel map has the image's (h, w) shape."""
    for name, m in maps.items():
        if np.shape(m) != shape:
            raise DimensionError(f"{name} must have the image's shape {shape}, got {np.shape(m)}")


def adf_infer(model: Model, x: np.ndarray, noise: SensorNoiseModel, valid=None) -> AleatoricMap:
    """Propagate sensor noise; aleatoric variance of the class probabilities."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise DimensionError(f"expected one (channels, h, w) image, got {x.shape}")
    if len(noise.variances) != x.shape[0]:
        raise DimensionError(f"noise model has {len(noise.variances)} channels, image {x.shape[0]}")
    var = np.full(x.shape, noise.variances[:, None, None])
    if valid is not None:
        _check_pixels(x.shape[1:], valid=valid)
        var *= np.asarray(valid, dtype=np.float64)[None]  # empty pixels carry no noise
    out = model.adf(GaussianTensor(x[None], var[None]))
    return AleatoricMap(mean_prediction=out.mean[0], aleatoric=out.variance[0].sum(axis=0))


def default_rate_grid() -> np.ndarray:
    """20 log-spaced dropout-rate candidates from 0.01 to 0.5."""
    return np.geomspace(0.01, 0.5, 20)


def nll_objective(mean_prediction, sigma_tot, targets, valid) -> float:
    """Sum over valid pixels of 1/2 log(sigma) + ||onehot - pred||^2 / (2 sigma).

    A valid pixel's target must lie in [0, C) (InvalidTargetError otherwise);
    targets on invalid pixels are ignored.
    """
    mean_prediction = np.asarray(mean_prediction)
    if mean_prediction.ndim != 3:
        raise DimensionError(f"expected (C, h, w) mean prediction, got {mean_prediction.shape}")
    _check_pixels(mean_prediction.shape[1:], sigma_tot=sigma_tot, targets=targets, valid=valid)
    c = mean_prediction.shape[0]
    valid = np.asarray(valid, dtype=bool)
    targets = np.where(valid, targets, 0)
    if ((targets < 0) | (targets >= c)).any():
        raise InvalidTargetError(f"targets on valid pixels must lie in [0, {c})")
    onehot = np.eye(c)[targets]                         # (h, w, C)
    resid = ((onehot.transpose(2, 0, 1) - mean_prediction) ** 2).sum(axis=0)
    sigma = np.maximum(sigma_tot, SIGMA_FLOOR)
    per_pixel = 0.5 * np.log(sigma) + resid / (2.0 * sigma)
    return float(per_pixel[valid].sum())


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

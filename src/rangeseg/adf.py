"""Gaussian mean/variance propagation through the layer vocabulary.

Each rule moment-matches the layer's output distribution given an
elementwise-independent Gaussian input. Linear layers are exact; the leaky
ReLU uses the closed-form first two moments of max(x, a*x); softmax uses a
first-order delta approximation and is documented as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import InvalidDistributionError
from .layers import AvgPool2x2, BatchNorm2d, ChannelDropout, Conv2d, LeakyReLU, PixelShuffle, Softmax

# Guards the sqrt/division in the ReLU moments and absorbs negative rounding
# residue from the E[y^2] - E[y]^2 cancellation. Must stay far below any real
# propagated variance or it would re-inflate confident activations each layer.
VARIANCE_FLOOR = 1e-30


@dataclass
class GaussianTensor:
    """Paired (mean, variance) arrays of identical shape."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.variance.shape:
            raise InvalidDistributionError("mean and variance shapes differ")
        if np.any(self.variance < 0):
            raise InvalidDistributionError("negative variance")
        self.variance = np.maximum(self.variance, VARIANCE_FLOOR).astype(self.mean.dtype, copy=False)

    @classmethod
    def trusted(cls, mean, variance):
        """Wrap arrays known valid, not re-checked: equal shapes, variance floored and of mean's dtype."""
        g = object.__new__(cls)
        g.mean, g.variance = mean, variance
        return g


def _floored(mean, var):
    """A rule's output: floored once and not re-validated, as the rules keep shapes equal."""
    return GaussianTensor.trusted(mean, np.maximum(var, VARIANCE_FLOOR).astype(mean.dtype, copy=False))


def conv2d_adf(layer: Conv2d, g: GaussianTensor) -> GaussianTensor:
    """Exact propagation through an affine map: E via W, Var via W^2."""
    kernel = layer.kernel.value.astype(g.mean.dtype, copy=False)
    mean = layer._correlate(g.mean, kernel, layer.bias.value.astype(kernel.dtype, copy=False))
    var = layer._correlate(g.variance, kernel**2)
    return _floored(mean, var)


def batch_norm_adf(layer: BatchNorm2d, g: GaussianTensor) -> GaussianTensor:
    """Eval-mode affine transform on the mean, squared scale on the variance."""
    inv_std = 1.0 / np.sqrt(layer.running_var + layer.eps)
    scale = (layer.gamma.value * inv_std).astype(g.mean.dtype)
    mean = (g.mean - layer.running_mean[None, :, None, None]) * scale[None, :, None, None]
    mean += layer.beta.value[None, :, None, None]
    var = g.variance * (scale**2)[None, :, None, None]
    return _floored(mean, var)


def leaky_relu_adf(layer: LeakyReLU, g: GaussianTensor) -> GaussianTensor:
    """Closed-form moments of y = max(x, a*x) for x ~ N(mu, v).

    With t = mu/sigma, phi/Phi the standard normal pdf/cdf:
      E[y]   = a*mu + (1-a) * (mu*Phi(t) + sigma*phi(t))
      E[y^2] = (mu^2+v)*Phi(t) + mu*sigma*phi(t)
               + a^2 * ((mu^2+v)*(1-Phi(t)) - mu*sigma*phi(t))
    """
    a = layer.slope
    mu, v = g.mean, g.variance
    sigma = np.sqrt(v)
    t = mu / sigma
    cdf = ndtr(t)
    pdf = np.multiply(-0.5, t)
    pdf *= t
    np.exp(pdf, out=pdf)
    pdf /= math.sqrt(2.0 * math.pi)
    second = mu * mu  # E[x^2] = mu^2 + v
    second += v
    cross = mu * sigma  # mu*sigma*phi(t)
    cross *= pdf
    mean = mu * cdf
    sigma *= pdf
    mean += sigma
    mean *= 1.0 - a
    np.multiply(a, mu, out=t)
    mean += t
    var = second * cdf
    var += cross
    np.subtract(1.0, cdf, out=cdf)
    cdf *= second
    cdf -= cross
    cdf *= a * a
    var += cdf
    var -= np.multiply(mean, mean, out=second)
    return _floored(mean, var)


def avg_pool_adf(layer: AvgPool2x2, g: GaussianTensor) -> GaussianTensor:
    """Mean of independent terms: pooled mean, pooled variance over window size."""
    mean = layer.forward(g.mean)
    var = layer.forward(g.variance) / 4.0
    return _floored(mean, var)


def pixel_shuffle_adf(layer: PixelShuffle, g: GaussianTensor) -> GaussianTensor:
    return _floored(layer.forward(g.mean), layer.forward(g.variance))


def channel_dropout_adf(layer: ChannelDropout, g: GaussianTensor) -> GaussianTensor:
    """Identity: ADF runs the network in eval mode, where dropout is off."""
    return g


def softmax_adf(layer: Softmax, g: GaussianTensor) -> GaussianTensor:
    """Softmax of the means; variance by the first-order delta method.

    Var[s_i] ~= sum_j (ds_i/dx_j)^2 v_j with ds_i/dx_j = s_i*(delta_ij - s_j).
    This is an approximation, not moment matching.
    """
    s = layer.forward(g.mean)
    v = g.variance
    sq = (s**2 * v).sum(axis=1, keepdims=True)
    var = s**2 * ((1.0 - s) ** 2 * v + sq - s**2 * v)
    return _floored(s, var)


_RULES = {
    Conv2d: conv2d_adf,
    BatchNorm2d: batch_norm_adf,
    LeakyReLU: leaky_relu_adf,
    AvgPool2x2: avg_pool_adf,
    PixelShuffle: pixel_shuffle_adf,
    ChannelDropout: channel_dropout_adf,
    Softmax: softmax_adf,
}


def adf_forward(layer, g: GaussianTensor) -> GaussianTensor:
    """Dispatch a layer to its ADF rule."""
    try:
        rule = _RULES[type(layer)]
    except KeyError:
        raise TypeError(f"no ADF rule for {type(layer).__name__}")
    return rule(layer, g)

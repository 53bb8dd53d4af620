"""Gaussian mean/variance propagation through the layer vocabulary.

Each rule moment-matches the layer's output distribution given an
elementwise-independent Gaussian input. Linear layers are exact; the leaky
ReLU uses the closed-form first two moments of max(x, a*x); softmax uses a
first-order delta approximation and is documented as such.

Every rule returns the mean's dtype, as every layer returns its input's
(parameters and statistics of another dtype are read in it, or each op's result
is stored in it), and floors the variance it returns (VARIANCE_FLOOR) on its
own fresh output, in place. The LeakyReLU and BatchNorm2d rules run over the
(n*c, h*w) row blocks of layers._row_blocks, each op of the formula in turn over
one block, so their temporaries are block-sized and stay in cache; every element
still sees the same ops in the same order. Called with own=True (the model does
so for a conv output inside its conv -> act -> bn unit, which nothing else
reads) they always write their result over the input's mean and variance. The
leaky rule evaluates ndtr and exp only where |t| = |mu|/sigma is not beyond
_SATURATED, where they give exactly 0 or 1 and exactly 0; a NaN t takes the
full path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import InvalidDistributionError
from .layers import AvgPool2x2, BatchNorm2d, ChannelDropout, Conv2d, LeakyReLU, PixelShuffle, Softmax, _row_blocks

# Guards the sqrt/division in the ReLU moments and absorbs negative rounding
# residue from the E[y^2] - E[y]^2 cancellation. Must stay far below any real
# propagated variance or it would re-inflate confident activations each layer.
VARIANCE_FLOOR = 1e-30

# |t| beyond which ndtr(t) is exactly 0 or 1 and exp(-t^2/2) exactly 0, in
# float64 and float32 alike: exp(-38.6^2/2) is the least float64 subnormal and
# ndtr is 0 from about -38.5. On the uncertainty benchmark's micro scans 69% of
# the leaky rule's inputs lie beyond it.
_SATURATED = 39.0


@dataclass
class GaussianTensor:
    """Paired (mean, variance) arrays of identical shape."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.variance.shape:
            raise InvalidDistributionError("mean and variance shapes differ")
        if not np.all(self.variance >= 0):
            raise InvalidDistributionError("negative or NaN variance")
        self.variance = np.maximum(self.variance, VARIANCE_FLOOR).astype(self.mean.dtype, copy=False)

    @classmethod
    def trusted(cls, mean, variance):
        """Wrap arrays known valid, not re-checked: equal shapes, variance floored and of mean's dtype."""
        g = object.__new__(cls)
        g.mean, g.variance = mean, variance
        return g


def _floor(mean, var):
    """A rule's output, its fresh variance floored in place on the flat rows view (see layers._PITCH_PAD)."""
    rows, _ = _row_blocks(var)
    np.maximum(rows, VARIANCE_FLOOR, out=rows)
    return GaussianTensor.trusted(mean, rows.reshape(var.shape))


def conv2d_adf(layer: Conv2d, g: GaussianTensor) -> GaussianTensor:
    """Exact propagation through an affine map: E via W, Var via W^2."""
    kernel = layer.kernel.value.astype(g.mean.dtype, copy=False)
    mean = layer._correlate(g.mean, kernel, layer.bias.value.astype(kernel.dtype, copy=False))
    return _floor(mean, layer._correlate(g.variance, kernel**2))


def batch_norm_adf(layer: BatchNorm2d, g: GaussianTensor, own=False) -> GaussianTensor:
    """Eval-mode affine transform on the mean, squared scale on the variance.

    own: g's arrays are read by nothing else, so the result always overwrites them.
    """
    inv_std = 1.0 / np.sqrt(layer.running_var + layer.eps)
    scale = (layer.gamma.value * inv_std).astype(g.mean.dtype)
    per_row = [np.tile(v, len(g.mean))[:, None] for v in (layer.running_mean, scale, layer.beta.value, scale**2)]
    mus, blocks = _row_blocks(g.mean)
    vs, _ = _row_blocks(g.variance)
    mean, var = (mus, vs) if own else (np.empty_like(mus), np.empty_like(vs))
    for b in blocks:
        m, s, t, s2 = (v[b] for v in per_row)
        r = np.subtract(mus[b], m, out=mean[b])
        r *= s
        r += t
        np.maximum(np.multiply(vs[b], s2, out=var[b]), VARIANCE_FLOOR, out=var[b])
    return GaussianTensor.trusted(mean.reshape(g.mean.shape), var.reshape(g.mean.shape))


def leaky_relu_adf(layer: LeakyReLU, g: GaussianTensor, own=False) -> GaussianTensor:
    """Closed-form moments of y = max(x, a*x) for x ~ N(mu, v).

    With t = mu/sigma, phi/Phi the standard normal pdf/cdf:
      E[y]   = a*mu + (1-a) * (mu*Phi(t) + sigma*phi(t))
      E[y^2] = (mu^2+v)*Phi(t) + mu*sigma*phi(t)
               + a^2 * ((mu^2+v)*(1-Phi(t)) - mu*sigma*phi(t))

    own: g's arrays are read by nothing else, so the result always overwrites them.
    """
    a = layer.slope
    mus, blocks = _row_blocks(g.mean)
    vs, _ = _row_blocks(g.variance)
    mean, var = (mus, vs) if own else (np.empty_like(mus), np.empty_like(vs))
    scratch = np.empty((6,) + (mus[blocks[0]] if blocks else mus).shape, mus.dtype)
    for b in blocks:
        mu, v = mus[b], vs[b]
        sigma, t, cdf, pdf, second, cross = scratch[:, : len(mu)]
        np.sqrt(v, out=sigma)
        np.divide(mu, sigma, out=t)
        live = np.flatnonzero(~(np.abs(t, out=cdf) > _SATURATED))  # NaN stays live
        tl = t.ravel()[live]
        np.greater(t, 0, out=cdf)  # ndtr beyond the bound
        cdf.ravel()[live] = ndtr(tl)
        p = np.multiply(-0.5, tl)
        p *= tl
        np.exp(p, out=p)
        p /= math.sqrt(2.0 * math.pi)
        pdf[...] = 0  # exp(-t^2/2) beyond the bound
        pdf.ravel()[live] = p
        np.multiply(mu, mu, out=second)  # E[x^2] = mu^2 + v
        second += v
        np.multiply(mu, sigma, out=cross)  # mu*sigma*phi(t)
        cross *= pdf
        np.multiply(a, mu, out=t)  # t is free once cdf is taken; mu is read no more once mean[b] is written
        m = np.multiply(mu, cdf, out=mean[b])
        sigma *= pdf
        m += sigma
        m *= 1.0 - a
        m += t
        w = np.multiply(second, cdf, out=var[b])
        w += cross
        np.subtract(1.0, cdf, out=cdf)
        cdf *= second
        cdf -= cross
        cdf *= a * a
        w += cdf
        w -= np.multiply(m, m, out=second)
        np.maximum(w, VARIANCE_FLOOR, out=w)
    return GaussianTensor.trusted(mean.reshape(g.mean.shape), var.reshape(g.mean.shape))


def avg_pool_adf(layer: AvgPool2x2, g: GaussianTensor) -> GaussianTensor:
    """Mean of independent terms: pooled mean, pooled variance over window size."""
    var = layer.forward(g.variance)
    var /= 4.0
    return _floor(layer.forward(g.mean), var)


def pixel_shuffle_adf(layer: PixelShuffle, g: GaussianTensor) -> GaussianTensor:
    """A permutation of floored variances is floored: no floor again."""
    return GaussianTensor.trusted(layer.forward(g.mean), layer.forward(g.variance))


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
    return _floor(s, var)


_RULES = {
    Conv2d: conv2d_adf,
    BatchNorm2d: batch_norm_adf,
    LeakyReLU: leaky_relu_adf,
    AvgPool2x2: avg_pool_adf,
    PixelShuffle: pixel_shuffle_adf,
    ChannelDropout: channel_dropout_adf,
    Softmax: softmax_adf,
}


def adf_forward(layer, g: GaussianTensor, own=False) -> GaussianTensor:
    """Dispatch a layer to its ADF rule.

    own: g's arrays are buffers nothing else reads; the LeakyReLU and
    BatchNorm2d rules then always write their result into them.
    """
    try:
        rule = _RULES[type(layer)]
    except KeyError:
        raise TypeError(f"no ADF rule for {type(layer).__name__}")
    return rule(layer, g, own=True) if own else rule(layer, g)

"""Layer vocabulary: forward passes and exact reverse-mode gradients.

Tensors are plain numpy arrays in NCHW layout, float32 in production (tests
may cast layers to float64). Each layer caches what its backward pass needs
when forward is called with cache=True; backward without a cache raises.
The model records these calls on a tape and replays their backwards in reverse.

Every layer returns an array of its input's dtype: parameters of another
dtype are read in it, or each op's result is stored in it. No layer writes into
its input, with one exception: LeakyReLU and BatchNorm2d called with
inplace=True write over x, always. The caller then owns x: nothing else reads it
afterwards. The model passes inplace=True only for a conv output inside its
conv -> act -> bn unit (Conv2d caches its input, not this output).
"""

from __future__ import annotations

import ctypes
import math
import numbers

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DimensionError, StaleStateError


def check_rate(rate, name="dropout rate"):
    """rate itself if it lies in [0, 1), else ConfigError; NaN fails the comparison too."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"{name} must lie in [0, 1), got {rate}")
    return rate


def check_seed(seed, name="seed"):
    """seed itself if it is a non-negative integer (what SeedSequence takes), else ConfigError."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {seed!r}")
    return seed


class Param:
    """A trainable tensor with its gradient accumulator."""

    __slots__ = ("name", "value", "grad", "decay")

    def __init__(self, name: str, value: np.ndarray, decay: bool = False):
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value)
        self.decay = decay  # include in the L2 penalty (conv kernels only)

    def zero_grad(self):
        self.grad[...] = 0


class Layer:
    def params(self) -> list[Param]:
        return []

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        """Non-trainable state that still belongs in a checkpoint."""
        return []

    def zero_grads(self):
        for p in self.params():
            p.zero_grad()

    def cast(self, dtype):
        """In-place dtype change, for float64 gradient oracles."""
        for p in self.params():
            p.value = p.value.astype(dtype)
            p.grad = p.grad.astype(dtype)
        return self

    def _take_cache(self):
        cache = getattr(self, "_cache", None)
        if cache is None:
            raise StaleStateError(f"{type(self).__name__}.backward needs a cached forward")
        return cache


# Spare elements at the end of each row of the im2col columns and of the conv
# output when a row (a band's or an image's rows*wo elements) is a multiple of
# 1024 long. Every feature map here has h*w a power of two, and rows a power of
# two apart fall into the same cache sets, so BLAS packing thrashes (Goto & van
# de Geijn, ACM TOMS 2008); single GEMMs ran up to 2x slower. The pad changes
# only the stride between rows: BLAS runs the same kernels over the same values
# in the same summation order, so every product is bit-identical. 1x1 convs use
# x itself as columns, and the weight gradient uses gy as it comes: copying
# them to a padded buffer gained nothing end to end. Elementwise ufuncs run
# slower on the 4-D (n, c, h, w) view of a padded output than on its
# (n, c, h*w) view: 3.1-6.5x for the bias add and 2.3-2.9x for an in-place
# leaky ReLU, at 8-64 channels (2-vCPU Xeon). So in-place work on conv outputs
# (the bias add, LeakyReLU and BatchNorm2d) uses views that keep h*w as one
# axis: (n, c, h*w), or the (n*c, h*w) rows of _row_blocks.
_PITCH_PAD = 16

# Least multiply-accumulates in one band's GEMM. OpenBLAS 0.3.31 sends a GEMM
# with M*N*K <= 1e6 to its small-matrix kernel, which sums in another order, so
# a band that small would not match the same columns of the whole-image
# product; every band above 1e6 MACs did, in float32 and float64, and 2**22
# keeps well clear of the cutoff.
_BAND_MACS = 1 << 22


# LeakyReLU and BatchNorm2d run over blocks of about _BLOCK_BYTES of their
# input's channel rows, so that every op after a block's first finds the block
# in L2 rather than in DRAM. Per default-config eval forward at 64x2048
# (2-vCPU Xeon, one BLAS thread) this took LeakyReLU from about 205 to 95 ms
# and BatchNorm2d from about 225 to 140 ms; 64 KiB blocks did as well and
# 1 MiB ones worse. Each element still sees the same ops in the same order.
_BLOCK_BYTES = 1 << 18

# glibc hands freed memory back to the kernel: a block above the mmap
# threshold at once, the heap top once it passes the trim threshold. Left
# dynamic, both follow the largest freed mapped block (32 MiB at most), so each
# layer's padded input, column bands, output and concatenation (1-46 MB) went
# back and the next layer faulted the pages in again: about 14% of a micro
# `infer` scan. Both sit above the largest buffer made here (377 MB of dec3
# weight-gradient columns at 64x2048), so freed memory stays for reuse. Setting
# only one turns the dynamic rule off with the other low, which faulted more.
_HEAP_KEEP_BYTES = 1 << 30
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):  # not glibc, or no C library handle
    pass
else:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, _HEAP_KEEP_BYTES)  # M_MMAP_THRESHOLD
    _mallopt(-1, _HEAP_KEEP_BYTES)  # M_TRIM_THRESHOLD


def _row_blocks(x):
    """x's rows ((n*c, h*w), a view, for a conv output) and slices of about _BLOCK_BYTES of them."""
    rows = x.reshape(math.prod(x.shape[:2]), math.prod(x.shape[2:]))
    step = max(1, _BLOCK_BYTES // max(1, rows.shape[1] * rows.itemsize))
    return rows, [slice(s, s + step) for s in range(0, len(rows), step)]


def _pitched(shape, dtype):
    """An empty (..., L) view whose rows lie L + _PITCH_PAD elements apart if L % 1024 == 0."""
    length = shape[-1]
    pitch = length + _PITCH_PAD if length % 1024 == 0 else length
    return np.empty(shape[:-1] + (pitch,), dtype=dtype)[..., :length]


class Conv2d(Layer):
    """Dilated cross-correlation, stride 1, same padding dilation*(k-1)//2.

    Effective receptive field per axis is dilation*(k-1)+1. The input gradient
    is the correlation of gy with the flipped, channel-transposed kernel, at
    the padding dilation*(k-1) - padding, which is never negative.
    """

    def __init__(self, c_in, c_out, k=3, dilation=1, rng=None):
        self.c_in, self.c_out, self.k, self.dilation = c_in, c_out, k, dilation
        self.padding = dilation * (k - 1) // 2
        rng = rng or np.random.default_rng(0)
        limit = 1.0 / np.sqrt(c_in * k * k)
        kernel = rng.uniform(-limit, limit, size=(c_out, c_in, k, k)).astype(np.float32)
        self.kernel = Param("kernel", kernel, decay=True)
        self.bias = Param("bias", np.zeros(c_out, dtype=np.float32))
        self._cache = None

    def params(self):
        return [self.kernel, self.bias]

    # im2col columns are built a few whole images at a time when one image's
    # fit COLS_CHUNK_BYTES, else in bands of output rows of one image, so that
    # they stay in cache between the fill and the matmul instead of going out
    # to DRAM. Neither split changes a bit (see _BAND_MACS).
    COLS_CHUNK_BYTES = 1 << 20

    def _columns(self, x, p, c_out, whole=False):
        """Yield (first image, first output row, (m, c*k*k, rows*wo) columns) of x padded by p.

        A band has at least the rows that fit COLS_CHUNK_BYTES and the rows
        whose GEMM with c_out outputs does _BAND_MACS; the rows are shared out
        evenly, so later bands may be a row shorter. The weight gradient sums
        over every pixel and asks for whole images: bands would split its
        GEMM's K.
        """
        n, c, h, w = x.shape
        d, k = self.dilation, self.k
        if k == 1 and not p:
            yield 0, 0, x.reshape(n, c, h * w)
            return
        ho, wo = h + 2 * p - d * (k - 1), w + 2 * p - d * (k - 1)
        row = c * k * k * wo * x.itemsize  # column bytes of one output row
        nb = min(n, max(1, self.COLS_CHUNK_BYTES // (row * ho)))
        floor = -(-_BAND_MACS // (c_out * c * k * k * wo))  # rows for _BAND_MACS, at least 1
        bands = 1 if whole else max(1, ho // max(self.COLS_CHUNK_BYTES // row, floor))
        edges = [-(-ho * i // bands) for i in range(bands + 1)]
        cols = _pitched((nb, c * k * k, edges[1] * wo), x.dtype)
        fill = cols.reshape(nb, c, k, k, edges[1], wo)  # a view: only whole axes are split
        xp = np.zeros((nb, c, h + 2 * p, w + 2 * p), dtype=x.dtype)  # border stays 0
        for s in range(0, n, nb):
            m = min(nb, n - s)
            xp[:m, :, p : p + h, p : p + w] = x[s : s + m]
            taps = sliding_window_view(xp[:m], (d * (k - 1) + 1,) * 2, axis=(2, 3))[..., ::d, ::d]
            taps = taps.transpose(0, 1, 4, 5, 2, 3)  # (m, c, k, k, ho, wo)
            for r, e in zip(edges, edges[1:]):
                fill[:m, ..., : e - r, :] = taps[..., r:e, :]
                yield s, r, cols[:m, :, : (e - r) * wo]

    def _correlate(self, x, weight, bias=None, p=None):
        """x correlated with a (c_out, c, k, k) weight at padding p (default: the layer's)."""
        n, c, h, w = x.shape
        c_out = weight.shape[0]
        if c != weight.shape[1]:
            raise DimensionError(f"conv expects {weight.shape[1]} channels, got {c}")
        p = self.padding if p is None else p
        ho, wo = h + 2 * p - self.dilation * (self.k - 1), w + 2 * p - self.dilation * (self.k - 1)
        if ho <= 0 or wo <= 0:
            raise DimensionError(f"kernel does not fit input of spatial size {h}x{w}")
        y = _pitched((n, c_out, ho * wo), x.dtype)
        w2d = weight.reshape(c_out, -1)
        for s, r, cols in self._columns(x, p, c_out):
            np.matmul(w2d, cols, out=y[s : s + len(cols), :, r * wo : r * wo + cols.shape[2]])
        if bias is not None:
            y += bias[:, None]  # on the (n, c_out, h*w) view: see _PITCH_PAD
        return y.reshape(n, c_out, ho, wo)

    def forward(self, x, cache=False):
        dt = x.dtype
        y = self._correlate(x, self.kernel.value.astype(dt, copy=False), self.bias.value.astype(dt, copy=False))
        self._cache = (x, y.shape) if cache else None
        return y

    def backward(self, gy):
        x, y_shape = self._take_cache()
        if gy.shape != y_shape:
            raise DimensionError(f"gradient shape {gy.shape} != forward output {y_shape}")
        gy_flat = gy.reshape(len(gy), self.c_out, -1)
        gw = 0  # the columns are rebuilt, not cached: a cache would hold k*k copies of x
        for s, _, cols in self._columns(x, self.padding, self.c_out, whole=True):
            gw = gw + np.matmul(gy_flat[s : s + len(cols)], cols.transpose(0, 2, 1)).sum(axis=0)
        self.kernel.grad += gw.reshape(self.kernel.grad.shape)
        self.bias.grad += gy.sum(axis=(0, 2, 3))
        flipped = self.kernel.value.astype(gy.dtype, copy=False)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return self._correlate(gy, flipped, p=self.dilation * (self.k - 1) - self.padding)

    def macs(self, h_out, w_out):
        return self.k * self.k * self.c_in * self.c_out * h_out * w_out


class BatchNorm2d(Layer):
    """Per-channel normalization with running statistics for eval mode."""

    def __init__(self, c, eps=1e-5, momentum=0.1):
        self.c, self.eps, self.momentum = c, eps, momentum
        self.gamma = Param("gamma", np.ones(c, dtype=np.float32))
        self.beta = Param("beta", np.zeros(c, dtype=np.float32))
        self.running_mean = np.zeros(c, dtype=np.float32)
        self.running_var = np.ones(c, dtype=np.float32)
        self._cache = None

    def params(self):
        return [self.gamma, self.beta]

    def buffers(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]

    def cast(self, dtype):
        super().cast(dtype)
        self.running_mean = self.running_mean.astype(dtype)
        self.running_var = self.running_var.astype(dtype)
        return self

    def update_running(self, mean, var):
        """r <- (1 - m) * r + m * stat for both running statistics."""
        m = self.momentum
        self.running_mean[...] = (1 - m) * self.running_mean + m * mean
        self.running_var[...] = (1 - m) * self.running_var + m * var

    def forward(self, x, train=False, cache=False, inplace=False):
        """inplace: no one else reads x, so it is overwritten: by the result, or by xhat if xhat is cached."""
        if x.shape[1] != self.c:
            raise DimensionError(f"batch norm expects {self.c} channels, got {x.shape[1]}")
        if train:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.last_stats = (mean, var)  # the batch statistics, for BN re-estimation
            self.update_running(mean, var)
        else:
            mean = self.running_mean.astype(x.dtype)
            var = self.running_var.astype(x.dtype)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        gamma, beta = self.gamma.value, self.beta.value
        rows, blocks = _row_blocks(x)
        xhat = rows if inplace else np.empty_like(rows)
        out = np.empty_like(rows) if cache else xhat  # wider gamma and beta results are stored in x's dtype
        per_row = [np.tile(v, len(x))[:, None] for v in (mean, inv_std, gamma, beta)]
        for b in blocks:
            m, s, g, t = (v[b] for v in per_row)
            r = np.subtract(rows[b], m, out=xhat[b])
            r *= s
            r = np.multiply(r, g, out=out[b])
            r += t
        self._cache = (xhat.reshape(x.shape), inv_std, train) if cache else None
        return out.reshape(x.shape)

    def backward(self, gy):
        xhat, inv_std, train = self._take_cache()
        gamma = self.gamma.value.astype(gy.dtype, copy=False)
        self.gamma.grad += (gy * xhat).sum(axis=(0, 2, 3))
        self.beta.grad += gy.sum(axis=(0, 2, 3))
        gxhat = gy * gamma[None, :, None, None]
        if not train:
            return gxhat * inv_std[None, :, None, None]
        n, _, h, w = gy.shape
        m = n * h * w
        sum_g = gxhat.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (gxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
        return (inv_std[None, :, None, None] / m) * (m * gxhat - sum_g - xhat * sum_gx)


class LeakyReLU(Layer):
    def __init__(self, slope=0.01):
        if not 0.0 <= slope <= 1.0:
            raise ConfigError("leaky slope must lie in [0, 1]")
        self.slope = slope
        self._cache = None

    def forward(self, x, cache=False, inplace=False):
        """inplace: no one else reads x, so the result overwrites it (the mask is taken first)."""
        self._cache = x >= 0 if cache else None
        rows, blocks = _row_blocks(x)
        out = rows if inplace else np.empty_like(rows)
        scaled = np.empty_like(rows[blocks[0]] if blocks else rows)
        for b in blocks:
            r = rows[b]
            if self.slope:  # for 0 < slope <= 1 the larger of x and slope*x is the select, bit for bit
                np.maximum(r, np.multiply(r, self.slope, out=scaled[: len(r)]), out=out[b])
            else:  # +inf * 0 is NaN, so max(x, 0*x) is not the select; x * (x >= 0) is
                np.multiply(r, r >= 0, out=out[b])
        return out.reshape(x.shape)

    def backward(self, gy):
        pos = self._take_cache()
        # gy * 1 is gy and gy * slope the other branch: a select without a branch per element
        factor = np.array([self.slope, 1], gy.dtype).take(pos.view(np.uint8))
        factor *= gy
        return factor


class AvgPool2x2(Layer):
    """2x2 mean pooling with stride 2; odd extents are replication-padded."""

    def __init__(self):
        self._cache = None

    def forward(self, x, cache=False):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            x = np.pad(x, ((0, 0), (0, 0), (0, h % 2), (0, w % 2)), mode="edge")
        # Each window is summed as numpy's mean over it sums, bit for bit:
        # pairwise, but in row order when the pooled width is 1 and the window
        # is one run, and from +0, which turns only a window of -0s into +0.
        top, bottom = x[:, :, 0::2], x[:, :, 1::2]
        y = top[..., 0::2] + top[..., 1::2]
        if w > 2:
            y += bottom[..., 0::2] + bottom[..., 1::2]
        else:
            y += bottom[..., 0::2]
            y += bottom[..., 1::2]
        y += 0.0
        y /= 4
        self._cache = (h, w) if cache else None
        return y

    def backward(self, gy):
        h, w = self._take_cache()
        gxp = np.repeat(np.repeat(gy, 2, axis=2), 2, axis=3) * np.asarray(0.25, dtype=gy.dtype)
        # replication-pad adjoint: fold padded row/column back onto the edge
        if gxp.shape[2] > h:
            gxp[:, :, h - 1, :] += gxp[:, :, h, :]
        if gxp.shape[3] > w:
            gxp[:, :, :, w - 1] += gxp[:, :, :, w]
        return gxp[:, :, :h, :w]


class PixelShuffle(Layer):
    """Rearrange (N, C*r^2, H, W) into (N, C, H*r, W*r); parameter-free."""

    def __init__(self, r=2):
        self.r = r
        self._cache = None

    def forward(self, x, cache=False):
        n, c, h, w = x.shape
        r = self.r
        if c % (r * r) != 0:
            raise DimensionError(f"{c} channels not divisible by r^2={r * r}")
        co = c // (r * r)
        y = x.reshape(n, co, r, r, h, w).transpose(0, 1, 4, 2, 5, 3).reshape(n, co, h * r, w * r)
        self._cache = x.shape if cache else None
        return np.ascontiguousarray(y)

    def backward(self, gy):
        in_shape = self._take_cache()
        return space_to_depth(gy, self.r).reshape(in_shape)


def space_to_depth(x, r):
    """Inverse pixel shuffle: (N, C, H*r, W*r) -> (N, C*r^2, H, W)."""
    n, c, hr, wr = x.shape
    if hr % r or wr % r:
        raise DimensionError(f"spatial size {hr}x{wr} not divisible by {r}")
    h, w = hr // r, wr // r
    y = x.reshape(n, c, h, r, w, r).transpose(0, 1, 3, 5, 2, 4).reshape(n, c * r * r, h, w)
    return np.ascontiguousarray(y)


class ChannelDropout(Layer):
    """Spatial dropout: whole channels are zeroed, survivors scaled by 1/(1-p).

    Identity when inactive, so eval-mode inference needs no rescaling.
    """

    def __init__(self, p=0.2):
        self.p = check_rate(p)
        self._cache = None

    def forward(self, x, active=False, rng=None, rate=None, cache=False):
        p = self.p if rate is None else check_rate(rate)
        if not active or p == 0.0:
            self._cache = 1.0 if cache else None
            return x
        if rng is None:
            raise ConfigError("active dropout needs an rng")
        draws = rng.random((x.shape[0], x.shape[1]))
        scale = ((draws >= p).astype(x.dtype) / np.asarray(1.0 - p, dtype=x.dtype))[:, :, None, None]
        self._cache = scale if cache else None
        return x * scale

    def backward(self, gy):
        scale = self._take_cache()
        return gy if np.isscalar(scale) else gy * scale


class Softmax(Layer):
    """Channel-axis softmax, stabilized by max subtraction."""

    def __init__(self):
        self._cache = None

    def forward(self, x, cache=False):
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        y = e / e.sum(axis=1, keepdims=True)
        self._cache = y if cache else None
        return y

    def backward(self, gy):
        y = self._take_cache()
        return y * (gy - (gy * y).sum(axis=1, keepdims=True))

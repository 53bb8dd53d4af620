"""Encoder-decoder segmentation network assembled from the numpy layer kit.

The network eats a 5-channel range image and emits per-pixel class
probabilities. Shape of the thing:

  context (two residual conv blocks at base width)
  -> encoder stages: dilated-fusion residual block, then dropout + 2x2
     average pooling (the first ``num_pool_stages`` stages pool; any extra
     stages run at bottleneck resolution)
  -> decoder stages: pixel-shuffle x2 upsampling, concatenation with the
     matching encoder skip, another dilated-fusion block
  -> 1x1 head conv + channel softmax

Every convolution is followed by a leaky ReLU and batch normalization.
Dropout sits in every encoder/decoder stage except the first encoder stage
and the last decoder stage.

Each block wires its layers once, in ``run``: fed an array it runs the
forward pass, fed a GaussianTensor it runs assumed density filtering (each
layer's ADF rule, eval-mode statistics). ``children()`` lists a block's parts
once, and ``layers()``/``macs()`` derive from it. There is no hand-written
block adjoint: a cache-enabled forward records a tape of its layer calls,
concatenations and residual adds, and ``Model.backward`` replays it in
reverse (reverse-mode differentiation; Baydin et al., arXiv 1502.05767).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .adf import GaussianTensor, adf_forward
from .errors import ConfigError, DimensionError, StaleStateError
from .layers import (
    AvgPool2x2,
    BatchNorm2d,
    ChannelDropout,
    Conv2d,
    LeakyReLU,
    PixelShuffle,
    Softmax,
    check_rate,
)

MODES = ("train", "eval", "mc")


@dataclass(frozen=True)
class ModelConfig:
    num_classes: int
    in_channels: int = 5
    base_channels: int = 32
    encoder_channels: tuple = (32, 64, 128, 256, 256)
    decoder_channels: tuple = ()  # empty = derive from the encoder
    num_pool_stages: int = 4
    dropout_rate: float = 0.2
    leaky_slope: float = 0.01
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "encoder_channels", tuple(int(c) for c in self.encoder_channels))
        object.__setattr__(self, "decoder_channels", tuple(int(c) for c in self.decoder_channels))
        enc = self.encoder_channels
        if self.num_classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.in_channels < 1:
            raise ConfigError("need at least 1 input channel")
        if len(enc) < 2 or min(enc) < 1:
            raise ConfigError("encoder_channels needs >= 2 positive entries")
        if enc[0] != self.base_channels:
            raise ConfigError("encoder_channels[0] must equal base_channels")
        if any(a > b for a, b in zip(enc, enc[1:])):
            raise ConfigError("encoder_channels must be non-decreasing")
        if not 1 <= self.num_pool_stages <= len(enc) - 1:
            raise ConfigError("num_pool_stages must lie in [1, len(encoder_channels) - 1]")
        check_rate(self.dropout_rate, "dropout_rate")
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ConfigError("leaky_slope must lie in [0, 1]")
        if not 0.0 < self.bn_eps < np.inf:
            raise ConfigError("bn_eps must be finite and > 0")
        if not 0.0 <= self.bn_momentum <= 1.0:
            raise ConfigError("bn_momentum must lie in [0, 1]")
        dec = self.decoder_channels or self.derived_decoder_channels()
        object.__setattr__(self, "decoder_channels", dec)
        if len(dec) != self.num_pool_stages:
            raise ConfigError("decoder_channels must have one entry per pool stage")
        if min(dec) < 1:
            raise ConfigError("decoder_channels must be positive")
        for c in (enc[-1],) + dec[:-1]:
            if c % 4:
                raise ConfigError(f"{c} channels cannot pixel-shuffle by r=2 (need multiple of 4)")

    def derived_decoder_channels(self):
        """Mirror the pooled encoder stage widths at half width."""
        pooled = self.encoder_channels[1 : 1 + self.num_pool_stages]
        return tuple(c // 2 for c in reversed(pooled))


class _RunState:
    """Per-forward knobs threaded through the blocks, and a recorded forward's tape.

    Each op that makes a new array appends (back, input nodes); back maps the
    output's gradient to one per input. Node 0 is the input, node i + 1 the
    output of entry i. A node is found by the id of its array, alive while an
    op can still read it, so the tape holds no arrays.
    """

    __slots__ = ("bn_train", "drop_active", "rng", "rate", "cache", "held", "tape", "nodes")

    def __init__(self, bn_train, drop_active, rng, rate, cache, record=None, held=None):
        self.bn_train = bn_train
        self.drop_active = drop_active
        self.rng = rng
        self.rate = rate
        self.cache = cache
        self.held = held  # a HeldPrefix: the traversal fills it, or starts from it
        self.tape = None if record is None else []  # record: the input array of a recorded forward
        self.nodes = {id(record): 0}

    def _record(self, out, back, *inputs):
        if self.tape is not None:
            self.tape.append((back, [self.nodes[id(a)] for a in inputs]))
            self.nodes[id(out)] = len(self.tape)
        return out

    def apply(self, layer, x, own=False):
        """The layer's forward on an array, its ADF rule on a GaussianTensor.

        own: x is a buffer that nothing else reads, so a LeakyReLU or
        BatchNorm2d, or its ADF rule, writes its result into it.
        """
        if isinstance(x, GaussianTensor):
            return adf_forward(layer, x, own=own)
        if isinstance(layer, BatchNorm2d):
            y = layer.forward(x, train=self.bn_train, cache=self.cache, inplace=own)
        elif isinstance(layer, LeakyReLU):
            y = layer.forward(x, cache=self.cache, inplace=own)
        elif isinstance(layer, ChannelDropout):
            y = layer.forward(x, active=self.drop_active, rng=self.rng, rate=self.rate, cache=self.cache)
        else:
            y = layer.forward(x, cache=self.cache)
        return y if y is x else self._record(y, partial(_layer_backward, layer), x)  # y is x: dropout off

    def cat(self, parts):
        """Channel concatenation of arrays, or of Gaussians' means and variances.

        Gaussian parts are rule outputs, already floored, and so are their
        concatenation and (in add) their sum: neither is checked again.
        """
        if isinstance(parts[0], GaussianTensor):
            return GaussianTensor.trusted(
                np.concatenate([p.mean for p in parts], axis=1),
                np.concatenate([p.variance for p in parts], axis=1),
            )
        edges = np.cumsum([p.shape[1] for p in parts[:-1]]).tolist()
        return self._record(np.concatenate(parts, axis=1), lambda g: np.split(g, edges, axis=1), *parts)

    def add(self, a, b):
        # residual merges treat the branches as independent (moment matching)
        if isinstance(a, GaussianTensor):
            return GaussianTensor.trusted(a.mean + b.mean, a.variance + b.variance)
        return self._record(a + b, lambda g: [g, g], a, b)


class HeldPrefix:
    """One image's dropout-free prefix, held across that image's MC forwards.

    The first Model.forward(x, mode="mc", held=h) runs the whole network and
    keeps what the layers from the first ChannelDropout layer on read: that
    layer's input and the pooled skips taken before it. Every later forward
    given h starts there, at any rate (0 included) and with any generator,
    with bit-equal results. The split is at the first dropout layer, active
    or not; a network without one keeps nothing and runs whole.
    h keeps a copy of its image and refuses any other, byte for byte (NaN matches itself).
    """

    __slots__ = ("image", "stage", "skips", "drop_input")

    def __init__(self):
        self.image = None
        self.stage = None  # index of the encoder stage that holds the first dropout layer
        self.skips = ()  # the pooled skips up to and including that stage's
        self.drop_input = None

    def _bind(self, x):
        if self.image is None:
            self.image = x.copy()
        elif x.shape != self.image.shape or x.dtype != self.image.dtype or x.tobytes() != self.image.tobytes():
            raise StaleStateError("this held prefix belongs to another image")


def _layer_backward(layer, g):
    # bound by partial, not a closure, so a deep copy of the model replays onto its own layers
    return [layer.backward(g)]


class _Block:
    """A block lists its children once; layers() and macs() derive from that.

    children() yields ordered (name, sub-block | layer | None) pairs, None
    marking an absent optional layer.
    """

    def layers(self):
        for name, child in self.children():
            if isinstance(child, _Block):
                for sub, layer in child.layers():
                    yield f"{name}.{sub}", layer
            elif child is not None:
                yield name, child

    def macs(self, h, w):
        """Conv multiply-accumulates for an (h, w) input, tracking pooling and upsampling."""
        total = 0
        for _, layer in self.layers():
            if isinstance(layer, Conv2d):
                total += layer.macs(h, w)
            elif isinstance(layer, AvgPool2x2):
                h, w = (h + 1) // 2, (w + 1) // 2
            elif isinstance(layer, PixelShuffle):
                h, w = h * layer.r, w * layer.r
        return total


class ConvUnit(_Block):
    """conv -> leaky ReLU -> batch norm, the pattern used on every conv here."""

    def __init__(self, c_in, c_out, k, dilation, cfg: ModelConfig, rng):
        self.conv = Conv2d(c_in, c_out, k=k, dilation=dilation, rng=rng)
        self.act = LeakyReLU(cfg.leaky_slope)
        self.bn = BatchNorm2d(c_out, eps=cfg.bn_eps, momentum=cfg.bn_momentum)

    def children(self):
        return [("conv", self.conv), ("act", self.act), ("bn", self.bn)]

    def run(self, x, rs: _RunState):
        x = rs.apply(self.conv, x)  # a fresh buffer that only act and bn read
        return rs.apply(self.bn, rs.apply(self.act, x, own=True), own=True)


class ContextBlock(_Block):
    """Residual pairing of a 1x1 shortcut with a 3x3 then dilated-3x3 path."""

    def __init__(self, c_in, c_out, cfg: ModelConfig, rng):
        self.short = ConvUnit(c_in, c_out, 1, 1, cfg, rng)
        self.main1 = ConvUnit(c_in, c_out, 3, 1, cfg, rng)
        self.main2 = ConvUnit(c_out, c_out, 3, 2, cfg, rng)

    def children(self):
        return [("short", self.short), ("main1", self.main1), ("main2", self.main2)]

    def run(self, x, rs):
        return rs.add(self.short.run(x, rs), self.main2.run(self.main1.run(x, rs), rs))


class DilatedFusionBlock(_Block):
    """Three parallel 3x3 branches at dilation 1/2/3 (receptive fields 3/5/7),
    concatenated and fused by a 1x1 conv, with a residual connection.

    The shortcut is the identity when channel counts already agree, else a
    1x1 projection.
    """

    def __init__(self, c_in, c_out, cfg: ModelConfig, rng):
        self.branches = [ConvUnit(c_in, c_out, 3, d, cfg, rng) for d in (1, 2, 3)]
        self.fuse = ConvUnit(3 * c_out, c_out, 1, 1, cfg, rng)
        self.project = None if c_in == c_out else ConvUnit(c_in, c_out, 1, 1, cfg, rng)

    def children(self):
        named = [(f"branch{i}", b) for i, b in enumerate(self.branches, start=1)]
        return named + [("fuse", self.fuse), ("project", self.project)]

    def run(self, x, rs):
        y = self.fuse.run(rs.cat([b.run(x, rs) for b in self.branches]), rs)
        return rs.add(y, x if self.project is None else self.project.run(x, rs))


class EncoderStage(_Block):
    def __init__(self, c_in, c_out, pooled, has_dropout, cfg: ModelConfig, rng):
        self.block = DilatedFusionBlock(c_in, c_out, cfg, rng)
        self.drop = ChannelDropout(cfg.dropout_rate) if has_dropout else None
        self.pool = AvgPool2x2() if pooled else None

    def children(self):
        return [("block", self.block), ("drop", self.drop), ("pool", self.pool)]

    def run(self, x, rs):
        f = self.block.run(x, rs)
        return f, self.down(f, rs)  # f is the skip tensor, taken before dropout

    def down(self, f, rs):
        """Dropout, then pooling, where the stage has them."""
        for layer in (self.drop, self.pool):
            if layer is not None:
                f = rs.apply(layer, f)
        return f


class DecoderStage(_Block):
    def __init__(self, c_in, skip_c, c_out, has_dropout, cfg: ModelConfig, rng):
        self.up = PixelShuffle(2)
        self.block = DilatedFusionBlock(c_in // 4 + skip_c, c_out, cfg, rng)
        self.drop = ChannelDropout(cfg.dropout_rate) if has_dropout else None

    def children(self):
        return [("up", self.up), ("block", self.block), ("drop", self.drop)]

    def run(self, x, skip, rs):
        y = self.block.run(rs.cat([rs.apply(self.up, x), skip]), rs)
        return y if self.drop is None else rs.apply(self.drop, y)


class Model(_Block):
    """The assembled network. Build with build_model for seeded init."""

    def __init__(self, cfg: ModelConfig, rng):
        self.cfg = cfg
        enc = cfg.encoder_channels
        pools = cfg.num_pool_stages
        self.context = [
            ContextBlock(cfg.in_channels, enc[0], cfg, rng),
            ContextBlock(enc[0], enc[0], cfg, rng),
        ]
        n_stages = len(enc) - 1
        self.encoder = [
            EncoderStage(enc[i], enc[i + 1], pooled=i < pools, has_dropout=i > 0, cfg=cfg, rng=rng)
            for i in range(n_stages)
        ]
        self.decoder = []
        c = enc[-1]
        for j, c_out in enumerate(cfg.decoder_channels):
            skip_c = enc[pools - j]  # output width of the mirrored pooled stage
            self.decoder.append(
                DecoderStage(c, skip_c, c_out, has_dropout=j < pools - 1, cfg=cfg, rng=rng)
            )
            c = c_out
        self.head = Conv2d(c, cfg.num_classes, k=1, rng=rng)
        self.softmax = Softmax()
        self._tape = None  # the last forward's, if it was recorded

    # ---- plumbing ----------------------------------------------------

    def children(self):
        for i, blk in enumerate(self.context):
            yield f"context{i}", blk
        for i, st in enumerate(self.encoder):
            yield f"enc{i}", st
        for j, st in enumerate(self.decoder):
            yield f"dec{j}", st
        yield "head", self.head

    def named_layers(self):
        return self.layers()

    def named_params(self):
        for prefix, layer in self.named_layers():
            for p in layer.params():
                yield f"{prefix}.{p.name}", p

    def named_buffers(self):
        for prefix, layer in self.named_layers():
            for name, buf in layer.buffers():
                yield f"{prefix}.{name}", buf

    def zero_grads(self):
        for _, layer in self.named_layers():
            layer.zero_grads()

    def cast(self, dtype):
        for _, layer in self.named_layers():
            layer.cast(dtype)
        return self

    def dropout_placement(self):
        """(stage name, has dropout) for the audit of central-dropout wiring."""
        report = [(f"enc{i}", st.drop is not None) for i, st in enumerate(self.encoder)]
        report += [(f"dec{j}", st.drop is not None) for j, st in enumerate(self.decoder)]
        return report

    # ---- running the network -----------------------------------------

    def _check_input(self, x):
        if x.ndim == 3:
            x = x[None]
        if x.ndim != 4 or x.shape[1] != self.cfg.in_channels:
            raise DimensionError(
                f"expected (n, {self.cfg.in_channels}, h, w) input, got {x.shape}"
            )
        div = 1 << self.cfg.num_pool_stages
        if x.shape[2] % div or x.shape[3] % div:
            raise DimensionError(f"spatial size {x.shape[2:]} not divisible by {div}")
        return x

    def forward(self, x, mode="eval", rng=None, seed=None, rate=None, cache=False, held=None):
        """Run the network; returns (n, num_classes, h, w) probabilities.

        mode: 'train' (batch-stat BN, dropout on), 'eval' (running-stat BN,
        dropout off), 'mc' (running-stat BN, dropout on). 3D input gets a
        singleton batch axis and a 3D output. rng, a numpy Generator (else
        default_rng(seed)), draws the dropout masks.

        held, a HeldPrefix, shares the layers before the first dropout layer
        across the 'mc' forwards of one image: the first runs them, later
        ones start from what it kept (see HeldPrefix). Not with cache=True.
        """
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if held is not None and (mode != "mc" or cache):
            raise ConfigError("a held prefix serves mode='mc' forwards without cache")
        if rate is not None:
            check_rate(rate)  # here too, for a network with no dropout layer
        if rng is not None and not isinstance(rng, np.random.Generator):
            raise ConfigError(f"rng must be a numpy Generator, got {type(rng).__name__}")
        squeeze = x.ndim == 3
        x = self._check_input(np.asarray(x))
        if rng is None and seed is not None:
            rng = np.random.default_rng(seed)
        elif rng is None and mode != "eval" and any(
            (layer.p if rate is None else rate) > 0
            for _, layer in self.named_layers() if isinstance(layer, ChannelDropout)
        ):
            raise ConfigError("active dropout needs an rng or a seed")  # before any BN buffer moves
        if held is not None:
            held._bind(x)
        rs = _RunState(mode == "train", mode in ("train", "mc"), rng, rate, cache,
                       record=x if cache else None, held=held)
        self._tape = None
        probs = self._run(x, rs)
        self._tape = rs.tape
        return probs[0] if squeeze else probs

    def _run(self, h, rs):
        """The one traversal: an array gives probabilities, a GaussianTensor their moments.

        A filled holder starts it at the first dropout layer; an empty one is filled there.
        """
        held = rs.held
        if held is None or held.stage is None:
            for blk in self.context:
                h = blk.run(h, rs)
            skips, stages = [], enumerate(self.encoder)
        else:
            skips = list(held.skips)
            h = self.encoder[held.stage].down(held.drop_input, rs)
            stages = enumerate(self.encoder[held.stage + 1 :], held.stage + 1)
        for i, st in stages:
            f, h = st.run(h, rs)
            if st.pool is not None:
                skips.append(f)
            if held is not None and held.stage is None and st.drop is not None:
                held.stage, held.skips, held.drop_input = i, tuple(skips), f
        for st in self.decoder:
            h = st.run(h, skips.pop(), rs)
        return rs.apply(self.softmax, rs.apply(self.head, h))

    def backward(self, g_probs):
        """Replay the last forward's tape from d(loss)/d(probabilities); returns d(loss)/d(input).

        Accumulates into Param.grad. A node's gradient parts are summed in
        the order the forward read the array, which fixes the rounding.
        """
        tape = self._tape
        if tape is None:
            raise StaleStateError("Model.backward needs a cache-enabled forward")
        parts = [[] for _ in tape] + [[g_probs[None] if g_probs.ndim == 3 else g_probs]]
        for node in range(len(tape), -1, -1):
            g = parts[node].pop()  # the replay meets the readers last first
            while parts[node]:
                g = g + parts[node].pop()
            if node == 0:
                return g
            back, inputs = tape[node - 1]
            for i, gi in zip(inputs, back(g)):
                parts[i].append(gi)

    def adf(self, g: GaussianTensor) -> GaussianTensor:
        """Propagate a Gaussian input through the net (eval-mode statistics)."""
        if g.mean.ndim != 4:
            raise DimensionError(f"ADF input must be batched 4D, got {g.mean.shape}")
        self._check_input(g.mean)
        return self._run(g, _RunState(False, False, None, None, False))

    # ---- accounting ----------------------------------------------------

    def count_parameters(self):
        return count_parameters(p for _, p in self.named_params())

    def count_flops(self, h, w):
        """2 x multiply-accumulates, convolutions only (pool/act/norm excluded)."""
        div = 1 << self.cfg.num_pool_stages
        if h % div or w % div:
            raise DimensionError(f"spatial size ({h}, {w}) not divisible by {div}")
        return 2 * self.macs(h, w)


def count_parameters(params) -> int:
    return sum(p.value.size for p in params)


def build_model(cfg: ModelConfig, seed=0) -> Model:
    """Deterministic construction: same (cfg, seed) -> identical weights."""
    return Model(cfg, np.random.default_rng(seed))


def micro_config(num_classes=4, dropout_rate=0.2) -> ModelConfig:
    """Small configuration used for CPU-scale training and tests."""
    return ModelConfig(
        num_classes=num_classes,
        base_channels=8,
        encoder_channels=(8, 16, 32),
        num_pool_stages=2,
        dropout_rate=dropout_rate,
    )

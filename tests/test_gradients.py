"""Analytic gradients versus central finite differences (float64 oracle)."""

import zlib

import numpy as np
import pytest

from fdcheck import assert_close, central_diff, check_gradients
from rangeseg.layers import (
    AvgPool2x2,
    BatchNorm2d,
    ChannelDropout,
    Conv2d,
    LeakyReLU,
    PixelShuffle,
    Softmax,
)
from rangeseg.losses import total_loss
from rangeseg.model import ModelConfig, build_model, micro_config
from rangeseg.pointcloud import ClassWeights


def away_from_zero(rng, shape, margin=0.05):
    x = rng.normal(size=shape)
    return np.where(np.abs(x) < margin, margin * np.sign(x) + (x == 0) * margin, x)


def conv_instance(rng, dilation=1, k=3):
    c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    conv = Conv2d(c_in, c_out, k=k, dilation=dilation, rng=rng).cast(np.float64)
    x = rng.normal(size=(2, c_in, int(rng.integers(5, 9)), int(rng.integers(5, 9))))
    return dict(
        x=x, params=conv.params(),
        forward=lambda: conv.forward(x),
        forward_cache=lambda: conv.forward(x, cache=True),
        backward=conv.backward, name=f"conv_k{k}_d{dilation}_p{conv.padding}")


def bn_instance(rng, train):
    c = int(rng.integers(1, 5))
    bn = BatchNorm2d(c).cast(np.float64)
    bn.gamma.value[:] = rng.uniform(0.5, 1.5, size=c)
    bn.beta.value[:] = rng.normal(size=c)
    bn.running_mean[:] = rng.normal(size=c)
    bn.running_var[:] = rng.uniform(0.5, 2.0, size=c)
    x = rng.normal(size=(2, c, 4, 6))
    return dict(
        x=x, params=bn.params(),
        forward=lambda: bn.forward(x, train=train),
        forward_cache=lambda: bn.forward(x, train=train, cache=True),
        backward=bn.backward, name=f"bn_{'train' if train else 'eval'}")


def leaky_instance(rng):
    act = LeakyReLU(0.01)
    x = away_from_zero(rng, (2, 3, 5, 5))
    return dict(
        x=x, params=[],
        forward=lambda: act.forward(x),
        forward_cache=lambda: act.forward(x, cache=True),
        backward=act.backward, name="leaky_relu")


def pool_instance(rng):
    pool = AvgPool2x2()
    h, w = int(rng.integers(3, 8)), int(rng.integers(3, 8))
    x = rng.normal(size=(2, 2, h, w))
    return dict(
        x=x, params=[],
        forward=lambda: pool.forward(x),
        forward_cache=lambda: pool.forward(x, cache=True),
        backward=pool.backward, name=f"avgpool_{h}x{w}")


def shuffle_instance(rng):
    ps = PixelShuffle(2)
    x = rng.normal(size=(2, 8, 3, 4))
    return dict(
        x=x, params=[],
        forward=lambda: ps.forward(x),
        forward_cache=lambda: ps.forward(x, cache=True),
        backward=ps.backward, name="pixel_shuffle")


def dropout_instance(rng):
    drop = ChannelDropout(0.4)
    x = rng.normal(size=(2, 6, 4, 4))
    seed = int(rng.integers(2**31))  # a fresh generator per call draws the same mask each time
    return dict(
        x=x, params=[],
        forward=lambda: drop.forward(x, active=True, rng=np.random.default_rng(seed)),
        forward_cache=lambda: drop.forward(x, active=True, rng=np.random.default_rng(seed), cache=True),
        backward=drop.backward, name="channel_dropout")


def softmax_instance(rng):
    sm = Softmax()
    x = rng.normal(size=(2, 4, 3, 3))
    return dict(
        x=x, params=[],
        forward=lambda: sm.forward(x),
        forward_cache=lambda: sm.forward(x, cache=True),
        backward=sm.backward, name="softmax")


LAYER_FACTORIES = [
    ("conv_d1", lambda rng: conv_instance(rng, dilation=1)),
    ("conv_d2", lambda rng: conv_instance(rng, dilation=2)),
    ("conv_1x1", lambda rng: conv_instance(rng, k=1)),
    ("bn_train", lambda rng: bn_instance(rng, train=True)),
    ("bn_eval", lambda rng: bn_instance(rng, train=False)),
    ("leaky_relu", leaky_instance),
    ("avgpool", pool_instance),
    ("pixel_shuffle", shuffle_instance),
    ("channel_dropout", dropout_instance),
    ("softmax", softmax_instance),
]


@pytest.mark.parametrize("name,factory", LAYER_FACTORIES)
def test_layer_gradients_match_finite_differences(name, factory):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for trial in range(5):
        inst = factory(rng)
        check_gradients(
            inst["forward"], inst["forward_cache"], inst["backward"],
            inst["x"], inst["params"], rng, name=f"{inst['name']}#{trial}")


def test_composed_model_and_loss_gradients():
    """End-to-end check: dropout, skips, pooling, shuffle, softmax, losses."""
    rng = np.random.default_rng(42)
    model = build_model(micro_config(num_classes=4, dropout_rate=0.3), seed=1)
    model.cast(np.float64)
    c = 4
    x = rng.normal(size=(1, 5, 16, 32))
    targets = rng.integers(0, c, size=16 * 32)
    valid = rng.random(16 * 32) >= 0.2
    weights = ClassWeights(weights=np.array([1.0, 0.5, 2.0, 1.0]),
                           frequencies=np.ones(c, dtype=np.int64))

    def run(cache=False):
        probs = model.forward(x, mode="train", seed=9, cache=cache)
        lv = total_loss(probs[0].reshape(c, -1), targets, weights, valid)
        return probs, lv

    probs, lv = run(cache=True)
    model.zero_grads()
    model.backward(lv.gradient.reshape(probs.shape))

    params = list(model.named_params())
    picks = np.random.default_rng(7).choice(len(params), size=10, replace=False)
    for pi in picks:
        pname, p = params[pi]
        for idx in np.random.default_rng(pi).choice(p.value.size, size=2, replace=False):
            fd = central_diff(lambda: run()[1].total, p.value, int(idx), eps=1e-6)
            assert_close(fd, float(p.grad.reshape(-1)[idx]), tol=1e-4,
                         context=f"{pname}[{idx}]")


MODEL_GRADIENT_CONFIGS = {
    "micro": micro_config(num_classes=3, dropout_rate=0.0),
    # enc1 keeps its width (identity shortcut) and runs unpooled at the bottleneck
    "identity-shortcut-unpooled": ModelConfig(
        num_classes=3, base_channels=8, encoder_channels=(8, 16, 16), num_pool_stages=1, dropout_rate=0.0),
}


def test_model_input_gradient():
    for name, cfg in MODEL_GRADIENT_CONFIGS.items():
        rng = np.random.default_rng(3)
        model = build_model(cfg, seed=2)
        model.cast(np.float64)
        x = rng.normal(size=(1, 5, 8, 16))
        w = rng.normal(size=(1, 3, 8, 16))

        def scalar():
            return float(np.sum(w * model.forward(x, mode="train", seed=0)))

        model.forward(x, mode="train", seed=0, cache=True)
        model.zero_grads()
        gx = model.backward(w)
        assert gx.shape == x.shape
        for idx in rng.choice(x.size, size=8, replace=False):
            fd = central_diff(scalar, x, int(idx), eps=1e-6)
            assert_close(fd, float(gx.reshape(-1)[idx]), tol=1e-4, context=f"{name} x[{idx}]")

"""Network assembly: shapes, determinism, accounting, config validation."""

import copy

import numpy as np
import pytest

from rangeseg.errors import ConfigError, DimensionError, StaleStateError
from rangeseg.layers import BatchNorm2d, Conv2d, LeakyReLU
from rangeseg.model import (
    HeldPrefix,
    ModelConfig,
    build_model,
    count_parameters,
    micro_config,
)


@pytest.fixture(scope="module")
def micro_model():
    return build_model(micro_config(num_classes=4), seed=0)


def rand_input(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


class TestForwardShapes:
    def test_batched_output_shape(self, micro_model):
        y = micro_model.forward(rand_input((2, 5, 64, 128)))
        assert y.shape == (2, 4, 64, 128)

    def test_3d_input_squeezes(self, micro_model):
        y = micro_model.forward(rand_input((5, 64, 128)))
        assert y.shape == (4, 64, 128)

    def test_output_is_probability_field(self, micro_model):
        y = micro_model.forward(rand_input((1, 5, 32, 64)))
        assert (y >= 0).all()
        np.testing.assert_allclose(y.sum(axis=1), 1.0, rtol=1e-5)

    def test_wrong_channel_count_rejected(self, micro_model):
        with pytest.raises(DimensionError):
            micro_model.forward(rand_input((1, 3, 32, 64)))

    def test_indivisible_spatial_rejected(self, micro_model):
        # 2 pool stages need multiples of 4
        with pytest.raises(DimensionError):
            micro_model.forward(rand_input((1, 5, 30, 64)))

    def test_unknown_mode_rejected(self, micro_model):
        with pytest.raises(ConfigError):
            micro_model.forward(rand_input((1, 5, 32, 64)), mode="jitter")


class TestDeterminism:
    def test_same_seed_same_weights(self):
        cfg = micro_config(num_classes=4)
        a = build_model(cfg, seed=3)
        b = build_model(cfg, seed=3)
        for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
            assert na == nb
            np.testing.assert_array_equal(pa.value, pb.value)

    @pytest.mark.parametrize("seed", [-1, 2.5, True], ids=["negative", "float", "bool"])
    def test_build_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            build_model(micro_config(num_classes=4), seed=seed)

    @pytest.mark.parametrize("seed", [-1, 2.5, True], ids=["negative", "float", "bool"])
    def test_forward_seed_must_be_non_negative_integer(self, micro_model, seed):
        with pytest.raises(ConfigError, match="seed"):
            micro_model.forward(rand_input((1, 5, 16, 32)), mode="mc", seed=seed)

    def test_different_seed_different_weights(self):
        cfg = micro_config(num_classes=4)
        a = build_model(cfg, seed=3)
        b = build_model(cfg, seed=4)
        assert any(not np.array_equal(pa.value, pb.value)
                   for (_, pa), (_, pb) in zip(a.named_params(), b.named_params()))

    def test_eval_forward_is_repeatable(self, micro_model):
        x = rand_input((1, 5, 32, 64), seed=5)
        np.testing.assert_array_equal(
            micro_model.forward(x), micro_model.forward(x))

    def test_mc_seed_reproducible(self, micro_model):
        x = rand_input((1, 5, 32, 64), seed=5)
        a = micro_model.forward(x, mode="mc", seed=11)
        b = micro_model.forward(x, mode="mc", seed=11)
        c = micro_model.forward(x, mode="mc", seed=12)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_mc_mode_leaves_bn_buffers_alone(self, micro_model):
        before = {n: b.copy() for n, b in micro_model.named_buffers()}
        micro_model.forward(rand_input((1, 5, 32, 64)), mode="mc", seed=0)
        for n, b in micro_model.named_buffers():
            np.testing.assert_array_equal(b, before[n])

    def test_train_mode_updates_bn_buffers(self):
        model = build_model(micro_config(num_classes=4), seed=1)
        before = {n: b.copy() for n, b in model.named_buffers()}
        model.forward(rand_input((2, 5, 32, 64)), mode="train", seed=0)
        assert any(not np.array_equal(b, before[n])
                   for n, b in model.named_buffers())

    def test_train_needs_a_seed_when_dropout_active(self, micro_model):
        with pytest.raises(ConfigError):
            micro_model.forward(rand_input((1, 5, 32, 64)), mode="train")

    def test_missing_generator_raises_before_any_buffer_moves(self):
        model = build_model(micro_config(num_classes=4), seed=0)
        before = {n: b.copy() for n, b in model.named_buffers()}
        for rng in (None, 5, [np.random.default_rng(0)]):  # none, or not a numpy Generator
            for mode in ("train", "mc"):
                with pytest.raises(ConfigError):
                    model.forward(rand_input((1, 5, 32, 64)), mode=mode, rng=rng)
        for n, b in model.named_buffers():
            assert b.tobytes() == before[n].tobytes()
        model.forward(rand_input((1, 5, 32, 64)), mode="train", rate=0.0)  # rate 0 draws nothing

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.5, float("nan")])
    def test_rate_outside_unit_interval_rejected(self, micro_model, rate):
        with pytest.raises(ConfigError):
            micro_model.forward(rand_input((1, 5, 32, 64)), mode="mc", seed=0, rate=rate)

    def test_rate_rejected_without_dropout_layers(self):
        model = build_model(ModelConfig(num_classes=3, base_channels=8, encoder_channels=(8, 16),
                                        num_pool_stages=1), seed=0)
        assert not any(has for _, has in model.dropout_placement())
        with pytest.raises(ConfigError):
            model.forward(rand_input((1, 5, 16, 32)), mode="mc", seed=0, rate=1.5)


class TestBackward:
    def test_fresh_model_has_no_tape(self):
        model = build_model(micro_config(num_classes=4), seed=0)
        with pytest.raises(StaleStateError):
            model.backward(np.zeros((1, 4, 16, 32), dtype=np.float32))

    def test_uncached_forward_leaves_no_tape(self):
        model = build_model(micro_config(num_classes=4), seed=0)
        x = rand_input((1, 5, 16, 32))
        model.forward(x, mode="train", seed=0, cache=True)
        y = model.forward(x, mode="train", seed=0)
        with pytest.raises(StaleStateError):
            model.backward(np.ones_like(y))

    def test_backward_frees_every_recorded_cache(self):
        model = build_model(micro_config(num_classes=4), seed=0)
        y = model.forward(rand_input((1, 5, 16, 32)), mode="train", seed=0, cache=True)
        layers = [layer for _, layer in model.named_layers()]
        assert all(layer._cache is not None for layer in layers)  # active dropout: every layer is recorded
        model.backward(np.ones_like(y))
        for layer in layers:
            with pytest.raises(StaleStateError):
                layer.backward(np.ones((1, 1, 1, 1), dtype=np.float32))

    def test_second_backward_raises(self):
        model = build_model(micro_config(num_classes=4), seed=0)
        y = model.forward(rand_input((1, 5, 16, 32)), mode="train", seed=0, cache=True)
        model.backward(np.ones_like(y))
        with pytest.raises(StaleStateError):
            model.backward(np.ones_like(y))

    @pytest.mark.parametrize("shape", [(1, 4, 16, 32), (4, 16, 32), (2, 4, 1, 1)], ids=str)
    def test_gradient_of_another_shape_is_refused_before_the_replay(self, shape):
        model = build_model(micro_config(num_classes=4), seed=0)
        y = model.forward(rand_input((2, 5, 16, 32)), mode="train", seed=0, cache=True)
        twin = copy.deepcopy(model)
        model.zero_grads()
        twin.zero_grads()
        with pytest.raises(DimensionError, match=r"\(2, 4, 16, 32\)") as err:
            model.backward(np.ones(shape, dtype=np.float32))
        assert str(shape) in str(err.value)
        assert not any(np.any(p.grad) for _, p in model.named_params())
        g = np.random.default_rng(1).normal(size=y.shape).astype(np.float32)
        np.testing.assert_array_equal(model.backward(g), twin.backward(g))  # the tape and caches were kept
        for (_, a), (_, b) in zip(model.named_params(), twin.named_params()):
            np.testing.assert_array_equal(a.grad, b.grad)

    def test_deep_copy_replays_onto_its_own_layers(self):
        model = build_model(micro_config(num_classes=4), seed=0)
        y = model.forward(rand_input((1, 5, 16, 32)), mode="train", seed=0, cache=True)
        twin = copy.deepcopy(model)
        model.zero_grads()
        twin.zero_grads()
        gx = twin.backward(np.ones_like(y))
        assert not any(np.any(p.grad) for _, p in model.named_params())
        np.testing.assert_array_equal(model.backward(np.ones_like(y)), gx)
        for (_, a), (_, b) in zip(model.named_params(), twin.named_params()):
            np.testing.assert_array_equal(a.grad, b.grad)


class TestInPlaceRoute:
    """Each unit's act and bn write into its conv output, with or without cache; nothing else may change."""

    @pytest.fixture
    def model(self):
        model = build_model(micro_config(num_classes=4), seed=0)
        model.forward(rand_input((1, 5, 16, 32), seed=1), mode="train", seed=0, cache=True)  # fills every cache
        return model

    @staticmethod
    def state(model):
        return [p.value.copy() for _, p in model.named_params()] + [b.copy() for _, b in model.named_buffers()]

    @staticmethod
    def assert_same(before, after):
        assert len(before) == len(after)
        for a, b in zip(before, after):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @staticmethod
    def assert_caches_cleared(model):
        for _, layer in model.named_layers():
            if isinstance(layer, (LeakyReLU, BatchNorm2d)):
                with pytest.raises(StaleStateError):
                    layer.backward(None)

    def test_eval_forward(self, model):
        x = rand_input((2, 5, 32, 64), seed=2)  # h*w a multiple of 1024: pitched conv outputs
        x_before, state = x.copy(), self.state(model)
        y = model.forward(x, mode="eval")
        self.assert_same([x_before] + state, [x] + self.state(model))
        self.assert_caches_cleared(model)
        cached = model.forward(x, mode="eval", cache=True)  # the same route, keeping what backward reads
        self.assert_same([cached], [y])
        model.backward(np.ones_like(cached))  # and the cached forward did fill the caches

    def test_mc_forwards_sharing_a_held_prefix(self, model):
        x = rand_input((1, 5, 32, 32), seed=3)
        x_before, state = x.copy(), self.state(model)
        held = HeldPrefix()
        model.forward(x, mode="mc", rng=np.random.default_rng(0), held=held)
        def kept_arrays():  # micro splits both decoder stages: each skip is held as its 4 kept terms
            return [held.image, held.drop_input, *(t for terms in held.skips for t in terms)]

        kept = kept_arrays()
        kept_before = [a.copy() for a in kept]
        for rate in (None, 0.0, 0.3):
            for s in (1, 2):
                model.forward(x, mode="mc", rng=np.random.default_rng(s), rate=rate, held=held)
        self.assert_same([x_before] + kept_before + state, [x] + kept_arrays() + self.state(model))
        assert len(kept) == 2 + 2 * 4 and all(a is b for a, b in zip(kept, kept_arrays()))
        self.assert_caches_cleared(model)


class TestAccounting:
    def test_single_conv_parameter_count(self):
        # 3x3 conv, 5 -> 32 channels: 5*32*9 weights + 32 biases
        assert count_parameters(Conv2d(5, 32, k=3).params()) == 1472

    def test_empty_parameter_count(self):
        assert count_parameters([]) == 0

    def test_micro_parameter_count(self, micro_model):
        assert micro_model.count_parameters() == 48_572

    def test_default_parameter_count(self):
        model = build_model(ModelConfig(num_classes=20))
        n = model.count_parameters()
        assert n == 6_126_068
        # within 15% of the 6.73M the architecture is sized against
        assert abs(n - 6.73e6) / 6.73e6 < 0.15

    def test_default_flops_at_full_resolution(self):
        model = build_model(ModelConfig(num_classes=20))
        assert model.count_flops(64, 2048) == 132_724_555_776

    def test_flops_scale_with_area(self, micro_model):
        assert micro_model.count_flops(64, 128) == 332_136_448
        assert micro_model.count_flops(64, 256) == 2 * micro_model.count_flops(64, 128)

    def test_flops_need_divisible_extents(self, micro_model):
        with pytest.raises(DimensionError):
            micro_model.count_flops(30, 128)


class TestArchitectureAudit:
    def test_micro_dropout_placement(self, micro_model):
        assert micro_model.dropout_placement() == [
            ("enc0", False), ("enc1", True), ("dec0", True), ("dec1", False)]

    def test_default_dropout_placement(self):
        model = build_model(ModelConfig(num_classes=20))
        placement = dict(model.dropout_placement())
        assert placement["enc0"] is False and placement["dec3"] is False
        inner = [k for k, v in placement.items() if v]
        assert inner == ["enc1", "enc2", "enc3", "dec0", "dec1", "dec2"]

    def test_default_compresses_16x(self):
        model = build_model(ModelConfig(num_classes=20))
        pooled = sum(st.pool is not None for st in model.encoder)
        assert 2**pooled == 16
        assert len(model.decoder) == pooled

    def test_derived_decoder_channels(self):
        assert ModelConfig(num_classes=20).decoder_channels == (128, 128, 64, 32)
        assert micro_config().decoder_channels == (16, 8)

    def test_every_parameter_receives_gradient(self):
        model = build_model(micro_config(num_classes=4, dropout_rate=0.0), seed=2)
        x = rand_input((1, 5, 16, 32), seed=3)
        y = model.forward(x, mode="train", cache=True)
        model.zero_grads()
        model.backward(np.random.default_rng(4).normal(size=y.shape))
        dead = [n for n, p in model.named_params() if not np.any(p.grad)]
        assert dead == []


class TestConfigValidation:
    def test_too_few_classes(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_classes=1)

    def test_base_must_match_first_encoder_width(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_classes=4, base_channels=16, encoder_channels=(8, 16))

    def test_decreasing_encoder_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_classes=4, base_channels=32, encoder_channels=(32, 16),
                        num_pool_stages=1)

    def test_pool_stage_bounds(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_classes=4, base_channels=8, encoder_channels=(8, 16),
                        num_pool_stages=0)
        with pytest.raises(ConfigError):
            ModelConfig(num_classes=4, base_channels=8, encoder_channels=(8, 16),
                        num_pool_stages=2)

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_classes=4, dropout_rate=1.0)

    @pytest.mark.parametrize("kwargs", [
        {"leaky_slope": -0.01}, {"leaky_slope": 2.0}, {"leaky_slope": float("nan")},
        {"bn_eps": 0.0}, {"bn_eps": -1.0}, {"bn_eps": float("nan")}, {"bn_eps": float("inf")},
        {"bn_momentum": -0.1}, {"bn_momentum": 1.5}, {"bn_momentum": float("nan")},
    ], ids=str)
    def test_layer_hyperparameter_ranges(self, kwargs):
        with pytest.raises(ConfigError):
            ModelConfig(num_classes=4, **kwargs)

    def test_layer_hyperparameter_bounds_accepted(self):
        ModelConfig(num_classes=4, leaky_slope=0.0, bn_momentum=0.0)
        ModelConfig(num_classes=4, leaky_slope=1.0, bn_momentum=1.0)

    def test_decoder_length_must_match_pools(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_classes=4, base_channels=8, encoder_channels=(8, 16, 32),
                        num_pool_stages=2, decoder_channels=(16,))

    def test_pixel_shuffle_divisibility(self):
        # all but the last decoder width feed a shuffle and need c % 4 == 0
        with pytest.raises(ConfigError):
            ModelConfig(num_classes=4, base_channels=8, encoder_channels=(8, 16, 32),
                        num_pool_stages=2, decoder_channels=(6, 8))
        with pytest.raises(ConfigError):
            ModelConfig(num_classes=4, base_channels=8, encoder_channels=(8, 16, 30),
                        num_pool_stages=2)

    def test_default_config_is_valid(self):
        cfg = ModelConfig(num_classes=20)
        assert cfg.encoder_channels == (32, 64, 128, 256, 256)
        assert cfg.num_pool_stages == 4

"""Behavioral contracts for the layer vocabulary (shapes, values, state)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rangeseg import layers
from rangeseg.adf import GaussianTensor, conv2d_adf
from rangeseg.errors import ConfigError, DimensionError, StaleStateError
from rangeseg.model import build_model, micro_config
from rangeseg.layers import (
    AvgPool2x2,
    BatchNorm2d,
    ChannelDropout,
    Conv2d,
    LeakyReLU,
    PixelShuffle,
    Softmax,
    space_to_depth,
)


class TestConv2d:
    def test_same_padding_preserves_shape(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 10)).astype(np.float32)
        for dilation in (1, 2, 3):
            y = Conv2d(3, 5, k=3, dilation=dilation).forward(x)
            assert y.shape == (2, 5, 8, 10)

    def test_sum_kernel_on_impulse(self):
        conv = Conv2d(1, 1, k=3)
        conv.kernel.value[...] = 1.0
        x = np.zeros((1, 1, 5, 5), dtype=np.float32)
        x[0, 0, 2, 2] = 1.0
        y = conv.forward(x)
        expected = np.zeros((5, 5))
        expected[1:4, 1:4] = 1.0
        np.testing.assert_array_equal(y[0, 0], expected)

    def test_dilation_widens_receptive_field(self):
        conv = Conv2d(1, 1, k=3, dilation=2)
        conv.kernel.value[...] = 1.0
        x = np.zeros((1, 1, 9, 9), dtype=np.float32)
        x[0, 0, 4, 4] = 1.0
        y = conv.forward(x)
        # taps land on offsets {-2, 0, +2} around the impulse
        hit = np.nonzero(y[0, 0])
        assert set(hit[0]) == {2, 4, 6} and set(hit[1]) == {2, 4, 6}

    def test_bias_added_per_channel(self):
        conv = Conv2d(1, 2, k=1)
        conv.kernel.value[...] = 0.0
        conv.bias.value[:] = [1.5, -2.0]
        y = conv.forward(np.zeros((1, 1, 2, 2), dtype=np.float32))
        assert (y[0, 0] == 1.5).all() and (y[0, 1] == -2.0).all()

    def test_channel_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            Conv2d(3, 4).forward(np.zeros((1, 2, 4, 4), dtype=np.float32))

    def test_kernel_larger_than_padded_input_rejected(self):
        # an even kernel pads d(k-1)//2 = 0 for k=2, so a one-row input leaves no output row
        with pytest.raises(DimensionError):
            Conv2d(1, 1, k=2).forward(np.zeros((1, 1, 1, 4), dtype=np.float32))

    def test_backward_needs_cache(self):
        conv = Conv2d(1, 1)
        conv.forward(np.zeros((1, 1, 4, 4), dtype=np.float32), cache=False)
        with pytest.raises(StaleStateError):
            conv.backward(np.zeros((1, 1, 4, 4), dtype=np.float32))

    CASES = [(3, 1), (3, 2), (1, 1)]
    CASE_IDS = ["3-1-None", "3-2-None", "1-1-None"]  # k-dilation-padding; None: the layer's same padding

    @pytest.mark.parametrize("k, dilation", CASES, ids=CASE_IDS)
    def test_adjoint_identity(self, k, dilation):
        # conv minus bias is linear, so <Ax, g> == <x, A^T g> exactly
        rng = np.random.default_rng(3)
        conv = Conv2d(2, 3, k=k, dilation=dilation, rng=rng).cast(np.float64)
        x = rng.normal(size=(2, 2, 6, 7))
        y = conv.forward(x, cache=True)
        g = rng.normal(size=y.shape)
        y0 = conv.bias.value[None, :, None, None] * np.ones_like(y)
        gx = conv.backward(g)
        assert np.dot((y - y0).ravel(), g.ravel()) == pytest.approx(
            np.dot(x.ravel(), gx.ravel()), rel=1e-12)

    @pytest.mark.parametrize("k, dilation", CASES, ids=CASE_IDS)
    def test_batch_chunking_is_bit_exact(self, monkeypatch, k, dilation):
        # im2col runs a few images at a time; each image, and each image's
        # input gradient, must come out exactly as if it had been run alone;
        # the kernel gradient is summed chunk by chunk, so it only agrees closely
        rng = np.random.default_rng(4)
        conv = Conv2d(3, 4, k=k, dilation=dilation, rng=rng)
        conv.bias.value[:] = rng.normal(size=4)
        x = rng.normal(size=(7, 3, 6, 9)).astype(np.float32)
        gy = rng.normal(size=conv.forward(x).shape).astype(np.float32)

        def run(sl):
            y = conv.forward(x[sl], cache=True)
            conv.zero_grads()
            return y, conv.backward(gy[sl]), conv.kernel.grad.copy()

        whole = run(slice(None))
        monkeypatch.setattr(Conv2d, "COLS_CHUNK_BYTES", 1)
        singles = [run(slice(i, i + 1)) for i in range(len(x))]
        monkeypatch.setattr(Conv2d, "COLS_CHUNK_BYTES", 3 * 27 * 54 * 4)  # 3x3: chunks of 3, 3, 1
        chunked = run(slice(None))
        for i in range(2):  # output, input gradient
            np.testing.assert_array_equal(chunked[i], whole[i])
            np.testing.assert_array_equal(np.concatenate([s[i] for s in singles]), whole[i])
        np.testing.assert_allclose(chunked[2], whole[2], rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(sum(s[2] for s in singles), whole[2], rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("k, dilation", [(1, 1), (3, 1), (3, 2)])
    def test_gemm_pitch_is_bit_exact(self, monkeypatch, k, dilation):
        # an 8x128 map has rows of 1024 elements, so its GEMM operands get the
        # padded pitch; every product must equal the unpadded one bit for bit,
        # at any batch chunking, in float32 and in the float64 ADF rule
        rng = np.random.default_rng(11)
        conv = Conv2d(3, 5, k=k, dilation=dilation, rng=rng)
        conv.bias.value[:] = rng.normal(size=5)
        conv64 = Conv2d(3, 5, k=k, dilation=dilation, rng=rng).cast(np.float64)
        conv64.bias.value[:] = rng.normal(size=5)
        x = rng.normal(size=(5, 3, 8, 128)).astype(np.float32)
        gy = rng.normal(size=(5, 5, 8, 128)).astype(np.float32)
        g = GaussianTensor(rng.normal(size=(2, 3, 8, 128)), rng.uniform(0.1, 1.0, size=(2, 3, 8, 128)))

        def run():
            y = conv.forward(x, cache=True)
            conv.zero_grads()
            gx = conv.backward(gy)
            adf = conv2d_adf(conv64, g)
            return y, [y.copy(), gx.copy(), conv.kernel.grad.copy(), adf.mean.copy(), adf.variance.copy()]

        pad = layers._PITCH_PAD
        for chunk in (1, 2 * 3 * k * k * 1024 * 4, Conv2d.COLS_CHUNK_BYTES):  # 1, 2, all 5 images
            monkeypatch.setattr(Conv2d, "COLS_CHUNK_BYTES", chunk)
            monkeypatch.setattr(layers, "_PITCH_PAD", pad)
            y, padded = run()
            assert y.strides[1] == (1024 + pad) * 4 != 1024 * 4
            monkeypatch.setattr(layers, "_PITCH_PAD", 0)
            y, plain = run()
            assert y.flags.c_contiguous
            for a, b in zip(padded, plain):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_row_bands_are_bit_exact(self, monkeypatch, dilation):
        # one image's columns overflow COLS_CHUNK_BYTES, so each image comes
        # in 3 bands of output rows (17, 17, 16); every product must equal the
        # whole-image one bit for bit: float32 output and both gradients, and
        # the float64 ADF rule
        rng = np.random.default_rng(13)
        conv = Conv2d(8, 16, dilation=dilation, rng=rng)
        conv.bias.value[:] = rng.normal(size=16)
        conv64 = Conv2d(8, 16, dilation=dilation, rng=rng).cast(np.float64)
        x = rng.normal(size=(2, 8, 50, 256)).astype(np.float32)
        gy = rng.normal(size=(2, 16, 50, 256)).astype(np.float32)
        g = GaussianTensor(rng.normal(size=(1, 8, 50, 256)), rng.uniform(0.1, 1.0, size=(1, 8, 50, 256)))
        chunks = [(s, r, cols.shape) for s, r, cols in conv._columns(x, conv.padding, conv.c_out)]
        assert chunks == [(s, r, (1, 72, rows * 256)) for s in (0, 1) for r, rows in ((0, 17), (17, 17), (34, 16))]

        def run():
            y = conv.forward(x, cache=True)
            conv.zero_grads()
            gx = conv.backward(gy)
            adf = conv2d_adf(conv64, g)
            return [y, gx, conv.kernel.grad.copy(), adf.mean, adf.variance]

        banded = run()
        monkeypatch.setattr(Conv2d, "COLS_CHUNK_BYTES", 1 << 40)  # one band per image
        for a, b in zip(banded, run()):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_band_under_mac_floor_yields_whole_images(self):
        # one image's columns (1.4 MB) overflow COLS_CHUNK_BYTES, but a band
        # of 4 output channels would need 304 rows to reach _BAND_MACS
        conv = Conv2d(3, 4)
        x = np.zeros((2, 3, 100, 128), dtype=np.float32)
        assert 27 * 100 * 128 * 4 > Conv2d.COLS_CHUNK_BYTES
        chunks = [(s, r, cols.shape) for s, r, cols in conv._columns(x, conv.padding, conv.c_out)]
        assert chunks == [(0, 0, (1, 27, 100 * 128)), (1, 0, (1, 27, 100 * 128))]

    def test_band_memory_ceiling(self):
        # one image's columns would take 20*9*64*2048*4 = 94 MB; with bands the
        # peak is the input, its padded copy, the output and at most two bands
        conv = Conv2d(20, 8)
        shape = (1, 20, 64, 2048)
        band = max(cols.nbytes for *_, cols in conv._columns(np.zeros(shape, np.float32), conv.padding, 8))
        tracemalloc.start()
        try:
            x = np.ones(shape, dtype=np.float32)
            conv.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pitch_pads = (8 + 180) * layers._PITCH_PAD * 4
        bound = x.nbytes + 20 * 66 * 2050 * 4 + 8 * 64 * 2048 * 4 + 2 * band + pitch_pads
        assert band < 4 << 20
        assert peak <= bound

    def test_model_output_is_contiguous(self):
        # padded conv outputs are views; none may reach the caller of Model.forward
        x = np.random.default_rng(12).normal(size=(2, 5, 8, 128)).astype(np.float32)
        probs = build_model(micro_config(), seed=0).forward(x, mode="eval")
        assert probs.flags.c_contiguous

    def test_macs_count(self):
        assert Conv2d(1, 1, k=1).macs(4, 4) == 16
        assert Conv2d(5, 32, k=3).macs(64, 2048) == 3 * 3 * 5 * 32 * 64 * 2048


class TestBatchNorm2d:
    def test_train_normalizes_batch(self):
        rng = np.random.default_rng(1)
        x = rng.normal(loc=3.0, scale=2.0, size=(4, 3, 8, 8)).astype(np.float32)
        y = BatchNorm2d(3).forward(x, train=True)
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        np.testing.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_update_rule(self):
        bn = BatchNorm2d(2, momentum=0.1)
        x = np.stack([np.full((4, 4), 2.0), np.full((4, 4), -1.0)])[None].astype(np.float32)
        bn.forward(x, train=True)
        # from (0, 1): mean <- 0.9*0 + 0.1*batch_mean, var <- 0.9*1 + 0.1*0
        np.testing.assert_allclose(bn.running_mean, [0.2, -0.1], rtol=1e-6)
        np.testing.assert_allclose(bn.running_var, [0.9, 0.9], rtol=1e-6)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(1, eps=0.0)
        bn.running_mean[:] = 4.0
        bn.running_var[:] = 9.0
        y = bn.forward(np.full((1, 1, 2, 2), 10.0, dtype=np.float32), train=False)
        np.testing.assert_allclose(y, 2.0, rtol=1e-6)  # (10-4)/3

    def test_affine_parameters_applied(self):
        bn = BatchNorm2d(1, eps=0.0)
        bn.gamma.value[:] = 5.0
        bn.beta.value[:] = 1.0
        y = bn.forward(np.full((1, 1, 2, 2), 3.0, dtype=np.float32), train=False)
        np.testing.assert_allclose(y, 16.0, rtol=1e-6)

    def test_eval_does_not_touch_running_stats(self):
        bn = BatchNorm2d(2)
        before = (bn.running_mean.copy(), bn.running_var.copy())
        bn.forward(np.random.default_rng(0).normal(size=(2, 2, 4, 4)).astype(np.float32))
        np.testing.assert_array_equal(bn.running_mean, before[0])
        np.testing.assert_array_equal(bn.running_var, before[1])

    def test_channel_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            BatchNorm2d(3).forward(np.zeros((1, 2, 2, 2), dtype=np.float32))

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("param_dtype", [np.float32, np.float64])
    def test_cache_flag_does_not_change_output(self, train, param_dtype):
        rng = np.random.default_rng(5)
        x = rng.normal(loc=1.0, size=(3, 4, 5, 6)).astype(np.float32)
        outs = []
        for cache in (False, True):
            bn = BatchNorm2d(4).cast(param_dtype)
            bn.gamma.value[:] = [0.5, 1.5, -2.0, 1.0]
            bn.beta.value[:] = [0.1, -0.3, 0.0, 2.0]
            bn.running_mean[:] = [0.2, -1.0, 0.5, 0.0]
            bn.running_var[:] = [0.7, 1.3, 2.0, 0.1]
            outs.append(bn.forward(x, train=train, cache=cache))
        assert outs[0].dtype == outs[1].dtype
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_buffers_listed(self):
        names = [name for name, _ in BatchNorm2d(2).buffers()]
        assert names == ["running_mean", "running_var"]


class TestLeakyReLU:
    def test_values(self):
        y = LeakyReLU(0.01).forward(np.array([[-2.0, 0.0, 3.0]]))
        np.testing.assert_allclose(y, [[-0.02, 0.0, 3.0]])

    def test_slope_validated(self):
        with pytest.raises(ConfigError):
            LeakyReLU(-0.5)
        with pytest.raises(ConfigError):
            LeakyReLU(1.5)

    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.5, 1.0])
    def test_cache_flag_does_not_change_output(self, slope):
        special = [-np.inf, -3.0, -1e-30, -0.0, 0.0, 1e-30, 2.5, np.inf]
        x = np.concatenate([special, np.random.default_rng(6).normal(size=40)]).astype(np.float32)
        act = LeakyReLU(slope)
        with np.errstate(invalid="ignore"):  # 0 * inf
            plain, cached = act.forward(x), act.forward(x, cache=True)
        assert plain.dtype == cached.dtype
        np.testing.assert_array_equal(plain, cached)
        np.testing.assert_array_equal(np.signbit(plain), np.signbit(cached))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.0, 1e-30, 0.01, 0.5, 1.0])
    def test_cached_forward_and_backward_equal_the_select(self, dtype, slope):
        # the row-block select (a maximum, or x * (x >= 0) at slope 0) and the [slope, 1] factor
        # against np.where, bit for bit
        info = np.finfo(dtype)
        sub = info.smallest_subnormal
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, sub, -sub, 3 * sub, -3 * sub,
                   info.tiny, -info.tiny, info.max, -info.max, 1.0, -1.0]
        rng = np.random.default_rng(8)
        buf = rng.normal(scale=3.0, size=(5, 8, 32 * 64 + 16)).astype(dtype)  # pitched, 2+ row blocks
        buf[:, :, : len(special)] = special
        x = buf[..., : 32 * 64].reshape(5, 8, 32, 64)
        gy = rng.normal(size=x.shape).astype(dtype)
        gy.reshape(-1, 32 * 64)[::3, : len(special)] = special[::-1]
        with np.errstate(invalid="ignore", under="ignore"):  # 0 * inf; slope * subnormal
            want_y = np.where(x >= 0, x, slope * x)
            want_g = np.where(x >= 0, gy, slope * gy)
        for inplace in (False, True):
            x_in = x.copy()
            act = LeakyReLU(slope)
            with np.errstate(invalid="ignore", under="ignore"):
                y = act.forward(x_in, cache=True, inplace=inplace)
                g = act.backward(gy)
            # an owned x is always written over, at slope 0 too
            written = inplace
            assert np.shares_memory(y, x_in) == written
            assert x_in.tobytes() == (want_y if written else x).tobytes()
            assert y.dtype == want_y.dtype and y.shape == want_y.shape and y.tobytes() == want_y.tobytes()
            assert g.dtype == want_g.dtype and g.shape == want_g.shape and g.tobytes() == want_g.tobytes()

    def test_backward_routes_slope(self):
        act = LeakyReLU(0.1)
        act.forward(np.array([[-1.0, 2.0]]), cache=True)
        np.testing.assert_allclose(act.backward(np.array([[1.0, 1.0]])), [[0.1, 1.0]])


class TestInPlaceForward:
    """inplace=True writes over x, block by block, with or without cache.

    Every output, cached xhat and backward equals the whole-array formula bit
    for bit: np.where for LeakyReLU; (x - mean) * inv_std, then
    gamma * xhat + beta, for BatchNorm2d, also with float64 parameters on a
    float32 input ("wide"), where each op's result is stored in x's dtype and
    the backward reads gamma in gy's dtype.
    """

    @staticmethod
    def conv_output(seed):
        # (10, 8, 32, 32) channel rows 1040 apart, like a pitched conv output: more than one row block
        rng = np.random.default_rng(seed)
        buf = rng.normal(scale=4.0, size=(10, 8, 32 * 32 + 16)).astype(np.float32)
        buf[0, 0, :4] = [0.0, -0.0, np.inf, -np.inf]
        return buf[..., : 32 * 32].reshape(10, 8, 32, 32)

    @staticmethod
    def batch_norm(dtype=np.float32):
        bn = BatchNorm2d(8).cast(dtype)
        rng = np.random.default_rng(7)
        bn.gamma.value[:] = rng.normal(size=8)
        bn.beta.value[:] = rng.normal(size=8)
        bn.running_mean[:] = rng.normal(size=8)
        bn.running_var[:] = rng.uniform(0.5, 2.0, size=8)
        return bn

    @staticmethod
    def whole_array(name, layer, x, gy):
        """(output, xhat or None, input gradient) by the whole-array formulas."""
        if name == "leaky":
            return np.where(x >= 0, x, layer.slope * x), None, np.where(x >= 0, gy, layer.slope * gy)
        train = name.startswith("bn_train")
        if train:
            mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        else:
            mean, var = layer.running_mean.astype(x.dtype), layer.running_var.astype(x.dtype)
        inv_std = (1.0 / np.sqrt(var + layer.eps))[None, :, None, None]
        gamma, beta = layer.gamma.value[None, :, None, None], layer.beta.value[None, :, None, None]
        xhat = (x - mean[None, :, None, None]) * inv_std
        y = ((gamma * xhat).astype(x.dtype) + beta).astype(x.dtype)
        gxhat = gy * gamma.astype(gy.dtype)
        if not train:
            return y, xhat, gxhat * inv_std
        m = x.size // x.shape[1]
        sum_g = gxhat.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (gxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
        return y, xhat, (inv_std / m) * (m * gxhat - sum_g - xhat * sum_gx)

    @pytest.mark.parametrize(
        "name, cache",
        [pytest.param(n, c, id=n + ("-cache" if c else ""))
         for c in (False, True) for n in ("leaky", "bn_eval", "bn_train", "bn_eval_wide", "bn_train_wide")],
    )
    def test_inplace_equals_fresh_output_and_only_inplace_writes(self, name, cache):
        def layer():
            if name == "leaky":
                return LeakyReLU(0.01)
            return self.batch_norm(np.float64 if name.endswith("wide") else np.float32)

        def call(lay, x, inplace):
            if name == "leaky":
                return lay.forward(x, cache=cache, inplace=inplace)
            return lay.forward(x, train=name.startswith("bn_train"), cache=cache, inplace=inplace)

        x, x_own = self.conv_output(1), self.conv_output(1)
        assert x.size * x.itemsize > layers._BLOCK_BYTES
        fresh_layer, owned_layer = layer(), layer()
        with np.errstate(invalid="ignore"):  # inf - inf in the batch statistics
            fresh = call(fresh_layer, x, False)
            assert x.tobytes() == self.conv_output(1).tobytes()
            owned = call(owned_layer, x_own, True)
        assert fresh.dtype == owned.dtype and fresh.tobytes() == owned.tobytes()
        gy = np.random.default_rng(2).normal(size=x.shape).astype(fresh.dtype)
        with np.errstate(invalid="ignore"):
            want_y, want_xhat, want_gx = self.whole_array(name, layer(), x, gy)
        assert fresh.dtype == want_y.dtype and fresh.tobytes() == want_y.tobytes()
        # x_own holds the result, or BN's xhat when xhat is cached
        result_in_x = name == "leaky" or not cache
        assert np.shares_memory(owned, x_own) == result_in_x
        assert x_own.tobytes() == (want_y if result_in_x else want_xhat).tobytes()
        if not cache:
            assert fresh_layer._cache is None and owned_layer._cache is None
            return
        for lay in (fresh_layer, owned_layer):
            if want_xhat is not None:
                xhat = lay._take_cache()[0]
                assert xhat.dtype == want_xhat.dtype and xhat.tobytes() == want_xhat.tobytes()
            with np.errstate(invalid="ignore"):
                gx = lay.backward(gy)
                want_ggamma = None if want_xhat is None else (gy * want_xhat).sum(axis=(0, 2, 3))
            assert gx.dtype == want_gx.dtype and gx.tobytes() == want_gx.tobytes()
            if want_ggamma is not None:  # summed in gy's dtype, accumulated into gamma's
                assert lay.gamma.grad.tobytes() == want_ggamma.astype(lay.gamma.grad.dtype).tobytes()


@st.composite
def pool_inputs(draw):
    """(n, c, h, w) float32 or float64 arrays of mixed magnitude, with +-0 and +-inf."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = tuple(draw(st.integers(1, hi)) for hi in (3, 3, 7, 7))
    scaled = st.builds(lambda m, e: float(dtype(m * 2.0**e)), st.floats(-1, 1), st.integers(-40, 40))
    values = st.one_of(
        st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
        st.floats(allow_nan=False, width=32 if dtype == np.float32 else 64),
        scaled,  # sums of these round differently in different orders
    )
    return draw(arrays(dtype, shape, elements=values))


class TestAvgPool2x2:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(pool_inputs())
    def test_bit_equal_to_mean_of_windows(self, x):
        n, c, h, w = x.shape
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, and sums past the top
            got = AvgPool2x2().forward(x)
            padded = np.pad(x, ((0, 0), (0, 0), (0, h % 2), (0, w % 2)), mode="edge")
            want = padded.reshape(n, c, (h + 1) // 2, 2, (w + 1) // 2, 2).mean(axis=(3, 5))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_even_input_exact_means(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        y = AvgPool2x2().forward(x)
        np.testing.assert_allclose(y[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_odd_input_replicates_edge(self):
        x = np.array([[1.0, 2.0, 3.0]]).reshape(1, 1, 1, 3).astype(np.float32)
        y = AvgPool2x2().forward(x)
        # pad to 2x4 by edge copy: columns (1,2),(3,3); rows duplicated
        np.testing.assert_allclose(y[0, 0], [[1.5, 3.0]])

    def test_halves_shape_rounding_up(self):
        y = AvgPool2x2().forward(np.zeros((1, 2, 5, 7), dtype=np.float32))
        assert y.shape == (1, 2, 3, 4)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(5)
        pool = AvgPool2x2()
        x = rng.normal(size=(2, 3, 5, 7))
        y = pool.forward(x, cache=True)
        g = rng.normal(size=y.shape)
        gx = pool.backward(g)
        assert np.dot(y.ravel(), g.ravel()) == pytest.approx(
            np.dot(x.ravel(), gx.ravel()), rel=1e-12)


class TestPixelShuffle:
    def test_channel_to_space_order(self):
        x = np.arange(4, dtype=np.float32).reshape(1, 4, 1, 1)
        y = PixelShuffle(2).forward(x)
        np.testing.assert_array_equal(y[0, 0], [[0.0, 1.0], [2.0, 3.0]])

    def test_round_trip_with_space_to_depth(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 8, 3, 5)).astype(np.float32)
        y = PixelShuffle(2).forward(x)
        assert y.shape == (2, 2, 6, 10)
        np.testing.assert_array_equal(space_to_depth(y, 2), x)

    def test_indivisible_channels_rejected(self):
        with pytest.raises(DimensionError):
            PixelShuffle(2).forward(np.zeros((1, 6, 2, 2), dtype=np.float32))

    def test_space_to_depth_indivisible_rejected(self):
        with pytest.raises(DimensionError):
            space_to_depth(np.zeros((1, 1, 3, 4), dtype=np.float32), 2)

    def test_backward_is_inverse_permutation(self):
        rng = np.random.default_rng(4)
        ps = PixelShuffle(2)
        x = rng.normal(size=(1, 4, 2, 2))
        y = ps.forward(x, cache=True)
        np.testing.assert_array_equal(ps.backward(y), x)


class TestChannelDropout:
    def test_inactive_is_identity(self):
        x = np.random.default_rng(0).normal(size=(2, 4, 3, 3)).astype(np.float32)
        np.testing.assert_array_equal(ChannelDropout(0.5).forward(x, active=False), x)

    def test_zero_rate_is_identity(self):
        x = np.ones((1, 4, 2, 2), dtype=np.float32)
        out = ChannelDropout(0.0).forward(x, active=True, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)

    def test_whole_channels_zeroed_and_scaled(self):
        x = np.ones((3, 16, 4, 5), dtype=np.float32)
        y = ChannelDropout(0.5).forward(x, active=True, rng=np.random.default_rng(7))
        flat = y.reshape(3, 16, -1)
        per_channel = flat[:, :, 0]
        assert np.array_equal(flat, np.repeat(per_channel[:, :, None], 20, axis=2))
        assert set(np.unique(per_channel)) <= {0.0, 2.0}
        keep = np.random.default_rng(7).random((3, 16)) >= 0.5  # the same draws
        assert np.array_equal(per_channel > 0, keep)

    def test_explicit_mask(self):
        # a channel survives where its uniform draw is >= p
        x = np.ones((1, 3, 1, 1), dtype=np.float32)
        keep = np.random.default_rng(0).random((1, 3)) >= 0.25
        y = ChannelDropout(0.25).forward(x, active=True, rng=np.random.default_rng(0))
        np.testing.assert_allclose(y[0, :, 0, 0], np.where(keep[0], 4 / 3, 0.0), rtol=1e-6)

    def test_rate_override(self):
        x = np.ones((1, 8, 1, 1), dtype=np.float32)
        keep = np.random.default_rng(6).random((1, 8)) >= 0.5
        y = ChannelDropout(0.2).forward(x, active=True, rng=np.random.default_rng(6), rate=0.5)
        np.testing.assert_allclose(y[0, :, 0, 0], np.where(keep[0], 2.0, 0.0))

    def test_active_without_rng_rejected(self):
        with pytest.raises(ConfigError):
            ChannelDropout(0.5).forward(np.ones((1, 2, 1, 1)), active=True)

    def test_rate_validated(self):
        with pytest.raises(ConfigError):
            ChannelDropout(1.0)
        with pytest.raises(ConfigError):
            ChannelDropout(-0.1)

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.5, float("nan")])
    def test_rate_override_validated(self, rate):
        with pytest.raises(ConfigError):
            ChannelDropout(0.2).forward(np.ones((1, 2, 1, 1)), active=True, rng=np.random.default_rng(0), rate=rate)

    def test_mean_preserved_in_expectation(self):
        rng = np.random.default_rng(11)
        x = np.ones((200, 50, 1, 1), dtype=np.float32)
        y = ChannelDropout(0.3).forward(x, active=True, rng=rng)
        assert y.mean() == pytest.approx(1.0, abs=0.02)

    def test_backward_reuses_mask(self):
        drop = ChannelDropout(0.5)
        x = np.ones((1, 4, 2, 2), dtype=np.float32)
        y = drop.forward(x, active=True, rng=np.random.default_rng(3), cache=True)
        g = drop.backward(np.ones_like(y))
        np.testing.assert_array_equal(g, y)  # same scaling as forward on all-ones


class TestSoftmax:
    def test_sums_to_one(self):
        x = np.random.default_rng(0).normal(size=(2, 5, 3, 4)).astype(np.float32)
        y = Softmax().forward(x)
        np.testing.assert_allclose(y.sum(axis=1), 1.0, rtol=1e-6)
        assert (y >= 0).all()

    def test_two_logit_example(self):
        x = np.array([0.0, np.log(3.0)]).reshape(1, 2, 1, 1)
        y = Softmax().forward(x)
        np.testing.assert_allclose(y[0, :, 0, 0], [0.25, 0.75], rtol=1e-12)

    def test_shift_invariance(self):
        x = np.random.default_rng(1).normal(size=(1, 4, 2, 2))
        np.testing.assert_allclose(
            Softmax().forward(x), Softmax().forward(x + 100.0), rtol=1e-10)

    def test_large_logits_stable(self):
        y = Softmax().forward(np.array([1000.0, 1000.0]).reshape(1, 2, 1, 1))
        np.testing.assert_allclose(y[0, :, 0, 0], [0.5, 0.5])

    def test_backward_needs_cache(self):
        with pytest.raises(StaleStateError):
            Softmax().backward(np.zeros((1, 2, 1, 1)))


class TestCast:
    def test_cast_changes_param_dtypes(self):
        conv = Conv2d(2, 3).cast(np.float64)
        assert conv.kernel.value.dtype == np.float64
        assert conv.bias.grad.dtype == np.float64

    def test_cast_changes_bn_buffers(self):
        bn = BatchNorm2d(2).cast(np.float64)
        assert bn.running_mean.dtype == np.float64
